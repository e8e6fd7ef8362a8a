"""Data pipeline tests: schema, normalization, splits, synthesis, CSV I/O."""

import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advssl.data import (
    DataError,
    Dataset,
    DatasetSchema,
    SynthConfig,
    apply_normalizer,
    default_schema,
    fit_normalizer,
    generate_synthetic,
    largest_remainder,
    load_csv,
    atomic_write,
    save_csv,
    standardize,
    stratified_split,
)
from advssl.nnet import named_rng


class TestSchema:
    def test_default_schema_shape(self):
        schema = default_schema()
        assert schema.num_features == 39
        assert schema.num_classes == 9
        assert schema.label_names[0] == "AAA"
        assert schema.label_names[-1] == "C"

    def test_duplicate_feature_names_rejected(self):
        with pytest.raises(DataError):
            DatasetSchema(("a", "a"), ("L0", "L1"))

    def test_label_index_accepts_names_and_integers(self):
        schema = default_schema()
        assert schema.label_index("AA+") == 1
        assert schema.label_index(" AA+ ") == 1
        for token in ("BBB", "3", "97"):  # an integer is a name, never an index
            with pytest.raises(DataError, match=f"unknown label '{token}'"):
                schema.label_index(token)

    def test_schema_hash_stable_and_distinct(self):
        a, b = default_schema(), default_schema()
        assert a.schema_hash() == b.schema_hash()
        other = DatasetSchema(("x", "y"), ("L0", "L1"))
        assert other.schema_hash() != a.schema_hash()


class TestNormalizer:
    def test_hand_population_std(self):
        schema = DatasetSchema(("a",), ("L0", "L1"))
        ds = Dataset(schema, np.array([[1.0], [2.0], [3.0]]), np.array([0, 0, 1]))
        norm = fit_normalizer(ds)
        assert abs(norm.mean[0] - 2.0) < 1e-15
        assert abs(norm.std[0] - np.sqrt(2.0 / 3.0)) < 1e-15
        out = apply_normalizer(norm, ds)
        np.testing.assert_allclose(out.rows[:, 0], [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_constant_feature_maps_to_zero(self):
        schema = DatasetSchema(("a", "b"), ("L0", "L1"))
        ds = Dataset(schema, np.array([[7.0, 1.0], [7.0, 2.0]]), np.array([0, 1]))
        norm = fit_normalizer(ds)
        assert norm.constant[0] and not norm.constant[1]
        out = apply_normalizer(norm, ds)
        np.testing.assert_array_equal(out.rows[:, 0], [0.0, 0.0])

    def test_fit_apply_centers_train_split(self):
        rng = np.random.default_rng(0)
        schema = DatasetSchema(tuple(f"f{i}" for i in range(4)), ("L0", "L1"))
        ds = Dataset(schema, rng.normal(loc=3.0, scale=2.0, size=(50, 4)), np.zeros(50, dtype=int))
        out = apply_normalizer(fit_normalizer(ds), ds)
        assert np.all(np.abs(out.rows.mean(axis=0)) < 1e-10)

    def test_not_idempotent(self):
        rng = np.random.default_rng(1)
        schema = DatasetSchema(("a",), ("L0", "L1"))
        ds = Dataset(schema, rng.normal(loc=5.0, size=(20, 1)), np.zeros(20, dtype=int))
        norm = fit_normalizer(ds)
        once = apply_normalizer(norm, ds)
        twice = apply_normalizer(norm, once)
        assert not np.allclose(once.rows, twice.rows)

    def test_empty_fit_rejected(self):
        schema = DatasetSchema(("a",), ("L0", "L1"))
        with pytest.raises(DataError):
            fit_normalizer(Dataset(schema, np.empty((0, 1))))


def z_scores(norm, rows):
    """The standardization rule, spelled out: (x - mean) / std, constant -> 0."""
    out = (rows - norm.mean) / np.where(norm.constant, 1.0, norm.std)
    out[:, norm.constant] = 0.0
    return out


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes()


def traced_peak(fn):
    """(fn(), the most bytes tracemalloc saw allocated during the call)."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def normalizer_case():
    """Rows with a constant feature and the normalizer fitted on them."""
    rng = np.random.default_rng(21)
    schema = DatasetSchema(("a", "b", "c"), ("L0", "L1"))
    rows = rng.normal(loc=2.0, scale=3.0, size=(40, 3))
    rows[:, 1] = 4.0
    norm = fit_normalizer(Dataset(schema, rows, np.zeros(40, dtype=int)))
    assert norm.constant.tolist() == [False, True, False]
    return schema, rows, norm


class TestStandardize:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_in_place_and_bit_identical_to_apply_normalizer(self, order):
        schema, rows, norm = normalizer_case()
        given = rows.copy(order=order)
        out = standardize(norm, given)
        assert out is given
        assert_same_bits(out, z_scores(norm, rows))
        assert_same_bits(out, apply_normalizer(norm, Dataset(schema, rows.copy(order=order))).rows)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_apply_normalizer_leaves_its_input_and_keeps_its_layout(self, order):
        schema, rows, norm = normalizer_case()
        ds = Dataset(schema, rows.copy(order=order), np.zeros(40, dtype=int))
        out = apply_normalizer(norm, ds)
        assert_same_bits(ds.rows, rows)
        assert out.rows.flags[f"{order}_CONTIGUOUS"]
        assert not np.shares_memory(out.rows, ds.rows)

    def test_standardizing_the_pool_allocates_no_copy(self):
        labeled, unlabeled, _ = generate_synthetic(SynthConfig())
        norm = fit_normalizer(labeled)
        _, peak = traced_peak(lambda: standardize(norm, unlabeled.rows))
        assert peak < 2**20  # the pool is 5.6 MB


class TestStratifiedSplit:
    def test_largest_remainder_10_rows(self):
        counts = largest_remainder(10, np.array([0.8, 0.1, 0.1]))
        np.testing.assert_array_equal(counts, [8, 1, 1])

    def test_all_to_train(self):
        ds = _toy_labeled(30)
        tr, va, te = stratified_split(ds, (1.0, 0.0, 0.0), seed=0)
        assert len(tr) == 30 and len(va) == 0 and len(te) == 0

    def test_deterministic_under_seed(self):
        ds = _toy_labeled(60)
        a = stratified_split(ds, (0.7, 0.15, 0.15), seed=5)
        b = stratified_split(ds, (0.7, 0.15, 0.15), seed=5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.rows, y.rows)
            np.testing.assert_array_equal(x.labels, y.labels)

    def test_per_class_counts_preserved(self):
        ds = _toy_labeled(97)
        tr, va, te = stratified_split(ds, (0.6, 0.2, 0.2), seed=1)
        for cls in range(ds.schema.num_classes):
            total = (ds.labels == cls).sum()
            split_sum = sum((part.labels == cls).sum() for part in (tr, va, te))
            assert split_sum == total
        assert len(tr) + len(va) + len(te) == len(ds)

    def test_tiny_class_goes_to_train(self):
        schema = DatasetSchema(("a",), ("L0", "L1"))
        rows = np.arange(11, dtype=float).reshape(-1, 1)
        labels = np.array([0] * 10 + [1])
        ds = Dataset(schema, rows, labels)
        tr, va, te = stratified_split(ds, (0.6, 0.2, 0.2), seed=2)
        assert (tr.labels == 1).sum() == 1

    def test_unlabeled_input_rejected(self):
        schema = DatasetSchema(("a",), ("L0", "L1"))
        with pytest.raises(DataError):
            stratified_split(Dataset(schema, np.zeros((4, 1))), (0.5, 0.25, 0.25), 0)

    def test_bad_fractions_rejected(self):
        ds = _toy_labeled(10)
        with pytest.raises(DataError):
            stratified_split(ds, (0.5, 0.2, 0.2), seed=0)
        with pytest.raises(DataError, match="^split fractions must be three values >= 0$"):
            stratified_split(ds, (0.5, 0.5), seed=0)


class TestGenerateSynthetic:
    def test_default_desk_scale(self):
        cfg = SynthConfig()
        assert cfg.num_features == 39 and cfg.num_classes == 9

    def test_labeled_fraction_one_empties_unlabeled(self):
        cfg = SynthConfig(
            num_features=3, num_classes=2, samples_per_class=10, labeled_fraction=1.0
        )
        labeled, unlabeled, truth = generate_synthetic(cfg)
        assert len(labeled) == 20
        assert len(unlabeled) == 0 and truth.size == 0

    def test_bit_identical_under_same_config(self):
        cfg = SynthConfig(num_features=4, num_classes=3, samples_per_class=15, seed=9)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        np.testing.assert_array_equal(a[0].rows, b[0].rows)
        np.testing.assert_array_equal(a[0].labels, b[0].labels)
        np.testing.assert_array_equal(a[1].rows, b[1].rows)
        np.testing.assert_array_equal(a[2], b[2])

    def test_hidden_truth_matches_generating_class_without_noise(self):
        cfg = SynthConfig(
            num_features=3,
            num_classes=4,
            samples_per_class=25,
            labeled_fraction=0.2,
            separation_scale=8.0,
            noise_std=0.5,
            seed=3,
        )
        labeled, unlabeled, truth = generate_synthetic(cfg)
        # strong separation: nearest class mean recovers the generating class
        means = np.stack(
            [labeled.rows[labeled.labels == k].mean(axis=0) for k in range(4)]
        )
        dists = ((unlabeled.rows[:, None, :] - means[None]) ** 2).sum(axis=2)
        assert (dists.argmin(axis=1) == truth).mean() > 0.99

    def test_hidden_truth_is_generating_class_without_label_noise(self):
        cfg = SynthConfig(
            num_features=3,
            num_classes=3,
            samples_per_class=20,
            labeled_fraction=0.0,
            seed=11,
        )
        labeled, unlabeled, truth = generate_synthetic(cfg)
        assert len(labeled) == 0
        # rows are emitted class block by class block
        np.testing.assert_array_equal(truth, np.repeat(np.arange(3), 20))

    @pytest.mark.parametrize(
        "cfg",
        [
            SynthConfig(seed=5),
            SynthConfig(
                num_features=5, num_classes=3, samples_per_class=50,
                noise_std=0.7, seed=6,
            ),
            SynthConfig(num_features=4, num_classes=3, samples_per_class=20, labeled_fraction=1.0),
            SynthConfig(num_features=4, num_classes=3, samples_per_class=20, labeled_fraction=0.0),
        ],
        ids=["default", "noisy", "all-labeled", "none-labeled"],
    )
    def test_equals_the_one_draw_definition(self, cfg):
        labeled, unlabeled, truth = generate_synthetic(cfg)
        ref_rows, ref_labels, ref_pool, ref_truth = one_draw_reference(cfg)
        assert_same_bits(labeled.rows, ref_rows)
        assert_same_bits(labeled.labels, ref_labels)
        assert_same_bits(unlabeled.rows, ref_pool)
        assert_same_bits(truth, ref_truth)
        assert labeled.rows.flags.c_contiguous
        assert unlabeled.rows.flags.f_contiguous

    def test_peak_memory_stays_near_the_output(self):
        (labeled, unlabeled, truth), peak = traced_peak(lambda: generate_synthetic(SynthConfig()))
        output = labeled.rows.nbytes + labeled.labels.nbytes + unlabeled.rows.nbytes + truth.nbytes
        assert peak <= 1.6 * output  # one draw of every row at once costs 2.2x

    def test_zero_separation_is_chance_level(self):
        cfg = SynthConfig(
            num_features=5,
            num_classes=4,
            samples_per_class=500,
            labeled_fraction=1.0,
            separation_scale=0.0,
            seed=5,
        )
        labeled, _, _ = generate_synthetic(cfg)
        # nearest-mean classifier on fresh noise cannot beat chance by much
        means = np.stack(
            [labeled.rows[labeled.labels == k].mean(axis=0) for k in range(4)]
        )
        dists = ((labeled.rows[:, None, :] - means[None]) ** 2).sum(axis=2)
        acc = (dists.argmin(axis=1) == labeled.labels).mean()
        assert abs(acc - 0.25) < 0.05


def one_draw_reference(cfg):
    """generate_synthetic as defined: all rows from one (total, F) noise draw,
    then split by the labeled mask. (labeled rows, labels, pool, truth)."""
    m, spc, f = cfg.num_classes, cfg.samples_per_class, cfg.num_features
    total = m * spc
    directions = named_rng(cfg.seed, "synth_class_means").normal(size=(m, f))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    means = cfg.separation_scale * directions / norms
    noise = named_rng(cfg.seed, "synth_noise").normal(size=(total, f))
    rows = np.repeat(means, spc, axis=0) + cfg.noise_std * noise
    labels = np.repeat(np.arange(m, dtype=np.int64), spc)
    pick_rng = named_rng(cfg.seed, "synth_labeled_pick")
    per_class = largest_remainder(int(round(cfg.labeled_fraction * total)), np.full(m, 1.0 / m))
    mask = np.zeros(total, dtype=bool)
    for cls in range(m):
        mask[pick_rng.permutation(np.arange(cls * spc, (cls + 1) * spc))[: per_class[cls]]] = True
    return rows[mask], labels[mask], rows[~mask], labels[~mask]


class TestCsv:
    def test_round_trip_labeled(self, tmp_path):
        ds = _toy_labeled(12)
        path = tmp_path / "toy.csv"
        save_csv(ds, path)
        back = load_csv(path, ds.schema)
        np.testing.assert_array_equal(back.rows, ds.rows)  # repr round-trips exactly
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_no_label_column_gives_unlabeled(self, tmp_path):
        ds = _toy_labeled(5)
        path = tmp_path / "toy.csv"
        save_csv(Dataset(ds.schema, ds.rows), path)
        back = load_csv(path, ds.schema)
        assert back.labels is None

    def test_reject_policy_names_bad_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,rating\n1.0,2.0,L0\n1.5,n/a,L1\n2.0,3.0,L0\n")
        schema = DatasetSchema(("a", "b"), ("L0", "L1"))
        with pytest.raises(DataError, match="row\\(s\\): 2"):
            load_csv(path, schema)

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text("a,b,mystery\n1,2,3\n")
        with pytest.raises(DataError, match="mystery"):
            load_csv(path, DatasetSchema(("a", "b"), ("L0", "L1")))

    def test_missing_feature_column_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("a\n1\n")
        with pytest.raises(DataError, match="missing feature"):
            load_csv(path, DatasetSchema(("a", "b"), ("L0", "L1")))

    def test_wrong_arity_rejected(self, tmp_path):
        path = tmp_path / "arity.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path, DatasetSchema(("a", "b"), ("L0", "L1")))

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "label.csv"
        path.write_text("a,b,rating\n1,2,L9\n")
        with pytest.raises(DataError, match="L9"):
            load_csv(path, DatasetSchema(("a", "b"), ("L0", "L1")))

    @pytest.mark.parametrize(
        "ratings, reason",
        [
            (("L1", ""), "row 2: unknown label ''"),
            ((" ", "L0"), "row 1: unknown label ''"),
            (("L0", "L1", "L7"), "row 3: unknown label 'L7'"),
        ],
        ids=["blank", "spaces", "unknown"],
    )
    def test_blank_or_unknown_rating_names_its_row(self, tmp_path, ratings, reason):
        path = tmp_path / "ratings.csv"
        path.write_text("a,b,rating\n" + "".join(f"1,2,{r}\n" for r in ratings))
        with pytest.raises(DataError, match=f"^ratings.csv: {re.escape(reason)}$"):
            load_csv(path, DatasetSchema(("a", "b"), ("L0", "L1")))

    def test_numeric_label_names_are_names_not_indices(self, tmp_path):
        path = tmp_path / "numeric.csv"
        path.write_text("a,b,rating\n1,2,3\n3,4,0\n5,6,1\n")
        schema = DatasetSchema(("a", "b"), ("1", "2", "3"))
        with pytest.raises(DataError, match="^numeric.csv: row 2: unknown label '0'$"):
            load_csv(path, schema)
        path.write_text("a,b,rating\n1,2,3\n5,6,1\n")
        np.testing.assert_array_equal(load_csv(path, schema).labels, [2, 0])

    def test_all_blank_rating_column_reads_as_absent(self, tmp_path):
        path = tmp_path / "unrated.csv"
        path.write_text("a,b,rating\n1,2,\n3,4, \n")
        ds = load_csv(path, DatasetSchema(("a", "b"), ("L0", "L1")))
        assert ds.labels is None
        np.testing.assert_array_equal(ds.rows, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize(
        "text, column",
        [
            ("a,b,a,rating\n1,2,3,L0\n", "a"),
            ("a,b,rating,rating\n1,2,L0,L1\n", "rating"),
            ("a, b,b \n1,2,3\n", "b"),  # names are compared stripped
        ],
        ids=["feature", "rating", "padded"],
    )
    def test_column_named_twice_rejected(self, tmp_path, text, column):
        path = tmp_path / "twice.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=f"^twice.csv: columns named more than once: {column}$"):
            load_csv(path, DatasetSchema(("a", "b"), ("L0", "L1")))

    def test_columns_reordered_by_name(self, tmp_path):
        path = tmp_path / "reorder.csv"
        path.write_text("b,a,rating\n2.0,1.0,L1\n")
        ds = load_csv(path, DatasetSchema(("a", "b"), ("L0", "L1")))
        np.testing.assert_array_equal(ds.rows, [[1.0, 2.0]])
        assert ds.labels[0] == 1

    def test_load_peaks_near_its_array_and_is_feature_major(self, tmp_path):
        _, pool, _ = generate_synthetic(
            SynthConfig(num_features=39, num_classes=9, samples_per_class=120, seed=4)
        )
        path = tmp_path / "pool.csv"
        save_csv(pool, path)
        back, peak = traced_peak(lambda: load_csv(path, pool.schema))
        assert_same_bits(back.rows, pool.rows)
        assert back.rows.flags.f_contiguous
        assert peak <= 1.6 * back.rows.nbytes  # a list of rows parsed first costs 5.4x

    def test_quoted_cell_with_a_line_break(self, tmp_path):
        path = tmp_path / "multiline.csv"
        path.write_text('a,b,rating\n"1\n",2,L1\n3,4,"L0\n"\n5,6,L1\n')
        ds = load_csv(path, DatasetSchema(("a", "b"), ("L0", "L1")))
        np.testing.assert_array_equal(ds.rows, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(ds.labels, [1, 0, 1])
        assert ds.rows.flags.f_contiguous

    def test_nan_token_not_silently_accepted(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("a,b\nnan,2.0\n4.0,6.0\n")
        schema = DatasetSchema(("a", "b"), ("L0", "L1"))
        with pytest.raises(DataError, match="row\\(s\\): 1$"):
            load_csv(path, schema)


# Every finite float64, with -0.0, subnormals and +-1e308 drawn on purpose.
edge_floats = st.sampled_from([-0.0, 5e-324, -1e-310, 1e308, -1e308]) | st.floats(
    allow_nan=False, allow_infinity=False
)


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_csv_round_trip_bit_for_bit(self, tmp_path_factory, data):
        f, m = data.draw(st.integers(1, 4)), data.draw(st.integers(2, 4))
        n = data.draw(st.integers(0, 8))
        schema = DatasetSchema(tuple(f"f{i}" for i in range(f)), tuple(f"L{i}" for i in range(m)))
        rows = np.array(data.draw(st.lists(edge_floats, min_size=n * f, max_size=n * f)))
        labels = None
        if data.draw(st.booleans()):
            labels = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
        ds = Dataset(schema, rows.reshape(n, f), labels)
        path = tmp_path_factory.mktemp("csv") / "x.csv"
        save_csv(ds, path)
        back = load_csv(path, schema)
        assert back.rows.shape == (n, f)
        np.testing.assert_array_equal(back.rows.view(np.uint64), ds.rows.view(np.uint64))
        if labels is None:
            assert back.labels is None
        else:
            np.testing.assert_array_equal(back.labels, labels)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_split_is_exhaustive_with_largest_remainder_counts(self, data):
        m = data.draw(st.integers(2, 4))
        labels = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=30)))
        weights = data.draw(st.lists(st.integers(0, 4), min_size=3, max_size=3).filter(any))
        seed = data.draw(st.integers(0, 2**32 - 1))
        fractions = tuple(w / sum(weights) for w in weights)
        schema = DatasetSchema(("row",), tuple(f"L{i}" for i in range(m)))
        ds = Dataset(schema, np.arange(labels.size, dtype=np.float64)[:, None], labels)
        parts = stratified_split(ds, fractions, seed)
        rows = np.concatenate([part.rows[:, 0] for part in parts]).astype(int)
        assert sorted(rows) == list(range(labels.size))  # every row in exactly one split
        for part in parts:
            np.testing.assert_array_equal(part.labels, labels[part.rows[:, 0].astype(int)])
        for cls in range(m):
            counts = [int((part.labels == cls).sum()) for part in parts]
            expected = largest_remainder(int((labels == cls).sum()), np.array(fractions))
            assert counts == expected.tolist()


class TestAtomicWrite:
    def test_writer_raising_part_way_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("previous\n")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as handle:
                handle.write("partial")
                raise RuntimeError("writer failed")
        assert path.read_text() == "previous\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_success_replaces_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("previous\n")
        with atomic_write(path) as handle:
            handle.write("a,b\r\n")
        assert path.read_bytes() == b"a,b\r\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_save_csv_failing_part_way_keeps_previous_file(self, tmp_path):
        path = tmp_path / "toy.csv"
        save_csv(_toy_labeled(3), path)
        before = path.read_bytes()
        bad = _toy_labeled(12)
        bad.labels[8] = 99  # no such label: the writer raises on row 8
        with pytest.raises(IndexError):
            save_csv(bad, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["toy.csv"]


def _toy_labeled(n, num_classes=3):
    rng = np.random.default_rng(42)
    schema = DatasetSchema(("a", "b"), tuple(f"L{i}" for i in range(num_classes)))
    rows = rng.normal(size=(n, 2))
    labels = rng.integers(0, num_classes, n)
    return Dataset(schema, rows, labels)
