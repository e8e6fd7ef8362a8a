"""Phase-I model tests: logistic regression, GBDT boosting, pseudo-labels."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advssl.data import (
    Dataset,
    DatasetSchema,
    SynthConfig,
    apply_normalizer,
    fit_normalizer,
    generate_synthetic,
    stratified_split,
)
from advssl.nnet import (
    AdamState,
    DenseLayer,
    DivergenceError,
    adam_step,
    categorical_ce,
    categorical_ce_grad,
    grad_check,
    named_rng,
    softmax,
    softmax_backward,
)
from advssl.persist import to_plain
from advssl import prm
from advssl.prm import (
    GbdtConfig,
    GbdtModel,
    LogregConfig,
    PlainModel,
    PrmConfig,
    pseudo_label,
    train_gbdt,
    train_logreg,
    train_prm,
)
from advssl.tree import TreeNode, RegressionTree, fit_regression_tree, presort


def small_schema(num_features=2, num_classes=3):
    return DatasetSchema(
        tuple(f"f{i}" for i in range(num_features)),
        tuple(f"L{i}" for i in range(num_classes)),
    )


def blobs_dataset(seed=0, n_per=40, sep=4.0, num_classes=2):
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for k in range(num_classes):
        center = np.array([sep * k, -sep * k])
        rows.append(center + rng.normal(size=(n_per, 2)))
        labels.append(np.full(n_per, k))
    return Dataset(
        small_schema(2, num_classes), np.vstack(rows), np.concatenate(labels)
    )


def logreg_grads(weights, bias, x, labels, l2):
    """(dw, db) of categorical_ce(softmax(x @ weights.T + bias), labels)
    + l2 * (sum(weights**2) + sum(bias**2))."""
    probs = softmax(x @ weights.T + bias)
    dlogits = softmax_backward(probs, categorical_ce_grad(probs, labels))
    dw = dlogits.T @ x + 2.0 * l2 * weights
    db = dlogits.sum(axis=0) + 2.0 * l2 * bias
    return dw, db


def reference_logreg(ds: Dataset, cfg: LogregConfig, seed: int):
    """(weights, bias) of logistic regression written out by hand: its own
    linear-softmax gradient with L2 always added, one parameter buffer
    split into weight and bias views, full-batch Adam on the concatenated
    gradient. train_logreg must equal it bit for bit."""
    m, f = ds.schema.num_classes, ds.schema.num_features
    rng = named_rng(seed, "logreg_init")
    limit = np.sqrt(6.0 / (f + m))
    params = np.concatenate([rng.uniform(-limit, limit, size=m * f), np.zeros(m)])
    weights, bias = params[: m * f].reshape(m, f), params[m * f :]
    state = AdamState.for_params(params, learning_rate=cfg.learning_rate)
    for _ in range(cfg.iterations):
        dw, db = logreg_grads(weights, bias, ds.rows, ds.labels, cfg.l2)
        adam_step(params, np.concatenate([dw.ravel(), db]), state)
    return weights, bias


def default_scale_train_split(seed):
    """The normalized training split of default-scale synthetic data, as a run prepares it."""
    labeled = generate_synthetic(SynthConfig(seed=seed))[0]
    train = stratified_split(labeled, (0.7, 0.15, 0.15), seed)[0]
    return apply_normalizer(fit_normalizer(train), train)


def small_logreg_case(seed, num_classes=3, absent=()):
    rng = np.random.default_rng(seed)
    labels = rng.choice([k for k in range(num_classes) if k not in absent], 60)
    rows = rng.normal(size=(60, 4)) + labels[:, None]
    return Dataset(small_schema(4, num_classes), rows, labels)


class TestLogregReference:
    """train_logreg, a one-layer network on nnet's passes, L2 and Adam,
    equals reference_logreg bit for bit."""

    def assert_reference(self, ds, cfg, seed):
        model = train_logreg(ds, cfg, seed)
        weights, bias = reference_logreg(ds, cfg, seed)
        assert model.logreg.weights.tobytes() == weights.tobytes()
        assert model.logreg.bias.tobytes() == bias.tobytes()
        probs = softmax(ds.rows @ weights.T + bias)  # the linear forward pass, written out
        assert model.predict_proba_matrix(ds.rows).tobytes() == probs.tobytes()
        return model

    def test_default_config_on_a_default_scale_split(self):
        ds = default_scale_train_split(720)
        assert (ds.schema.num_features, ds.schema.num_classes) == (39, 9)
        self.assert_reference(ds, LogregConfig(), 720)

    @pytest.mark.parametrize(
        "cfg",
        [
            LogregConfig(iterations=80, l2=0.0),
            LogregConfig(iterations=80, l2=0.3),
            LogregConfig(iterations=0),
            LogregConfig(iterations=1),
            LogregConfig(iterations=20, learning_rate=0.0),
        ],
        ids=["l2_zero", "l2_large", "no_iterations", "one_iteration", "learning_rate_zero"],
    )
    def test_small_cases(self, cfg):
        self.assert_reference(small_logreg_case(11), cfg, 3)

    def test_a_class_absent_from_the_labels(self):
        ds = small_logreg_case(12, num_classes=4, absent=(2,))
        model = self.assert_reference(ds, LogregConfig(iterations=80), 4)
        assert (model.predict_proba_matrix(ds.rows).argmax(axis=1) != 2).all()


class TestLogreg:
    def test_single_class_saturates(self):
        rng = np.random.default_rng(1)
        ds = Dataset(small_schema(2, 3), rng.normal(size=(30, 2)), np.ones(30, dtype=int))
        model = train_logreg(ds, LogregConfig(iterations=800, learning_rate=0.1, l2=0.0), seed=0)
        probs = model.predict_proba_matrix(ds.rows)
        assert np.all(probs[:, 1] >= 1 - 1e-3)

    def test_separable_blobs_perfect_train_accuracy(self):
        ds = blobs_dataset(seed=2)
        model = train_logreg(ds, LogregConfig(iterations=400, learning_rate=0.1), seed=0)
        preds = model.predict_proba_matrix(ds.rows).argmax(axis=1)
        assert (preds == ds.labels).mean() == 1.0

    def test_loss_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(12, 4))
        labels = rng.integers(0, 3, 12)
        params = [rng.normal(size=(3, 4)), rng.normal(size=3)]

        def loss(ps):
            # the objective the reference's logreg_grads differentiates
            probs = softmax(x @ ps[0].T + ps[1])
            value = categorical_ce(probs, labels) + 0.01 * (np.sum(ps[0] ** 2) + np.sum(ps[1] ** 2))
            return float(value), list(logreg_grads(ps[0], ps[1], x, labels, l2=0.01))

        assert grad_check(loss, params, epsilon=1e-6) < 1e-5

    def test_zero_weights_predict_uniform(self):
        layer = DenseLayer(np.zeros((4, 2)), np.zeros(4), "identity")
        model = PlainModel(logreg=layer)
        np.testing.assert_allclose(
            model.predict_proba_matrix(np.array([[1.0, -1.0]]))[0], np.full(4, 0.25), atol=1e-15
        )

    def test_same_seed_reproduces_parameters(self):
        ds = blobs_dataset(seed=4)
        cfg = LogregConfig(iterations=50)
        a = train_logreg(ds, cfg, seed=7)
        b = train_logreg(ds, cfg, seed=7)
        np.testing.assert_array_equal(a.logreg.weights, b.logreg.weights)
        np.testing.assert_array_equal(a.logreg.bias, b.logreg.bias)


class TestGbdt:
    def test_prior_only_uniform(self):
        rng = np.random.default_rng(5)
        labels = np.repeat(np.arange(3), 10)
        ds = Dataset(small_schema(2, 3), rng.normal(size=(30, 2)), labels)
        model = train_gbdt(ds, GbdtConfig(rounds=0))
        probs = model.predict_proba_matrix(ds.rows[:5])
        np.testing.assert_allclose(probs, np.full((5, 3), 1 / 3), atol=1e-12)

    def test_separable_1d_perfect_accuracy(self):
        rng = np.random.default_rng(6)
        x = np.concatenate([rng.uniform(-2, -0.1, 40), rng.uniform(0.1, 2, 40)])
        labels = (x >= 0).astype(int)
        ds = Dataset(
            DatasetSchema(("f0",), ("L0", "L1")), x.reshape(-1, 1), labels
        )
        model = train_gbdt(ds, GbdtConfig(rounds=20, max_depth=2, shrinkage=0.3, min_leaf_count=1))
        preds = model.predict_proba_matrix(ds.rows).argmax(axis=1)
        assert (preds == labels).mean() == 1.0
        assert all(t.fitted is None for rnd in model.gbdt.trees for t in rnd)  # not kept

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_log_loss_monotone_decreasing(self, seed):
        rng = np.random.default_rng(seed)
        n = 200
        labels = rng.integers(0, 3, n)
        centers = np.array([[0.0, 0.0], [2.0, 1.0], [-1.0, 2.0]])
        rows = centers[labels] + rng.normal(size=(n, 2))
        ds = Dataset(small_schema(2, 3), rows, labels)
        model = train_gbdt(ds, GbdtConfig(rounds=30, max_depth=2))
        losses = model.gbdt.train_loss
        assert len(losses) == 31
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-12)

    def test_hand_built_single_tree_scores(self):
        # one stump per class with known leaves; probs must be softmax of sums
        stump = lambda v_left, v_right: RegressionTree(
            root=TreeNode(
                feature=0,
                threshold=0.0,
                left=TreeNode(value=v_left),
                right=TreeNode(value=v_right),
            ),
        )
        gbdt = GbdtModel(
            base_score=np.array([0.1, -0.2]),
            trees=[[stump(0.5, -0.5), stump(-1.0, 1.0)]],
            train_loss=[],
        )
        model = PlainModel(gbdt=gbdt)
        probs = model.predict_proba_matrix(np.array([[-1.0]]))[0]
        expected = softmax(np.array([[0.1 + 0.5, -0.2 + -1.0]]))[0]
        np.testing.assert_allclose(probs, expected, atol=1e-15)

    def test_bad_shrinkage_rejected(self):
        ds = blobs_dataset(seed=7)
        with pytest.raises(ValueError):
            train_gbdt(ds, GbdtConfig(shrinkage=0.0))
        with pytest.raises(ValueError):
            train_gbdt(ds, GbdtConfig(shrinkage=1.5))

    def test_same_data_reproduces_trees(self):
        ds = blobs_dataset(seed=8)
        cfg = GbdtConfig(rounds=5, max_depth=2)
        a = train_gbdt(ds, cfg)
        b = train_gbdt(ds, cfg)
        for round_a, round_b in zip(a.gbdt.trees, b.gbdt.trees):
            for ta, tb in zip(round_a, round_b):
                assert to_plain(ta) == to_plain(tb)
        grid = np.random.default_rng(9).normal(size=(20, 2))
        np.testing.assert_array_equal(
            a.predict_proba_matrix(grid), b.predict_proba_matrix(grid)
        )


def newton_tree(x, residuals, num_classes, cfg):
    """Least-squares splits on the residuals r, leaves (K-1)/K * sum(r) / sum(|r|(1-|r|))."""
    a = np.abs(residuals)
    denominators = a * (1.0 - a) * (num_classes / (num_classes - 1))
    return fit_regression_tree(
        x, residuals, cfg.max_depth, cfg.min_leaf_count, denominators=denominators
    )


def scale_leaves(node: TreeNode, factor: float):
    """Multiply every leaf under node by factor, in place."""
    if node.is_leaf:
        node.value *= factor
    else:
        scale_leaves(node.left, factor)
        scale_leaves(node.right, factor)


def serial_boosting(ds: Dataset, cfg: GbdtConfig):
    """(trees under to_plain, train_loss) of softmax boosting with Newton
    leaves, every tree fitted in this process over all features and no step
    halved: the one-process definition. A leaf holds what its round added,
    shrinkage * Newton leaf."""
    x, labels = ds.rows, ds.labels
    n, m = x.shape[0], ds.schema.num_classes
    counts = np.bincount(labels, minlength=m).astype(np.float64)
    base = np.log(counts / n) if (counts > 0).all() else np.log((counts + 1.0) / (n + m))
    scores = np.tile(base, (n, 1))
    y = np.eye(m)[labels]
    probs = softmax(scores)
    losses, trees = [categorical_ce(probs, labels)], []
    for _ in range(cfg.rounds):
        fitted = [newton_tree(x, y[:, k] - probs[:, k], m, cfg) for k in range(m)]
        for k, tree in enumerate(fitted):
            scores[:, k] += cfg.shrinkage * tree.fitted
            scale_leaves(tree.root, cfg.shrinkage)
        trees.append([to_plain(t) for t in fitted])
        probs = softmax(scores)
        losses.append(categorical_ce(probs, labels))
    return trees, losses


def boosting_case(seed, num_features, num_classes=3, n=90, integer=False):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, num_classes, n)
    if integer:  # heavy ties in value and in gain
        rows = rng.integers(0, 4, size=(n, num_features)).astype(float)
        rows[:, 0] += labels
    else:
        rows = rng.normal(size=(n, num_features))
        rows[:, -1] += labels  # the signal lies in the last feature
    return Dataset(small_schema(num_features, num_classes), rows, labels)


def split_features(model):
    def walk(node):
        if "feature" in node:
            yield node["feature"]
            yield from walk(node["left"])
            yield from walk(node["right"])

    return {f for rnd in model.gbdt.trees for t in rnd for f in walk(to_plain(t)["root"])}


class TestBoosting:
    """train_gbdt's trees and losses are those of serial_boosting, bit for bit."""

    def assert_serial(self, ds, cfg):
        model = train_gbdt(ds, cfg)
        trees, losses = serial_boosting(ds, cfg)
        assert [[to_plain(t) for t in rnd] for rnd in model.gbdt.trees] == trees
        assert model.gbdt.train_loss == losses
        return model

    @pytest.mark.parametrize("num_features", [1, 2, 5])
    def test_trees_equal_one_process_trees(self, num_features):
        cfg = GbdtConfig(rounds=6, max_depth=3, shrinkage=0.3, min_leaf_count=2)
        self.assert_serial(boosting_case(num_features, num_features), cfg)

    def test_gain_ties_across_features_go_to_the_lower_feature(self):
        ds = boosting_case(7, 2, integer=True)
        # Features 2, 3 repeat 0, 1: every gain ties across features.
        twin = Dataset(small_schema(4, 3), np.hstack([ds.rows, ds.rows]), ds.labels)
        cfg = GbdtConfig(rounds=5, max_depth=3, shrinkage=0.3, min_leaf_count=1)
        model = self.assert_serial(twin, cfg)
        assert split_features(model) <= {0, 1}
        single = train_gbdt(ds, cfg)
        assert [[to_plain(t) for t in r] for r in model.gbdt.trees] == [
            [to_plain(t) for t in r] for r in single.gbdt.trees
        ]

    def test_mixed_tied_and_untied_features(self):
        ds = boosting_case(40, 6)
        rows = ds.rows.copy()
        rows[:, 1] = np.round(rows[:, 1])  # integer-valued: ties
        rows[:, 3] = ds.labels + (np.arange(90) % 2)  # ties that carry the signal
        rows[:, 4] = 2.0  # constant
        mixed = Dataset(ds.schema, rows, ds.labels)
        cfg = GbdtConfig(rounds=5, max_depth=3, shrinkage=0.3, min_leaf_count=2)
        model = self.assert_serial(mixed, cfg)
        assert {1, 3} & split_features(model) and {0, 2, 5} & split_features(model)

    def test_one_presort_per_fit(self, monkeypatch):
        calls = []

        def counted(x):
            calls.append(x.shape)
            return presort(x)

        monkeypatch.setattr(prm, "presort", counted)
        self.assert_serial(boosting_case(41, 3), GbdtConfig(rounds=4, max_depth=2))
        assert calls == [(90, 3)]

    @pytest.mark.parametrize("max_depth", range(5))
    def test_every_depth(self, max_depth):
        cfg = GbdtConfig(rounds=4, max_depth=max_depth, shrinkage=0.3, min_leaf_count=1)
        self.assert_serial(boosting_case(20 + max_depth, 7, integer=max_depth % 2 == 1), cfg)

    def test_min_leaf_count_that_forbids_every_split(self):
        cfg = GbdtConfig(rounds=3, max_depth=3, min_leaf_count=46)  # 90 rows: no side keeps 46
        model = self.assert_serial(boosting_case(30, 4), cfg)
        assert split_features(model) == set()

    def test_no_rounds(self):
        model = self.assert_serial(boosting_case(31, 3), GbdtConfig(rounds=0))
        assert model.gbdt.trees == [] and len(model.gbdt.train_loss) == 1

    def test_a_round_that_would_raise_the_loss_takes_half_its_step(self):
        ds = boosting_case(1, 2, num_classes=5, n=40)
        cfg = GbdtConfig(rounds=5, max_depth=1, shrinkage=1.0, min_leaf_count=1)
        _, whole_steps = serial_boosting(ds, cfg)
        assert np.diff(whole_steps)[2] > 0.4  # round 2's whole Newton step overshoots
        model = train_gbdt(ds, cfg)
        assert model.gbdt.train_loss[:3] == whole_steps[:3]
        assert np.all(np.diff(model.gbdt.train_loss) <= 1e-12)
        # The halved rounds' leaves are scaled: the model reproduces its loss bit for bit.
        probs = model.predict_proba_matrix(ds.rows)
        assert categorical_ce(probs, ds.labels) == model.gbdt.train_loss[-1]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_small_random_fits_never_trip_the_loss_guard(self, data):
        num_classes = data.draw(st.integers(2, 5), label="classes")
        n = data.draw(st.integers(1, 40), label="rows")
        num_features = data.draw(st.integers(1, 3), label="features")
        value = st.one_of(st.integers(-2, 2).map(float), st.floats(-3.0, 3.0))
        row = st.lists(value, min_size=num_features, max_size=num_features)
        rows = data.draw(st.lists(row, min_size=n, max_size=n))
        labels = data.draw(st.lists(st.integers(0, num_classes - 1), min_size=n, max_size=n))
        cfg = GbdtConfig(
            rounds=data.draw(st.integers(1, 12), label="rounds"),
            max_depth=data.draw(st.integers(0, 3), label="max_depth"),
            shrinkage=data.draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0)), label="shrinkage"),
            min_leaf_count=1,
        )
        ds = Dataset(small_schema(num_features, num_classes), np.array(rows), np.array(labels))
        model = train_gbdt(ds, cfg)  # raises DivergenceError if the guard trips
        assert np.all(np.diff(model.gbdt.train_loss) <= 1e-12)
        # Each leaf holds the step its round applied, halved or not: the loss replays bit for bit.
        probs = model.predict_proba_matrix(ds.rows)
        assert categorical_ce(probs, ds.labels) == model.gbdt.train_loss[-1]

    def test_loss_guard_raises_at_the_first_increase(self, monkeypatch):
        from itertools import count

        from advssl import prm

        losses = count()
        monkeypatch.setattr(prm, "categorical_ce", lambda probs, labels: next(losses))
        with pytest.raises(DivergenceError, match="increased at round 0"):
            train_gbdt(boosting_case(42, 5), GbdtConfig(rounds=3))


class TestPredictProba:
    def test_simplex_for_all_models(self):
        ds = blobs_dataset(seed=10, num_classes=3)
        rng = np.random.default_rng(11)
        grid = rng.normal(scale=3.0, size=(50, 2))
        for model in (
            train_logreg(ds, LogregConfig(iterations=50), seed=0),
            train_gbdt(ds, GbdtConfig(rounds=5, max_depth=2)),
        ):
            probs = model.predict_proba_matrix(grid)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
            assert np.all((probs >= 0) & (probs <= 1))


def constant_model(probs) -> PlainModel:
    """A two-feature logistic regression with zero weights: softmax(log(probs)) for every row."""
    bias = np.log(np.asarray(probs, dtype=np.float64))
    return PlainModel(logreg=DenseLayer(np.zeros((bias.size, 2)), bias, "identity"))


class TestPseudoLabel:
    def test_constant_model_labels_and_confidence(self):
        ds = Dataset(small_schema(2, 3), np.random.default_rng(13).normal(size=(5, 2)))
        out = pseudo_label(constant_model([0.1, 0.7, 0.2]), ds)
        np.testing.assert_array_equal(out.labels, np.ones(5, dtype=int))
        np.testing.assert_allclose(out.confidences, 0.7)

    def test_tie_breaks_to_lowest_index(self):
        ds = Dataset(small_schema(2, 3), np.zeros((3, 2)))
        out = pseudo_label(constant_model([0.4, 0.4, 0.2]), ds)
        np.testing.assert_array_equal(out.labels, [0, 0, 0])

    def test_empty_input_gives_empty_result(self):
        ds = Dataset(small_schema(2, 3), np.empty((0, 2)))
        out = pseudo_label(constant_model([0.5, 0.3, 0.2]), ds)
        assert len(out) == 0

    @pytest.mark.parametrize("variant", ["logistic_regression", "gbdt"])
    def test_empty_input_through_a_trained_model(self, variant):
        ds = blobs_dataset(seed=16, num_classes=3)
        cfg = PrmConfig(variant, GbdtConfig(rounds=2, max_depth=2), LogregConfig(iterations=20))
        out = pseudo_label(train_prm(ds, cfg, seed=0), Dataset(ds.schema, np.empty((0, 2))))
        assert out.rows.shape == (0, 2)
        assert out.labels.shape == (0,) and out.labels.dtype == np.int64
        assert out.confidences.shape == (0,) and out.confidences.dtype == np.float64

    def test_pure_function_bit_identical(self):
        ds = blobs_dataset(seed=14, num_classes=3)
        model = train_gbdt(ds, GbdtConfig(rounds=5, max_depth=2))
        unlabeled = Dataset(ds.schema, ds.rows, None)
        a = pseudo_label(model, unlabeled)
        b = pseudo_label(model, unlabeled)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.confidences, b.confidences)

    @pytest.mark.parametrize("variant", ["logistic_regression", "gbdt"])
    def test_pool_layout_does_not_change_labels_or_confidences(self, variant):
        labeled, unlabeled, _ = generate_synthetic(
            SynthConfig(num_features=6, num_classes=4, samples_per_class=100, seed=18)
        )
        cfg = PrmConfig(variant, GbdtConfig(rounds=4, max_depth=3), LogregConfig(iterations=40))
        model = train_prm(labeled, cfg, seed=0)
        by_rows = pseudo_label(model, Dataset(labeled.schema, np.ascontiguousarray(unlabeled.rows)))
        by_features = pseudo_label(model, Dataset(labeled.schema, np.asfortranarray(unlabeled.rows)))
        np.testing.assert_array_equal(by_rows.labels, by_features.labels)
        assert by_rows.confidences.tobytes() == by_features.confidences.tobytes()

    def test_gbdt_reads_a_feature_major_pool_without_copying_it(self):
        labeled, unlabeled, _ = generate_synthetic(SynthConfig(seed=19))
        model = train_gbdt(labeled, GbdtConfig(rounds=2, max_depth=2))
        tracemalloc.start()
        try:
            pseudo_label(model, unlabeled)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < unlabeled.rows.nbytes  # a transposed copy alone is that much

    def test_confidences_within_simplex_bounds(self):
        ds = blobs_dataset(seed=15, num_classes=3)
        model = train_logreg(ds, LogregConfig(iterations=30), seed=0)
        out = pseudo_label(model, Dataset(ds.schema, ds.rows, None))
        assert np.all(out.confidences >= 1 / 3 - 1e-12)
        assert np.all(out.confidences <= 1.0)


class TestTrainPrm:
    def test_variant_dispatch(self):
        ds = blobs_dataset(seed=17)
        gbdt = train_prm(ds, PrmConfig("gbdt", GbdtConfig(rounds=2, max_depth=1)), seed=0)
        logreg = train_prm(ds, PrmConfig(variant="logistic_regression"), seed=3)
        assert isinstance(gbdt.gbdt, GbdtModel) and gbdt.logreg is None
        assert isinstance(logreg.logreg, DenseLayer) and logreg.gbdt is None

    def test_a_plain_model_holds_exactly_one_payload(self):
        layer = DenseLayer(np.zeros((2, 1)), np.zeros(2), "identity")
        gbdt = GbdtModel(base_score=np.zeros(2), trees=[], train_loss=[])
        for payloads in ({}, {"logreg": layer, "gbdt": gbdt}):
            with pytest.raises(ValueError, match="exactly one of logreg and gbdt"):
                PlainModel(**payloads)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            PrmConfig(variant="svm")
