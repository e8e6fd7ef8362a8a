"""Persistence round-trips must be bit-exact for 64-bit floats, and the
codec must map exactly the JSON its dataclasses describe, nothing else."""

import dataclasses
import json
import os
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advssl.data import Dataset, DatasetSchema, SynthConfig, fit_normalizer
from advssl.nnet import DenseLayer
from advssl.persist import (
    ConfigError,
    from_plain,
    load_assl_model,
    load_plain_model,
    save_assl_model,
    save_plain_model,
    to_plain,
    write_json,
)
from advssl.pipeline import VARIANTS, DataSource, RunConfig, load_config
from advssl.prm import (
    GbdtConfig,
    GbdtModel,
    LogregConfig,
    PlainModel,
    PrmConfig,
    train_gbdt,
    train_logreg,
)
from advssl.trainer import INFERENCE_HEADS, AsslConfig, AsslModel, init_assl_model
from advssl.tree import RegressionTree, TreeNode, fit_regression_tree
from test_data import edge_floats

SMOKE = os.path.join(os.path.dirname(__file__), "..", "configs", "smoke.json")
with open(SMOKE, encoding="utf-8") as _handle:
    SMOKE_TEXT = _handle.read()


def make_dataset(seed=0, n=60, m=3, f=4):
    rng = np.random.default_rng(seed)
    schema = DatasetSchema(
        tuple(f"f{i}" for i in range(f)), tuple(f"L{i}" for i in range(m))
    )
    labels = rng.integers(0, m, n)
    rows = labels[:, None] * 1.5 + rng.normal(size=(n, f))
    return Dataset(schema, rows, labels)


class TestPlainModelRoundTrip:
    def test_gbdt_bit_exact(self, tmp_path):
        ds = make_dataset(seed=1)
        model = train_gbdt(ds, GbdtConfig(rounds=6, max_depth=2))
        norm = fit_normalizer(ds)
        path = tmp_path / "gbdt.json"
        save_plain_model(path, model, ds.schema, norm)
        loaded, schema, norm2 = load_plain_model(path)
        grid = np.random.default_rng(2).normal(size=(30, 4))
        np.testing.assert_array_equal(
            model.predict_proba_matrix(grid), loaded.predict_proba_matrix(grid)
        )
        np.testing.assert_array_equal(norm.mean, norm2.mean)
        np.testing.assert_array_equal(norm.std, norm2.std)
        assert schema.schema_hash() == ds.schema.schema_hash()

    def test_logreg_bit_exact(self, tmp_path):
        ds = make_dataset(seed=3)
        model = train_logreg(ds, LogregConfig(iterations=40), seed=5)
        path = tmp_path / "logreg.json"
        save_plain_model(path, model, ds.schema)
        loaded, _, norm = load_plain_model(path)
        assert norm is None
        np.testing.assert_array_equal(model.logreg.weights, loaded.logreg.weights)
        np.testing.assert_array_equal(model.logreg.bias, loaded.logreg.bias)

    def test_save_load_save_bytes_identical(self, tmp_path):
        ds = make_dataset(seed=4)
        model = train_gbdt(ds, GbdtConfig(rounds=4, max_depth=3))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_plain_model(p1, model, ds.schema)
        loaded, schema, _ = load_plain_model(p1)
        save_plain_model(p2, loaded, schema)
        assert p1.read_bytes() == p2.read_bytes()


class TestAsslModelRoundTrip:
    def test_networks_bit_exact(self, tmp_path):
        ds = make_dataset(seed=6)
        cfg = AsslConfig(
            embedding_dim=4, encoder_hidden=6, head_hidden=6, disc_hidden=6, seed=9
        )
        model = init_assl_model(4, 3, cfg)
        norm = fit_normalizer(ds)
        path = tmp_path / "assl.json"
        save_assl_model(path, model, cfg, ds.schema, norm)
        loaded, cfg2, schema, norm2 = load_assl_model(path)
        for net in ("encoder", "supervised_head", "semi_head", "discriminator"):
            for a, b in zip(
                getattr(model, net).param_arrays(), getattr(loaded, net).param_arrays()
            ):
                np.testing.assert_array_equal(a, b)
        assert cfg2 == cfg
        assert schema.label_names == ds.schema.label_names
        np.testing.assert_array_equal(norm.constant, norm2.constant)

    def test_save_load_save_bytes_identical(self, tmp_path):
        cfg = AsslConfig(embedding_dim=3, encoder_hidden=4, head_hidden=4, disc_hidden=4)
        model = init_assl_model(5, 3, cfg)
        schema = make_dataset(f=5).schema
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_assl_model(p1, model, cfg, schema)
        loaded, cfg2, schema2, _ = load_assl_model(p1)
        save_assl_model(p2, loaded, cfg2, schema2)
        assert p1.read_bytes() == p2.read_bytes()


def vectors(n):
    return st.lists(edge_floats, min_size=n, max_size=n).map(np.array)


def float_bits(plain):
    """The values of a to_plain form in order, each float as its exact hex
    (which tells -0.0 from 0.0)."""
    if isinstance(plain, dict):
        return [b for key in sorted(plain) for b in float_bits(plain[key])]
    if isinstance(plain, list):
        return [b for value in plain for b in float_bits(value)]
    return [plain.hex() if isinstance(plain, float) else plain]


def tree_nodes(num_features):
    return st.recursive(
        st.builds(TreeNode, value=edge_floats),
        lambda kids: st.builds(
            TreeNode,
            feature=st.integers(0, num_features - 1),
            threshold=edge_floats,
            left=kids,
            right=kids,
        ),
        max_leaves=6,
    )


def plain_models(kind, f, m):
    if kind == "logistic_regression":
        weights = vectors(m * f).map(lambda w: w.reshape(m, f))
        layer = st.builds(DenseLayer, weights, vectors(m), st.just("identity"))
        return st.builds(PlainModel, st.just(f), logreg=layer)
    tree = st.builds(RegressionTree, tree_nodes(f))
    gbdt = st.builds(
        GbdtModel,
        vectors(m),
        st.lists(st.lists(tree, min_size=m, max_size=m), max_size=3),
        st.lists(edge_floats, max_size=3),
    )
    return st.builds(PlainModel, st.just(f), gbdt=gbdt)


class TestModelFileProperties:
    """save -> load -> save gives the same bytes and bit-equal parameters."""

    @pytest.mark.parametrize("kind", ["logistic_regression", "gbdt"])
    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 4), st.integers(2, 4), st.data())
    def test_plain_model(self, tmp_path_factory, kind, f, m, data):
        model = data.draw(plain_models(kind, f, m))
        schema = make_dataset(m=m, f=f).schema
        tmp = tmp_path_factory.mktemp("plain")
        p1, p2 = tmp / "a.json", tmp / "b.json"
        save_plain_model(p1, model, schema)
        loaded, schema2, _ = load_plain_model(p1)
        save_plain_model(p2, loaded, schema2)
        assert p1.read_bytes() == p2.read_bytes()
        assert float_bits(to_plain(loaded)) == float_bits(to_plain(model))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 4), st.integers(2, 4), st.integers(1, 3), st.data())
    def test_assl_model(self, tmp_path_factory, f, m, d, data):
        cfg = AsslConfig(embedding_dim=d, encoder_hidden=3, head_hidden=2, disc_hidden=2)
        model = init_assl_model(f, m, cfg)
        model.flat[:] = data.draw(vectors(model.flat.size))
        schema = make_dataset(m=m, f=f).schema
        tmp = tmp_path_factory.mktemp("assl")
        p1, p2 = tmp / "a.json", tmp / "b.json"
        save_assl_model(p1, model, cfg, schema)
        loaded, cfg2, schema2, _ = load_assl_model(p1)
        save_assl_model(p2, loaded, cfg2, schema2)
        assert p1.read_bytes() == p2.read_bytes()
        assert cfg2 == cfg
        np.testing.assert_array_equal(loaded.flat.view(np.uint64), model.flat.view(np.uint64))


json_payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=40,
)


def json_dump_text(payload):
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


class TestWriteJson:
    @settings(max_examples=300, deadline=None)
    @given(json_payloads)
    def test_same_bytes_as_json_dump(self, tmp_path_factory, payload):
        path = tmp_path_factory.mktemp("json") / "x.json"
        write_json(path, payload)
        assert path.read_text(encoding="utf-8") == json_dump_text(payload)

    def test_same_bytes_when_written_in_chunks(self, tmp_path):
        trees = [
            {"feature": i % 5, "left": {"value": i / 7}, "right": {"value": -i}, "threshold": 0.5}
            for i in range(3000)
        ]
        payload = {"trees": trees, "schema": {"features": ["a", "b"], "labels": []}}
        write_json(tmp_path / "x.json", payload)
        assert (tmp_path / "x.json").read_text(encoding="utf-8") == json_dump_text(payload)

    def test_sorted_one_space_indent_trailing_newline(self, tmp_path):
        path = tmp_path / "x.json"
        write_json(path, {"b": [1.5, 0.1], "a": {"z": None, "y": "s"}})
        assert path.read_text(encoding="utf-8") == (
            '{\n "a": {\n  "y": "s",\n  "z": null\n },\n "b": [\n  1.5,\n  0.1\n ]\n}\n'
        )

    def test_failed_serialization_keeps_previous_file(self, tmp_path):
        path = tmp_path / "x.json"
        write_json(path, {"v": 1})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_json(path, {"v": object()})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["x.json"]

    def test_failed_replace_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taken.json"
        target.mkdir()
        with pytest.raises(OSError):
            write_json(target, {"v": 1})
        assert os.listdir(tmp_path) == ["taken.json"]


class TestCodec:
    def test_fresh_tree_has_no_fitted_key(self):
        rng = np.random.default_rng(1)
        tree = fit_regression_tree(rng.normal(size=(30, 2)), rng.normal(size=30), 2)
        assert tree.fitted is not None
        assert set(to_plain(tree)) == {"root"}
        assert from_plain(RegressionTree, to_plain(tree), "tree").fitted is None

    def test_int_for_float_is_kept_as_written(self):
        cfg = from_plain(AsslConfig, {"alpha": 0, "lambda_l": 0.5}, "assl")
        assert type(cfg.alpha) is int and type(cfg.lambda_l) is float
        with pytest.raises(ConfigError, match="assl.epochs must be int, got float"):
            from_plain(AsslConfig, {"epochs": 3.0}, "assl")

    @pytest.mark.parametrize("bad", [["1.5"], [[1.0], [1.0, 2.0]], [True], "1.5", None])
    def test_array_must_be_a_list_of_numbers(self, bad):
        with pytest.raises(ConfigError, match="x must be a list of numbers"):
            from_plain(np.ndarray, bad, "x")

    def test_every_tuple_hint_the_codec_reaches_is_variadic(self):
        # from_plain reads a tuple as tuple[X, ...]: a fixed-length hint such as
        # tuple[int, str] would be decoded with its first item type at any length.
        todo, seen, tuples = [RunConfig, PlainModel, AsslModel], set(), set()
        while todo:
            tp = todo.pop()
            if tp in seen:
                continue
            seen.add(tp)
            if typing.get_origin(tp) is tuple:
                tuples.add(tp)
            todo += typing.get_args(tp)
            if dataclasses.is_dataclass(tp):
                todo += typing.get_type_hints(tp).values()
        assert {DatasetSchema, TreeNode, AsslConfig} <= seen
        assert tuples == {tp for tp in tuples if typing.get_args(tp)[1:] == (Ellipsis,)}
        assert tuple[int, ...] in tuples and tuple[str, ...] in tuples

    def test_missing_required_key_is_named(self):
        with pytest.raises(ConfigError, match="config: missing key 'data'"):
            from_plain(RunConfig, {"seeds": [0]}, "config")

    def test_post_init_errors_name_the_path(self):
        with pytest.raises(ConfigError, match="config.data.synth: labeled_fraction"):
            from_plain(RunConfig, {"data": {"synth": {"labeled_fraction": 2}}}, "config")

    def test_synth_source_takes_no_unlabeled_csv(self):
        with pytest.raises(ConfigError, match="unlabeled_csv needs labeled_csv"):
            from_plain(DataSource, {"synth": {}, "unlabeled_csv": "u.csv"}, "data")


# Property tests. Floats exclude NaN, which equals nothing, itself included.
finite = st.floats(allow_nan=False, allow_infinity=False)
weight = st.floats(0, 10) | st.integers(0, 10)  # an int is a valid float as written
name = st.text(min_size=1, max_size=8)
synth_configs = st.builds(
    SynthConfig,
    num_features=st.integers(1, 50),
    num_classes=st.integers(2, 12),
    samples_per_class=st.integers(1, 5000),
    labeled_fraction=st.floats(0, 1),
    separation_scale=weight,
    noise_std=weight,
    seed=st.integers(0, 2**32 - 1),
)
schemas = st.builds(
    DatasetSchema,
    st.lists(name.filter(lambda n: n != "rating"), min_size=1, max_size=5, unique=True).map(tuple),
    st.lists(name, min_size=2, max_size=5, unique=True).map(tuple),
)
# (data, schema): a schema only for CSV sources, since data.synth builds its own.
sources = st.tuples(st.builds(DataSource, synth=synth_configs), st.none()) | st.tuples(
    st.builds(DataSource, labeled_csv=name, unlabeled_csv=st.none() | name), st.none() | schemas
)
prm_configs = st.builds(
    PrmConfig,
    variant=st.sampled_from(["gbdt", "logistic_regression"]),
    gbdt=st.builds(
        GbdtConfig, rounds=st.integers(min_value=0), shrinkage=st.floats(0, 1, exclude_min=True)
    ),
    logreg=st.builds(
        LogregConfig, iterations=st.integers(min_value=0), l2=st.floats(0, allow_infinity=False)
    ),
)
assl_configs = st.builds(
    AsslConfig,
    embedding_dim=st.integers(1, 64),
    lambda_u=weight,
    alpha=weight,
    batch_size=st.integers(2, 256),
    epochs=st.integers(1, 100),
    inference_head=st.sampled_from(INFERENCE_HEADS),
    suppress_pseudo=st.booleans(),
)
run_configs = st.builds(
    lambda source, **rest: RunConfig(data=source[0], schema=source[1], **rest),
    sources,
    prm=prm_configs,
    assl=assl_configs,
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4, unique=True).map(tuple),
    variant=st.sampled_from(list(VARIANTS)),
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | finite | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)


def _dicts(plain):
    """Every JSON object inside plain, plain included."""
    if isinstance(plain, dict):
        return [plain] + [d for v in plain.values() for d in _dicts(v)]
    if isinstance(plain, list):
        return [d for v in plain for d in _dicts(v)]
    return []


class TestCodecProperties:
    @settings(max_examples=80, deadline=None)
    @given(run_configs)
    def test_round_trip_through_json(self, cfg):
        plain = json.loads(json.dumps(to_plain(cfg)))
        again = from_plain(RunConfig, plain, "config")
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    @settings(max_examples=80, deadline=None)
    @given(run_configs, st.data())
    def test_extra_key_at_any_depth_rejected(self, cfg, data):
        plain = to_plain(cfg)
        target = data.draw(st.sampled_from(_dicts(plain)))
        target["unknown_" + data.draw(st.text(max_size=5))] = data.draw(json_values)
        with pytest.raises(ConfigError):
            from_plain(RunConfig, plain, "config")

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_load_config_returns_a_config_or_raises_config_error(self, tmp_path_factory, data):
        smoke = json.loads(SMOKE_TEXT)
        kind = data.draw(st.sampled_from(["mutated", "json", "bytes"]))
        if kind == "mutated":  # one node of the smoke config replaced by any JSON value
            target = data.draw(st.sampled_from(_dicts(smoke)))
            key = data.draw(st.sampled_from(sorted(target)) | st.text(max_size=5))
            target[key] = data.draw(json_values)
            text = json.dumps(smoke).encode()
        elif kind == "json":
            text = json.dumps(data.draw(json_values)).encode()
        else:
            text = data.draw(st.binary(max_size=40))
        path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
        path.write_bytes(text)
        try:
            assert isinstance(load_config(path), RunConfig)
        except ConfigError:
            pass
