"""Persistence round-trips must be bit-exact for 64-bit floats."""

import os

import numpy as np
import pytest

from advssl.data import Dataset, DatasetSchema, fit_normalizer
from advssl.persist import (
    load_assl_model,
    load_plain_model,
    save_assl_model,
    save_plain_model,
    write_json,
)
from advssl.prm import GbdtConfig, LogregConfig, train_gbdt, train_logreg
from advssl.trainer import AsslConfig, init_assl_model


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
        model = train_logreg(ds, LogregConfig(iterations=40, seed=5))
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
        assert cfg2.to_dict() == cfg.to_dict()
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


class TestWriteJson:
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
