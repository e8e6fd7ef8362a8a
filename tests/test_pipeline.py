"""Pipeline-level integration tests, including the data-flow leakage audit."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from advssl.data import Dataset, DatasetSchema
from advssl.persist import to_plain
from advssl.pipeline import (
    VARIANTS,
    ConfigError,
    load_config,
    parse_config,
    prepare_seed,
    run_variant,
    write_predictions_csv,
)
from advssl.trainer import train

SMOKE = os.path.join(os.path.dirname(__file__), "..", "configs", "smoke.json")


@pytest.fixture(scope="module")
def smoke_cfg():
    return load_config(SMOKE)


class TestPrepareSeed:
    def test_normalizer_fitted_on_train_only(self, smoke_cfg):
        prep = prepare_seed(smoke_cfg, 0)
        # normalized train split must be centered; val/test generally not
        assert np.all(np.abs(prep.train.rows.mean(axis=0)) < 1e-10)
        assert len(prep.train) + len(prep.val) + len(prep.test) == 200

    def test_pseudo_pool_covers_unlabeled(self, smoke_cfg):
        prep = prepare_seed(smoke_cfg, 0)
        assert len(prep.pseudo) == 799  # 999 rows - 200 labeled
        assert np.all(prep.pseudo.confidences >= 1 / 3 - 1e-12)

    def test_variant_config_adjustments(self, smoke_cfg):
        base = prepare_seed(smoke_cfg, 0).assl_cfg
        assert list(VARIANTS) == ["prm_only", "supervised_mlp", "no_adversarial", "full"]
        assert VARIANTS["prm_only"] is None
        assert replace(base, **VARIANTS["no_adversarial"]).alpha == 0.0
        assert replace(base, **VARIANTS["supervised_mlp"]).suppress_pseudo
        assert replace(base, **VARIANTS["full"]) == base


class TestLeakageAudit:
    """Validation/test labels and hidden truth must never steer training
    math. Permuting them may only change snapshot selection, nothing about
    the preprocessing, the PRM, the pseudo labels or the per-step
    parameter trajectory."""

    def test_poisoned_val_test_labels_leave_training_untouched(self, smoke_cfg):
        prep = prepare_seed(smoke_cfg, 0)
        rng = np.random.default_rng(123)
        poisoned_val = Dataset(
            prep.val.schema, prep.val.rows, rng.permutation(prep.val.labels)
        )

        def collect(val_ds):
            traj = []

            def hook(step, model):
                if step <= 20:
                    traj.append(
                        [a.copy() for a in model.encoder.param_arrays()]
                        + [a.copy() for a in model.supervised_head.param_arrays()]
                    )

            cfg = prep.assl_cfg
            train(prep.train, prep.pseudo, val_ds, cfg, on_step=hook)
            return traj

        clean = collect(prep.val)
        poisoned = collect(poisoned_val)
        assert len(clean) == len(poisoned) > 0
        for a, b in zip(clean, poisoned):
            for x, y in zip(a, b):
                np.testing.assert_array_equal(x, y)

    def test_normalizer_and_prm_ignore_eval_labels(self, smoke_cfg):
        # identical inputs -> identical prep regardless of what happens to
        # val/test labels afterwards (they are produced by the same split)
        a = prepare_seed(smoke_cfg, 1)
        b = prepare_seed(smoke_cfg, 1)
        np.testing.assert_array_equal(a.normalizer.mean, b.normalizer.mean)
        np.testing.assert_array_equal(a.pseudo.labels, b.pseudo.labels)
        grid = np.random.default_rng(5).normal(size=(10, 5))
        np.testing.assert_array_equal(
            a.prm_model.predict_proba_matrix(grid), b.prm_model.predict_proba_matrix(grid)
        )


class TestRunVariant:
    def test_all_variants_produce_reports(self, smoke_cfg):
        prep = prepare_seed(smoke_cfg, 0)
        for variant in VARIANTS:
            result = run_variant(prep, variant)
            assert result.predictions.shape[0] == len(prep.test)
            assert 0.0 <= result.report.accuracy <= 1.0

    def test_unknown_variant_rejected(self, smoke_cfg):
        prep = prepare_seed(smoke_cfg, 0)
        with pytest.raises(ConfigError):
            run_variant(prep, "mystery")


class TestRunConfig:
    def test_hash_changes_with_content(self, smoke_cfg):
        other = replace(smoke_cfg, seeds=(1,))
        assert other.config_hash() != smoke_cfg.config_hash()

    def test_hash_stable(self, smoke_cfg):
        assert smoke_cfg.config_hash() == load_config(SMOKE).config_hash()

    @pytest.mark.parametrize(
        "edit, expected",
        [
            (None, "d75511507399"),
            # A CSV source keeps "unlabeled_csv": null in the hashed payload.
            (lambda raw: {"data": {"labeled_csv": "l.csv"}, "seeds": [3]}, "a42127298784"),
            # An int given for a float field is hashed as written, not as a float.
            (
                lambda raw: {
                    **raw,
                    "data": {"synth": {**raw["data"]["synth"], "noise_std": 1}},
                    "assl": {**raw["assl"], "alpha": 0},
                },
                "4e5f2e45e2a5",
            ),
        ],
        ids=["smoke", "csv_source", "ints_for_floats"],
    )
    def test_hash_pinned(self, tmp_path, edit, expected):
        """run-<hash> directory names must not change with the config code."""
        raw = json.loads(open(SMOKE).read())
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(edit(raw) if edit else raw))
        assert load_config(path).config_hash() == expected

    def test_missing_source_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"seeds": [0]})

    def test_conflicting_ablation_flags_rejected(self, smoke_cfg):
        """There are no ablation flags: the key is unknown, set or not."""
        raw = to_plain(smoke_cfg)
        raw["ablation"] = {"no_adversarial": True, "no_semi": True}
        with pytest.raises(ConfigError, match="unknown key 'ablation'"):
            parse_config(raw)

    def test_round_trip_through_the_codec(self, smoke_cfg):
        assert parse_config(to_plain(smoke_cfg)) == smoke_cfg


class TestArtifactWriters:
    def test_predictions_csv_failing_part_way_keeps_previous_file(self, tmp_path):
        schema = DatasetSchema(("a",), ("L0", "L1"))
        path = tmp_path / "predictions.csv"
        probs = np.full((4, 2), 0.5)
        write_predictions_csv(path, schema, np.array([0, 1, 0, 1]), probs)
        before = path.read_bytes()
        with pytest.raises(IndexError):  # no label 5: the writer raises on row 2
            write_predictions_csv(path, schema, np.array([0, 1, 5, 1]), probs)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["predictions.csv"]
