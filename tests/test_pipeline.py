"""Pipeline-level integration tests, including the data-flow leakage audit."""

import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from advssl import pipeline
from advssl.data import Dataset, DatasetSchema
from advssl.persist import to_plain
from advssl.pipeline import (
    VARIANTS,
    WORKER_VARIANTS,
    ConfigError,
    execute_ablation,
    execute_run,
    load_config,
    parse_config,
    prepare_seed,
    run_variant,
    write_predictions_csv,
)
from advssl.trainer import DivergenceError, train

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
    def test_all_variants_produce_reports(self, smoke_cfg, tmp_path):
        prep = prepare_seed(smoke_cfg, 0)
        for variant in VARIANTS:
            paths, report = run_variant(prep, variant, str(tmp_path / variant))
            with open(paths["predictions"]) as handle:
                assert len(handle.readlines()) == 1 + len(prep.test)
            assert 0.0 <= report.accuracy <= 1.0

    def test_unknown_variant_rejected(self, smoke_cfg, tmp_path):
        prep = prepare_seed(smoke_cfg, 0)
        with pytest.raises(ConfigError):
            run_variant(prep, "mystery", str(tmp_path))
        assert os.listdir(tmp_path) == []

    def test_model_json_unless_the_table_suppresses_the_pseudo_pool(self, smoke_cfg, tmp_path):
        cfg = replace(smoke_cfg, assl=replace(smoke_cfg.assl, epochs=2))
        written = {}
        for suppress in (False, True):  # a config may suppress the pseudo pool itself
            prep = prepare_seed(replace(cfg, assl=replace(cfg.assl, suppress_pseudo=suppress)), 0)
            for variant in VARIANTS:
                paths, _ = run_variant(prep, variant, str(tmp_path / f"{variant}_{suppress}"))
                written[variant, suppress] = set(paths)
        every = {"prm_model", "report_json", "report_txt", "test_split", "predictions"}
        for suppress in (False, True):
            assert written["prm_only", suppress] == every
            assert written["supervised_mlp", suppress] == every | {"history"}
            assert written["no_adversarial", suppress] == every | {"history", "model"}
            assert written["full", suppress] == every | {"history", "model"}


class TestRunConfig:
    def test_hash_changes_with_content(self, smoke_cfg):
        other = replace(smoke_cfg, seeds=(1,))
        assert other.config_hash() != smoke_cfg.config_hash()

    def test_hash_stable(self, smoke_cfg):
        assert smoke_cfg.config_hash() == load_config(SMOKE).config_hash()

    @pytest.mark.parametrize(
        "edit, expected",
        [
            (None, "7c5e4889f681"),
            # A CSV source leaves its null unlabeled_csv out, like any None-default field.
            (lambda raw: {"data": {"labeled_csv": "l.csv"}, "seeds": [3]}, "947150623bcf"),
            # An int given for a float field is hashed as written, not as a float.
            (
                lambda raw: {
                    **raw,
                    "data": {"synth": {**raw["data"]["synth"], "noise_std": 1}},
                    "assl": {**raw["assl"], "alpha": 0},
                },
                "aef24421d813",
            ),
        ],
        ids=["smoke", "csv_source", "ints_for_floats"],
    )
    def test_hash_pinned(self, tmp_path, edit, expected):
        """run-<hash> directory names must not change with the config code."""
        with open(SMOKE) as handle:
            raw = json.load(handle)
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
        write_predictions_csv(path, schema, np.full((4, 2), 0.5))
        before = path.read_bytes()
        # A third probability column: row 2's argmax is a label the schema lacks.
        probs = np.array([[0.6, 0.4, 0.0], [0.4, 0.6, 0.0], [0.2, 0.3, 0.5], [0.6, 0.4, 0.0]])
        with pytest.raises(IndexError):  # the writer raises on row 2
            write_predictions_csv(path, schema, probs)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["predictions.csv"]


class TestRunTimings:
    def test_manifest_times_each_phase_of_each_seed(self, smoke_cfg, tmp_path):
        cfg = replace(smoke_cfg, assl=replace(smoke_cfg.assl, epochs=2), seeds=(3, 4))
        run_dir = execute_run(cfg, str(tmp_path))["run_dir"]
        with open(os.path.join(run_dir, "manifest.json")) as handle:
            timings = json.load(handle)["timings_sec"]
        phases = ("prepare", "phase1_fit", "pseudo_label", "variant")
        assert set(timings) == {"total"} | {
            key for s in cfg.seeds for key in [f"seed_{s}"] + [f"seed_{s}/{p}" for p in phases]
        }
        assert all(0.0 <= t <= timings["total"] for t in timings.values())
        for s in cfg.seeds:
            parts = sum(timings[f"seed_{s}/{p}"] for p in phases)
            assert parts <= timings[f"seed_{s}"] + 0.002  # each part rounded to 1 ms


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def files_under(root):
    return {
        os.path.relpath(os.path.join(d, f), root): os.path.join(d, f)
        for d, _, names in os.walk(root)
        for f in names
    }


def patch_variants(monkeypatch, **actions):
    """Make run_variant call actions[variant]() instead of training those variants."""
    real = pipeline.run_variant

    def run_variant(prep, variant, seed_dir):
        return actions[variant]() if variant in actions else real(prep, variant, seed_dir)

    monkeypatch.setattr(pipeline, "run_variant", run_variant)


class TestAblationWorker:
    """execute_ablation trains WORKER_VARIANTS in a forked worker."""

    @pytest.fixture
    def cfg(self, smoke_cfg):
        return replace(smoke_cfg, assl=replace(smoke_cfg.assl, epochs=4), seeds=(0, 1))

    def test_artifacts_match_variants_trained_inline(self, cfg, tmp_path):
        assert set(WORKER_VARIANTS) == {"supervised_mlp", "no_adversarial"}
        run_dir = execute_ablation(cfg, str(tmp_path / "forked"))["run_dir"]
        assert_no_child_left()
        inline_dir, rows = tmp_path / "inline", []
        for seed in cfg.seeds:
            prep = prepare_seed(cfg, seed)
            for variant in VARIANTS:
                _, rep = run_variant(prep, variant, str(inline_dir / f"seed_{seed}" / variant))
                rows.append(
                    {
                        "variant": variant,
                        "seed": seed,
                        "macro_f1": rep.macro_f1,
                        "macro_precision": rep.macro_precision,
                        "macro_recall": rep.macro_recall,
                        "accuracy": rep.accuracy,
                    }
                )
        forked, inline = files_under(run_dir), files_under(inline_dir)
        tables = {"manifest.json", "ablation.json", "ablation.txt"}
        assert set(forked) == set(inline) | tables
        assert len(inline) == 2 * (5 + 6 + 7 + 7)  # per seed: prm_only has no model or history
        for rel, path in inline.items():
            with open(path, "rb") as a, open(forked[rel], "rb") as b:
                assert a.read() == b.read(), rel
        with open(forked["ablation.json"]) as handle:
            table = json.load(handle)
        assert [(r["seed"], r["variant"]) for r in table["rows"]] == [
            (seed, v) for seed in cfg.seeds for v in VARIANTS
        ]
        assert table["rows"] == rows

    def test_manifest_times_each_variant(self, cfg, tmp_path):
        run_dir = execute_ablation(replace(cfg, seeds=(3,)), str(tmp_path))["run_dir"]
        with open(os.path.join(run_dir, "manifest.json")) as handle:
            timings = json.load(handle)["timings_sec"]
        assert set(timings) == {"total"} | {f"seed_3/{v}" for v in VARIANTS}
        assert all(0.0 <= t <= timings["total"] for t in timings.values())

    def test_worker_exception_raised_here_with_its_type_and_message(
        self, cfg, tmp_path, monkeypatch
    ):
        def diverge():
            raise DivergenceError("non-finite L_L in the worker")

        patch_variants(monkeypatch, no_adversarial=diverge)
        with pytest.raises(DivergenceError, match="^non-finite L_L in the worker$"):
            execute_ablation(cfg, str(tmp_path))
        assert_no_child_left()
        (manifest,) = tmp_path.glob("ablate-*/manifest.json")
        payload = json.loads(manifest.read_text())
        assert payload["status"] == "failed"
        assert payload["error"] == "DivergenceError: non-finite L_L in the worker"

    def test_worker_exception_carries_the_worker_traceback(self, cfg, tmp_path, monkeypatch):
        def add_to_none():
            return None + 1  # raises TypeError in the worker

        patch_variants(monkeypatch, supervised_mlp=add_to_none)
        with pytest.raises(TypeError, match="unsupported operand") as info:
            execute_ablation(cfg, str(tmp_path))
        assert_no_child_left()
        cause = info.value.__cause__
        assert isinstance(cause, pipeline.WorkerTraceback)
        assert "return None + 1  # raises TypeError in the worker" in str(cause)
        assert "in add_to_none" in str(cause)

    def test_worker_ending_without_a_result_raises_child_process_error(
        self, cfg, tmp_path, monkeypatch
    ):
        patch_variants(monkeypatch, supervised_mlp=lambda: os._exit(1))
        with pytest.raises(ChildProcessError, match="without a result .exit code 1"):
            execute_ablation(cfg, str(tmp_path))
        assert_no_child_left()

    def test_failure_here_kills_and_reaps_the_worker(self, cfg, tmp_path, monkeypatch):
        def stall():
            time.sleep(30)
            raise AssertionError("the worker was not killed")

        def diverge():
            raise DivergenceError("full diverged")

        patch_variants(monkeypatch, supervised_mlp=stall, full=diverge)
        t0 = time.monotonic()
        with pytest.raises(DivergenceError, match="full diverged"):
            execute_ablation(cfg, str(tmp_path))
        assert time.monotonic() - t0 < 20
        assert_no_child_left()
