"""CLI contract tests: exit codes, artifacts, determinism, round-trips."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advssl.cli import main
from advssl.data import Dataset, DatasetSchema, SynthConfig, generate_synthetic, save_csv
from advssl.persist import to_plain
from advssl.pipeline import VARIANTS, DataSource, RunConfig, load_config
from advssl.prm import GbdtConfig, LogregConfig, PrmConfig
from advssl.trainer import INFERENCE_HEADS, AsslConfig
from test_persist import splits
from test_prm import time_limit

SMOKE = os.path.join(os.path.dirname(__file__), "..", "configs", "smoke.json")


def load_smoke() -> dict:
    with open(SMOKE) as handle:
        return json.load(handle)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(path, raw: dict) -> str:
    path.write_text(json.dumps(raw))
    return str(path)


def csv_source_config(tmp_path, with_pool: bool) -> dict:
    """Write a smoke-sized CSV source (with or without an unlabeled pool)
    whose schema labels need CSV quoting; return its config."""
    synth = SynthConfig(num_features=5, num_classes=3, samples_per_class=60, labeled_fraction=0.5)
    labeled, unlabeled, _ = generate_synthetic(synth)
    schema = DatasetSchema(labeled.schema.feature_names, ("A,1", "B", 'C"q'))
    data = {"labeled_csv": str(tmp_path / "labeled.csv")}
    save_csv(Dataset(schema, labeled.rows, labeled.labels), data["labeled_csv"])
    if with_pool:
        data["unlabeled_csv"] = str(tmp_path / "unlabeled.csv")
        save_csv(Dataset(schema, unlabeled.rows), data["unlabeled_csv"])
    raw = load_smoke()
    raw.update(data=data, schema=schema.to_dict())
    raw["assl"]["epochs"] = 4
    return raw


class TestRun:
    def test_smoke_run_writes_artifacts(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "run", "--config", SMOKE, "--out", str(tmp_path))
        assert code == 0, err
        run_dirs = list(tmp_path.glob("run-*"))
        assert len(run_dirs) == 1
        seed_dir = run_dirs[0] / "seed_0"
        for name in (
            "prm_model.json",
            "model.json",
            "history.csv",
            "report.json",
            "report.txt",
            "test_split.csv",
            "predictions.csv",
        ):
            assert (seed_dir / name).exists(), name
        report = json.loads((seed_dir / "report.json").read_text())
        assert report["metrics"]["accuracy"] > 1 / 3
        manifest = json.loads((run_dirs[0] / "manifest.json").read_text())
        assert manifest["status"] == "complete"

    def test_output_root_is_out_whatever_the_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ADVSSL_OUTPUT_ROOT", str(tmp_path / "env"))
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(capsys, "run", "--config", SMOKE, "--out", str(tmp_path / "out"))
        assert code == 0, err
        code, _, err = run_cli(capsys, "synth", "--config", SMOKE)
        assert code == 0, err
        assert len(list((tmp_path / "out").glob("run-*"))) == 1
        assert len(list((tmp_path / "runs").glob("synth-*"))) == 1  # --out defaults to runs
        assert not (tmp_path / "env").exists()

    def test_same_config_twice_bit_identical_reports(self, tmp_path, capsys):
        code1, _, _ = run_cli(capsys, "run", "--config", SMOKE, "--out", str(tmp_path / "a"))
        code2, _, _ = run_cli(capsys, "run", "--config", SMOKE, "--out", str(tmp_path / "b"))
        assert code1 == 0 and code2 == 0
        rep_a = next((tmp_path / "a").glob("run-*/seed_0/report.json")).read_bytes()
        rep_b = next((tmp_path / "b").glob("run-*/seed_0/report.json")).read_bytes()
        assert rep_a == rep_b

    def test_identical_seeds_give_identical_reports(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        raw = load_smoke()
        raw["seeds"] = [0, 0]
        cfg_path.write_text(json.dumps(raw))
        from advssl.pipeline import execute_run

        out = execute_run(load_config(cfg_path), str(tmp_path / "out"))
        a, b = out["reports"]
        assert a.to_dict() == b.to_dict()

    def test_missing_csv_exits_3(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "data": {"labeled_csv": str(tmp_path / "nowhere.csv")},
                    "seeds": [0],
                }
            )
        )
        code, _, err = run_cli(capsys, "run", "--config", str(cfg_path), "--out", str(tmp_path))
        assert code == 3
        assert "error: code=3" in err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "run", "--config", str(bad), "--out", str(tmp_path))
        assert code == 2
        assert "error: code=2" in err

    def test_two_data_sources_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        raw = load_smoke()
        raw["data"]["labeled_csv"] = "also.csv"
        cfg.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "run", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 2

    def test_gbdt_loss_increase_exits_4(self, tmp_path, capsys, monkeypatch):
        from itertools import count

        from advssl import prm

        losses = count()
        monkeypatch.setattr(prm, "categorical_ce", lambda probs, labels: next(losses))
        code, _, err = run_cli(capsys, "run", "--config", SMOKE, "--out", str(tmp_path))
        assert code == 4
        assert len(err.splitlines()) == 1 and err.startswith("error: code=4 ")
        (run_dir,) = tmp_path.glob("run-*")
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"].startswith("DivergenceError: ")

    def test_output_root_under_a_file_exits_3(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, _, err = run_cli(
            capsys, "run", "--config", SMOKE, "--out", str(blocker / "sub")
        )
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith("error: code=3 ")

    @pytest.mark.parametrize("seed", [-1, 2**32])
    def test_seed_outside_32_bits_rejected_in_config(self, tmp_path, capsys, seed):
        cfg = tmp_path / "cfg.json"
        raw = load_smoke()
        raw["seeds"] = [seed]
        cfg.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "run", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 2
        assert err.startswith("error: code=2 ") and str(seed) in err

    @pytest.mark.parametrize("seed", [-1, 2**32])
    def test_seed_outside_32_bits_rejected_on_command_line(self, tmp_path, capsys, seed):
        code, _, err = run_cli(
            capsys, "run", "--config", SMOKE, "--out", str(tmp_path), f"--seeds={seed}"
        )
        assert code == 2
        assert err.startswith("error: code=2 ") and str(seed) in err
        assert not list(tmp_path.glob("run-*"))

    def test_csv_source_without_a_pool(self, tmp_path, capsys):
        """Only variants that train on the pseudo pool need one."""
        raw = csv_source_config(tmp_path, with_pool=False)
        no_pool = "error: code=3 reason=no unlabeled rows to pseudo-label; cannot train phase II\n"
        for command, variant, want in (
            ("run", "full", no_pool),
            ("run", "prm_only", ""),
            ("run", "supervised_mlp", ""),
            ("ablate", "full", no_pool),
        ):
            cfg = write_config(tmp_path / f"{variant}.json", {**raw, "variant": variant})
            code, _, err = run_cli(capsys, command, "--config", cfg, "--out", str(tmp_path))
            assert (code, err) == (3 if want else 0, want)

    def test_seed_override_flag(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--config", SMOKE, "--out", str(tmp_path), "--seeds", "3"
        )
        assert code == 0
        assert "seed 3:" in out


class TestPredict:
    @pytest.fixture()
    def trained_run(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "run", "--config", SMOKE, "--out", str(tmp_path))
        assert code == 0, err
        return next(tmp_path.glob("run-*/seed_0"))

    def test_round_trip_matches_in_process_predictions(self, trained_run, capsys):
        code, out, err = run_cli(
            capsys,
            "predict",
            str(trained_run / "model.json"),
            str(trained_run / "test_split.csv"),
        )
        assert code == 0, err
        lines = [l for l in out.splitlines() if l]
        stored = (trained_run / "predictions.csv").read_text().splitlines()[1:]
        assert len(lines) == len(stored)
        for got, want in zip(lines, stored):
            assert got == want  # identical ratings and identical float reprs

    def test_prm_model_also_predicts(self, trained_run, capsys):
        code, out, err = run_cli(
            capsys,
            "predict",
            str(trained_run / "prm_model.json"),
            str(trained_run / "test_split.csv"),
        )
        assert code == 0, err
        assert len(out.splitlines()) > 0

    @pytest.mark.parametrize("name", ["model.json", "prm_model.json"])
    def test_empty_input_empty_output(self, trained_run, tmp_path, capsys, name):
        empty = tmp_path / "empty.csv"
        header = (trained_run / "test_split.csv").read_text().splitlines()[0]
        # prediction input needs features only, not the rating column
        cols = [c for c in header.split(",") if c != "rating"]
        empty.write_text(",".join(cols) + "\n")
        code, out, err = run_cli(capsys, "predict", str(trained_run / name), str(empty))
        assert code == 0, err
        assert out == ""

    def test_quoted_labels_match_predictions_csv_cell_for_cell(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", csv_source_config(tmp_path, with_pool=True))
        code, _, err = run_cli(capsys, "run", "--config", cfg, "--out", str(tmp_path))
        assert code == 0, err
        seed_dir = next(tmp_path.glob("run-*/seed_0"))
        with open(seed_dir / "predictions.csv", newline="") as handle:
            stored = list(csv.reader(handle))[1:]
        assert {row[0] for row in stored} & {"A,1", 'C"q'}
        code, out, err = run_cli(
            capsys, "predict", str(seed_dir / "model.json"), str(seed_dir / "test_split.csv")
        )
        assert code == 0, err
        assert list(csv.reader(io.StringIO(out, newline=""))) == stored

    @pytest.mark.parametrize("name", ["model.json", "prm_model.json"])
    def test_model_file_parsed_once(self, trained_run, capsys, monkeypatch, name):
        loads = []
        real_load = json.load
        monkeypatch.setattr(json, "load", lambda *a, **k: loads.append(1) or real_load(*a, **k))
        code, _, err = run_cli(
            capsys, "predict", str(trained_run / name), str(trained_run / "test_split.csv")
        )
        assert code == 0, err
        assert len(loads) == 1

    def test_schema_mismatch_exits_3(self, trained_run, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong_col\n1.0\n")
        code, _, err = run_cli(capsys, "predict", str(trained_run / "model.json"), str(bad))
        assert code == 3


def _tampered(src, dst, edit):
    """Copy a model file with `edit` applied to its JSON; return the copy's path."""
    payload = json.loads(src.read_text())
    edit(payload)
    dst.write_text(json.dumps(payload))
    return dst


def _first_parameter(payload):
    """The container and key of one trained parameter of either model format."""
    if "networks" in payload:
        return payload["networks"]["encoder"][0]["weights"][0], 0
    if payload["variant"] == "gbdt":
        return payload["gbdt"]["base_score"], 0
    return payload["logreg"]["weights"][0], 0


class TestPredictRejectsBadModelFiles:
    """A tampered model file ends in exit 3 and one error line, never in output."""

    @pytest.fixture()
    def trained_run(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "run", "--config", SMOKE, "--out", str(tmp_path))
        assert code == 0, err
        return next(tmp_path.glob("run-*/seed_0"))

    def _predict_fails(self, capsys, model, trained_run):
        code, out, err = run_cli(capsys, "predict", str(model), str(trained_run / "test_split.csv"))
        assert code == 3
        assert out == ""
        assert err.startswith("error: code=3 ") and len(err.splitlines()) == 1
        return err

    @pytest.mark.parametrize("name", ["model.json", "prm_model.json"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_parameter(self, trained_run, tmp_path, capsys, name, bad):
        def edit(payload):
            container, key = _first_parameter(payload)
            container[key] = bad

        model = _tampered(trained_run / name, tmp_path / name, edit)
        assert "non-finite" in self._predict_fails(capsys, model, trained_run)

    @pytest.mark.parametrize("name", ["model.json", "prm_model.json"])
    def test_missing_key(self, trained_run, tmp_path, capsys, name):
        model = _tampered(trained_run / name, tmp_path / name, lambda p: p.pop("normalizer"))
        assert "normalizer" in self._predict_fails(capsys, model, trained_run)

    @pytest.mark.parametrize("name", ["model.json", "prm_model.json"])
    @pytest.mark.parametrize("fmt", ["advssl/other-model/1", None, 7])
    def test_unknown_format(self, trained_run, tmp_path, capsys, name, fmt):
        def edit(payload):
            payload["format"] = fmt

        model = _tampered(trained_run / name, tmp_path / name, edit)
        assert "format" in self._predict_fails(capsys, model, trained_run)

    @pytest.mark.parametrize("name", ["model.json", "prm_model.json"])
    def test_wrong_schema_hash(self, trained_run, tmp_path, capsys, name):
        def edit(payload):
            payload["schema_hash"] = "0" * 16

        model = _tampered(trained_run / name, tmp_path / name, edit)
        assert "schema_hash" in self._predict_fails(capsys, model, trained_run)

    @pytest.mark.parametrize("name", ["model.json", "prm_model.json"])
    def test_extra_top_level_key(self, trained_run, tmp_path, capsys, name):
        model = _tampered(trained_run / name, tmp_path / name, lambda p: p.update(extra=1))
        assert "unknown key 'extra'" in self._predict_fails(capsys, model, trained_run)

    def test_removed_setting_in_the_config(self, trained_run, tmp_path, capsys):
        def edit(payload):
            payload["config"]["disc_steps"] = 1

        model = _tampered(trained_run / "model.json", tmp_path / "model.json", edit)
        assert "unknown key 'disc_steps'" in self._predict_fails(capsys, model, trained_run)

    def test_tree_node_missing_key(self, trained_run, tmp_path, capsys):
        def edit(payload):
            del payload["gbdt"]["trees"][0][0]["root"]["threshold"]

        model = _tampered(trained_run / "prm_model.json", tmp_path / "prm_model.json", edit)
        assert "tree node" in self._predict_fails(capsys, model, trained_run)


def run_python(*args):
    """sys.executable *args in a fresh interpreter that imports advssl from src/."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )


class TestModuleEntryPoint:
    def test_python_m_advssl_help(self):
        done = run_python("-m", "advssl", "--help")
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: advssl")

    def test_tiny_classes_fail_with_only_the_error_line_on_stderr(self, tmp_path):
        raw = load_smoke()
        raw["data"]["synth"].update(samples_per_class=5, labeled_fraction=0.4)
        cfg = write_config(tmp_path / "cfg.json", raw)
        done = run_python("-m", "advssl", "run", "--config", cfg, "--out", str(tmp_path))
        assert done.returncode == 3
        assert done.stderr == (
            "error: code=3 reason=a split came out empty; adjust fractions or dataset size\n"
        )

    def test_package_root_imports_no_submodule(self):
        script = (
            "import sys, advssl\n"
            "print(advssl.__version__)\n"
            "print(sorted(m for m in sys.modules if m.startswith('advssl.')))\n"
        )
        done = run_python("-c", script)
        assert done.returncode == 0, done.stderr
        version, submodules = done.stdout.splitlines()
        assert version and submodules == "[]"


class TestSynth:
    def test_writes_csv_trio(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "synth", "--config", SMOKE, "--out", str(tmp_path))
        assert code == 0, err
        synth_dir = next(tmp_path.glob("synth-*"))
        for name in ("labeled.csv", "unlabeled.csv", "unlabeled_truth.csv"):
            assert (synth_dir / name).exists()
        labeled = (synth_dir / "labeled.csv").read_text().splitlines()
        assert labeled[0].endswith(",rating")
        unlabeled = (synth_dir / "unlabeled.csv").read_text().splitlines()
        assert "rating" not in unlabeled[0]
        assert len(labeled) - 1 == 200  # labeled_fraction 0.2 of 999 rows

    def test_csv_round_trip_through_pipeline(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "synth", "--config", SMOKE, "--out", str(tmp_path))
        assert code == 0, err
        synth_dir = next(tmp_path.glob("synth-*"))
        raw = load_smoke()
        schema_features = [f"f{i+1}" for i in range(5)]
        cfg = {
            "data": {
                "labeled_csv": str(synth_dir / "labeled.csv"),
                "unlabeled_csv": str(synth_dir / "unlabeled.csv"),
            },
            "schema": {
                "features": schema_features,
                "labels": ["L0", "L1", "L2"],
            },
            "prm": raw["prm"],
            "assl": raw["assl"],
            "seeds": [0],
        }
        cfg_path = tmp_path / "csv_cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run_cli(
            capsys, "run", "--config", str(cfg_path), "--out", str(tmp_path / "out")
        )
        assert code == 0, err


class TestAblate:
    def test_variants_present_and_cells_match_reports(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        raw = load_smoke()
        raw["assl"]["epochs"] = 4
        raw["seeds"] = [0, 1]
        cfg_path.write_text(json.dumps(raw))
        code, out, err = run_cli(
            capsys, "ablate", "--config", str(cfg_path), "--out", str(tmp_path)
        )
        assert code == 0, err
        run_dir = next(tmp_path.glob("ablate-*"))
        table = json.loads((run_dir / "ablation.json").read_text())
        variants = {row["variant"] for row in table["rows"]}
        assert variants == {"prm_only", "supervised_mlp", "no_adversarial", "full"}
        assert len(table["rows"]) == 8  # 4 variants x 2 seeds
        for row in table["rows"]:
            report_path = run_dir / f"seed_{row['seed']}" / row["variant"] / "report.json"
            stored = json.loads(report_path.read_text())
            assert row["macro_f1"] == stored["metrics"]["macro_f1"]
            assert row["accuracy"] == stored["metrics"]["accuracy"]
        assert (run_dir / "ablation.txt").exists()

    def test_single_seed_summary_has_every_metric(self, tmp_path, capsys):
        raw = load_smoke()
        raw["assl"]["epochs"] = 2
        cfg = write_config(tmp_path / "cfg.json", raw)
        code, _, err = run_cli(capsys, "ablate", "--config", cfg, "--out", str(tmp_path))
        assert code == 0, err
        table = json.loads(next(tmp_path.glob("ablate-*/ablation.json")).read_text())
        assert table["summary"].keys() == VARIANTS.keys()
        for row in table["rows"]:
            summary = table["summary"][row["variant"]]
            assert summary.keys() == {
                "macro_precision", "macro_recall", "macro_f1", "weighted_f1", "accuracy", "runs"
            }
            assert summary["runs"] == 1
            assert summary["macro_f1"] == {"mean": row["macro_f1"], "std": 0.0}


class TestAblateWorker:
    """ablate trains supervised_mlp and no_adversarial in a forked worker;
    its failures end like any other, and it leaves no process behind."""

    @pytest.fixture
    def cfg_path(self, tmp_path):
        raw = load_smoke()
        raw["assl"]["epochs"] = 4
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return str(path)

    @staticmethod
    def fail_in_worker(monkeypatch, variant, action):
        from advssl import pipeline

        real = pipeline.run_variant

        def run_variant(prep, v, seed_dir):
            return action() if v == variant else real(prep, v, seed_dir)

        monkeypatch.setattr(pipeline, "run_variant", run_variant)

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_divergence_in_the_worker_exits_4(self, cfg_path, tmp_path, capsys, monkeypatch):
        from advssl.trainer import DivergenceError

        def diverge():
            raise DivergenceError("non-finite L_U at epoch 2, step 9")

        self.fail_in_worker(monkeypatch, "no_adversarial", diverge)
        code, _, err = run_cli(capsys, "ablate", "--config", cfg_path, "--out", str(tmp_path))
        assert code == 4
        assert err == "error: code=4 reason=non-finite L_U at epoch 2, step 9\n"
        (manifest,) = tmp_path.glob("ablate-*/manifest.json")
        assert json.loads(manifest.read_text())["status"] == "failed"
        self.assert_no_child_left()

    def test_worker_ending_without_a_result_exits_3(self, cfg_path, tmp_path, capsys, monkeypatch):
        self.fail_in_worker(monkeypatch, "supervised_mlp", lambda: os._exit(1))
        code, _, err = run_cli(capsys, "ablate", "--config", cfg_path, "--out", str(tmp_path))
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith("error: code=3 reason=ablation worker")
        self.assert_no_child_left()

    def test_worker_skips_exit_handlers_and_buffered_output(self, cfg_path, tmp_path):
        # stdout to a pipe is block-buffered: a worker that flushed its copy
        # of the buffer, or ran atexit handlers, would print them twice.
        script = (
            "import atexit, sys\n"
            "from advssl.cli import main\n"
            "atexit.register(print, 'exit handler')\n"
            "print('buffered before the fork')\n"
            f"sys.exit(main(['ablate', '--config', {cfg_path!r}, '--out', {str(tmp_path)!r}]))\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("buffered before the fork") == 1
        assert proc.stdout.count("exit handler") == 1
        assert proc.stdout.count("ablation complete") == 1


class TestRunSplitWorker:
    """run's GBDT Phase I searches half of the features in a forked split
    worker; its failures end like any other, and it leaves no process behind."""

    def test_worker_ending_mid_fit_exits_3(self, tmp_path, capsys, monkeypatch):
        from advssl import tree

        here, real = os.getpid(), tree.best_split

        def best_split(*args):
            return real(*args) if os.getpid() == here else os._exit(1)

        monkeypatch.setattr(tree, "best_split", best_split)
        with time_limit(30):
            code, _, err = run_cli(capsys, "run", "--config", SMOKE, "--out", str(tmp_path))
        assert code == 3
        assert err == "error: code=3 reason=split worker ended without a result (exit code 1)\n"
        TestAblateWorker.assert_no_child_left()

    def test_loss_guard_here_exits_4_and_leaves_no_child(self, tmp_path, capsys, monkeypatch):
        from itertools import count

        from advssl import prm

        losses = count()
        monkeypatch.setattr(prm, "categorical_ce", lambda probs, labels: next(losses))
        code, _, err = run_cli(capsys, "run", "--config", SMOKE, "--out", str(tmp_path))
        assert code == 4
        assert len(err.splitlines()) == 1 and err.startswith("error: code=4 ")
        TestAblateWorker.assert_no_child_left()

    def test_worker_skips_exit_handlers_and_buffered_output(self, tmp_path):
        # As for ablate: the split worker must not flush this copy of the
        # stdout buffer or run the atexit handlers.
        script = (
            "import atexit, sys\n"
            "from advssl.cli import main\n"
            "atexit.register(print, 'exit handler')\n"
            "print('buffered before the fork')\n"
            f"sys.exit(main(['run', '--config', {SMOKE!r}, '--out', {str(tmp_path)!r}]))\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("buffered before the fork") == 1
        assert proc.stdout.count("exit handler") == 1
        assert proc.stdout.count("run complete") == 1


class TestConfigRoundTrip:
    def test_seed_override_preserves_variant(self, tmp_path):
        raw = load_smoke()
        raw["variant"] = "no_adversarial"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        cfg = load_config(cfg_path)
        assert cfg.variant == "no_adversarial"
        from advssl.pipeline import parse_config

        again = parse_config({**to_plain(cfg), "seeds": [5]})
        assert again.variant == "no_adversarial"
        assert again.seeds == (5,)


# Settings that no longer exist, each set to its old default: an unknown key now.
REMOVED_SETTINGS = {
    "loss_style": lambda raw: raw["assl"].update(loss_style="per_class_bce"),
    "disc_steps": lambda raw: raw["assl"].update(disc_steps=1),
    "train_discriminator": lambda raw: raw["assl"].update(train_discriminator=True),
    "encoder_weight_decay": lambda raw: raw["assl"].update(encoder_weight_decay=0.0),
    "output_dir": lambda raw: raw.update(output_dir=None),
}
# Values out of range, which the configs' own checks reject while decoding.
OUT_OF_RANGE = {
    "rounds_negative": lambda raw: raw["prm"]["gbdt"].update(rounds=-2),
    "max_depth_negative": lambda raw: raw["prm"]["gbdt"].update(max_depth=-1),
    "min_leaf_count_zero": lambda raw: raw["prm"]["gbdt"].update(min_leaf_count=0),
    "shrinkage_zero": lambda raw: raw["prm"]["gbdt"].update(shrinkage=0.0),
    "iterations_negative": lambda raw: raw["prm"].update(logreg={"iterations": -5}),
    "logreg_learning_rate_negative": lambda raw: raw["prm"].update(logreg={"learning_rate": -1}),
    "learning_rate_negative": lambda raw: raw["assl"].update(learning_rate=-0.5),
    "encoder_hidden_negative": lambda raw: raw["assl"].update(encoder_hidden=-3),
    "disc_hidden_negative": lambda raw: raw["assl"].update(disc_hidden=-2),
    "split_negative": lambda raw: raw.update(split=[1.2, -0.1, -0.1]),
}
# Edits of the smoke config that the codec must reject (None: a JSON list as the root).
REJECTED_CONFIGS = {
    "seed_typo": lambda raw: raw.update(seed=[7]),
    "data_synht": lambda raw: raw["data"].update(synht=raw["data"].pop("synth")),
    "prm_gbtd": lambda raw: raw["prm"].update(gbtd=raw["prm"].pop("gbdt")),
    "ablation_key": lambda raw: raw.update(ablation={"no_adversarial": True}),
    "seeds_string": lambda raw: raw.update(seeds="12"),
    "seeds_float": lambda raw: raw.update(seeds=[1.7]),
    "seeds_bool": lambda raw: raw.update(seeds=[True]),
    "split_two": lambda raw: raw.update(split=[0.5, 0.5]),
    "rounds_string": lambda raw: raw["prm"]["gbdt"].update(rounds="3"),
    "data_list": lambda raw: raw.update(data=[1]),
    "variant_no_semi": lambda raw: raw.update(variant="no_semi"),
    "list_root": None,
    "learning_rate_nan": lambda raw: raw["assl"].update(learning_rate=float("nan")),
    "noise_std_infinity": lambda raw: raw["data"]["synth"].update(noise_std=float("inf")),
    **REMOVED_SETTINGS,
    **OUT_OF_RANGE,
}


class TestConfigFailsClosed:
    """A config the codec cannot map onto RunConfig exactly ends in exit 2
    and one error line, before any run directory exists."""

    def _run(self, tmp_path, capsys, edit):
        raw = load_smoke()
        if edit is None:
            raw = [raw]
        else:
            edit(raw)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        return run_cli(capsys, "run", "--config", str(cfg), "--out", str(tmp_path))

    @pytest.mark.parametrize("edit", REJECTED_CONFIGS.values(), ids=REJECTED_CONFIGS.keys())
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, edit):
        code, out, err = self._run(tmp_path, capsys, edit)
        assert code == 2
        assert err.startswith("error: code=2 ") and len(err.splitlines()) == 1, err
        assert "Traceback" not in err and out == ""
        assert not list(tmp_path.glob("run-*"))

    @pytest.mark.parametrize("key", ["learning_rate_nan", "noise_std_infinity"])
    def test_non_finite_literal_rejected_before_any_numpy_warning(
        self, tmp_path, capsys, recwarn, key
    ):
        code, _, err = self._run(tmp_path, capsys, REJECTED_CONFIGS[key])
        assert code == 2 and "non-finite number" in err, err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_logreg_seed_is_not_a_setting(self, tmp_path, capsys):
        """The run's seed seeds Phase I; config.prm.logreg has no seed of its own."""
        code, _, err = self._run(tmp_path, capsys, lambda raw: raw["prm"].update(logreg={"seed": 0}))
        assert (code, err) == (2, "error: code=2 reason=config.prm.logreg has unknown key 'seed'\n")
        assert not list(tmp_path.glob("run-*"))

    def test_error_names_the_path(self, tmp_path, capsys):
        _, _, err = self._run(tmp_path, capsys, REJECTED_CONFIGS["rounds_string"])
        assert "config.prm.gbdt.rounds must be int, got str" in err

    @pytest.mark.parametrize("key", REMOVED_SETTINGS)
    def test_removed_setting_is_named(self, tmp_path, capsys, key):
        code, _, err = self._run(tmp_path, capsys, REMOVED_SETTINGS[key])
        assert code == 2 and f"unknown key '{key}'" in err, err

    @pytest.mark.parametrize(
        "prm",
        [
            {"variant": "gbdt", "gbdt": {"rounds": 0}},
            {"variant": "logistic_regression", "logreg": {"iterations": 0, "learning_rate": 0}},
        ],
    )
    def test_zero_counts_and_rates_still_run(self, tmp_path, capsys, prm):
        def edit(raw):
            raw.update(prm=prm)
            raw["assl"].update(epochs=1, learning_rate=0, disc_learning_rate=0.0)

        code, _, err = self._run(tmp_path, capsys, edit)
        assert code == 0 and err == "", err
        assert len(list(tmp_path.glob("run-*"))) == 1


# Tiny configs that decode: a few features, classes, rows, rounds and epochs.
unit = st.floats(0, 1)
small = st.floats(0, 5) | st.integers(0, 5)
tiny_configs = st.builds(
    RunConfig,
    data=st.builds(
        DataSource,
        synth=st.builds(
            SynthConfig,
            num_features=st.integers(1, 6),
            num_classes=st.integers(2, 4),
            samples_per_class=st.integers(1, 40),
            labeled_fraction=unit,
            separation_scale=small,
            noise_std=small,
            label_noise_rate=unit,
            seed=st.integers(0, 2**32 - 1),
        ),
    ),
    prm=st.builds(
        PrmConfig,
        variant=st.sampled_from(["gbdt", "logistic_regression"]),
        gbdt=st.builds(
            GbdtConfig,
            rounds=st.integers(0, 3),
            max_depth=st.integers(0, 3),
            shrinkage=st.floats(0, 1, exclude_min=True),
            min_leaf_count=st.integers(1, 6),
        ),
        logreg=st.builds(
            LogregConfig, iterations=st.integers(0, 30), learning_rate=small, l2=small
        ),
    ),
    assl=st.builds(
        AsslConfig,
        embedding_dim=st.integers(1, 8),
        encoder_hidden=st.integers(1, 8),
        head_hidden=st.integers(1, 8),
        disc_hidden=st.integers(1, 8),
        lambda_l=small,
        lambda_u=small,
        lambda_adv=small,
        alpha=small,
        epochs=st.integers(1, 2),
        batch_size=st.integers(2, 64),
        learning_rate=small,
        disc_learning_rate=small,
        inference_head=st.sampled_from(INFERENCE_HEADS),
        suppress_pseudo=st.booleans(),
    ),
    split=splits,
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=2, unique=True).map(tuple),
    variant=st.sampled_from(list(VARIANTS)),
)


class TestCliProperties:
    @settings(max_examples=25, deadline=None)
    @given(tiny_configs)
    def test_decoded_config_ends_in_a_known_exit_with_one_error_line(self, tmp_path_factory, cfg):
        work = tmp_path_factory.mktemp("cli")
        path = work / "cfg.json"
        path.write_text(json.dumps(to_plain(cfg)))
        for command in ("run", "ablate"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(path), "--out", str(work / command)])
            errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
            assert code in (0, 2, 3, 4)
            assert "Traceback" not in err.getvalue()
            assert len(errors) == (0 if code == 0 else 1), err.getvalue()
            assert all(line.startswith(f"error: code={code} ") for line in errors)
