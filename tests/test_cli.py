"""CLI contract tests: exit codes, artifacts, determinism, round-trips."""

import json
import os
import subprocess
import sys

import pytest

from advssl.cli import main
from advssl.pipeline import load_config

SMOKE = os.path.join(os.path.dirname(__file__), "..", "configs", "smoke.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        raw = json.loads(open(SMOKE).read())
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
        raw = json.loads(open(SMOKE).read())
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
        raw = json.loads(open(SMOKE).read())
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

    def test_empty_input_empty_output(self, trained_run, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        header = (trained_run / "test_split.csv").read_text().splitlines()[0]
        # prediction input needs features only, not the rating column
        cols = [c for c in header.split(",") if c != "rating"]
        empty.write_text(",".join(cols) + "\n")
        code, out, err = run_cli(capsys, "predict", str(trained_run / "model.json"), str(empty))
        assert code == 0, err
        assert out == ""

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


class TestModuleEntryPoint:
    def test_python_m_advssl_help(self):
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        done = subprocess.run(
            [sys.executable, "-m", "advssl", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: advssl")


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
        raw = json.loads(open(SMOKE).read())
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
        raw = json.loads(open(SMOKE).read())
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


class TestAblateWorker:
    """ablate trains supervised_mlp and no_adversarial in a forked worker;
    its failures end like any other, and it leaves no process behind."""

    @pytest.fixture
    def cfg_path(self, tmp_path):
        with open(SMOKE) as handle:
            raw = json.load(handle)
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


class TestConfigRoundTrip:
    def test_seed_override_preserves_variant(self, tmp_path):
        raw = json.loads(open(SMOKE).read())
        raw["variant"] = "no_adversarial"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        cfg = load_config(cfg_path)
        assert cfg.variant == "no_adversarial"
        from advssl.persist import to_plain
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
}


class TestConfigFailsClosed:
    """A config the codec cannot map onto RunConfig exactly ends in exit 2
    and one error line, before any run directory exists."""

    def _run(self, tmp_path, capsys, edit):
        raw = json.loads(open(SMOKE).read())
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

    def test_error_names_the_path(self, tmp_path, capsys):
        _, _, err = self._run(tmp_path, capsys, REJECTED_CONFIGS["rounds_string"])
        assert "config.prm.gbdt.rounds must be int, got str" in err

    @pytest.mark.parametrize("key", REMOVED_SETTINGS)
    def test_removed_setting_is_named(self, tmp_path, capsys, key):
        code, _, err = self._run(tmp_path, capsys, REMOVED_SETTINGS[key])
        assert code == 2 and f"unknown key '{key}'" in err, err
