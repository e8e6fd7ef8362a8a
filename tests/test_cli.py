"""CLI contract tests: exit codes, artifacts, determinism, round-trips."""

import contextlib
import csv
import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advssl.cli import main
from advssl.data import Dataset, DatasetSchema, SynthConfig, generate_synthetic, save_csv
from advssl.persist import to_plain
from advssl.pipeline import VARIANTS, DataSource, RunConfig, load_config
from advssl.prm import GbdtConfig, LogregConfig, PrmConfig, train_gbdt
from advssl.trainer import INFERENCE_HEADS, AsslConfig
from test_pipeline import assert_no_child_left, deadline

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


def csv_source_config(tmp_path, with_pool: bool, labels=("A,1", "B", 'C"q')) -> dict:
    """Write a smoke-sized CSV source (with or without an unlabeled pool)
    whose schema labels, by default, need CSV quoting; return its config."""
    synth = SynthConfig(num_features=5, num_classes=3, samples_per_class=60, labeled_fraction=0.5)
    labeled, unlabeled, _ = generate_synthetic(synth)
    schema = DatasetSchema(labeled.schema.feature_names, labels)
    data = {"labeled_csv": str(tmp_path / "labeled.csv")}
    save_csv(Dataset(schema, labeled.rows, labeled.labels), data["labeled_csv"])
    if with_pool:
        data["unlabeled_csv"] = str(tmp_path / "unlabeled.csv")
        save_csv(Dataset(schema, unlabeled.rows), data["unlabeled_csv"])
    raw = load_smoke()
    raw.update(data=data, schema=schema.to_dict())
    raw["assl"]["epochs"] = 4
    return raw


def repeat_first_column(path) -> str:
    """Append a copy of the CSV's first column to every record; return its name."""
    with open(path, newline="") as handle:
        records = list(csv.reader(handle))
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(r + r[:1] for r in records)
    return records[0][0]


def prepend_header_cell(path, cell):
    """Put cell in front of the CSV's header row, and nothing else."""
    with open(path) as handle:
        text = handle.read()
    with open(path, "w") as handle:
        handle.write(f"{cell},{text}")


def set_ratings(path, cell):
    """Rewrite a CSV whose last column is `rating` with every rating cell set to
    cell; None drops the column."""
    with open(path, newline="") as handle:
        records = [r[:-1] for r in csv.reader(handle)]
    if cell is not None:
        records = [records[0] + ["rating"]] + [r + [cell] for r in records[1:]]
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(records)


def run_artifacts(out):
    """Relative path -> bytes of every file of the one run under out but its manifest."""
    run_dir = next(out.glob("run-*"))
    files = [p for p in run_dir.rglob("*") if p.is_file() and p.name != "manifest.json"]
    return {str(p.relative_to(run_dir)): p.read_bytes() for p in files}


class TestRun:
    def test_smoke_run_writes_artifacts(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "run", "--config", SMOKE, "--out", str(tmp_path))
        assert code == 0, err
        run_dirs = list(tmp_path.glob("run-*"))
        assert len(run_dirs) == 1
        seed_dir = run_dirs[0] / "seed_0"
        assert {p.name for p in seed_dir.iterdir()} == {
            "prm_model.json",
            "model.json",
            "history.csv",
            "report.json",
            "test_split.csv",
            "predictions.csv",
        }
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

    def test_a_seed_reports_the_same_after_another_seed(self, tmp_path, capsys):
        from advssl.pipeline import execute_run

        smoke = load_config(SMOKE)
        after = execute_run(dataclasses.replace(smoke, seeds=(1, 0)), str(tmp_path / "a"))
        alone = execute_run(smoke, str(tmp_path / "b"))
        assert after["reports"][1].to_dict() == alone["reports"][0].to_dict()

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

    @pytest.mark.parametrize("source", ["labeled_csv", "unlabeled_csv"])
    def test_column_named_twice_exits_3(self, tmp_path, capsys, source):
        raw = csv_source_config(tmp_path, with_pool=True)
        name = repeat_first_column(raw["data"][source])
        cfg = write_config(tmp_path / "cfg.json", raw)
        code, out, err = run_cli(capsys, "run", "--config", cfg, "--out", str(tmp_path))
        assert (code, out) == (3, "")
        file = os.path.basename(raw["data"][source])
        assert err == f"error: code=3 reason={file}: columns named more than once: {name}\n"
        assert not list(tmp_path.glob("run-*/seed_0/*.json"))

    def test_a_numeric_rating_outside_the_label_names_exits_3(self, tmp_path, capsys):
        raw = csv_source_config(tmp_path, with_pool=True, labels=("1", "2", "3"))
        with open(raw["data"]["labeled_csv"], newline="") as handle:
            records = list(csv.reader(handle))
        records[4][-1] = "0"  # not a label name, so not the label "1" at index 0
        with open(raw["data"]["labeled_csv"], "w", newline="") as handle:
            csv.writer(handle).writerows(records)
        cfg = write_config(tmp_path / "cfg.json", raw)
        code, out, err = run_cli(capsys, "run", "--config", cfg, "--out", str(tmp_path))
        assert (code, out) == (3, "")
        assert err == "error: code=3 reason=labeled.csv: row 4: unknown label '0'\n"

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

    def test_phase1_forks_nothing(self, tmp_path, capsys, monkeypatch):
        def fork():
            raise AssertionError("a process was forked")

        monkeypatch.setattr(os, "fork", fork)
        cfg = load_config(SMOKE)
        labeled, _, _ = generate_synthetic(cfg.data.synth)
        assert len(train_gbdt(labeled, cfg.prm.gbdt).gbdt.trees) == cfg.prm.gbdt.rounds
        code, _, err = run_cli(capsys, "run", "--config", SMOKE, "--out", str(tmp_path))
        assert code == 0, err

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

    def test_repeated_seed_in_the_flag_exits_2(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys, "run", "--config", SMOKE, "--out", str(tmp_path), "--seeds", "0,0"
        )
        assert (code, out) == (2, "")
        assert err == "error: code=2 reason=seeds must be distinct, got [0, 0]\n"
        assert not list(tmp_path.glob("run-*"))


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
        header, stored = (trained_run / "predictions.csv").read_bytes().split(b"\n", 1)
        assert header.startswith(b"predicted_rating,")
        assert out.encode("utf-8") == stored  # the same ratings, float reprs and line ends

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

    def test_csv_with_a_byte_order_mark_predicts_the_same(self, trained_run, tmp_path, capsys):
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + (trained_run / "test_split.csv").read_bytes())
        code, out, err = run_cli(capsys, "predict", str(trained_run / "model.json"), str(marked))
        assert (code, err) == (0, "")
        assert out.splitlines() == (trained_run / "predictions.csv").read_text().splitlines()[1:]

    def test_blank_ratings_read_as_no_rating_column(self, trained_run, tmp_path, capsys):
        unrated = tmp_path / "unrated.csv"
        unrated.write_bytes((trained_run / "test_split.csv").read_bytes())
        set_ratings(unrated, "")
        code, out, err = run_cli(capsys, "predict", str(trained_run / "model.json"), str(unrated))
        assert (code, err) == (0, "")
        assert out.splitlines() == (trained_run / "predictions.csv").read_text().splitlines()[1:]

    def test_header_with_a_trailing_comma_exits_3(self, trained_run, tmp_path, capsys):
        lines = (trained_run / "test_split.csv").read_text().splitlines()
        trailing = tmp_path / "trailing.csv"
        trailing.write_text("".join(line + ",\n" for line in lines))
        code, out, err = run_cli(capsys, "predict", str(trained_run / "model.json"), str(trailing))
        assert (code, out) == (3, "")
        column = len(lines[0].split(",")) + 1
        assert err == f"error: code=3 reason=trailing.csv: header column {column} has no name\n"

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

    def test_column_named_twice_exits_3(self, trained_run, tmp_path, capsys):
        twice = tmp_path / "twice.csv"
        twice.write_bytes((trained_run / "test_split.csv").read_bytes())
        name = repeat_first_column(twice)
        code, out, err = run_cli(capsys, "predict", str(trained_run / "model.json"), str(twice))
        assert (code, out) == (3, "")
        assert err == f"error: code=3 reason=twice.csv: columns named more than once: {name}\n"

    def test_cell_over_the_csv_field_limit_exits_3(self, trained_run, tmp_path, capsys):
        rows = (trained_run / "test_split.csv").read_text().splitlines()
        long = tmp_path / "long.csv"
        long.write_text("\n".join(rows[:2] + ["1" * 131_073 + rows[2][rows[2].index(","):]]))
        code, out, err = run_cli(capsys, "predict", str(trained_run / "model.json"), str(long))
        assert (code, out) == (3, "")
        reason = "long.csv: row 2: field larger than field limit (131072)"
        assert err == f"error: code=3 reason={reason}\n"

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
    if "encoder" in payload:
        return payload["encoder"]["layers"][0]["weights"][0], 0
    if "gbdt" in payload:
        return payload["gbdt"]["base_score"], 0
    return payload["logreg"]["weights"][0], 0


def _narrowed(layer):
    """Drop a layer's last output unit."""
    layer.update(weights=layer["weights"][:-1], bias=layer["bias"][:-1])


# Edits of a smoke model.json that a record's own checks refuse, and the reason each gives.
BAD_ASSL_RECORDS = {
    "weights_1d": (
        lambda p: p["encoder"]["layers"][0].update(weights=p["encoder"]["layers"][0]["weights"][0]),
        "model.encoder.layers[0]: weights must be 2-D, got shape (5,)",
    ),
    "activation_tanh": (
        lambda p: p["encoder"]["layers"][0].update(activation="tanh"),
        "model.encoder.layers[0]: unknown activation 'tanh'",
    ),
    "encoder_layers_do_not_chain": (
        lambda p: _narrowed(p["encoder"]["layers"][0]),
        "model.encoder: layer output dim 15 does not feed layer input dim 16",
    ),
    "heads_disagree_on_classes": (
        lambda p: _narrowed(p["semi_head"]["layers"][-1]),
        "model: classifier heads disagree on the number of classes",
    ),
    "discriminator_two_outputs": (
        lambda p: p["discriminator"]["layers"][-1].update(weights=[[0.0] * 16] * 2, bias=[0, 0]),
        "model: discriminator must emit a single probability",
    ),
    "discriminator_not_sigmoid": (
        lambda p: p["discriminator"]["layers"][-1].update(activation="identity"),
        "model: discriminator output layer must be sigmoid",
    ),
    "labels_repeated": (
        lambda p: p["schema"].update(labels=["L0", "L0", "L1"]),
        "schema: label names must be unique",
    ),
}


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
    @pytest.mark.parametrize("fmt", ["advssl/other-model/1", "advssl/plain-model/2", None, 7])
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

    def test_schema_with_no_features(self, trained_run, tmp_path, capsys):
        def edit(payload):
            payload["schema"]["features"] = []

        model = _tampered(trained_run / "prm_model.json", tmp_path / "prm_model.json", edit)
        err = self._predict_fails(capsys, model, trained_run)
        assert err == "error: code=3 reason=prm_model.json: schema: need at least 1 feature\n"

    @pytest.mark.parametrize("edit, reason", BAD_ASSL_RECORDS.values(), ids=BAD_ASSL_RECORDS.keys())
    def test_refused_by_the_records_own_checks(self, trained_run, tmp_path, capsys, edit, reason):
        model = _tampered(trained_run / "model.json", tmp_path / "model.json", edit)
        err = self._predict_fails(capsys, model, trained_run)
        assert err == f"error: code=3 reason=model.json: {reason}\n"

    def test_removed_setting_in_the_config(self, trained_run, tmp_path, capsys):
        def edit(payload):
            payload["config"]["disc_steps"] = 1

        model = _tampered(trained_run / "model.json", tmp_path / "model.json", edit)
        assert "unknown key 'disc_steps'" in self._predict_fails(capsys, model, trained_run)

    @pytest.mark.parametrize(
        "name, where, record, key",
        [  # the smoke encoder's first layer is relu, so no default could stand in for it
            ("model.json", "encoder.layers[0]", lambda p: p["encoder"]["layers"][0], "activation"),
            ("prm_model.json", "gbdt", lambda p: p["gbdt"], "train_loss"),
        ],
        ids=["relu_layer_activation", "gbdt_train_loss"],
    )
    def test_a_written_key_is_required(
        self, trained_run, tmp_path, capsys, name, where, record, key
    ):
        model = _tampered(trained_run / name, tmp_path / name, lambda p: record(p).pop(key))
        err = self._predict_fails(capsys, model, trained_run)
        assert err == f"error: code=3 reason={name}: model.{where}: missing key {key!r}\n"

    def test_tree_node_missing_key(self, trained_run, tmp_path, capsys):
        def edit(payload):
            del payload["gbdt"]["trees"][0][0]["root"]["threshold"]

        model = _tampered(trained_run / "prm_model.json", tmp_path / "prm_model.json", edit)
        assert "tree node" in self._predict_fails(capsys, model, trained_run)

    def test_network_without_layers(self, trained_run, tmp_path, capsys):
        def edit(payload):
            payload["encoder"]["layers"] = []

        model = _tampered(trained_run / "model.json", tmp_path / "model.json", edit)
        assert "index out of range" in self._predict_fails(capsys, model, trained_run)

    @pytest.mark.parametrize("name", ["model.json", "prm_model.json"])
    def test_normalizer_narrower_than_the_schema(self, trained_run, tmp_path, capsys, name):
        def edit(payload):  # one entry broadcasts over 5 features
            payload["normalizer"] = {k: v[:1] for k, v in payload["normalizer"].items()}

        model = _tampered(trained_run / name, tmp_path / name, edit)
        err = self._predict_fails(capsys, model, trained_run)
        assert "normalizer.mean.shape is (1,); the schema needs (5,)" in err

    @pytest.mark.parametrize("name", ["model.json", "prm_model.json"])
    def test_normalizer_with_a_zero_std_maps_that_feature_to_zero(
        self, trained_run, tmp_path, capsys, name
    ):
        def edit(payload):
            payload["normalizer"]["std"][0] = 0.0

        model = _tampered(trained_run / name, tmp_path / name, edit)
        rows = (trained_run / "test_split.csv").read_text().splitlines()
        moved = tmp_path / "moved.csv"  # feature 0 is 1e9 in every row: constant, no effect
        moved.write_text("\n".join(rows[:1] + ["1e9" + r[r.index(","):] for r in rows[1:]]))
        outputs = []
        for data in (trained_run / "test_split.csv", moved):
            code, out, err = run_cli(capsys, "predict", str(model), str(data))
            assert (code, err) == (0, "")
            outputs.append(out)
        probs = [float(cell) for line in outputs[0].splitlines() for cell in line.split(",")[1:]]
        assert len(probs) == 3 * (len(rows) - 1) and all(map(math.isfinite, probs))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("name", ["model.json", "prm_model.json"])
    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda n: n["std"].__setitem__(0, -1.0), "normalizer: std must be >= 0"),
            (lambda n: n["mean"].__setitem__(0, "0.1"), "normalizer.mean must be a list of numbers"),
            (lambda n: n.update(constant=[0] * 5), "normalizer has unknown key 'constant'"),
        ],
        ids=["negative_std", "string_mean", "constant_key"],
    )
    def test_normalizer_the_codec_refuses(self, trained_run, tmp_path, capsys, name, edit, reason):
        model = _tampered(trained_run / name, tmp_path / name, lambda p: edit(p["normalizer"]))
        assert reason in self._predict_fails(capsys, model, trained_run)

    @pytest.mark.parametrize(
        "value, reason",
        [
            (1.5, "feature must be int, got float"),
            (True, "feature must be int, got bool"),
            ("1e3", "value must be float, got str"),
        ],
        ids=["float_feature", "bool_feature", "string_value"],
    )
    def test_tree_node_of_the_wrong_type(self, trained_run, tmp_path, capsys, value, reason):
        def edit(payload):
            node = payload["gbdt"]["trees"][0][0]["root"]
            key = "value" if isinstance(value, str) else "feature"
            while key not in node:
                node = node["left"]
            node[key] = value

        model = _tampered(trained_run / "prm_model.json", tmp_path / "prm_model.json", edit)
        assert reason in self._predict_fails(capsys, model, trained_run)

    def test_nested_deeper_than_python_recurses(self, trained_run, tmp_path, capsys):
        model = tmp_path / "prm_model.json"
        model.write_text("[" * 100_000 + "]" * 100_000)
        err = self._predict_fails(capsys, model, trained_run)
        assert "prm_model.json: maximum recursion depth exceeded" in err

    def test_plain_model_format_1_is_refused(self, trained_run, tmp_path, capsys):
        def edit(payload):  # the old record: class count and shrinkage stored beside the trees
            payload.update(format="advssl/plain-model/1", num_classes=3)
            payload["gbdt"].update(num_classes=3, shrinkage=0.2)

        model = _tampered(trained_run / "prm_model.json", tmp_path / "prm_model.json", edit)
        err = self._predict_fails(capsys, model, trained_run)
        assert "format 'advssl/plain-model/1' is not advssl/plain-model/4" in err

    def test_logreg_with_more_classes_than_labels(self, trained_run, tmp_path, capsys):
        def edit(payload):  # 4 classes for 3 labels; class 3 wins every row
            del payload["gbdt"]
            weights = [[0.0] * 5 for _ in range(4)]
            payload["logreg"] = {"weights": weights, "bias": [0, 0, 0, 1], "activation": "identity"}

        model = _tampered(trained_run / "prm_model.json", tmp_path / "prm_model.json", edit)
        err = self._predict_fails(capsys, model, trained_run)
        assert "logreg.weights.shape is (4, 5); the schema needs (3, 5)" in err

    @pytest.mark.parametrize("payloads", ["both", "neither"])
    def test_not_exactly_one_payload(self, trained_run, tmp_path, capsys, payloads):
        def edit(payload):
            if payloads == "both":  # a logistic regression beside the GBDT
                layer = {"weights": [[0.0] * 5] * 3, "bias": [0, 0, 0], "activation": "identity"}
                payload["logreg"] = layer
            else:
                del payload["gbdt"]

        model = _tampered(trained_run / "prm_model.json", tmp_path / "prm_model.json", edit)
        err = self._predict_fails(capsys, model, trained_run)
        assert "prm_model.json: model: a plain model holds exactly one of logreg and gbdt" in err

    @pytest.mark.parametrize(
        "layer, reason",
        [
            ({"bias": [0, 0, 0], "activation": "relu"}, "logreg.activation is relu"),
            (
                {"bias": [0, 0], "activation": "identity"},
                "logreg: bias shape (2,) does not match out_dim 3",
            ),
        ],
        ids=["relu", "short_bias"],
    )
    def test_logreg_layer_prediction_cannot_use(self, trained_run, tmp_path, capsys, layer, reason):
        def edit(payload):
            del payload["gbdt"]
            payload["logreg"] = {"weights": [[1.0] * 5] * 3, **layer}

        model = _tampered(trained_run / "prm_model.json", tmp_path / "prm_model.json", edit)
        assert reason in self._predict_fails(capsys, model, trained_run)

    def test_split_on_a_feature_outside_the_schema(self, trained_run, tmp_path, capsys):
        def edit(payload):
            payload["gbdt"]["trees"][0][0]["root"]["feature"] = 99

        model = _tampered(trained_run / "prm_model.json", tmp_path / "prm_model.json", edit)
        err = self._predict_fails(capsys, model, trained_run)
        assert "a split reads feature 99; the schema has 5" in err

    def test_round_with_a_tree_per_class_too_many(self, trained_run, tmp_path, capsys):
        def edit(payload):
            payload["gbdt"]["trees"][0].append(payload["gbdt"]["trees"][0][0])

        model = _tampered(trained_run / "prm_model.json", tmp_path / "prm_model.json", edit)
        err = self._predict_fails(capsys, model, trained_run)
        assert "len(gbdt.trees[0]) is 4; the schema needs 3" in err

    def test_heads_with_more_classes_than_labels(self, trained_run, tmp_path, capsys):
        def edit(payload):  # both heads emit a fourth class that wins every row
            for head in ("supervised_head", "semi_head"):
                layer = payload[head]["layers"][-1]
                layer["weights"].append([0.0] * len(layer["weights"][0]))
                layer["bias"].append(100.0)

        model = _tampered(trained_run / "model.json", tmp_path / "model.json", edit)
        err = self._predict_fails(capsys, model, trained_run)
        assert "supervised_head.out_dim is 4; the schema needs 3" in err


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
            "error: code=3 reason=a split came out empty; the dataset is too small\n"
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
        code, _, err = run_cli(capsys, "run", "--config", SMOKE, "--out", str(tmp_path / "synth"))
        assert code == 0, err

        def artifacts(out):  # relative path -> bytes of every file but the manifest
            run_dir = next((tmp_path / out).glob("run-*"))
            files = [p for p in run_dir.rglob("*") if p.is_file() and p.name != "manifest.json"]
            return {str(p.relative_to(run_dir)): p.read_bytes() for p in files}

        from_csv = artifacts("out")
        assert len(from_csv) == 6 and from_csv == artifacts("synth")

    def test_a_rating_column_in_the_pool_never_reaches_training(self, tmp_path, capsys):
        """The pool with its ratings (unlabeled_truth.csv), without them and with
        every rating blank: one run, byte for byte."""
        code, _, err = run_cli(capsys, "synth", "--config", SMOKE, "--out", str(tmp_path))
        assert code == 0, err
        synth_dir = next(tmp_path.glob("synth-*"))
        blank = synth_dir / "unlabeled_blank.csv"
        blank.write_bytes((synth_dir / "unlabeled_truth.csv").read_bytes())
        set_ratings(blank, "")
        raw = load_smoke()
        schema = {"features": [f"f{i + 1}" for i in range(5)], "labels": ["L0", "L1", "L2"]}
        runs = []
        for pool in ("unlabeled.csv", "unlabeled_truth.csv", blank.name):
            cfg = {
                "data": {
                    "labeled_csv": str(synth_dir / "labeled.csv"),
                    "unlabeled_csv": str(synth_dir / pool),
                },
                "schema": schema,
                "prm": raw["prm"],
                "assl": {**raw["assl"], "epochs": 4},
            }
            cfg_path = write_config(tmp_path / f"{pool}.json", cfg)
            out = tmp_path / pool
            code, _, err = run_cli(capsys, "run", "--config", cfg_path, "--out", str(out))
            assert code == 0, err
            runs.append(run_artifacts(out))
        assert len(runs[0]) == 6 and runs[0] == runs[1] == runs[2]


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
        top = {p.name for p in run_dir.iterdir()}
        assert top == {"manifest.json", "ablation.json", "seed_0", "seed_1"}

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

        real = pipeline.train_variant

        def train_variant(prep, v):
            return action() if v == variant else real(prep, v)

        monkeypatch.setattr(pipeline, "train_variant", train_variant)

    assert_no_child_left = staticmethod(assert_no_child_left)

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

    def test_phase1_failure_kills_the_training_worker_and_exits_4(
        self, cfg_path, tmp_path, capsys, monkeypatch
    ):
        from itertools import count

        from advssl import prm

        def stall():
            time.sleep(30)
            raise AssertionError("the worker was not killed")

        self.fail_in_worker(monkeypatch, "supervised_mlp", stall)
        losses = count()
        monkeypatch.setattr(prm, "categorical_ce", lambda probs, labels: next(losses))
        with deadline(20):  # the stalled worker would outlive it unless killed
            code, _, err = run_cli(capsys, "ablate", "--config", cfg_path, "--out", str(tmp_path))
        assert code == 4
        assert len(err.splitlines()) == 1 and err.startswith("error: code=4 reason=")
        (manifest,) = tmp_path.glob("ablate-*/manifest.json")
        payload = json.loads(manifest.read_text())
        assert payload["status"] == "failed"
        assert payload["error"].startswith("DivergenceError: ")
        self.assert_no_child_left()

    def test_worker_ending_without_a_result_exits_3(self, cfg_path, tmp_path, capsys, monkeypatch):
        self.fail_in_worker(monkeypatch, "supervised_mlp", lambda: os._exit(1))
        code, _, err = run_cli(capsys, "ablate", "--config", cfg_path, "--out", str(tmp_path))
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith("error: code=3 reason=ablation worker")
        self.assert_no_child_left()

    def test_a_failed_fork_closes_its_pipes_and_exits_3(
        self, cfg_path, tmp_path, capsys, monkeypatch
    ):
        def fork():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", fork)
        descriptors = len(os.listdir("/proc/self/fd"))
        code, _, err = run_cli(capsys, "ablate", "--config", cfg_path, "--out", str(tmp_path))
        assert len(os.listdir("/proc/self/fd")) == descriptors
        assert code == 3
        reason = f"cannot fork the ablation worker: {os.strerror(errno.EAGAIN)}"
        assert err == f"error: code=3 reason={reason}\n"
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
    "split": lambda raw: raw.update(split=[0.7, 0.15, 0.15]),
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
    "epochs_zero": lambda raw: raw["assl"].update(epochs=0),
    "num_classes_one": lambda raw: raw["data"]["synth"].update(num_classes=1),
    "noise_std_negative": lambda raw: raw["data"]["synth"].update(noise_std=-1),
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
    "seeds_repeated": lambda raw: raw.update(seeds=[1, 2, 1]),
    "rounds_string": lambda raw: raw["prm"]["gbdt"].update(rounds="3"),
    "data_list": lambda raw: raw.update(data=[1]),
    "variant_no_semi": lambda raw: raw.update(variant="no_semi"),
    "schema_with_synth": lambda raw: raw.update(schema={"features": ["a"], "labels": ["x", "y"]}),
    "list_root": None,
    "learning_rate_nan": lambda raw: raw["assl"].update(learning_rate=float("nan")),
    "noise_std_infinity": lambda raw: raw["data"]["synth"].update(noise_std=float("inf")),
    **REMOVED_SETTINGS,
    **OUT_OF_RANGE,
}


def csv_run(command="run", edit=None):
    """argv builder: command on csv_source_config (no pool) after edit(raw)."""

    def argv(tmp_path):
        raw = csv_source_config(tmp_path, with_pool=False)
        if edit is not None:
            edit(raw)
        return [command, "--config", write_config(tmp_path / "cfg.json", raw)]

    return argv


# Error exits: id -> (argv builder, exit code, reason).
ERROR_EXITS = {
    "seeds_not_integers": (
        lambda tmp_path: ["run", "--config", SMOKE, "--seeds", "abc"],
        2,
        "--seeds must be comma-separated integers, got 'abc'",
    ),
    "config_unreadable": (
        lambda tmp_path: ["run", "--config", str(tmp_path / "absent.json")],
        2,
        "cannot read config absent.json: No such file or directory",
    ),
    "seeds_empty": (
        lambda tmp_path: [
            "run",
            "--config",
            write_config(tmp_path / "cfg.json", {**load_smoke(), "seeds": []}),
        ],
        2,
        "config: need at least one seed",
    ),
    "schema_without_features": (
        csv_run(edit=lambda raw: raw["schema"].update(features=[])),
        2,
        "config.schema: need at least 1 feature",
    ),
    "synth_on_a_csv_config": (
        csv_run("synth"),
        2,
        "synth command needs a config with a data.synth section",
    ),
    "labeled_csv_without_ratings": (
        csv_run(edit=lambda raw: set_ratings(raw["data"]["labeled_csv"], None)),
        3,
        "labeled.csv has no rating column",
    ),
    "labeled_csv_with_blank_ratings": (
        csv_run(edit=lambda raw: set_ratings(raw["data"]["labeled_csv"], "")),
        3,
        "labeled.csv has no rating column",
    ),
    "labeled_csv_of_0_bytes": (
        csv_run(edit=lambda raw: open(raw["data"]["labeled_csv"], "w").close()),
        3,
        "labeled.csv: file has no header row",
    ),
    "labeled_csv_header_over_the_field_limit": (
        csv_run(edit=lambda raw: prepend_header_cell(raw["data"]["labeled_csv"], "f" * 131_073)),
        3,
        "labeled.csv: header row: field larger than field limit (131072)",
    ),
    "schema_with_one_label": (
        csv_run(edit=lambda raw: raw["schema"].update(labels=["A,1"])),
        2,
        "config.schema: need at least 2 rating labels",
    ),
    "schema_with_a_feature_named_rating": (
        csv_run(edit=lambda raw: raw["schema"]["features"].__setitem__(0, "rating")),
        2,
        "config.schema: feature name 'rating' collides with the label column",
    ),
    "schema_with_repeated_labels": (
        csv_run(edit=lambda raw: raw["schema"].update(labels=["A,1", "A,1", "B", 'C"q'])),
        2,
        "config.schema: label names must be unique",
    ),
}


@pytest.mark.parametrize("argv, code, reason", ERROR_EXITS.values(), ids=ERROR_EXITS.keys())
def test_error_exit_with_one_error_line(tmp_path, capsys, argv, code, reason):
    got = run_cli(capsys, *argv(tmp_path), "--out", str(tmp_path / "out"))
    assert got == (code, "", f"error: code={code} reason={reason}\n")
    assert not list((tmp_path / "out").glob("*/*/*.json"))


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
