"""The benchmark's workloads: config, set-up, one op and the op's output checks.

Every op goes through the public entry point `advssl.cli.main(argv)`, looked
up on the module at call time so that the traced run sees it wrapped. The
program receives only the config file written here.

All workloads use the default-scale synthetic data: 2,223 rows for each of 9
classes, 39 features, 10% labeled (1,404 training rows, 18,006 unlabeled).
"""

from __future__ import annotations

import csv
import glob
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from advssl import cli
from advssl.data import SynthConfig, apply_normalizer, generate_synthetic
from advssl.metrics import macro_f1_score
from advssl.persist import load_assl_model, load_plain_model
from advssl.prm import pseudo_label
from advssl.trainer import predict_proba_matrix

SYNTH = {"num_features": 39, "num_classes": 9, "samples_per_class": 2223, "labeled_fraction": 0.1}
GBDT = {"rounds": 100, "max_depth": 3, "shrinkage": 0.1, "min_leaf_count": 5}
ASSL = {"epochs": 40, "batch_size": 64}
PROB_SUM_TOL = 1e-9


class OpFailed(Exception):
    """The command exited non-zero or one of its outputs failed a check."""


def run_config(prm_variant: str, seed: int) -> dict:
    return {
        "data": {"synth": {**SYNTH, "seed": seed}},
        "prm": {"variant": prm_variant, "gbdt": GBDT},
        "assl": ASSL,
        "seeds": [seed],
    }


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)


def invoke(argv, stdout_path=None) -> None:
    """Run one advssl command in this process; raise OpFailed unless it exits 0."""
    err = io.StringIO()
    out = open(stdout_path, "w", encoding="utf-8") if stdout_path else io.StringIO()
    with out, redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    if code != 0:
        raise OpFailed(f"advssl {argv[0]} exited {code}: {err.getvalue().strip()}")


def one_path(pattern: str) -> str:
    found = glob.glob(pattern)
    if len(found) != 1:
        raise OpFailed(f"expected one match for {os.path.basename(pattern)}, found {len(found)}")
    return found[0]


def read_rows(path, header: bool) -> tuple[list[str], np.ndarray]:
    """Parse `label,p_0,...,p_m` rows as written by predict or predictions.csv."""
    with open(path, newline="", encoding="utf-8") as handle:
        records = list(csv.reader(handle))
    if header:
        records = records[1:]
    labels = [r[0] for r in records]
    try:
        probs = np.array([[float(c) for c in r[1:]] for r in records], dtype=np.float64)
    except ValueError as exc:
        raise OpFailed(f"{os.path.basename(path)}: unparsable probability: {exc}") from None
    return labels, probs.reshape(len(records), -1)


def check_rows(labels, probs, label_names, path) -> None:
    """Valid labels, one probability per class, rows on the simplex, label = argmax."""
    name = os.path.basename(path)
    if probs.shape[1] != len(label_names):
        raise OpFailed(f"{name}: {probs.shape[1]} probabilities per row, expected {len(label_names)}")
    if set(labels) - set(label_names):
        raise OpFailed(f"{name}: labels outside the schema: {sorted(set(labels) - set(label_names))}")
    if not np.all(np.isfinite(probs)) or (probs < 0).any():
        raise OpFailed(f"{name}: probabilities outside [0, inf)")
    worst = float(np.abs(probs.sum(axis=1) - 1.0).max()) if len(labels) else 0.0
    if worst > PROB_SUM_TOL:
        raise OpFailed(f"{name}: a probability row sums to 1 +- {worst:.3g}")
    if [label_names[i] for i in probs.argmax(axis=1)] != labels:
        raise OpFailed(f"{name}: a label is not the argmax of its row")


def same_rows(a, b, what: str) -> None:
    if a[0] != b[0] or not np.array_equal(a[1], b[1]):
        raise OpFailed(f"{what} differs value for value")


def load_report(path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        float(report["metrics"]["macro_f1"])
        return report
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise OpFailed(f"{os.path.basename(path)} does not parse: {exc}") from None


def pool_quality(truth, prm_labels, assl_labels) -> dict:
    """Quality on the unlabeled pool against the synthetic hidden truth.

    pseudo_acc: accuracy of the Phase-I pseudo labels; macro_f1: macro-F1 of
    the Phase-II model. 18,006 rows make both far steadier across seeds than
    the ~300-row test split.
    """
    return {
        "pseudo_acc": float((prm_labels == truth).mean()),
        "macro_f1": macro_f1_score(truth, assl_labels, SYNTH["num_classes"]),
    }


class TrainWorkload:
    """`advssl run` or `advssl ablate` on a fresh seed per op."""

    setup_repeats = 7

    def __init__(self, name, command, prm_variant, variants, warmup, tree_fits_per_op):
        self.name = name
        self.command = command
        self.prm_variant = prm_variant
        self.variants = variants  # variant -> model file that must reproduce its predictions
        self.warmup = warmup
        self.tree_fits_per_op = tree_fits_per_op

    def prepare(self, work_dir, seed) -> None:
        write_json(os.path.join(work_dir, "config.json"), run_config(self.prm_variant, seed))

    def open(self, work_dir, seed) -> None:
        self.config = os.path.join(work_dir, "config.json")

    def op(self, seed, op_dir) -> None:
        invoke([self.command, "--config", self.config, "--seeds", str(seed), "--out", op_dir])

    def variant_dir(self, op_dir, seed, variant) -> str:
        seed_dir = one_path(os.path.join(op_dir, "*", f"seed_{seed}"))
        return seed_dir if self.command == "run" else os.path.join(seed_dir, variant)

    def check(self, seed, op_dir) -> dict:
        """Check every variant's outputs; return the quality of `full`."""
        for variant, model_file in self.variants.items():
            vdir = self.variant_dir(op_dir, seed, variant)
            report = load_report(os.path.join(vdir, "report.json"))
            if report.get("variant") != variant:
                raise OpFailed(f"report.json names variant {report.get('variant')!r}")
            prm, schema, normalizer = load_plain_model(os.path.join(vdir, "prm_model.json"))
            pred_path = os.path.join(vdir, "predictions.csv")
            written = read_rows(pred_path, header=True)
            check_rows(*written, schema.label_names, pred_path)
            if model_file:
                replay = os.path.join(vdir, f"replay-{model_file}.csv")
                invoke(
                    ["predict", os.path.join(vdir, model_file), os.path.join(vdir, "test_split.csv")],
                    stdout_path=replay,
                )
                same_rows(read_rows(replay, header=False), written, f"predict {model_file}")
            if variant == "full":
                full = (vdir, report, prm, normalizer)
        return self.quality(seed, *full)

    def quality(self, seed, vdir, report, prm, normalizer) -> dict:
        """Pool quality of the saved `full` models, computed with public functions."""
        assl, cfg, _, _ = load_assl_model(os.path.join(vdir, "model.json"))
        _, unlabeled, truth = generate_synthetic(SynthConfig(**{**SYNTH, "seed": seed}))
        rows = apply_normalizer(normalizer, unlabeled)
        pseudo = pseudo_label(prm, rows)
        if report.get("pseudo_count") != len(truth):
            raise OpFailed(f"report.json pseudo_count {report.get('pseudo_count')} != {len(truth)}")
        if not math.isclose(
            report.get("pseudo_mean_confidence", -1.0), float(pseudo.confidences.mean()), abs_tol=1e-12
        ):
            raise OpFailed("report.json pseudo_mean_confidence disagrees with prm_model.json")
        assl_labels = predict_proba_matrix(assl, rows.rows, cfg.inference_head).argmax(axis=1)
        quality = pool_quality(truth, pseudo.labels, assl_labels)
        quality["test_macro_f1"] = float(report["metrics"]["macro_f1"])
        return quality


WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload(
            "gbdt-run",
            command="run",
            prm_variant="gbdt",
            variants={"full": "model.json"},
            warmup=False,  # one op takes ~20 s; one-time costs are lost in it
            tree_fits_per_op=GBDT["rounds"] * SYNTH["num_classes"],
        ),
        TrainWorkload(
            "logreg-ablate",
            command="ablate",
            prm_variant="logistic_regression",
            variants={
                "prm_only": "prm_model.json",
                "supervised_mlp": None,
                "no_adversarial": "model.json",
                "full": "model.json",
            },
            warmup=True,
            tree_fits_per_op=0,
        ),
    )
}
