"""Per-layer metrics and structural checks computed from one traced op.

A layer is a module of `src/advssl`. Metric names are
`<layer>.<function>.<calls|s|self_s|rows>`:

- `calls`: number of calls;
- `s`: inclusive seconds of the outermost calls;
- `self_s`: seconds inside the function minus its traced callees;
- `rows`: rows the function read or wrote, from the probes below.
"""

from __future__ import annotations

import math

from tracer import NAME, PARENT, VALUE, nearest_ancestor, root_ns, summarize

LAYERS = ("data", "tree", "prm", "nnet", "trainer", "baseline", "metrics", "persist", "pipeline", "cli")

# Metric -> span names whose statistic it sums. The statistic is the metric's suffix.
SPAN_METRICS = {
    "tree.fit_regression_tree.calls": ["tree.fit_regression_tree"],
    "tree.fit_regression_tree.s": ["tree.fit_regression_tree"],
    "tree.best_split.calls": ["tree.best_split"],
    "tree.best_split.s": ["tree.best_split"],
    "prm.train_prm.s": ["prm.train_prm"],
    "pipeline.prepare_seed.s": ["pipeline.prepare_seed"],
    "tree.predict.calls": ["tree.RegressionTree.predict"],
    "tree.predict.s": ["tree.RegressionTree.predict"],
    "prm.pseudo_label.rows": ["prm.pseudo_label"],
    "prm.pseudo_label.s": ["prm.pseudo_label"],
    "nnet.mlp_forward.calls": ["nnet.mlp_forward"],
    "nnet.mlp_forward.s": ["nnet.mlp_forward"],
    "nnet.mlp_backward.calls": ["nnet.mlp_backward"],
    "nnet.mlp_backward.s": ["nnet.mlp_backward"],
    "nnet.adam_step.calls": ["nnet.adam_step"],
    "nnet.adam_step.s": ["nnet.adam_step"],
    "nnet.l2_penalty.calls": ["nnet.l2_penalty"],
    "nnet.l2_penalty.s": ["nnet.l2_penalty"],
    "trainer.train.s": ["trainer.train"],
    "trainer.discriminator_step.s": ["trainer.discriminator_step"],
    "trainer.generator_step.s": ["trainer.generator_step"],
    "trainer.predict_proba_matrix.s": ["trainer.predict_proba_matrix"],
    "baseline.train_supervised.s": ["baseline.train_supervised"],
    "data.save_csv.rows": ["data.save_csv"],
    "data.save_csv.s": ["data.save_csv"],
    "persist.save_plain_model.s": ["persist.save_plain_model"],
    "persist.save_assl_model.s": ["persist.save_assl_model"],
    "pipeline.write_seed_artifacts.self_s": ["pipeline.write_seed_artifacts"],
    "data.generate_synthetic.s": ["data.generate_synthetic"],
    "data.stratified_split.s": ["data.stratified_split"],
    "data.normalize.s": ["data.fit_normalizer", "data.apply_normalizer"],
    "metrics.classification_report.s": ["metrics.classification_report"],
    "metrics.macro_f1_score.calls": ["metrics.macro_f1_score"],
}
SUFFIX_STAT = {"calls": "calls", "s": "s", "self_s": "self_s", "rows": "value"}
UNITS = {"calls": "count", "s": "s", "self_s": "s", "rows": "count"}

STEP = "trainer.generator_step"
TRAIN = "trainer.train"
ENCODER_INPUT = "nnet.mlp_forward"
DERIVED_METRICS = {
    "trainer.steps": ("count", "lower"),
    "trainer.step_ms": ("ms", "lower"),
    "trainer.encoder_forward_per_step": ("calls/step", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.root_coverage": ("ratio", "higher"),
}


def _steps_expected(args, result):
    cfg = args["cfg"]
    return cfg.epochs * math.ceil(len(args["labeled"]) / cfg.batch_size)


# Span name -> fn(bound arguments, result) -> number stored on the span.
PROBES = {
    "prm.pseudo_label": lambda args, result: len(args["unlabeled"]),
    "data.save_csv": lambda args, result: len(args["ds"]),
    ENCODER_INPUT: lambda args, result: args["x"].shape[-1],
    TRAIN: _steps_expected,
}


def metric_specs() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    specs = {name: (UNITS[name.rsplit(".", 1)[1]], "lower") for name in SPAN_METRICS}
    specs.update(DERIVED_METRICS)
    specs.update({f"{layer}.self_s": ("s", "lower") for layer in LAYERS})
    return specs


def per_layer_metrics(spans, wrapped, num_features, traced_s, untraced_s):
    """(metrics, absent): every per-layer metric of one traced op.

    A metric whose functions are no longer in the program reads 0 and is
    listed in `absent`.
    """
    stats = summarize(spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "value": 0}
    metrics, absent = {}, []
    for metric, names in SPAN_METRICS.items():
        if not any(n in wrapped for n in names):
            absent.append(metric)
        stat = SUFFIX_STAT[metric.rsplit(".", 1)[1]]
        metrics[metric] = sum(stats.get(n, empty)[stat] for n in names)

    steps = stats.get(STEP, empty)["calls"]
    owners = {TRAIN, "trainer.predict_proba_matrix"}

    def in_training(i):  # under train, but not under its validation forward pass
        owner = nearest_ancestor(spans, i, owners)
        return owner >= 0 and spans[owner][NAME] == TRAIN

    encoder_calls = sum(
        1
        for i, span in enumerate(spans)
        if span[NAME] == ENCODER_INPUT and span[VALUE] == num_features and in_training(i)
    )
    metrics["trainer.steps"] = steps
    metrics["trainer.step_ms"] = 1000.0 * stats.get(TRAIN, empty)["s"] / steps if steps else 0.0
    metrics["trainer.encoder_forward_per_step"] = encoder_calls / steps if steps else 0.0
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    metrics["trace.root_coverage"] = root_ns(spans) / 1e9 / traced_s
    for name in ("trainer.steps", "trainer.step_ms", "trainer.encoder_forward_per_step"):
        if STEP not in wrapped or TRAIN not in wrapped:
            absent.append(name)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            (s["self_s"] for name, s in stats.items() if name.split(".", 1)[0] == layer), 0.0
        )
    return metrics, absent


def structural_checks(spans, wrapped, tree_fits_per_op, traced_s) -> dict[str, dict]:
    """Counts the traced op must show. Each entry has `ok` True, False or None (absent)."""
    checks = {}
    fits = "tree.fit_regression_tree"
    seen_fits = sum(1 for s in spans if s[NAME] == fits)
    checks["tree_fits_per_op"] = {
        "expected": tree_fits_per_op,
        "seen": seen_fits,
        "ok": (seen_fits == tree_fits_per_op) if fits in wrapped else None,
    }

    steps_by_train = {i: 0 for i, s in enumerate(spans) if s[NAME] == TRAIN}
    for i, span in enumerate(spans):
        if span[NAME] == STEP:
            owner = nearest_ancestor(spans, i, {TRAIN})
            if owner >= 0:
                steps_by_train[owner] += 1
    per_train = [
        {"expected": spans[i][VALUE], "seen": n} for i, n in steps_by_train.items()
    ]
    checks["steps_per_phase2_variant"] = {
        "calls": per_train,
        "ok": all(t["expected"] == t["seen"] for t in per_train)
        if STEP in wrapped and TRAIN in wrapped
        else None,
    }

    coverage = root_ns(spans) / 1e9 / traced_s
    roots = sorted({s[NAME] for s in spans if s[PARENT] < 0})
    checks["root_coverage"] = {"roots": roots, "seen": coverage, "ok": coverage >= 0.99}
    return checks
