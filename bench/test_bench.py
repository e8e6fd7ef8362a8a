"""Unit tests for the benchmark's own code: tracing, statistics, metric names."""

from __future__ import annotations

import inspect
import json
import os
import re
import statistics

import pytest

import compare
import layers
import run
from stats import median, quartiles, spread
from tracer import Tracer, package_modules, root_ns, summarize, traced

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def span(name, start, end, parent, outer=True, value=None):
    return [name, start, end, parent, outer, value]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("a", 0, 100, -1),
        span("b", 10, 50, 0),
        span("c", 20, 30, 1),
        span("b", 60, 80, 0),
    ]
    stats = summarize(spans)
    assert stats["a"]["self_s"] == pytest.approx(40e-9)
    assert stats["b"]["self_s"] == pytest.approx(50e-9)
    assert stats["c"]["self_s"] == pytest.approx(10e-9)
    assert stats["b"]["calls"] == 2 and stats["b"]["s"] == pytest.approx(60e-9)
    assert sum(s["self_s"] for s in stats.values()) == pytest.approx(root_ns(spans) / 1e9)


def test_recursive_calls_count_inclusive_time_once():
    spans = [span("r", 0, 100, -1), span("r", 10, 60, 0, outer=False)]
    stats = summarize(spans)
    assert stats["r"] == {"calls": 2, "s": pytest.approx(100e-9), "self_s": pytest.approx(100e-9), "value": 0}


def test_tracer_links_children_and_stores_probe_values():
    from advssl import metrics

    ticks = iter(range(0, 10_000, 10))
    tracer = Tracer({"metrics.macro_f1_score": lambda args, result: args["num_classes"]}, clock=lambda: next(ticks))
    with traced(tracer):
        assert metrics.macro_f1_score([0, 1, 1], [0, 1, 0], 2) == pytest.approx(2 / 3)
    names = [s[0] for s in tracer.spans]
    assert names[0] == "metrics.macro_f1_score"
    assert {"metrics.confusion_matrix", "metrics.classification_report"} <= set(names)
    assert all(s[3] == 0 for s in tracer.spans[1:] if s[0].startswith("metrics.c"))
    assert tracer.spans[0][5] == 2
    stats = summarize(tracer.spans)
    assert sum(s["self_s"] for s in stats.values()) == pytest.approx(root_ns(tracer.spans) / 1e9)


def _bindings():
    found = {}
    for mod in package_modules():
        for attr, obj in vars(mod).items():
            found[(mod.__name__, attr)] = obj
            if inspect.isclass(obj):
                for mattr, method in vars(obj).items():
                    found[(mod.__name__, obj.__name__, mattr)] = method
    return found


def test_wrappers_cover_every_importer_and_are_restored():
    from advssl import prm, tree, trainer

    before = _bindings()
    originals = (tree.best_split, prm.fit_regression_tree, trainer.adam_step, tree.RegressionTree.predict)
    with pytest.raises(RuntimeError):
        with traced(Tracer()) as tracer:
            assert tree.best_split is not originals[0]
            assert prm.fit_regression_tree is not originals[1]
            assert trainer.adam_step is not originals[2]
            assert tree.RegressionTree.predict is not originals[3]
            assert {"tree.best_split", "nnet.adam_step", "tree.RegressionTree.predict"} <= tracer.wrapped
            raise RuntimeError("restore even when the traced code raises")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 7.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert median(values) == statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert spread([2.5]) == 0.0
    with pytest.raises(ValueError):
        quartiles([])


def test_metric_names_follow_the_pattern_and_match_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME_PATTERN.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.metric_specs()


def test_per_layer_metrics_count_encoder_passes_per_training_step():
    f = 39
    spans = [
        span("cli.main", 0, 1000, -1),
        span("trainer.train", 10, 900, 0, value=1),
        span("trainer.discriminator_step", 20, 100, 1),
        span("nnet.mlp_forward", 21, 30, 2, value=f),
        span("nnet.mlp_forward", 31, 40, 2, value=f),
        span("nnet.mlp_forward", 41, 50, 2, value=32),
        span("trainer.generator_step", 100, 300, 1),
        span("nnet.mlp_forward", 101, 110, 6, value=f),
        span("nnet.mlp_forward", 111, 120, 6, value=f),
        span("trainer.predict_proba_matrix", 300, 400, 1),
        span("nnet.mlp_forward", 301, 310, 9, value=f),
    ]
    wrapped = {s[0] for s in spans}
    metrics, absent = layers.per_layer_metrics(spans, wrapped, f, traced_s=1e-6, untraced_s=0.8e-6)
    assert metrics["trainer.steps"] == 1
    assert metrics["trainer.encoder_forward_per_step"] == 4
    assert metrics["trace.overhead_frac"] == pytest.approx(0.25)
    assert metrics["trace.root_coverage"] == pytest.approx(1.0)
    assert "tree.best_split.calls" in absent and "trainer.steps" not in absent
    checks = layers.structural_checks(spans, wrapped, 0, traced_s=1e-6)
    assert checks["steps_per_phase2_variant"]["ok"] is True
    assert checks["tree_fits_per_op"]["ok"] is None  # the function is absent, not failing
    assert checks["root_coverage"]["ok"] is True


@pytest.mark.parametrize(
    "old, new, better, expected",
    [
        ([10.0, 10.1, 9.9, 10.0], [13.0, 13.1, 12.9, 13.0], "lower", "worse"),
        ([10.0, 10.1, 9.9, 10.0], [10.2, 10.1, 10.3, 10.2], "lower", "within bound"),
        ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "lower", "better"),
        ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "higher", "worse"),
        ([5.0, 10.0, 15.0, 20.0], [9.0, 10.0, 11.0, 10.5], "lower", "unresolved"),
        ([5.0, 10.0, 15.0, 20.0], [1.0, 2.0, 3.0, 4.0], "lower", "better"),
        ([5.0, 10.0, 15.0, 20.0], [21.0, 30.0, 40.0, 50.0], "lower", "worse"),
        ([5.0, 10.0, 15.0, 20.0], [1.0, 0.5, 0.7, 0.9], "higher", "worse"),
        ([5.0, 10.0, 15.0, 20.0], [6.0, 20.0, 25.0, 30.0], "lower", "unresolved"),
    ],
)
def test_verdict(old, new, better, expected):
    assert compare.verdict(old, new, better, bound=0.1) == expected
