"""Compare two sets of benchmark results, workload by workload.

    python3 bench/compare.py OLD.jsonl NEW.jsonl

Each file holds the JSON lines that `run.py --record FILE` appends, one per
run; several runs (seeds) per workload give a median and quartiles. For every
end-to-end metric of BENCHMARK.json and every workload it prints both
medians, the ratio new/old, both spreads (interquartile distance / median)
and a verdict:

- `worse`: the new median is worse than the old by more than the bound, and
  either both spreads are within the bound or every new run loses to every
  old run;
- `unresolved`: a spread exceeds the metric's bound, and neither every new
  run beats every old run nor the `worse` rule holds;
- `better`: every new run beats every old run, or the new median beats the
  old by more than the old spread;
- `within bound`: otherwise.

Per-layer metrics from traced runs get medians and ratios, no verdict. The
exit code is 1 when any metric is `worse`.
"""

from __future__ import annotations

import json
import os
import sys

from stats import median, spread

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path) -> dict[tuple[str, int], dict[str, list[float]]]:
    """(workload, trace) -> metric -> values, one per recorded run."""
    runs: dict = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            key = (record["workload"], int(record["trace"]))
            for name, metric in record["result"]["metrics"].items():
                runs.setdefault(key, {}).setdefault(name, []).append(float(metric["value"]))
    return runs


def verdict(old, new, better: str, bound: float) -> str:
    old_median, new_median = median(old), median(new)
    if old_median == 0:
        return "n/a"
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new_median - old_median) / abs(old_median)
    every_new_wins = all(sign * (n - o) < 0 for n in new for o in old)
    every_new_loses = all(sign * (n - o) > 0 for n in new for o in old)
    noisy = max(spread(old), spread(new)) > bound
    if worse_by > bound and (every_new_loses or not noisy):
        return "worse"
    if noisy and not every_new_wins:
        return "unresolved"
    if every_new_wins or -worse_by > spread(old):
        return "better"
    return "within bound"


def compare(old_runs, new_runs, spec) -> tuple[list[list[str]], bool]:
    rows, regressed = [], False
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for (workload, trace), new_metrics in sorted(new_runs.items()):
        old_metrics = old_runs.get((workload, trace), {})
        for name, new in new_metrics.items():
            old = old_metrics.get(name)
            if not old:
                continue
            ratio = median(new) / median(old) if median(old) else float("nan")
            row = [workload, name, f"{median(old):.4g}", f"{median(new):.4g}", f"{ratio:.3f}",
                   f"{spread(old):.3f}", f"{spread(new):.3f}"]
            if not trace and name in bounds:
                v = verdict(old, new, bounds[name]["better"], bounds[name]["bound"])
                regressed |= v == "worse"
                row.append(f"{v} (bound {bounds[name]['bound']})")
            else:
                row.append("")
            rows.append(row)
    return rows, regressed


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    rows, regressed = compare(load_runs(argv[0]), load_runs(argv[1]), spec)
    header = ["workload", "metric", "old", "new", "new/old", "old spread", "new spread", "verdict"]
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
