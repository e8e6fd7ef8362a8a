"""Benchmark of the advssl command line, one workload per invocation.

    python3 bench/run.py --workload gbdt-run --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload logreg-ablate --seed 3 --seconds 20 --trace 1 --record out.jsonl

Load model: closed loop, one caller, one command at a time, in this process,
through `advssl.cli.main(argv)`. A run sets the workload up in a fresh
interpreter, runs one untimed warm-up op where the workload asks for one,
then runs ops back to back until --seconds have passed (at least one op),
then sets the workload up again in fresh interpreters as often as the
workload asks (setup_s is the median of all set-ups). Op k of a run uses seed --seed + k.
After the timed loop every op's outputs are checked; an op fails when its
command exits non-zero or a check fails.

End-to-end metrics (--trace 0), each the median over the run's ops:

- setup_s: fresh interpreter to first op ready;
- wall_s: op wall time;
- peak_rss_mb: peak resident memory of this process up to the end of the
  timed ops (the output checks run after it is read);
- ok_frac: ops that succeeded / ops attempted;
- macro_f1: macro-F1 of the Phase-II (`full`) model on the 18,006-row
  unlabeled pool against the synthetic hidden truth;
- pseudo_acc: accuracy of the Phase-I pseudo labels on the same pool.

Both quality metrics are computed from the saved models with public
functions, outside the timed op. The test-split macro-F1 of report.json is
listed per op in the `info` line.

With --trace 1 the same untimed-then-timed ops run, then one more op with
the same seed as the first timed op runs traced; the last line then holds the
per-layer metrics of bench/layers.py (trace.overhead_frac compares the traced
op with the median timed op), and the run also reports the golden digests of
bench/digests.py. The last line of stdout is always one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "macro_f1": "ratio",
    "pseudo_acc": "ratio",
}


class SetupFailed(Exception):
    pass


@dataclass
class Op:
    seed: int
    out_dir: str
    wall_s: float = 0.0
    error: str | None = None
    quality: dict = field(default_factory=dict)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the run's result as one JSON line to this file")
    return parser.parse_args(argv)


def pin_threads() -> dict[str, int]:
    """Pin BLAS/OpenMP pools to one thread, before numpy loads.

    The networks multiply 64-row batches, too small for a second BLAS thread
    to pay; an idle pool thread spins, and the op's wall time then hangs on
    the second CPU being free. One thread is at most nproc on any machine.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: 1 for var in THREAD_VARS}


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "advssl")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as handle:
                    total += sum(1 for _ in handle)
    return total


def prepare(workload: str, seed: int, work_dir: str) -> float:
    """Set the workload up in a fresh interpreter; return its wall time."""
    os.makedirs(work_dir)
    argv = [sys.executable, os.path.join(BENCH_DIR, "prepare.py"), workload, str(seed), work_dir]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SetupFailed(proc.stderr.strip()[-2000:] or f"exit code {proc.returncode}")
    return elapsed


def run_op(workload, seed: int, out_dir: str) -> Op:
    from workloads import OpFailed  # numpy-using modules load after pin_threads()

    op = Op(seed, out_dir)
    start = time.perf_counter()
    try:
        workload.op(seed, out_dir)
    except OpFailed as exc:
        op.error = str(exc)
    except Exception as exc:  # a traceback out of the program is a failed op
        op.error = f"{type(exc).__name__}: {exc}"
    op.wall_s = time.perf_counter() - start
    return op


def check_op(workload, op: Op) -> None:
    from workloads import OpFailed

    if op.error is None:
        try:
            op.quality = workload.check(op.seed, op.out_dir)
        except OpFailed as exc:
            op.error = str(exc)
    shutil.rmtree(op.out_dir, ignore_errors=True)


def timed_ops(workload, args, work_dir) -> tuple[list[Op], list[Op]]:
    """(warm-up ops, timed ops), run back to back until --seconds have passed."""
    seed = args.seed
    warm = []
    if workload.warmup:
        warm.append(run_op(workload, seed, os.path.join(work_dir, "op-warmup")))
        seed += 1
    timed = []
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < args.seconds:
        timed.append(run_op(workload, seed, os.path.join(work_dir, f"op-{len(timed)}")))
        seed += 1
    return warm, timed


def end_to_end(setup_times, ops, timed, peak_rss_mb) -> dict[str, float]:
    from stats import median

    ok = [op for op in ops if op.error is None]
    return {
        "setup_s": median(setup_times),
        "wall_s": median([op.wall_s for op in timed]),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": len(ok) / len(ops),
        "macro_f1": median([op.quality["macro_f1"] for op in ok]) if ok else 0.0,
        "pseudo_acc": median([op.quality["pseudo_acc"] for op in ok]) if ok else 0.0,
    }


def traced_op(workload, seed, work_dir, untraced_s):
    """Run one op traced; return (op, per-layer metrics, absent, structural checks)."""
    import layers
    from tracer import Tracer, traced
    from workloads import SYNTH

    tracer = Tracer(layers.PROBES)
    with traced(tracer):
        op = run_op(workload, seed, os.path.join(work_dir, "op-traced"))
    metrics, absent = layers.per_layer_metrics(
        tracer.spans, tracer.wrapped, SYNTH["num_features"], op.wall_s, untraced_s
    )
    checks = layers.structural_checks(
        tracer.spans, tracer.wrapped, workload.tree_fits_per_op, op.wall_s
    )
    return op, metrics, absent, checks


def digest_report(work_dir) -> dict:
    from digests import changed_digests, smoke_digests
    from workloads import OpFailed

    try:
        digests = smoke_digests(os.path.join(work_dir, "digests"))
    except (OpFailed, OSError) as exc:
        return {"unavailable": str(exc)}
    return {"changed": changed_digests(digests), "sha256": digests}


def emit(kind: str, payload) -> None:
    print(f"{kind} {json.dumps(payload, sort_keys=True)}")


def run(args, threads, work_dir) -> int:
    import numpy

    from stats import quartiles
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    setup_dir = os.path.join(work_dir, "setup")
    setup_times = [prepare(workload.name, args.seed, setup_dir)]
    workload.open(setup_dir, args.seed)

    warm, timed = timed_ops(workload, args, work_dir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The other set-up samples follow the ops, so that they span the run and a
    # slow spell of the machine does not catch every one of them.
    for k in range(1, workload.setup_repeats):
        setup_times.append(prepare(workload.name, args.seed, os.path.join(work_dir, f"setup-{k}")))
        shutil.rmtree(os.path.join(work_dir, f"setup-{k}"))
    ops = warm + timed
    for op in ops:
        check_op(workload, op)

    info = {
        "workload": workload.name,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": threads,
        "src_lines": src_lines(),
        "setup_s_samples": setup_times,
        "warmup_ops": len(warm),
        "op_seeds": [op.seed for op in ops],
        "wall_s_samples": [op.wall_s for op in timed],
        "wall_s_quartiles": quartiles([op.wall_s for op in timed]),
        "timed_ops": len(timed),
        "quality": [op.quality for op in ops],
    }
    emit("info", info)
    for op in ops:
        if op.error:
            emit("failed_op", {"seed": op.seed, "error": op.error})

    if args.trace:
        import layers

        untraced_s = quartiles([op.wall_s for op in timed])[1]
        op, metrics, absent, checks = traced_op(workload, timed[0].seed, work_dir, untraced_s)
        check_op(workload, op)
        ops.append(op)
        if op.error:
            emit("failed_op", {"seed": op.seed, "error": op.error, "traced": True})
        emit("absent", absent)
        emit("structure", checks)
        emit("digests", digest_report(work_dir))
        units = {name: unit for name, (unit, _) in layers.metric_specs().items()}
        structure_ok = all(c["ok"] is not False for c in checks.values())
    else:
        metrics = end_to_end(setup_times, ops, timed, peak_rss_mb)
        units = END_TO_END_UNITS
        structure_ok = True
        for name, value in metrics.items():
            print(f"metric {name} = {value:.6g} {units[name]}")
        q1, _, q3 = info["wall_s_quartiles"]
        print(f"metric wall_s quartiles {q1:.6g} .. {q3:.6g} s over {len(timed)} timed ops")

    failed = sum(1 for op in ops if op.error)
    result = {
        "correct": failed == 0 and structure_ok,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    if args.record:
        with open(args.record, "a", encoding="utf-8") as handle:
            record = {"workload": workload.name, "seed": args.seed, "trace": args.trace}
            handle.write(json.dumps({**record, "info": info, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "advssl", "__init__.py")):
        print("error: src/advssl is missing; run from a checkout of the repository", file=sys.stderr)
        return 2
    threads = pin_threads()
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        return run(args, threads, work_dir)
    except (SetupFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
