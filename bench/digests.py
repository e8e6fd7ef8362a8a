"""Golden output digests: sha256 of the smoke config's artifacts, seeds 0-2.

    python3 bench/digests.py           # print digests and the ones that changed
    python3 bench/digests.py --write   # record the current digests as golden

A changed digest is reported, never treated as a failure: some changes are
meant to alter outputs, and they say so.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
GOLDEN = os.path.join(BENCH_DIR, "golden_digests.json")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SMOKE_CONFIG = os.path.join(ROOT, "configs", "smoke.json")
SEEDS = (0, 1, 2)
FILES = ("report.json", "model.json", "prm_model.json")


def smoke_digests(work_dir) -> dict[str, str]:
    from workloads import invoke, one_path

    invoke(["run", "--config", SMOKE_CONFIG, "--seeds", ",".join(map(str, SEEDS)), "--out", work_dir])
    digests = {}
    for seed in SEEDS:
        seed_dir = one_path(os.path.join(work_dir, "run-*", f"seed_{seed}"))
        for name in FILES:
            with open(os.path.join(seed_dir, name), "rb") as handle:
                digests[f"seed_{seed}/{name}"] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def changed_digests(digests: dict[str, str]) -> list[str]:
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    return sorted(k for k in set(golden) | set(digests) if golden.get(k) != digests.get(k))


def main(argv) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="digests-", dir=WORK_ROOT)
    try:
        digests = smoke_digests(work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # a benchmark run still uses it
    if "--write" in argv:
        with open(GOLDEN, "w", encoding="utf-8") as handle:
            json.dump(digests, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps({"digests": digests, "changed": changed_digests(digests)}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
