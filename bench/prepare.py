"""Set up one workload in a fresh interpreter.

    python3 bench/prepare.py <workload> <seed> <dir>

Imports advssl and writes the workload's config into <dir>. run.py times
this process from start to exit; each run is one sample of setup_s.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main(argv) -> int:
    name, seed, work_dir = argv
    from workloads import WORKLOADS, OpFailed

    try:
        WORKLOADS[name].prepare(work_dir, int(seed))
    except OpFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
