"""Time one set-up in a fresh interpreter and print it in seconds.

    python3 perfbench/probe.py <workload> <seed>

Set-up is the import of operad_groups plus the generation of the
workload's inputs; interpreter start-up and the benchmark's own imports
are not part of it.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS  # noqa: E402


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    t0 = time.perf_counter()
    import operad_groups

    WORKLOADS[name](operad_groups, seed)
    print(time.perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
