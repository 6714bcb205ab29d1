"""Time one fresh process's set-up: ``import qsms`` and a workload's inputs.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds from before ``import qsms`` until the first pass's inputs
are built from the seed. run.py starts several of these and reports their
median as setup_s.
"""
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import qsms  # noqa: E402,F401
    from workloads import WORKLOADS  # noqa: E402

    WORKLOADS[workload](seed, ROOT / "perfbench" / ".out").inputs(0)
    print(perf_counter() - start)
