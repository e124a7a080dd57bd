"""One fresh-interpreter set-up: import the package and build a workload.

Usage: python3 setup_probe.py ROOT WORKLOAD SEED

This is what a user pays before the first job of every CLI run: the
package import plus building the workload's specs and configs.
"""

import sys
from pathlib import Path

root, workload, seed = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
sys.path[:0] = [str(root / "src"), str(Path(__file__).resolve().parent)]

import impatientq  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[workload](seed, root / ".bench_out" / "setup")
