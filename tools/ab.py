"""An interleaved A/B of one perfbench workload between two checkouts, in one process.

Each checkout's ``perfbench/workloads.py`` is imported unchanged, with the
``impatientq`` of that checkout's ``src/``, under module objects of its own.
The two sides then run the same job list in pairs: job k of the parent and
job k of the change, the parent first on even k and the change first on odd
k, so both see the same state of the machine. The fingerprints of the two
jobs of a pair must be equal; the first pair that differs ends the run with
exit status 1. The output gives each side's median job time and quartiles,
in ms, and the share of pairs the change ran faster. A job that raises
counts as a fingerprint of ``None``. Checks, tracing and the speed scale of
``perfbench/run.py`` are left out: only the job calls are timed.

    python tools/ab.py PARENT [CHANGE] --workload lattice --seed 1 --seconds 18

``PARENT`` and ``CHANGE`` are checkout roots (``CHANGE`` defaults to the
one holding this script); ``--seconds`` sizes the job list as perfbench
does.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def load_workloads(root: Path):
    """``perfbench/workloads.py`` of the checkout at ``root``, bound to that
    checkout's ``impatientq``. The modules of an earlier load are dropped
    from ``sys.modules`` first; the objects already loaded keep their own."""
    for name in [m for m in sys.modules if m in ("impatientq", "workloads") or m.startswith("impatientq.")]:
        del sys.modules[name]
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    try:
        module = importlib.import_module("workloads")
    finally:
        del sys.path[:2]
    package = Path(module.coupling.__file__).resolve()
    if not package.is_relative_to((root / "src").resolve()):
        raise SystemExit(f"{root}: impatientq imported from {package}, not from the checkout")
    return module


def timed(wl, k: int) -> tuple[float, object]:
    """Job ``k``'s time in seconds and its fingerprint (``None`` if it raised)."""
    t0 = perf_counter()
    try:
        out = wl.job(k)
    except Exception:
        return perf_counter() - t0, None
    took = perf_counter() - t0
    return took, wl.fingerprint(out)


def summary(name: str, times: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(times, n=4)
    return f"{name}: median {1e3 * q2:.4f} ms, quartiles {1e3 * q1:.4f} .. {1e3 * q3:.4f} ms"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path, nargs="?", default=ROOT)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=18.0)
    args = ap.parse_args(argv)
    sides = [load_workloads(args.parent.resolve()), load_workloads(args.change.resolve())]
    classes = [m.WORKLOADS[args.workload] for m in sides]
    n_jobs = classes[0].job_count(args.seconds)
    if n_jobs < 2:
        ap.error(f"--seconds {args.seconds} gives {n_jobs} job; quartiles need two")
    times: list[list[float]] = [[], []]
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        wls = []
        for i, cls in enumerate(classes):
            (Path(tmp) / str(i)).mkdir()
            wls.append(cls(args.seed, Path(tmp) / str(i)))
        for k in range(n_jobs):
            fingerprints = [None, None]
            for i in ((0, 1) if k % 2 == 0 else (1, 0)):
                took, fingerprints[i] = timed(wls[i], k)
                times[i].append(took)
            if fingerprints[0] != fingerprints[1]:
                print(f"job {k}: fingerprints differ: parent {fingerprints[0]!r}, change {fingerprints[1]!r}")
                return 1
    won = sum(b < a for a, b in zip(*times))
    print(f"{args.workload}, seed {args.seed}: {n_jobs} pairs, equal fingerprints")
    print(summary("parent", times[0]))
    print(summary("change", times[1]))
    ratio = statistics.median(times[1]) / statistics.median(times[0]) - 1
    print(f"change won {won} of {n_jobs} pairs ({won / n_jobs:.0%}); median {ratio:+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
