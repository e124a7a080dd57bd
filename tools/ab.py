"""An interleaved A/B of one perfbench workload between two checkouts, in one process.

Each checkout's ``perfbench/workloads.py`` is imported unchanged, with the
``impatientq`` of that checkout's ``src/``, under module objects of its own.
The two sides then run the same job list in pairs: job k of the parent and
job k of the change, the parent first in the even cycles of the workload's
job kinds and the change first in the odd ones, so both see the same state
of the machine and, over an even number of cycles, each runs first on
every kind equally often. (Swapping on k alone, each side of a workload
with an even cycle, such as ``oracle``'s four kinds, would always run
first on the same kinds; the first job of a pair takes page faults that
the second reuses, so the minor faults then read far higher on one side
of two copies of one commit.) The fingerprints of the two jobs of a pair
must be equal, and so must the bytes of every file the two
sides' jobs have written in their work directories; the first pair that
differs ends the run with exit status 1, naming the first file and line
that differ (a fingerprint such as ``oracle``'s CLI exit code cannot see a
changed trace). The output gives each side's median job time and quartiles,
in ms, with its median minor page faults per job (``ru_minflt`` of the
process, read around each job), its median driver generations and
indices generated per job (a spy on that side's
``StationaryPath._generate``) and its median scalar walk steps per job (a
spy on that side's ``loynes._repair``), and the share of pairs the change
ran faster. A job that raises counts as a fingerprint of ``None``. Checks,
tracing and the speed scale of ``perfbench/run.py`` are left out: only the
job calls are timed.

    python tools/ab.py PARENT [CHANGE] --workload lattice --seed 1 --seconds 18

``PARENT`` and ``CHANGE`` are checkout roots (``CHANGE`` defaults to the
one holding this script); ``--seconds`` sizes the job list as perfbench
does.
"""

from __future__ import annotations

import argparse
import importlib
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent


class GenerationSpy:
    """Counts the driver generations of one side: calls of its
    ``StationaryPath._generate`` and the indices they generate."""

    def __init__(self, path_class):
        self.calls = self.indices = 0
        generate = path_class._generate

        def spy(path, start, count):
            self.calls += 1
            self.indices += count
            return generate(path, start, count)

        path_class._generate = spy


class WalkSpy:
    """Counts the scalar walk steps of one side's lane rolls: each
    ``loynes._repair`` call's steps, every row it rewrote and the stored
    row it found to hold."""

    def __init__(self, loynes):
        self.steps = 0
        repair = loynes._repair

        def spy(states, step, drivers, i):
            done = repair(states, step, drivers, i)
            self.steps += done - i
            return done

        loynes._repair = spy


def load_workloads(root: Path):
    """``perfbench/workloads.py`` of the checkout at ``root``, bound to that
    checkout's ``impatientq``, with a ``GenerationSpy`` on its driver
    generations as ``module.generations`` and a ``WalkSpy`` on its scalar
    walks as ``module.walks``. The modules of an earlier load
    are dropped from ``sys.modules`` first; the objects already loaded keep
    their own."""
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
    module.generations = GenerationSpy(sys.modules["impatientq.sequences"].StationaryPath)
    module.walks = WalkSpy(sys.modules["impatientq.loynes"])
    return module


def timed(wl, k: int, side) -> tuple[float, tuple[int, ...], object]:
    """Job ``k``'s time in seconds, its work counts (minor page faults,
    driver generations, indices generated, walk steps) read from the spies
    of ``side``, its ``load_workloads`` module, and its fingerprint
    (``None`` if it raised)."""

    def counts():
        return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt, side.generations.calls,
                side.generations.indices, side.walks.steps)

    before = counts()
    t0 = perf_counter()
    try:
        out, raised = wl.job(k), False
    except Exception:
        out, raised = None, True
    took = perf_counter() - t0
    after = counts()
    return took, tuple(b - a for a, b in zip(before, after)), None if raised else wl.fingerprint(out)


def first_difference(parent: Path, change: Path) -> Optional[str]:
    """The first file, by relative path, whose bytes differ between the two
    work directories, with its first differing line, or None."""
    names = sorted({f.relative_to(root) for root in (parent, change) for f in root.rglob("*") if f.is_file()})
    for name in names:
        texts = [(root / name).read_bytes() if (root / name).is_file() else None for root in (parent, change)]
        if None in texts:
            return f"{name}: written by the {'parent' if texts[1] is None else 'change'} only"
        if texts[0] != texts[1]:
            lines = [text.splitlines(keepends=True) + [b""] for text in texts]
            k = next(k for k, (a, b) in enumerate(zip(*lines)) if a != b)
            return f"{name}: line {k + 1} differs: parent {lines[0][k][:200]!r}, change {lines[1][k][:200]!r}"
    return None


def summary(name: str, times: list[float], counts: list[tuple[int, ...]]) -> str:
    q1, q2, q3 = statistics.quantiles(times, n=4)
    faults, generations, indices, steps = (statistics.median(c) for c in zip(*counts))
    return (f"{name}: median {1e3 * q2:.4f} ms, quartiles {1e3 * q1:.4f} .. {1e3 * q3:.4f} ms; "
            f"median {faults:g} minor faults, {generations:g} driver generations, "
            f"{indices:g} indices generated and {steps:g} walk steps per job")


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
    counts: list[list[tuple[int, ...]]] = [[], []]
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        workdirs = [Path(tmp) / str(i) for i in range(2)]
        wls = []
        for workdir, cls in zip(workdirs, classes):
            workdir.mkdir()
            wls.append(cls(args.seed, workdir))
        for k in range(n_jobs):
            fingerprints = [None, None]
            for i in ((0, 1) if k // classes[0].cycle % 2 == 0 else (1, 0)):
                took, counted, fingerprints[i] = timed(wls[i], k, sides[i])
                times[i].append(took)
                counts[i].append(counted)
            if fingerprints[0] != fingerprints[1]:
                print(f"job {k}: fingerprints differ: parent {fingerprints[0]!r}, change {fingerprints[1]!r}")
                return 1
            differ = first_difference(*workdirs)
            if differ:
                print(f"job {k}: output files differ: {differ}")
                return 1
    won = sum(b < a for a, b in zip(*times))
    print(f"{args.workload}, seed {args.seed}: {n_jobs} pairs, equal fingerprints and output files")
    print(summary("parent", times[0], counts[0]))
    print(summary("change", times[1], counts[1]))
    ratio = statistics.median(times[1]) / statistics.median(times[0]) - 1
    print(f"change won {won} of {n_jobs} pairs ({won / n_jobs:.0%}); median {ratio:+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
