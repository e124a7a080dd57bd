"""Alternating parent/change runs of perfbench, written to a BENCH json file.

Each run is ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
of one checkout, unchanged, in a fresh process started in that checkout's
root. Runs come in pairs on one seed: pair k runs seed ``--seed + k``, the
parent first on even k and the change first on odd k, so both sides see the
same drift of the machine. For every workload and every end-to-end metric
of the change's ``BENCHMARK.json``, the file records each side's median and
quartiles and the number of pairs the change won (in that metric's better
direction), with every run's value. The tool exits with status 1 when a
run ends without perfbench's JSON verdict, reports ``correct: false`` or
fails a job.

A workload that cycles job kinds (``oracle``: ``validate`` and ``simulate``,
each on a float and a lattice config) also gets, under ``kinds_ms``, the
same record of each kind's median job time in ms, read from the
``scaled_latencies_s`` of the run's record; job k has kind k mod the
workload's ``cycle``.

Before the workloads, two probes run in ``IMPORTS`` fresh interpreters a
side, the sides alternating, each started in its checkout's root with its
``src/`` on the path: ``import impatientq`` (under ``import``), and
``import impatientq.cli`` with ``config.load_config`` of
``perfbench/configs/oracle_float.ini`` (under ``config``), the start of
every CLI command. For each the file records the same spread of each
side's wall seconds for the probed statements and its ``ru_maxrss`` in MB
at the end.

It also records the environment perfbench wrote to the change's first
run record (``.bench_out/<workload>-seed<S>-trace0.json``: ``nproc``, the
python, numpy and scipy versions and the ``src/`` line count) and whether
``MALLOC_MMAP_THRESHOLD_`` and ``PYTHONDONTWRITEBYTECODE`` were set for the
runs (with the latter set, every interpreter compiles ``src/`` afresh, which
the import's time and memory include); with ``--suites`` it also times the
change's tier-1 suite and its mutant gate (``tools/mutants.py``), each once.

    python tools/bench.py PARENT [CHANGE] --out bench.json --pairs 10 --suites

``PARENT`` and ``CHANGE`` are checkout roots (``CHANGE`` defaults to the
one holding this script); every workload runs ``--pairs`` pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from ab import load_workloads

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sandwich", "oracle", "certify", "lattice")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
IMPORTS = 10
PROBES = {
    "import": "import impatientq\n",
    "config": "import impatientq.cli\nimpatientq.config.load_config('perfbench/configs/oracle_float.ini')\n",
}


def perfbench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run of the checkout at ``root``: its verdict
    line, with the environment and the scaled job latencies from the run's
    record as ``env`` and ``latencies``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
        record = json.loads((root / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
        result["env"], result["latencies"] = record["env"], record["scaled_latencies_s"]
    except (IndexError, ValueError, KeyError, TypeError, OSError):
        raise SystemExit(f"{root}: {' '.join(cmd[1:])} exited {proc.returncode} without a verdict:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return result


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3}


def compared(values: dict[str, list[float]], direction: str) -> dict:
    """Each side's spread and runs of one metric, and the pairs the change won."""
    wins = sum((c < p) if direction == "lower" else (c > p) for p, c in zip(values["parent"], values["change"]))
    return {**{side: {**spread(v), "runs": v} for side, v in values.items()}, "better": direction, "change_won": wins}


def kinds(root: Path, workload: str) -> list[str]:
    """The job kinds a run of ``workload`` cycles through, named by the
    checkout at ``root`` (``command config`` for ``oracle``'s ``runs``), or
    none when it has one kind."""
    cls = load_workloads(root).WORKLOADS[workload]
    return [" ".join(run) for run in cls.runs] if cls.cycle > 1 else []


def src_env() -> dict:
    """The environment with the checkout's ``src/`` (relative to its root) first on the path."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))


def probe(roots: dict[str, Path], code: str) -> dict:
    """``IMPORTS`` fresh runs of ``code`` a side, alternating which side goes
    first: each side's wall seconds for it and ``ru_maxrss`` (MB)."""
    timed_code = ("import resource, time\n"
                  "began = time.perf_counter()\n"
                  f"{code}"
                  "print(time.perf_counter() - began, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)\n")
    runs: dict[str, list[list[float]]] = {"parent": [], "change": []}
    for k in range(IMPORTS):
        for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            out = subprocess.run([sys.executable, "-c", timed_code], cwd=roots[side], env=src_env(), check=True,
                                 capture_output=True, text=True).stdout
            runs[side].append([float(v) for v in out.split()])
    return {name: compared({side: [r[c] for r in rs] for side, rs in runs.items()}, "lower")
            for c, name in enumerate(("seconds", "maxrss_mb"))}


def timed(cmd: list[str], root: Path) -> dict:
    """Wall time of ``cmd`` run once in ``root`` with its ``src/`` on the path,
    and the last line it printed."""
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=src_env(), capture_output=True, text=True)
    took = perf_counter() - t0
    out = (proc.stdout.strip().splitlines() or [""])[-1]
    return {"seconds": round(took, 2), "exit": proc.returncode, "last_line": out}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path, nargs="?", default=ROOT)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="the first pair's seed")
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--suites", action="store_true", help="also time the change's tier-1 suite and mutant gate")
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    better = {m["name"]: m["better"] for m in json.loads((roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]}

    report: dict = {
        "command": f"perfbench/run.py --seconds {args.seconds:g} --trace 0, one fresh process a run",
        "order": "pair k runs seed first_seed + k, the parent first on even k",
        "first_seed": args.seed,
        "pairs": args.pairs,
        "malloc_mmap_threshold": os.environ.get("MALLOC_MMAP_THRESHOLD_"),
        "python_dont_write_bytecode": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        **{name: probe(roots, code) for name, code in PROBES.items()},
        "workloads": {},
    }
    for w in args.workloads:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for k in range(args.pairs):
            for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
                result = perfbench(roots[side], w, args.seed + k, args.seconds)
                runs[side].append(result)
                print(f"{w} pair {k} {side}: job_p50_ms {result['metrics'].get('job_p50_ms', float('nan')):.4g}",
                      file=sys.stderr)
        metrics = {name: compared({side: [r["metrics"][name] for r in rs] for side, rs in runs.items()}, direction)
                   for name, direction in better.items()}
        report.setdefault("env", {k: v for k, v in runs["change"][0]["env"].items() if k != "seed"})
        report["workloads"][w] = {
            "correct": all(r["correct"] for rs in runs.values() for r in rs),
            "failed": sum(r["failed"] for rs in runs.values() for r in rs),
            "metrics": metrics,
        }
        names = kinds(roots["change"], w)
        if names:
            report["workloads"][w]["kinds_ms"] = {
                name: compared({side: [1e3 * statistics.median(r["latencies"][c::len(names)]) for r in rs]
                                for side, rs in runs.items()}, "lower")
                for c, name in enumerate(names)}
    if args.suites:
        report["tier1"] = timed(TIER1, roots["change"])
        report["mutant_gate"] = timed([sys.executable, "tools/mutants.py"], roots["change"])
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0 if all(r["correct"] and r["failed"] == 0 for r in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
