"""Benchmark entry point: one workload, timed end to end or traced per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {sandwich,oracle,certify,lattice} \\
        --seed N --seconds S --trace {0,1}

A run works through a fixed list of jobs: the seed picks their inputs and
``--seconds`` their number (``Workload.job_count``), never the speed of the
machine, so a seed always attempts the same jobs and fails the same ones.

``--trace 0`` times the job list with tracing off and reports the
end-to-end metrics, every time scaled to the reference machine speed of
``speed.py``. ``--trace 1`` runs each job untraced and then again under the
span tracer and reports the per-layer metrics. Both check every job and
print, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record of
each run, with the environment, goes to ``.bench_out/``.

Every job is checked against an independent reference. A job whose output
fails its check, or that raises, is counted in ``failed`` and listed with
its index and both values; it never stops the run. ``correct`` is false
when the harness cannot vouch for its own numbers: a traced job's output
differs from the same job run untraced, or a metric is not finite.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed  # numpy only; the package is imported in main once src/ is on the path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_RUNS = 3        # fresh interpreters per setup_s median
IMPORTTIME_RUNS = 3   # fresh interpreters per import breakdown median

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sequences.block_ns_per_index": "ns",
    "sequences.rng_ns_per_index": "ns",
    "sequences.calls_per_item": "count",
    "sequences.indices_per_item": "count",
    "kernel.batch_calls_per_item": "count",
    "kernel.batch_us_per_call": "us",
    "kernel.lane_step_ns": "ns",
    "kernel.lattice_rows_per_item": "count",
    "kernel.probe.scalar_step_us.S1": "us",
    "kernel.probe.scalar_step_us.S2": "us",
    "kernel.probe.scalar_step_us.S8": "us",
    "kernel.probe.lane_step_ns.R1": "ns",
    "kernel.probe.lane_step_ns.R16": "ns",
    "kernel.probe.lane_step_ns.R256": "ns",
    "loynes.roll_us_per_step": "us",
    "loynes.estimate_calls_per_item": "count",
    "loynes.estimate_depth_p50": "count",
    "loynes.estimate_depth_max": "count",
    "loynes.backward_steps_per_item": "count",
    "loynes.supremum_ms": "ms",
    "coupling.cftp_self_ms": "ms",
    "coupling.cftp_horizon_p50": "count",
    "coupling.cftp_horizon_max": "count",
    "coupling.cftp_useful_ratio": "ratio",
    "coupling.hset_self_ms": "ms",
    "coupling.hset_box_p50": "count",
    "des.run_us_per_arrival.float": "us",
    "des.run_us_per_arrival.lattice": "us",
    "des.cv_us_per_arrival": "us",
    "des.trace_write_us_per_row": "us",
    "metrics.bound_report_self_ms": "ms",
    "metrics.batch_means_ms": "ms",
    "config.load_ms": "ms",
    "cli.self_ms": "ms",
    "setup.import_s": "s",
    "setup.scipy_import_s": "s",
    "sequences.self_frac": "ratio",
    "kernel.self_frac": "ratio",
    "loynes.self_frac": "ratio",
    "coupling.self_frac": "ratio",
    "des.self_frac": "ratio",
    "metrics.self_frac": "ratio",
    "config.self_frac": "ratio",
    "cli.self_frac": "ratio",
    "trace.covered_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


class Pass:
    """Jobs of one closed loop: their latencies, outputs and check results."""

    def __init__(self):
        self.latencies: list[float] = []
        self.fingerprints: list[object] = []
        self.items = 0
        self.failures: list[str] = []

    def run_job(self, wl, k: int, check: bool = True):
        """Time job ``k``; its check runs after the timer stops."""
        t0 = perf_counter()
        try:
            out = wl.job(k)
        except Exception:  # a failing job is counted, never fatal
            self.latencies.append(perf_counter() - t0)
            self.fingerprints.append(None)
            self.failures.append(f"job {k} raised: {traceback.format_exc(limit=3)}")
            return
        self.latencies.append(perf_counter() - t0)
        self.fingerprints.append(wl.fingerprint(out))
        if check:
            checked = wl.check(k, out)
            self.items += checked.items
            if not checked.ok:
                self.failures.append(checked.detail)


def run_jobs(wl, n_jobs: int, after_job=None) -> Pass:
    """One caller runs jobs ``0 .. n_jobs-1`` back to back (a closed loop).

    ``after_job(k)`` runs untimed after each job.
    """
    p = Pass()
    for k in range(n_jobs):
        p.run_job(wl, k)
        if after_job is not None:
            after_job(k)
    return p


def timed_run(wl, n_jobs: int) -> tuple[Pass, list[float]]:
    """Run the job list, reading the machine's speed before each job and after the last.

    Returns the checked run and each job's latency at the reference speed.
    """
    p, meter = Pass(), speed.Speedometer()
    for k in range(n_jobs):
        meter.read(p.latencies[-1] if p.latencies else 0.0)
        p.run_job(wl, k)
    meter.read(p.latencies[-1])
    return p, [t * meter.scale(k) for k, t in enumerate(p.latencies)]


def environment(seed: int) -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    src_lines = sum(len(f.read_text().splitlines()) for f in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "seed": seed,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import impatientq
    except ImportError as exc:
        print(f"error: cannot import impatientq from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(impatientq.__file__).resolve().parent.parent != (ROOT / "src").resolve():
        print(f"error: impatientq imported from {impatientq.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import numpy as np
    import probes
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment(args.seed)
    cls = workloads.WORKLOADS[args.workload]
    print(f"workload {cls.name} (item = {cls.item}): {cls.why}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))

    # A traced run runs each job twice, untraced and traced, so it holds half the jobs.
    n_jobs = cls.job_count(args.seconds / (1 + args.trace))
    metrics: dict[str, float] = {}
    record: dict = {"workload": cls.name, "trace": args.trace, "why": cls.why, "env": env,
                    "jobs": n_jobs}
    correct = True
    if args.trace == 0:
        setups = probes.setup_runs(ROOT, cls.name, args.seed, SETUP_RUNS)
        wl = cls(args.seed, OUT)
        run, scaled = timed_run(wl, n_jobs)
        metrics["setup_s"] = statistics.median(setups)
        metrics["items_per_s"] = run.items / sum(scaled)
        metrics["job_p50_ms"] = float(np.percentile(scaled, 50)) * 1e3
        metrics["job_p90_ms"] = float(np.percentile(scaled, 90)) * 1e3
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record.update({"setup_runs_s": setups, "scaled_latencies_s": scaled})
        print(f"wall clock, not scaled: {run.items / sum(run.latencies):.6g} items/s, "
              f"job p50 {np.percentile(run.latencies, 50) * 1e3:.6g} ms, "
              f"p90 {np.percentile(run.latencies, 90) * 1e3:.6g} ms")
        units = END_TO_END
    else:
        import_s, scipy_s = probes.import_breakdown(ROOT, cls.name, args.seed, IMPORTTIME_RUNS)
        # Each job runs untraced, then again under the tracer on a twin
        # workload, so drift of the machine's speed hits both alike.
        twin, traced, trc = cls(args.seed, OUT), Pass(), tracer.Tracer()

        def traced_job(k: int):
            trc.install()
            try:
                traced.run_job(twin, k, check=False)
            finally:
                trc.uninstall()

        run = run_jobs(cls(args.seed, OUT), n_jobs, after_job=traced_job)
        sandwich = workloads.Sandwich(args.seed, OUT)
        probe_values, absent = probes.kernel_probes(impatientq.StationaryPath(sandwich.spec(0)))
        if traced.fingerprints != run.fingerprints:
            correct = False
            print("error: traced outputs differ from untraced outputs", file=sys.stderr)
        spans = trc.spans()
        spans.save(OUT / f"spans-{cls.name}.npz")
        traced_s = sum(traced.latencies)
        metrics.update(tracer.layer_metrics(spans, run.items, traced_s))
        metrics.update(probe_values)
        metrics["setup.import_s"] = import_s
        metrics["setup.scipy_import_s"] = scipy_s
        metrics["trace.overhead_frac"] = traced_s / sum(run.latencies) - 1.0
        record.update({"spans": len(spans.name), "absent_probes": absent})
        for line in absent:
            print(f"absent probe {line}")
        units = PER_LAYER

    attempted, failed = len(run.latencies), len(run.failures)
    correct = correct and all(math.isfinite(v) for v in metrics.values())
    print(f"jobs: attempted={attempted} failed={failed} items={run.items} ({cls.item}); "
          f"job time {sum(run.latencies):.3f} s")
    for line in run.failures:
        print(f"FAILED {line}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    if args.trace == 0:
        print(f"failed_frac = {failed / attempted!r} ratio ({failed} of {attempted} jobs)")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record.update({"result": result, "failures": run.failures, "latencies_s": run.latencies})
    (OUT / f"{cls.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
