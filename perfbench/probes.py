"""Per-layer probes that never gate a result.

Kernel probes time the scalar and the batch step on the sandwich workload's
drivers. A probe whose kernel function is gone, or no longer takes these
arguments, is reported as absent instead of failing the run.

Set-up probes start fresh interpreters one at a time; each imports the
package and builds one workload's specs and configs (``setup_probe.py``).
Their times are scaled to the reference speed of ``speed.py``.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import speed
from impatientq import kernel, sequences

HERE = Path(__file__).resolve().parent
SCALAR_SERVERS = (1, 2, 8)
LANE_ROWS = (1, 16, 256)
LANE_SERVERS = 2
SCALAR_STEPS = 20_000
LANE_STEPS = 2_000
REPEATS = 3
SPEED_READINGS = 3     # reference-loop readings on each side of a set-up


def kernel_probes(path) -> tuple[dict[str, float], list[str]]:
    """Probe timings by metric name, and the names of absent probes."""
    values, absent = {}, []
    blk = path.block(0, max(SCALAR_STEPS, LANE_STEPS + max(LANE_ROWS)))
    for s in SCALAR_SERVERS:
        name = f"kernel.probe.scalar_step_us.S{s}"
        try:
            values[name] = _scalar_step(blk, s) * 1e6
        except Exception as exc:  # a probe never fails the run
            values[name] = 0.0
            absent.append(f"{name}: {exc!r}")
    for r in LANE_ROWS:
        name = f"kernel.probe.lane_step_ns.R{r}"
        try:
            values[name] = _lane_step(blk, r) * 1e9
        except Exception as exc:  # a probe never fails the run
            values[name] = 0.0
            absent.append(f"{name}: {exc!r}")
    return values, absent


def _scalar_step(blk, servers: int) -> float:
    """Seconds per ``kernel.advance`` step at ``servers`` coordinates (median of repeats)."""
    advance = kernel.advance
    drivers = [sequences.DriverSample(t, s, p) for t, s, p in
               zip(blk.tau[:SCALAR_STEPS].tolist(), blk.sigma[:SCALAR_STEPS].tolist(),
                   blk.patience[:SCALAR_STEPS].tolist())]
    times = []
    for _ in range(REPEATS):
        u = (0.0,) * servers
        t0 = perf_counter()
        for d in drivers:
            u = advance(u, d).next
        times.append(perf_counter() - t0)
    return statistics.median(times) / SCALAR_STEPS


def _lane_step(blk, rows: int) -> float:
    """Seconds per lane-step of ``kernel.advance_batch`` on ``rows`` lanes.

    Lane ``r`` at step ``k`` reads the driver at index ``r + k``, so lanes
    are distinct shifts of one path.
    """
    advance_batch = kernel.advance_batch
    tau, sigma, patience = (np.lib.stride_tricks.sliding_window_view(x, rows)[:LANE_STEPS]
                            for x in (blk.tau, blk.sigma, blk.patience))
    times = []
    for _ in range(REPEATS):
        u = np.zeros((rows, LANE_SERVERS))
        t0 = perf_counter()
        for k in range(LANE_STEPS):
            u, _ = advance_batch(u, tau[k], sigma[k], patience[k])
        times.append(perf_counter() - t0)
    return statistics.median(times) / (LANE_STEPS * rows)


def setup_runs(root: Path, workload: str, seed: int, count: int) -> list[float]:
    """Wall seconds of ``count`` fresh interpreters, started one at a time.

    Each is scaled to the reference speed by the loop's readings just
    before and just after it.
    """
    times = []
    for _ in range(count):
        before = speed.warm_readings(SPEED_READINGS)
        t0 = perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(root), workload, str(seed)],
                       check=True, stdout=subprocess.DEVNULL)
        wall = perf_counter() - t0
        after = speed.warm_readings(SPEED_READINGS)
        times.append(wall * speed.REFERENCE_S / statistics.median(before + after))
    return times


def import_breakdown(root: Path, workload: str, seed: int, count: int) -> tuple[float, float]:
    """Median ``import impatientq`` and scipy-import seconds from ``-X importtime``."""
    total, scipy = [], []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-X", "importtime", str(HERE / "setup_probe.py"),
                               str(root), workload, str(seed)],
                              check=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        package, under_scipy = _parse_importtime(proc.stderr)
        total.append(package)
        scipy.append(under_scipy)
    return statistics.median(total), statistics.median(scipy)


def _parse_importtime(text: str) -> tuple[float, float]:
    """(cumulative s of ``impatientq``, cumulative s of outermost scipy imports).

    ``-X importtime`` prints each module after its children, indented two
    spaces per nesting level. Read in reverse, each line's parent is the
    nearest earlier line with smaller indentation.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, int(cumulative), name.strip()))
    package = scipy = 0
    stack: list[tuple[int, bool]] = []   # (depth, inside a scipy import)
    for depth, cumulative, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            scipy += cumulative
        if name == "impatientq":
            package = cumulative
        stack.append((depth, inside or is_scipy))
    return package * 1e-6, scipy * 1e-6
