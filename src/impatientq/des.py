"""Event-driven simulation of the physical queue, used as an oracle.

The simulator keeps the physical state (per-server residual work, the FCFS
line with per-customer remaining patience) and advances it arrival by
arrival, serving customers at actual completion instants and dropping the
ones whose deadline passes first. At each arrival it also evaluates the
inductive virtual-workload construction: starting from the ordered residual
services, fold in every waiting customer's requirement whenever the least
virtual workload fits inside her remaining patience. The folded vector is
the workload the arriving customer sees, and must reproduce the one-step
recursion (exactly on a lattice; to a few ulps on floats, where a waiting
customer's service is added after gaps the recursion subtracts after it);
``cross_validate`` certifies that.

The residuals are kept ascending, so with nobody waiting they are the fold
as they stand. Otherwise the fold keeps the virtual workloads in a heap: a
customer who fits replaces the least value ``w`` by ``w + sigma``
(``heapreplace``), and the heap is sorted once at the end. This is the
recursion's merge with a zero gap, which only selects values, so the fold
is the same multiset, sorted, bit for bit; the simulator shares no
arithmetic with the kernel it is checked against.

The line is walked once per arrival: the fold's walk also takes the last
gap off each waiting customer's patience, the same subtraction the gap
itself would make, and drops the customers it leaves past their deadline.
Dropping only keeps the line short: an expired entry never fits in the
fold and would be lost when it reached the head. During a gap the line
holds patiences as of its start, which the FCFS starts compare against
the completion times measured from that arrival.

Timekeeping is relative to the current arrival (everything is decremented
by each gap), so float error does not grow with the horizon. A lattice path
runs the same engine on integers: multiples of ``alpha`` for gaps and
service, and each customer's deadline from ``kernel.accepted_multiples``,
so every deadline comparison is exact. ``run`` returns a ``Trace`` of
columns, which ``cross_validate`` and ``write_trace`` read.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from heapq import heapreplace
from typing import IO, Optional

import numpy as np

from .loynes import _exact_drivers, exact_states
from .sequences import StationaryPath

_CHUNK = 1 << 15
_WRITE_ROWS = 1 << 12  # rows formatted per write in ``write_trace``


@dataclass(frozen=True, eq=False)
class Trace:
    """One run as read-only columns: arrival ``i`` sees the ascending
    workload vector ``seen[i]`` (float64) and is served iff ``served[i]``."""

    seen: np.ndarray
    served: np.ndarray

    def __post_init__(self):
        self.seen.flags.writeable = self.served.flags.writeable = False

    def __len__(self) -> int:
        return len(self.served)


def run(path: StationaryPath, servers: int, n_arrivals: int) -> Trace:
    """Simulate ``n_arrivals`` customers from an initially empty system.

    The engine's flat list of workloads is reshaped once. A lattice run's
    multiples are scaled by ``alpha`` in one array multiply; int64 to
    float64 is exact here, so each value has the bits of ``k * alpha``.
    """
    if servers < 1:
        raise ValueError("servers must be >= 1")
    if n_arrivals < 1:
        raise ValueError("n_arrivals must be >= 1")
    flat, served = _simulate(path, servers, n_arrivals, 0 if path.spec.is_lattice else 0.0)
    if path.spec.is_lattice:
        seen = np.array(flat, dtype=np.int64) * path.spec.alpha
    else:
        seen = np.array(flat, dtype=np.float64)
    return Trace(seen.reshape(n_arrivals, servers), np.frombuffer(served, dtype=bool))


def _simulate(path: StationaryPath, servers: int, n_arrivals: int, zero) -> tuple[list, bytearray]:
    """The workloads seen (``servers`` values per arrival, one flat list)
    and the served flags, in the path's own arithmetic, whose zero is
    ``zero``. ``residuals`` stays ascending: the server that takes a job is
    ``residuals[0]``, and subtracting the gap and clipping keeps the order.
    The last arrival's gap is infinite, which drains the line."""
    residuals = [zero] * servers
    line: deque[list] = deque()  # [remaining patience or deadline, sigma, index]
    seen: list = []
    served = bytearray(n_arrivals)  # a customer never marked served is lost
    gap = zero  # the last gap, not yet taken off the line's patiences

    for pos in range(0, n_arrivals, _CHUNK):
        count = min(_CHUNK, n_arrivals - pos)
        taus, sigmas, patiences = (col.tolist() for col in _exact_drivers(path, pos, count))
        if pos + count == n_arrivals:
            taus[-1] = math.inf
        for j in range(count):
            # Virtual workloads just before this arrival. The walk ages the
            # line by the last gap and drops whom it leaves past a deadline.
            if line:
                fold = residuals.copy()  # an ascending list is a heap
                waiting: deque[list] = deque()
                for entry in line:
                    rem = entry[0] - gap
                    if rem >= zero:
                        entry[0] = rem
                        waiting.append(entry)
                        if fold[0] <= rem:
                            heapreplace(fold, fold[0] + entry[1])
                line = waiting
                fold.sort()
                seen += fold
                line.append([patiences[j], sigmas[j], pos + j])
            else:
                seen += residuals
                if residuals[0] > zero:
                    line.append([patiences[j], sigmas[j], pos + j])
                else:
                    served[pos + j] = True
                    residuals[0] = sigmas[j]
                    residuals.sort()

            # Gap until the next arrival: completions trigger FCFS starts.
            tau_n = taus[j]
            while line:
                f = residuals[0]
                if f > tau_n:
                    break
                rem, sig, i = line.popleft()
                if rem >= f:
                    served[i] = True
                    residuals[0] = f + sig
                    residuals.sort()
            residuals = [r - tau_n if r > tau_n else zero for r in residuals]
            gap = tau_n
    return seen, served


# ---------------------------------------------------------------------------
# Cross-validation against the one-step recursion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossValidation:
    n_arrivals: int
    max_discrepancy: float
    decisions_agree: bool
    first_divergence: Optional[tuple[int, tuple[float, ...], tuple[float, ...]]]
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_discrepancy <= self.tol and self.decisions_agree


def cross_validate(path: StationaryPath, servers: int, n_arrivals: int,
                   tol: float = 1e-9) -> CrossValidation:
    """Drive the simulator and the recursion with one path and compare.

    The workload vector seen by each arrival must match the recursion state
    within ``tol`` in every coordinate, and the served/lost flag must equal
    the recursion's acceptance indicator exactly. The recursion runs in the
    path's own arithmetic (``loynes.exact_states``), as the engine does.
    """
    path.block(0, max(n_arrivals, 0))   # one cover for the engine's chunks and the recursion; run refuses n < 1
    trace = run(path, servers, n_arrivals)
    states, accepted = exact_states(path, 0, n_arrivals, (0.0,) * servers)
    diff = trace.seen - states[:-1]
    disc = np.abs(diff, out=diff).max(axis=1)
    bad = (disc > tol) | (trace.served != accepted)
    first_div = None
    if bad.any():
        j = int(np.argmax(bad))
        first_div = (j, tuple(trace.seen[j].tolist()), tuple(states[j].tolist()))
    return CrossValidation(n_arrivals, float(disc.max()), bool(np.array_equal(trace.served, accepted)),
                           first_div, tol)


def write_trace(records: Trace, out: IO[str]):
    """CSV dump: index, W(1..S), served, loss.

    Rows are formatted ``_WRITE_ROWS`` at a time, by one ``%`` over a
    repeated row template. ``%s`` of a float is its ``repr``, which never
    holds a comma or a quote, so no field needs CSV quoting. A block with
    few distinct values (a lattice trace) formats each of them once; they
    are told apart by their bits, so ``0.0`` and ``-0.0`` stay apart.
    """
    n, servers = records.seen.shape
    out.write(",".join(["index", *(f"W{i + 1}" for i in range(servers)), "served", "loss"]) + "\n")
    template = "%d," + "%s," * servers + "%s\n"
    flags = np.array(["0,1", "1,0"], dtype=object)  # served, loss
    for a in range(0, n, _WRITE_ROWS):
        block = records.seen[a:a + _WRITE_ROWS]
        rows = len(block)
        cells = np.empty((rows, servers + 2), dtype=object)
        cells[:, 0] = range(a, a + rows)
        bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
        if 2 * bits.size < block.size:
            text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
            cells[:, 1:-1] = text[inverse].reshape(block.shape)
        else:
            cells[:, 1:-1] = block
        cells[:, -1] = flags[records.served[a:a + rows].view(np.uint8)]
        out.write((template * rows) % tuple(cells.ravel()))
