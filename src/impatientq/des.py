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

The engine keeps two clocks, in the path's own arithmetic. On floats the
clock restarts at every arrival: the residual work is re-expressed after
each gap, and the fold's walk also takes the last gap off each waiting
customer's patience in place, the same subtraction the gap itself would
make. So float error does not grow with the horizon, and stays bounded by
one gap. A lattice path runs the same engine on integers: multiples of
``alpha`` for gaps and service, and each customer's deadline from
``kernel.accepted_multiples``, so every comparison is exact and nothing
needs to restart. One running clock then serves the whole run: servers
hold their free times and the line its deadlines on it, which the walk,
the expiry check and the head compare with the clock. The engine writes
each page of ``_PAGE`` arrivals, one driver page
(``sequences._CHAIN_BLOCK``), into the output arrays as the page ends.

The line is walked once per arrival. An entry whose deadline has passed
never fits in the fold (no virtual workload is below the clock) and would
be lost at the head, so the line is rebuilt without such entries, only at
an arrival where a deadline passed. During a gap the line holds deadlines
on the clock of its start, which the FCFS starts compare against the
completion times on that clock. ``run`` returns a ``Trace`` of columns,
which ``cross_validate`` and ``write_trace`` read.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from heapq import heapreplace
from typing import IO, Optional, Sequence

import numpy as np

from .errors import ResourceCapError
from .kernel import NEVER
from .loynes import _exact_drivers, exact_states
from .sequences import _CHAIN_BLOCK as _PAGE, StationaryPath


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

    The engine writes each page of workloads seen into the ``(n, S)``
    float64 column as the page ends, so the run holds one page of Python
    values, not all of them.
    """
    if servers < 1:
        raise ValueError("servers must be >= 1")
    if n_arrivals < 1:
        raise ValueError("n_arrivals must be >= 1")
    seen, served = _simulate(path, servers, n_arrivals)
    return Trace(seen, np.frombuffer(served, dtype=bool))


def _simulate(path: StationaryPath, servers: int, n_arrivals: int) -> tuple[np.ndarray, bytearray]:
    """The workloads seen (a row of ``servers`` values an arrival) and the
    served flags.

    ``free`` holds each server's free time, ascending: the server that
    takes a job is ``free[0]``. On floats the clock restarts at each
    arrival: ``free`` is re-expressed in place after every gap
    (subtracting and clipping keeps the order), ``gap`` ages the line, and
    ``now`` stays ``-0.0``, so ``now + x`` is ``x`` bit for bit. On a
    lattice path ``now`` runs over the whole run, across pages, and ``gap``
    stays 0: free times and deadlines are kept on the clock, and the
    workloads seen are free times. The last arrival's gap is infinite,
    which drains the line.

    A page's flat list of workloads becomes its rows of ``out`` as the page
    ends. On a lattice the free times are taken relative to each arrival in
    one int64 subtraction, clipped at 0, and scaled by ``alpha`` in one
    multiply: int64 to float64 is exact here, so each value is ``k * alpha``."""
    running = path.spec.is_lattice
    zero, now = (0, 0) if running else (0.0, -0.0)
    free = [zero] * servers
    line: deque[list] = deque()  # [remaining patience (floats) or deadline, sigma, index]
    seen: list = []
    out = np.empty((n_arrivals, servers))
    served = bytearray(n_arrivals)  # a customer never marked served is lost
    gap = zero  # floats: the last gap, not yet taken off the line's patiences

    for pos in range(0, n_arrivals, _PAGE):
        count = min(_PAGE, n_arrivals - pos)
        taus, sigmas, patiences = _exact_drivers(path, pos, count)
        if running:  # the next arrival and each deadline on the clock
            ends = np.cumsum(taus) + now
            if ends[-1] >= NEVER or ends.min() < now:  # a deadline past an int64, or a time wrapped
                raise ResourceCapError("lattice simulation clock in steps", NEVER, now + sum(taus.tolist()))
            arrivals = ends - taus
            taus, patiences = ends, arrivals + patiences
        taus, sigmas, patiences = taus.tolist(), sigmas.tolist(), patiences.tolist()
        if pos + count == n_arrivals:
            taus[-1] = math.inf
        for j in range(count):
            # Virtual workloads just before this arrival. The walk ages the
            # line in place by the last gap (0 on the running clock), and
            # drops whom it finds expired.
            if line:
                fold = free.copy()  # an ascending list is a heap
                expired = False
                for entry in line:
                    rem = entry[0] = entry[0] - gap
                    if fold[0] <= rem:
                        heapreplace(fold, fold[0] + entry[1])
                    elif rem < now:
                        expired = True
                if expired:
                    line = deque(entry for entry in line if entry[0] >= now)
                fold.sort()
                seen += fold
                line.append([patiences[j], sigmas[j], pos + j])
            else:
                seen += free
                if free[0] > now:
                    line.append([patiences[j], sigmas[j], pos + j])
                else:
                    served[pos + j] = True
                    free[0] = now + sigmas[j]
                    free.sort()

            # Gap until the next arrival: completions trigger FCFS starts.
            nxt = taus[j]
            while line:
                f = free[0]
                if f > nxt:
                    break
                rem, sig, i = line.popleft()
                if rem >= f:
                    served[i] = True
                    free[0] = f + sig
                    free.sort()
            if running:
                now = nxt
            else:
                for s in range(servers):
                    r = free[s]
                    free[s] = r - nxt if r > nxt else zero
                gap = nxt
        rows = out[pos:pos + count]
        if running:
            page = np.array(seen, dtype=np.int64).reshape(count, servers)
            page -= arrivals[:, None]
            np.multiply(np.maximum(page, 0, out=page), path.spec.alpha, out=rows)
        else:
            rows[:] = np.reshape(seen, (count, servers))
        seen.clear()
    return out, served


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
    path's own arithmetic (``loynes.exact_states``), as the engine does, and
    first, so its driver cover serves the engine's pages. Rows are compared
    a page at a time: the run holds the cover, the states and the trace.
    """
    if min(servers, n_arrivals) < 1:
        run(path, servers, n_arrivals)   # refuses, with its message
    states, accepted = exact_states(path, 0, n_arrivals, (0.0,) * servers)
    trace = run(path, servers, n_arrivals)
    disc, buf = np.empty(n_arrivals), np.empty((min(_PAGE, n_arrivals), servers))
    for a in range(0, n_arrivals, _PAGE):
        b = min(a + _PAGE, n_arrivals)
        diff = np.subtract(trace.seen[a:b], states[a:b], out=buf[:b - a])
        np.abs(diff, out=diff).max(axis=1, out=disc[a:b])
    bad = (disc > tol) | (trace.served != accepted)
    first_div = None
    if bad.any():
        j = int(np.argmax(bad))
        first_div = (j, tuple(trace.seen[j].tolist()), tuple(states[j].tolist()))
    return CrossValidation(n_arrivals, float(disc.max()), bool(np.array_equal(trace.served, accepted)),
                           first_div, tol)


def write_trace(records: Trace, out: IO[str], header: Optional[Sequence[str]] = None,
                flags: Sequence[str] = ("0,1", "1,0")):
    """CSV dump: index, W(1..S), served, loss.

    Any float columns with a flag go out the same way: ``header`` names
    the columns (by default the trace's), ``records.seen`` holds the floats
    and ``flags`` the texts of a row's flag, false then true (by default a
    trace's served and loss columns). ``bounds`` writes its samples so.

    Rows are formatted ``_PAGE`` at a time, by one ``%`` over a
    repeated row template. ``%s`` of a float is its ``repr``, which never
    holds a comma or a quote, so no field needs CSV quoting. A block with
    few distinct values (a lattice trace) formats each of them once; they
    are told apart by their bits, so ``0.0`` and ``-0.0`` stay apart. Each
    distinct row, keyed on its values' ranks and its flag, is joined
    once and written after each of its indices; a key that the next
    column's ranks would take past an int64 is ranked first.
    """
    n, width = records.seen.shape
    header = header or ["index", *(f"W{i + 1}" for i in range(width)), "served", "loss"]
    out.write(",".join(header) + "\n")
    template = "%d," + "%s," * width + "%s\n"
    flags = np.array(flags, dtype=object)
    for a in range(0, n, _PAGE):
        block = records.seen[a:a + _PAGE]
        marked = records.served[a:a + _PAGE].view(np.uint8)
        rows = len(block)
        bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
        if 2 * bits.size < block.size:
            text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
            ranks = inverse.reshape(block.shape)
            key, size = marked.astype(np.int64), 2
            for column in ranks.T:
                if size * bits.size > 1 << 63:  # ranked, the key so far is below ``rows``
                    key, size = np.unique(key, return_inverse=True)[1], rows
                key, size = key * bits.size + column, size * bits.size
            _, first, row_of = np.unique(key, return_index=True, return_inverse=True)
            lines = np.array([",".join([*row, flags[flag]]) + "\n" for row, flag in
                              zip(text[ranks[first]].tolist(), marked[first].tolist())], dtype=object)
            cells, form = np.empty((rows, 2), dtype=object), "%d,%s" * rows
            cells[:, 1] = lines[row_of]
        else:
            cells, form = np.empty((rows, width + 2), dtype=object), template * rows
            cells[:, 1:-1] = block
            cells[:, -1] = flags[marked]
        cells[:, 0] = range(a, a + rows)
        out.write(form % tuple(cells.ravel()))
