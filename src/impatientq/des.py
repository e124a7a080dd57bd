"""Event-driven simulation of the physical queue, used as an oracle.

The simulator keeps the physical state (per-server residual work, the FCFS
line with per-customer remaining patience) and advances it arrival by
arrival, serving customers at actual completion instants and dropping the
ones whose deadline passes first. At each arrival it also evaluates the
inductive virtual-workload construction: starting from the ordered residual
services, fold in every waiting customer's requirement whenever the least
virtual workload fits inside her remaining patience. The folded vector is
the workload the arriving customer sees, and must reproduce the one-step
recursion exactly; ``cross_validate`` certifies that.

The fold keeps the virtual workloads in a binary heap: a customer who fits
replaces the least value ``w`` by ``w + sigma`` (``heapreplace``), and the
heap is sorted once at the end. This is the recursion's merge with a zero
gap, which only selects values (``max(hi - 0.0, 0.0) == hi`` for the
non-negative values held here), so the folded tuple is the same multiset,
sorted, bit for bit; the simulator shares no arithmetic with the kernel
it is checked against.

Expired customers leave the line at the next arrival. The loop that ages
the line during each gap (remaining patience down by the gap) raises a
flag when an entry passes its deadline, and the line is purged only when
the flag is set, instead of being scanned at every arrival. The purge
only keeps the line short: an expired entry never fits in the fold and
is lost when it reaches the head, so no output depends on it.

Timekeeping is relative to the current arrival (everything is decremented
by each gap), so values stay small and float error does not grow with the
horizon. A lattice path runs the same engine on integers: gaps and service
in multiples of ``alpha``, and for each customer the deadline from
``kernel.accepted_multiples`` in place of her patience, so every deadline
comparison is exact; the workloads seen are scaled by ``alpha`` at the end,
and the comparison against the recursion is exact.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heapreplace
from typing import IO, NamedTuple, Optional

import numpy as np

from .loynes import _exact_drivers, exact_states, lattice_states
from .sequences import StationaryPath

_CHUNK = 1 << 15


class ArrivalRecord(NamedTuple):
    index: int
    workload_seen: tuple[float, ...]
    served: bool
    loss: bool


def run(path: StationaryPath, servers: int, n_arrivals: int) -> list[ArrivalRecord]:
    """Simulate ``n_arrivals`` customers from an initially empty system."""
    if servers < 1:
        raise ValueError("servers must be >= 1")
    if n_arrivals < 1:
        raise ValueError("n_arrivals must be >= 1")
    lattice = path.spec.is_lattice
    seen, served = _simulate(path, servers, n_arrivals, 0 if lattice else 0.0)
    if lattice:  # scale each distinct state once; records share the tuples
        alpha = path.spec.alpha
        scaled = {fold: tuple([v * alpha for v in fold]) for fold in set(seen)}
        seen = list(map(scaled.__getitem__, seen))
    return _records(seen, served)


def _records(seen: list[tuple], served: list[bool]) -> list[ArrivalRecord]:
    # One map over the columns; a per-index comprehension cost a tenth of ``run``.
    return list(map(ArrivalRecord, range(len(served)), seen, served, [not s for s in served]))


def _simulate(path: StationaryPath, servers: int, n_arrivals: int, zero) -> tuple[list, list]:
    """The workloads seen and the served flags, in the path's own arithmetic.

    ``zero`` is that arithmetic's zero (``0.0``, or ``0`` on a lattice), so
    every comparison in the loop is between two floats or two ints.
    """
    residuals = [zero] * servers
    line: deque[list] = deque()  # [remaining patience or deadline, sigma, index]
    seen: list[tuple[float, ...]] = []
    served: list[Optional[bool]] = [None] * n_arrivals
    expired = False  # a deadline passed during the last gap

    pos = 0
    while pos < n_arrivals:
        count = min(_CHUNK, n_arrivals - pos)
        taus, sigmas, patiences = (col.tolist() for col in _exact_drivers(path, pos, count))
        for j in range(count):
            n = pos + j
            # Customers whose deadline passed during earlier gaps are gone.
            if expired:
                kept = deque()
                for entry in line:
                    if entry[0] < zero:
                        served[entry[2]] = False
                    else:
                        kept.append(entry)
                line = kept

            # Virtual workloads just before this arrival.
            fold = sorted(residuals)  # a sorted list is a heap
            for rem, sig, _ in line:
                if fold[0] <= rem:
                    heapreplace(fold, fold[0] + sig)
            fold.sort()
            seen.append(tuple(fold))

            # With nobody waiting, ``fold`` is the sorted residuals.
            sigma_n = sigmas[j]
            if line or fold[0] > zero:
                line.append([patiences[j], sigma_n, n])
            else:
                served[n] = True
                residuals[residuals.index(fold[0])] = sigma_n

            # Gap until the next arrival: completions trigger FCFS starts.
            tau_n = taus[j]
            if n < n_arrivals - 1:
                while line:
                    f = min(residuals)
                    if f > tau_n:
                        break
                    rem, sig, i = line.popleft()
                    if rem >= f:
                        served[i] = True
                        residuals[residuals.index(f)] = f + sig
                    else:
                        served[i] = False
                residuals = [r - tau_n if r > tau_n else zero for r in residuals]
                expired = False
                for entry in line:
                    entry[0] -= tau_n
                    if entry[0] < zero:
                        expired = True
        pos += count

    # Drain: no further arrivals, so every waiting customer resolves.
    while line:
        f = min(residuals)
        rem, sig, i = line.popleft()
        if rem >= f:
            served[i] = True
            residuals[residuals.index(f)] = f + sig
        else:
            served[i] = False

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
    the recursion's acceptance indicator exactly. Lattice paths are rolled
    in integer steps and scaled by ``alpha`` once, as the engine does.
    """
    records = run(path, servers, n_arrivals)
    if path.spec.is_lattice:
        states, accepted = lattice_states(path, 0, n_arrivals, (0,) * servers)
        states = states[:-1] * path.spec.alpha
    else:
        states, accepted = exact_states(path, 0, n_arrivals, (0.0,) * servers)
        states = states[:-1]
    diff = np.array([rec.workload_seen for rec in records])
    diff -= states
    disc = np.abs(diff, out=diff).max(axis=1)
    served = np.fromiter((rec.served for rec in records), dtype=bool, count=n_arrivals)
    bad = (disc > tol) | (served != accepted)
    first_div = None
    if bad.any():
        j = int(np.argmax(bad))
        first_div = (records[j].index, records[j].workload_seen, tuple(states[j].tolist()))
    return CrossValidation(n_arrivals, float(disc.max()), bool(np.array_equal(served, accepted)),
                           first_div, tol)


def write_trace(records: list[ArrivalRecord], out: IO[str]):
    """CSV dump: index, W(1..S), served, loss.

    Rows are joined by hand: ``repr`` of a float never holds a comma or a
    quote, so no field needs CSV quoting.
    """
    servers = len(records[0].workload_seen) if records else 0
    out.write(",".join(["index", *(f"W{i + 1}" for i in range(servers)), "served", "loss"]) + "\n")
    out.writelines(f"{rec.index},{','.join(map(repr, rec.workload_seen))},"
                   f"{int(rec.served)},{int(rec.loss)}\n" for rec in records)
