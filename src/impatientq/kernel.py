"""One-step workload maps for the multi-server FCFS queue with impatience.

The state is the ascending vector of the S servers' committed work seen
just before an arrival, counting only customers that will eventually be
served. ``advance`` is the exact update: the arriving customer joins
(adding her service requirement to the least-loaded server) iff the least
workload does not exceed her patience; then the inter-arrival gap elapses.

Each map merges a new work ``x`` into the state in place of its least
coordinate, subtracts the gap and clips at zero (``_merge_shift``). The
exact map merges ``u0 + sigma`` or ``u0``; the monotone envelopes of the
backward schemes merge a work that does not depend on the state
(``loynes._effective_work``). ``advance_batch`` steps many ascending
states at once on ``(N, S)`` arrays (the lattice set propagation); its
merge reads them transposed, coordinate-major, as the time-parallel
forward rolls in ``loynes`` store their ``(S, k, lanes)`` lanes.

Every map works in its state's dtype. On a lattice the state, tau and
sigma are int64 multiples of the step ``alpha``, and the float test
``k * alpha <= patience`` is decided once per patience by
``accepted_multiples``, whose integer deadline ``D`` accepts ``k`` iff
``k <= D``; ``advance_lattice`` keeps the literal test as the reference.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import ContractError
from .sequences import DriverSample


class StepOutcome(NamedTuple):
    next: tuple[float, ...]
    accepted: bool


def _require_ordered(u: Sequence[float]):
    if not u:
        raise ContractError("workload vector must have at least one coordinate")
    if not (all(u[i] <= u[i + 1] for i in range(len(u) - 1)) and all(x >= 0 for x in u)):
        raise ContractError(f"workload vector must be ascending and non-negative, got {u!r}")


def advance(u: Sequence[float], d: DriverSample) -> StepOutcome:
    """Exact one-arrival update, coordinate form."""
    _require_ordered(u)
    accepted = u[0] <= d.patience
    x = u[0] + d.sigma if accepted else u[0]
    return StepOutcome(_merge_shift(u, x, d.tau), accepted)


def _merge_shift(u: Sequence[float], x: float, tau: float) -> tuple[float, ...]:
    # Coordinate i of the sorted merge of {u[1:], x} is (u[i] v x) ^ u[i+1];
    # the top coordinate is u[-1] v x. Subtract the gap and clip at the zero
    # of the state's own type, so int lattice multiples stay ints. The clip
    # ``zero if v < zero else v`` is the selection ``max(v, zero)`` makes (it
    # returns zero only when zero > v), without the builtin call.
    zero = type(u[0])()
    out = []
    a = u[0]
    for b in u[1:]:
        v = a if a > x else x
        v = (b if v > b else v) - tau
        out.append(zero if v < zero else v)
        a = b
    v = (a if a > x else x) - tau
    out.append(zero if v < zero else v)
    return tuple(out)


# ---------------------------------------------------------------------------
# Batch forms on (N, S) arrays
# ---------------------------------------------------------------------------


def advance_batch(u: np.ndarray, tau, sigma, patience) -> tuple[np.ndarray, np.ndarray]:
    """Exact update on rows of ``u``; returns (next states, accepted mask).

    ``tau``/``sigma``/``patience`` broadcast against the N rows. On int64
    lattice states the drivers are int multiples and ``patience`` is the
    deadline from ``accepted_multiples``.
    """
    accepted = u[:, 0] <= patience
    x = u[:, 0] + np.where(accepted, sigma, 0)
    return _merge_shift_batch(u.T, x, tau).T, accepted


def _merge_shift_batch(u: np.ndarray, x, tau, out=None) -> np.ndarray:
    # Coordinate i of every state is ``u[i]``: contiguous in a C-ordered
    # ``u``, or in the transpose of a column-major (N, S) box. ``x`` and
    # ``tau`` broadcast against ``u[0]``; the gap and the clip take the
    # state's dtype, so int64 lattice states stay int64. Every step writes
    # into ``out`` (not ``u``), so no temporary of the state's size is made;
    # ``x`` may be ``out[-1]``, which only the last merge step overwrites.
    if out is None:
        out = np.empty_like(u)
    if len(u) > 1:
        np.maximum(u[:-1], x, out=out[:-1])
        np.minimum(out[:-1], u[1:], out=out[:-1])
    np.maximum(u[-1], x, out=out[-1])
    out -= np.asarray(tau, dtype=u.dtype)
    return np.maximum(out, 0, out=out)


# ---------------------------------------------------------------------------
# Exact lattice forms (integer multiples of the lattice step)
# ---------------------------------------------------------------------------


def advance_lattice(u_mult: Sequence[int], tau_mult: int, sigma_mult: int,
                    patience: float, alpha: float) -> tuple[tuple[int, ...], bool]:
    """Exact update on integer lattice coordinates.

    Patience may live off the lattice; only the acceptance comparison
    touches floats, so the state itself never drifts.
    """
    accepted = u_mult[0] * alpha <= patience
    x = u_mult[0] + sigma_mult if accepted else u_mult[0]
    return _merge_shift(u_mult, x, tau_mult), accepted


NEVER = 1 << 62  # above every reachable state


def accepted_multiples(patience, alpha: float) -> np.ndarray:
    """The deadline of each patience on the lattice of step ``alpha``: the
    largest int64 ``k`` with ``k * alpha <= patience``, or ``NEVER`` from
    2^52 steps on (an infinite patience included).

    ``k * alpha`` rounds monotonically in ``k``, so for every int ``k``
    below 2^51, ``k <= D`` holds exactly when ``k * alpha <= patience``.
    Below 2^52 steps the floor of the float quotient is within two of the
    deadline, and the comparison itself corrects it.
    """
    p = np.asarray(patience, dtype=np.float64)
    k = np.floor(np.minimum(p, 2.0**52 * alpha) / alpha).astype(np.int64)
    big = k >= 1 << 52
    while (up := ((k + 1) * alpha <= p) & ~big).any():
        k += up
    while (down := (k * alpha > p) & ~big).any():
        k -= down
    return np.where(big, NEVER, k)
