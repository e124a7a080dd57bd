"""One-step workload maps for the multi-server FCFS queue with impatience.

The state is the ascending vector of the S servers' committed work seen
just before an arrival, counting only customers that will eventually be
served. Three maps act on it:

* ``advance``: the exact update. The arriving customer joins (adding her
  service requirement to the least-loaded server) iff the least workload
  does not exceed her patience; then the inter-arrival gap elapses.
* ``advance_upper`` / ``advance_lower``: monotone envelopes that replace
  the conditional contribution by ``sigma + patience`` (resp.
  ``min(sigma, patience)``), bounding the exact map from above (below) on
  coordinate suffixes. They drive the backward schemes.

Workload vectors are plain ascending tuples of floats. Scalar functions
take one ``DriverSample``; ``*_batch`` variants evaluate many states and
drivers at once on numpy arrays (used by property suites, the lattice
set propagation and the time-parallel forward rolls in ``loynes``).
Lattice variants operate on integer multiples of the lattice step so set
membership stays exact.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import ContractError
from .sequences import DriverSample


class StepOutcome(NamedTuple):
    next: tuple[float, ...]
    accepted: bool


def ordered(values: Sequence[float]) -> tuple[float, ...]:
    return tuple(sorted(values))


def is_ordered(u: Sequence[float]) -> bool:
    return all(u[i] <= u[i + 1] for i in range(len(u) - 1)) and all(x >= 0 for x in u)


def _require_ordered(u: Sequence[float]):
    if not u:
        raise ContractError("workload vector must have at least one coordinate")
    if not is_ordered(u):
        raise ContractError(f"workload vector must be ascending and non-negative, got {u!r}")


def advance(u: Sequence[float], d: DriverSample) -> StepOutcome:
    """Exact one-arrival update, coordinate form."""
    _require_ordered(u)
    accepted = u[0] <= d.patience
    x = u[0] + d.sigma if accepted else u[0]
    return StepOutcome(_merge_shift(u, x, d.tau), accepted)


def advance_direct(u: Sequence[float], d: DriverSample) -> tuple[float, ...]:
    """Literal add/sort/subtract/clip evaluation of the same update.

    Independent of the coordinate form in ``advance``; kept as an internal
    oracle for equivalence testing.
    """
    _require_ordered(u)
    v = list(u)
    if u[0] <= d.patience:
        v[0] += d.sigma
    v.sort()
    return tuple(max(x - d.tau, 0.0) for x in v)


def advance_upper(u: Sequence[float], d: DriverSample) -> tuple[float, ...]:
    """Monotone upper envelope: contribution forced to sigma + patience."""
    _require_ordered(u)
    return _merge_shift(u, d.sigma + d.patience, d.tau)


def advance_lower(u: Sequence[float], d: DriverSample) -> tuple[float, ...]:
    """Monotone lower envelope: contribution capped at min(sigma, patience)."""
    _require_ordered(u)
    return _merge_shift(u, min(d.sigma, d.patience), d.tau)


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

    ``tau``/``sigma``/``patience`` broadcast against the N rows.
    """
    accepted = u[:, 0] <= patience
    x = u[:, 0] + np.where(accepted, sigma, 0.0)
    return _merge_shift_batch(u, x, tau), accepted


def advance_upper_batch(u: np.ndarray, tau, sigma, patience) -> np.ndarray:
    return _merge_shift_batch(u, np.broadcast_to(np.asarray(sigma + patience, dtype=np.float64), u.shape[:1]), tau)


def advance_lower_batch(u: np.ndarray, tau, sigma, patience) -> np.ndarray:
    work = np.minimum(sigma, patience)
    return _merge_shift_batch(u, np.broadcast_to(np.asarray(work, dtype=np.float64), u.shape[:1]), tau)


def _merge_shift_batch(u: np.ndarray, x: np.ndarray, tau) -> np.ndarray:
    # States run along the last axis of ``u``; ``x`` has the leading shape
    # and ``tau`` broadcasts against it from the right.
    out = np.empty_like(u)
    if u.shape[-1] > 1:
        hi = np.maximum(u[..., :-1], x[..., None])
        out[..., :-1] = np.minimum(hi, u[..., 1:])
    out[..., -1] = np.maximum(u[..., -1], x)
    out -= np.asarray(tau, dtype=np.float64)[..., None]
    np.maximum(out, 0.0, out=out)
    return out


def advance_direct_batch(u: np.ndarray, tau, sigma, patience) -> np.ndarray:
    v = u.copy()
    accepted = v[:, 0] <= patience
    v[:, 0] += np.where(accepted, sigma, 0.0)
    v.sort(axis=1)
    v -= np.asarray(tau, dtype=np.float64).reshape(-1, 1) if np.ndim(tau) else tau
    np.maximum(v, 0.0, out=v)
    return v


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


def advance_lattice_batch(u_mult: np.ndarray, tau_mult, sigma_mult, patience,
                          alpha: float) -> np.ndarray:
    """Exact update on (N, S) int64 lattice states.

    The integer ``tau_mult``/``sigma_mult`` and float ``patience`` drivers
    are scalars or per-row arrays, broadcast against the N rows.
    """
    v = u_mult.copy()
    accepted = v[:, 0].astype(np.float64) * alpha <= patience
    v[:, 0] += np.where(accepted, sigma_mult, 0)
    v.sort(axis=1)
    v -= np.asarray(tau_mult, dtype=np.int64).reshape(-1, 1) if np.ndim(tau_mult) else tau_mult
    np.maximum(v, 0, out=v)
    return v
