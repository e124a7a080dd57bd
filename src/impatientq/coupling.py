"""Renovation events, coupling from the past, lattice sets.

A renovation index is one where the upper stationary state (``cftp`` of
the upper kind) has an empty first coordinate and each higher coordinate
fits under the accumulated forward gaps; from such an index, every
trajectory started at or below it reaches the same state, bit for bit, S-1
steps later, erasing its initial condition. The bounding chain below
proves this for a whole box at once: run from ``[0, Y]`` at the index for
S-1 steps, it closes to that one state.

Coupling from the past needs no such event: every stationary workload lies
in the box ``[0, Z]`` below the certified top supremum vector
(``loynes.certified_supremum``), and a bounding chain (Huber 2004) run from
that box holds the image of every state in it. When it closes to a point
at the target, that point is the stationary workload, bit for bit. The same
routine reads each monotone envelope's backward limit from the box of its
own kind: an envelope's contribution does not depend on the state, so its
chain is the two rolls of dominated CFTP (Kendall & Moller 2000). A path
remembers each start's box and chain, so a later target that starts at the
same index resumes the chain instead of reading the box again; the chain
is a deterministic function of its interval and of index-tied drivers, so
the result is the same, bit for bit.

Every exact step here, on a lattice path too, is the one exact map: there
it runs on int64 multiples of ``alpha`` with each patience's integer
deadline (``kernel.accepted_multiples``) in place of the patience. For
lattice-valued service and gaps the whole ordered box below the upper
estimate is finite; propagating it forward with exact integer arithmetic
yields a shrinking nested family of reachable sets whose collapse to a
single point certifies a unique stationary state on the lattice. One
pass enumerates the boxes of all requested depths; they propagate in
lockstep as one int64 row per distinct state with a membership bit per
depth, so every depth shares the same driver block and kernel calls.
Equal states are found by one sort of exact int64 keys into which the
rows are packed, as many columns to a key as its base allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, ContractError, ResourceCapError
from .kernel import _merge_shift, advance_batch
from .loynes import (
    _effective_work,
    _exact_drivers,
    _renovation_mask,
    certified_supremum,
    envelope_states,
)
from .sequences import StationaryPath

# Starts whose certified box and bounding chain a path remembers (``cftp``).
CHAIN_MEMO = 1024


@dataclass(frozen=True)
class RenovationEvent:
    """One index where the coalescence-forcing event holds, with witnesses."""

    index: int
    checked_length: int
    y_estimate: tuple[float, ...]
    tau_sums: tuple[float, ...]


@dataclass(frozen=True)
class RenovationScan:
    events: tuple[RenovationEvent, ...]
    window: tuple[int, int]
    frequency: float
    estimate: CftpResult


def detect_renovation(path: StationaryPath, servers: int,
                      window: tuple[int, int]) -> RenovationScan:
    """All renovation indices in the inclusive window ``[a, b]``.

    The upper estimate (``cftp`` of the upper kind) is computed once at
    ``a`` and rolled forward (a backward limit rolls into the limits at
    later indices). Detection refuses to run from an estimate whose chain
    did not close (``_envelope_estimate``): an under-estimate could flag
    spurious events.
    """
    a, b = window
    if b < a:
        raise ValueError(f"empty window [{a}, {b}]")
    est = _envelope_estimate(path, servers, a, "upper")
    n = b - a + 1
    states = envelope_states(path, a, n - 1, est.value, "upper")
    tau = path.block(a, n + servers).tau
    mask, sums_by_ell = _renovation_mask(states, tau, servers)
    events = []
    for row in np.flatnonzero(mask):
        sums = tuple(float(col[row]) for col in sums_by_ell)
        events.append(RenovationEvent(a + int(row), servers - 1,
                                      tuple(map(float, states[row])), sums))
    return RenovationScan(tuple(events), (a, b), len(events) / n, est)


# ---------------------------------------------------------------------------
# Coupling from the past
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CftpResult:
    """A sample, the horizon that coalesced (or the last one tried), and the
    depth and risk of the certified start box."""

    value: Optional[tuple[float, ...]]
    coalesced: bool
    horizon_used: int
    z_depth: int
    z_risk: float

    def __post_init__(self):
        if self.coalesced and self.value is None:
            raise ValueError("coalesced result must carry a value")


def cftp(path: StationaryPath, servers: int, at: int = 0,
         max_horizon: int = 1 << 20, kind: str = "exact") -> CftpResult:
    """Sample the stationary state of the ``kind`` recursion at ``at`` by
    coupling from the past.

    ``kind`` is ``"exact"`` (the workload) or ``"lower"`` / ``"upper"`` (an
    envelope, whose sample is its backward limit). At horizon n a bounding
    chain runs from index ``at-n`` to ``at``, started from the box between
    the empty state and the certified supremum vector of the same kind
    (upper for the exact map) at ``at-n``. The horizon doubles from
    ``max(2S, 16)``, or from ``max_horizon`` if that is smaller, until the
    chain closes to a point at ``at``; it never exceeds ``max_horizon``,
    which must be at least 1. Drivers are tied to indices, so deeper
    horizons replay the same randomness. The exact chain runs on int64
    multiples on a lattice path; an envelope's always runs in floats.

    The path remembers, for the ``CHAIN_MEMO`` starts used last (keyed on
    the absolute start index, ``servers`` and ``kind``), the certified box
    read there and the furthest index its chain has reached, with the
    interval there. A start seen before skips the box read; its chain
    resumes from that index when the index is not past ``at``, and reruns
    from the box otherwise. The chain is a deterministic function of its
    interval and of drivers tied to indices, so a resumed chain ends on the
    interval a fresh one would, bit for bit: the memo changes no result. A
    start first seen by the exact chain takes the box the upper envelope's
    chain read there, and vice versa. A start whose box is refused is never
    remembered.
    """
    if servers < 1:
        raise ValueError("servers must be >= 1")
    if max_horizon < 1:
        raise ValueError(f"max_horizon must be >= 1, got {max_horizon}")
    if kind not in ("exact", "lower", "upper"):
        raise ValueError(f"kind must be 'exact', 'lower' or 'upper', got {kind!r}")
    lattice = kind == "exact" and path.spec.is_lattice
    chains = path._chains
    twin = {"exact": "upper", "upper": "exact"}.get(kind)  # the other kind whose chain starts from this box
    horizon = min(max(2 * servers, 16), max_horizon)
    while True:
        start = at - horizon
        key = (start + path.offset, servers, kind)
        # (box, absolute index the chain reached, L and U there); taken out
        # and put back, so the entry evicted first is the least recently used
        memo = chains.pop(key, None)
        boxed = memo or chains.get((key[0], servers, twin))
        if boxed is None:
            zb = certified_supremum(path, start, "upper" if kind == "exact" else kind, servers, horizon)
            if any(not math.isfinite(v) for v in zb.values):
                raise ConfigurationError("top supremum is not finite; cannot bound the stationary states")
        else:
            zb = boxed[0]
        resume = memo is not None and memo[1] - path.offset <= at
        if resume:
            reached, lo, hi = memo[1] - path.offset, memo[2], memo[3]
        else:
            reached, lo, hi = start, (0.0,) * servers, zb.values
            if lattice:
                lo, hi = (0,) * servers, tuple(int(math.floor(v / path.spec.alpha + 1e-9)) for v in hi)
        lo, hi = _bounding_chain(path, reached, at - reached, lo, hi, kind)
        if memo is None or resume:   # otherwise the remembered chain reached further
            memo = (zb, at + path.offset, lo, hi)
        chains[key] = memo
        if len(chains) > CHAIN_MEMO:
            chains.popitem(last=False)
        if lo == hi:
            if lattice:
                lo = tuple(float(k) * path.spec.alpha for k in lo)
            return CftpResult(lo, True, horizon, zb.horizon, zb.risk)
        if horizon >= max_horizon:
            return CftpResult(None, False, horizon, zb.horizon, zb.risk)
        horizon = min(2 * horizon, max_horizon)


def _envelope_estimate(path: StationaryPath, servers: int, at: int, kind: str) -> CftpResult:
    """``cftp`` of the envelope ``kind`` at ``at``, refused with
    ``ContractError`` when its chain did not close: a truncated roll from
    empty can under-estimate the backward limit."""
    est = cftp(path, servers, at, kind=kind)
    if not est.coalesced:
        raise ContractError(f"{kind} estimate at index {at} did not coalesce by horizon {est.horizon_used}")
    return est


def _bounding_chain(path: StationaryPath, start: int, steps: int,
                    lo: tuple, hi: tuple, kind: str = "exact") -> tuple[tuple, tuple]:
    """The interval ``[L, U]`` at ``start + steps`` of the interval ``[lo, hi]``
    at ``start`` under the ``kind`` recursion (for the exact map, in lattice
    multiples on a lattice path).

    An envelope's contribution does not depend on the state, so both ends
    take the same one, and each end is the envelope's own roll. The exact
    map adds sigma to ``u0`` iff ``u0 <= D``: for every state if ``U0 <=
    D``, for none if ``L0 > D``, and otherwise the new work lies in ``[L0,
    max(U0, D + sigma)]``. ``_merge_shift`` only selects, subtracts and
    clips, all monotone under rounding, so the images of ``L`` and ``U``
    bound every image bit for bit. ``D`` is the patience, or on the lattice
    its deadline, the largest accepted multiple. Once the interval closes
    (``L == U``) the two updates are the same computation, so the point
    advances alone, one ``_merge_shift`` per index.
    """
    if kind != "exact":
        blk = path.block(start, steps)
        drivers = zip(_effective_work(blk.tau, blk.sigma, blk.patience, kind).tolist(), blk.tau.tolist())
        for x, tau in drivers:
            lo = _merge_shift(lo, x, tau)
            hi = _merge_shift(hi, x, tau)
            if lo == hi:
                for x, tau in drivers:
                    lo = _merge_shift(lo, x, tau)
                return lo, lo
        return lo, hi
    drivers = zip(*(col.tolist() for col in _exact_drivers(path, start, steps)))
    for tau, sigma, deadline in drivers:
        if hi[0] <= deadline:
            x_lo, x_hi = lo[0] + sigma, hi[0] + sigma
        elif lo[0] > deadline:
            x_lo, x_hi = lo[0], hi[0]
        else:
            x_lo, x_hi = lo[0], max(hi[0], deadline + sigma)
        lo = _merge_shift(lo, x_lo, tau)
        hi = _merge_shift(hi, x_hi, tau)
        if lo == hi:
            for tau, sigma, deadline in drivers:
                lo = _merge_shift(lo, lo[0] + sigma if lo[0] <= deadline else lo[0], tau)
            return lo, lo
    return lo, hi


# ---------------------------------------------------------------------------
# Lattice reachable sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReachableSet:
    """Image at the target index of the depth-n lattice sandwich box."""

    depth: int
    points: frozenset[tuple[int, ...]]
    alpha: float
    box_size: int
    nested_in_previous: bool
    estimate_stabilized: bool

    def __len__(self):
        return len(self.points)


def reachable_profile(path: StationaryPath, servers: int, depths: Sequence[int],
                      at: int = 0, cap: int = 1_000_000) -> list[ReachableSet]:
    """Reachable sets for several depths off one anchored estimate.

    All boxes derive from a single backward estimate at the deepest index
    rolled forward, which makes the nested-family property exact; nesting
    is still checked between the sets of consecutive requested depths. The
    estimate's chain must have closed (``_envelope_estimate``): an open one
    may under-estimate the box, so the profile refuses rather than report
    sets built from it.

    One ``_ordered_boxes`` pass enumerates every box, deepest first, so it
    holds at most ``len(depths) * cap`` rows. They propagate in lockstep as
    one int64 row per distinct state and uint64 words whose bit k is set
    when the k-th depth's box reaches the state; every box row's word is
    built once, and the box of depth ``d`` joins with its words at index
    ``at-d``. Each index takes one step, one ``np.lexsort`` of the rows
    packed into int64 keys (``_key_weights``), and keeps the first row of
    each run of equal keys with the OR of the run's words; rows are held in
    key order, which is lexicographic. The keys are exact: a step raises
    the top coordinate by at most sigma and clips at zero, so over the
    window every coordinate lies in ``[0, base)`` with ``base = max cap +
    sum of sigma + 1``. The sets are read back from one bit matrix over
    one list of row tuples.

    A box over ``cap`` is refused; of several, the error names the deepest
    one over it at the first column where any box is.
    """
    if not path.spec.is_lattice:
        raise ConfigurationError("reachable sets require a lattice-model spec")
    depths = sorted(set(int(d) for d in depths))
    if not depths or depths[0] < 0:
        raise ValueError("depths must be non-negative")
    deepest = depths[-1]
    alpha = path.spec.alpha
    est = _envelope_estimate(path, servers, at - deepest, "upper")
    # Estimates at every shallower index, consistent by construction.
    rolled = envelope_states(path, at - deepest, deepest, est.value, "upper")
    tau, sigma, deadline = _exact_drivers(path, at - deepest, deepest)

    desc = depths[::-1]   # box j is the box of depth desc[j], with bit len(depths)-1-j
    caps = np.floor(rolled[deepest - np.array(desc)] / alpha + 1e-9).astype(np.int64)
    boxes, sizes = _ordered_boxes(caps, cap, [f"at depth {d} (index {at - d})" for d in desc])
    joins = {d: slice(e - n, e) for d, n, e in zip(desc, sizes.tolist(), np.cumsum(sizes).tolist())}
    bit = np.arange(len(depths))   # depths[k] owns bit k of the membership words
    words = np.zeros((len(desc), (len(depths) + 63) // 64), dtype=np.uint64)
    words[bit, bit[::-1] // 64] = np.uint64(1) << (bit[::-1] % 64).astype(np.uint64)
    words = np.repeat(words, sizes, axis=0)   # one per box row, sliced like the boxes
    weights = _key_weights(int(caps.max()) + int(sigma.sum()) + 1, servers)
    states, member = boxes[:0], words[:0]
    for i in range(deepest + 1):
        depth = deepest - i
        if depth in joins:
            states = np.concatenate((states, boxes[joins[depth]]))
            member = np.concatenate((member, words[joins[depth]]))
        if depth > 0:
            states = advance_batch(states, tau[i], sigma[i], deadline[i])[0]
            keys = [states[:, cols] @ w for cols, w in weights]
            order = np.lexsort(keys)
            keys = [key.take(order) for key in keys]
            new = np.empty(len(order), dtype=bool)   # first row of each distinct state
            new[:1] = True
            np.not_equal(keys[0][1:], keys[0][:-1], out=new[1:])
            for key in keys[1:]:
                new[1:] |= key[1:] != key[:-1]
            first = new.nonzero()[0]
            states = states.take(order[first], axis=0)
            member = np.bitwise_or.reduceat(member.take(order, axis=0), first, axis=0)

    bits = (member[:, bit // 64] >> (bit % 64).astype(np.uint64)) & np.uint64(1) == 1
    rows = list(map(tuple, states.tolist()))
    sets = [frozenset(compress(rows, col)) for col in bits.T.tolist()]
    return [ReachableSet(d, p, alpha, len(boxes[joins[d]]), k == 0 or p <= sets[k - 1], est.coalesced)
            for k, (d, p) in enumerate(zip(depths, sets))]


# Packed keys stay below this bound, so every key is an exact int64.
_KEY_LIMIT = 1 << 63


def _key_columns(base: int, width: int) -> int:
    """Columns per packed key for coordinates in ``[0, base)``: the largest
    ``k <= width`` with ``base**k < _KEY_LIMIT``, and at least one."""
    k = 1
    while k < width and base ** (k + 1) < _KEY_LIMIT:
        k += 1
    return k


def _key_weights(base: int, width: int) -> list[tuple[slice, np.ndarray]]:
    """Column groups and int64 weights that pack rows of ``width``
    coordinates in ``[0, base)`` into exact keys, ``rows[:, group] @ weights``.

    Each group reads as a number in base ``base``, first column most
    significant, so equal keys mean equal rows; at S = 3 one group holds
    the row, and wider rows spill into further groups (base 354 puts seven
    of eight columns in one). The groups are listed last first: one
    ``np.lexsort`` sorts by its last key, so the rows come out in
    lexicographic order whatever the number of keys.
    """
    k = _key_columns(base, width)
    groups = [slice(a, min(a + k, width)) for a in range(0, width, k)]
    return [(g, np.array([base ** e for e in range(g.stop - g.start - 1, -1, -1)], dtype=np.int64))
            for g in groups[::-1]]


def _ordered_boxes(caps, cap: int, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The ordered integer vectors of every box of a ``(B, S)`` array of cap
    rows (coordinate j at most ``caps[b, j]``) in one pass: int64 rows
    grouped by box, each box in lexicographic order, and the box sizes.

    Prefixes of all boxes grow a column at a time. Coordinate j also lies
    below every later cap, so the caps are first lowered to their suffix
    minima; then each prefix has a completion, and a prefix count above
    ``cap`` proves a box too large. The error names the first box over the
    cap (``names[b]``) at the first column where any box is over it. Each
    column keeps only its new coordinate and each row's parent prefix; the
    rows are gathered once at the end, so the builder holds about two box
    copies at its peak.
    """
    caps = np.asarray(caps, dtype=np.int64)
    owner = np.arange(len(caps))
    low = np.zeros(len(caps), dtype=np.int64)
    coords, parents = [], []
    for col in np.minimum.accumulate(caps[:, ::-1], axis=1)[:, ::-1].T:
        counts = np.maximum(col[owner] - low + 1, 0)
        over = np.flatnonzero(np.bincount(owner, weights=counts, minlength=len(caps)) > cap)
        if len(over):
            raise ResourceCapError(f"lattice box {names[over[0]]} exceeds cap", cap,
                                   math.prod(c + 1 for c in caps[over[0]].tolist()))
        parent = np.repeat(np.arange(len(low)), counts)
        low = np.repeat(low - (np.cumsum(counts) - counts), counts)
        low += np.arange(len(low))
        owner = owner[parent]
        coords.append(low)
        parents.append(parent)
    sizes = np.bincount(owner, minlength=len(caps))
    del owner, low, parent   # before the box is allocated
    box = np.empty((len(coords[-1]), len(coords)), dtype=np.int64)
    rows = slice(None)
    for j in range(len(coords) - 1, -1, -1):   # popped, so each column is freed once read
        box[:, j] = coords.pop()[rows]
        rows = parents.pop()[rows]
    return box, sizes
