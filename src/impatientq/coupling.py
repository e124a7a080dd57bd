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
routine reads each monotone envelope's backward limit from the same box,
which dominates the stationary states of both envelopes: an envelope's
contribution does not depend on the state, so its chain is the two rolls
of dominated CFTP (Kendall & Moller 2000), and from any larger start the
two rolls still meet only at the backward limit. The path's memo keeps
the box and chains of the starts used last, and starts lie on a grid of
indices, so later targets that share a start resume a chain instead of
reading the box again. The chain is a deterministic function of its
interval and of index-tied drivers, and from a certified box it closes to
the stationary state whatever its start, so the result is the same, bit
for bit.

Every exact step here, on a lattice path too, is the one exact map: there
it runs on int64 multiples of ``alpha`` with each patience's integer
deadline (``kernel.accepted_multiples``) in place of the patience. For
lattice-valued service and gaps the whole ordered box below the upper
estimate is finite; propagating it forward with exact integer arithmetic
yields a shrinking nested family of reachable sets whose collapse to a
single point certifies a unique stationary state on the lattice
(``reachable_profile``). Each image lies in the box one index later, where
its lexicographic rank, a closed form over a table of suffix counts (the
ranking of combinations, Knuth, TAOCP Vol. 4A, 7.2.1.3), names its row.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, ContractError, ResourceCapError
from .kernel import _merge_shift, advance_batch
from .loynes import (
    _effective_work,
    _exact_drivers,
    _exact_lists,
    _multiples,
    _renovation_mask,
    _times,
    certified_supremum,
    envelope_states,
)
from .sequences import CHAIN_MEMO, StationaryPath


@dataclass(frozen=True)
class RenovationEvent:
    """One index where the coalescence-forcing event holds, with witnesses."""

    index: int
    y_estimate: tuple[float, ...]
    tau_sums: tuple[float, ...]


@dataclass(frozen=True)
class RenovationScan:
    """The events of a window and their frequency there, with the
    frequencies of the paper's simpler sufficient conditions: an empty top
    supremum (``z1_zero``), ``sigma + patience <= tau`` and ``sigma < tau``."""

    events: tuple[RenovationEvent, ...]
    window: tuple[int, int]
    frequency: float
    z1_zero: float
    work_le_tau: float
    sigma_lt_tau: float
    estimate: CftpResult


def detect_renovation(path: StationaryPath, servers: int,
                      window: tuple[int, int]) -> RenovationScan:
    """All renovation indices in the inclusive window ``[a, b]``.

    The upper estimate (``cftp`` of the upper kind) is computed once at
    ``a`` and rolled forward (a backward limit rolls into the limits at
    later indices). Detection refuses to run from an estimate whose chain
    did not close (``_envelope_estimate``): an under-estimate could flag
    spurious events.

    The rolled estimate's top coordinate takes the one-dimensional
    recursion of the top supremum Z1, so ``z1_zero`` counts its zeros; an
    all-zero state meets every inequality of the event, so each is an
    event. The driver conditions are counted on the block the gap sums read.
    """
    a, b = window
    if b < a:
        raise ValueError(f"empty window [{a}, {b}]")
    est = _envelope_estimate(path, servers, a, "upper")
    n = b - a + 1
    states = envelope_states(path, a, n - 1, est.value, "upper")
    blk = path.block(a, n + servers)
    mask, sums_by_ell = _renovation_mask(states, blk.tau, servers)
    events = []
    for row in np.flatnonzero(mask):
        sums = tuple(float(col[row]) for col in sums_by_ell)
        events.append(RenovationEvent(a + int(row), tuple(map(float, states[row])), sums))
    sigma, tau = blk.sigma[:n], blk.tau[:n]
    hits = (states[:, -1] == 0.0, sigma + blk.patience[:n] <= tau, sigma < tau)
    return RenovationScan(tuple(events), (a, b), len(events) / n,
                          *(np.count_nonzero(h) / n for h in hits), est)


# ---------------------------------------------------------------------------
# Coupling from the past
# ---------------------------------------------------------------------------


@dataclass(frozen=True, init=False)
class CftpResult:
    """A sample, the length of the chain that closed (or of the last one
    tried), and the depth and risk of the certified start box."""

    value: Optional[tuple[float, ...]]
    coalesced: bool
    horizon_used: int
    z_depth: int
    z_risk: float

    def __init__(self, value, coalesced, horizon_used, z_depth, z_risk):
        if coalesced and value is None:
            raise ValueError("coalesced result must carry a value")
        d = self.__dict__   # each field stored once, not through a frozen object.__setattr__
        d["value"], d["coalesced"], d["horizon_used"], d["z_depth"], d["z_risk"] = \
            value, coalesced, horizon_used, z_depth, z_risk


def cftp(path: StationaryPath, servers: int, at: int = 0,
         max_horizon: int = 1 << 20, kind: str = "exact") -> CftpResult:
    """Sample the stationary state of the ``kind`` recursion at ``at`` by
    coupling from the past.

    ``kind`` is ``"exact"`` (the workload) or ``"lower"`` / ``"upper"`` (an
    envelope, whose sample is its backward limit). A bounding chain runs
    from a start to ``at``, started from the box between the empty state
    and the certified supremum vector there, the same box for every kind
    (it dominates both envelopes' stationary states). Rung ``h`` doubles
    from ``max(2S, 16)``, or from ``max_horizon`` if that is smaller, until
    the chain closes to a point at ``at``; it starts at the last multiple
    of ``h`` at or before ``at - h``, but not before ``at - max_horizon``
    (``>= 1``). ``horizon_used`` is ``at`` less the start: in ``[h, 2h)``,
    at most ``max_horizon``, and equal to it when the chain stays open.
    Drivers are tied to indices, so deeper rungs replay the same randomness. The exact chain runs on int64
    multiples on a lattice path; an envelope's always runs in floats.
    ``at`` and ``max_horizon`` are read by ``operator.index``.

    The path's memo (``sequences._PathMemo.chains``, least recently used
    past ``CHAIN_MEMO`` starts) keeps, per start index and ``servers``, the
    certified box read there and, per kind, the furthest index its chain
    has reached, with the interval there. A start seen before (consecutive
    targets share the starts of each rung) skips the box read, whichever
    kind read it; the chain of the kind asked for resumes from its index
    when that is not past ``at`` (as a point if it had closed), and reruns
    from the box otherwise. The chain is a deterministic function of its
    interval and of drivers tied to indices, so a resumed chain ends on the
    interval a fresh one would, bit for bit: the memo changes no result. A
    start whose box is refused is never remembered.
    """
    if servers < 1:
        raise ValueError("servers must be >= 1")
    at, max_horizon = operator.index(at), operator.index(max_horizon)
    if max_horizon < 1:
        raise ValueError(f"max_horizon must be >= 1, got {max_horizon}")
    if kind not in ("exact", "lower", "upper"):
        raise ValueError(f"kind must be 'exact', 'lower' or 'upper', got {kind!r}")
    lattice = kind == "exact" and path.spec.is_lattice
    rung = min(max(2 * servers, 16), max_horizon)
    while True:
        start = max((at - rung) // rung * rung, at - max_horizon)
        horizon = at - start
        key = (start, servers)
        entry = path._memo.chains.get(key)   # (box, {kind: (index its chain reached, L and U there)})
        if entry is None:
            zb = certified_supremum(path, start, servers, horizon)
            if any(not math.isfinite(v) for v in zb.values):
                raise ConfigurationError("top supremum is not finite; cannot bound the stationary states")
            entry = (zb, {})
            path._memo.keep_chain(key, entry)
        else:   # refreshed in place: its chains are updated in the entry itself
            path._memo.chains.move_to_end(key)
        zb, chains = entry
        kept = chains.get(kind)
        resume = kept is not None and kept[0] <= at
        if resume:
            reached, lo, hi = kept
        else:
            reached, lo, hi = start, (0.0,) * servers, zb.values
            if lattice:
                lo, hi = (0,) * servers, tuple(_multiples(hi, path.spec.alpha).tolist())
        lo, hi = _bounding_chain(path, reached, at - reached, lo, hi, kind)
        if kept is None or resume:   # otherwise the remembered chain reached further
            chains[kind] = (at, lo, hi)
        if lo == hi:
            value = tuple(_times(lo, path.spec.alpha).tolist()) if lattice else lo
            return CftpResult(value, True, horizon, zb.horizon, zb.risk)
        if horizon >= max_horizon:
            return CftpResult(None, False, horizon, zb.horizon, zb.risk)
        rung = min(2 * rung, max_horizon)


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
    advances alone, one ``_merge_shift`` per index, from the first step if
    it is handed in closed. The exact drivers are read by index from the
    path's driver pages (``loynes._exact_lists``).
    """
    if kind != "exact":
        blk = path.block(start, steps)
        drivers = zip(_effective_work(blk.sigma, blk.patience, kind).tolist(), blk.tau.tolist())
        if lo != hi:
            for x, tau in drivers:
                lo = _merge_shift(lo, x, tau)
                hi = _merge_shift(hi, x, tau)
                if lo == hi:
                    break
            else:
                return lo, hi
        for x, tau in drivers:
            lo = _merge_shift(lo, x, tau)
        return lo, lo
    (taus, sigmas, deadlines), o = _exact_lists(path, start, steps)
    drivers = iter(range(o, o + steps))
    if lo != hi:
        for i in drivers:
            tau, sigma, deadline = taus[i], sigmas[i], deadlines[i]
            if hi[0] <= deadline:
                x_lo, x_hi = lo[0] + sigma, hi[0] + sigma
            elif lo[0] > deadline:
                x_lo, x_hi = lo[0], hi[0]
            else:
                x_lo, x_hi = lo[0], max(hi[0], deadline + sigma)
            lo = _merge_shift(lo, x_lo, tau)
            hi = _merge_shift(hi, x_hi, tau)
            if lo == hi:
                break
        else:
            return lo, hi
    for i in drivers:
        lo = _merge_shift(lo, lo[0] + sigmas[i] if lo[0] <= deadlines[i] else lo[0], taus[i])
    return lo, lo


# ---------------------------------------------------------------------------
# Lattice reachable sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReachableSet:
    """Image at the target index of the depth-n lattice sandwich box."""

    depth: int
    points: frozenset[tuple[int, ...]]
    box_size: int
    # Always true, as an open estimate is refused; perfbench's lattice check reads it (ROADMAP item 1b).
    estimate_stabilized: bool

    def __len__(self):
        return len(self.points)


def reachable_profile(path: StationaryPath, servers: int, depths: Sequence[int],
                      at: int = 0, cap: int = 1_000_000) -> list[ReachableSet]:
    """Reachable sets for several depths off one anchored estimate.

    All boxes derive from one backward estimate at the deepest index, rolled
    forward; its chain must have closed (``_envelope_estimate``), as an open
    one may under-estimate the boxes. One ``_ordered_boxes`` pass enumerates
    the box of every depth from 0 to the deepest, requested or not, so
    ``cap`` bounds each of them. Every row but those of the box at ``at``
    takes its one step, one ``advance_batch`` call per group of consecutive
    boxes holding at most ``cap`` rows (``_groups``), which bounds the
    step's temporaries as ``cap`` bounds one box. The exact map is dominated
    by the upper envelope, so a depth-d row's image lies in the depth-(d-1)
    box one index later, at the row its rank names (``_rank_tables``,
    ``_rank``); an image above that box would break the certificate and is
    refused with ``ContractError``. So each deeper set lies in the shallower
    one, and no nesting check can fail.

    Each row then takes its root, the row of the box at ``at`` it reaches,
    by pointer jumping (Hillis & Steele 1986, as ``_prefix_compose`` in
    ``sequences``): ``ceil(log2(deepest))`` passes of ``root <- root[root]``
    into one reused buffer. One ``np.maximum.at`` gives each row of the box
    at ``at`` its reach, the deepest depth whose box reaches it. A depth-d
    row reaches its root through a row of every shallower depth, so depth
    d's set is the rows of reach at least d: one stable sort and one
    ``searchsorted`` make every set a prefix of the shallowest one's rows,
    whose tuples are built once.

    A box over ``cap`` is refused; of several, the error names the deepest
    one over it at the first column where any box is, and of several images
    above their boxes, the first in the deepest box, whatever the groups.
    """
    if not path.spec.is_lattice:
        raise ConfigurationError("reachable sets require a lattice-model spec")
    depths = sorted(set(map(operator.index, depths)))
    if not depths:
        raise ValueError("depths must name at least one depth")
    if depths[0] < 0:
        raise ValueError("depths must be non-negative")
    deepest = depths[-1]
    est = _envelope_estimate(path, servers, at - deepest, "upper")
    # box b is the box of depth deepest - b, at driver row b, capped by the estimate rolled there
    caps = _multiples(envelope_states(path, at - deepest, deepest, est.value, "upper"), path.spec.alpha)
    drivers = np.vstack(_exact_drivers(path, at - deepest, deepest))
    boxes, sizes = _ordered_boxes(caps, cap, [f"at depth {deepest - b} (index {at - deepest + b})"
                                              for b in range(deepest + 1)])
    tops = _suffix_minima(caps)
    table, entry = _rank_tables(tops)
    starts = np.append(0, np.cumsum(sizes))   # box b holds rows starts[b]:starts[b + 1]

    root = np.arange(len(boxes))   # each row's image's row; the rows of the box at ``at`` are their own
    for lo, hi in _groups(sizes[:-1], cap):
        reps = sizes[lo:hi]
        images = advance_batch(boxes[starts[lo]:starts[hi]],
                               *np.repeat(drivers[:, lo:hi], reps, axis=1))[0]
        nxt = np.repeat(np.arange(lo + 1, hi + 1), reps)   # the box each image lies in
        above = np.zeros(len(images), dtype=bool)
        for j, top in enumerate(tops.T):   # an ascending row under the suffix minima is under the caps
            above |= images[:, j] > top.take(nxt)
        if above.any():
            r = int(np.argmax(above))
            raise ContractError(f"exact image {tuple(images[r].tolist())} at index {at - deepest + nxt[r]} lies "
                                f"above the upper estimate's box {tuple(caps[nxt[r]].tolist())} there")
        place = root[starts[lo]:starts[hi]]   # each image's rank in its box, then its row
        _rank(table, entry.take(nxt), images.T, out=place)
        place += starts.take(nxt)
        del images, above, nxt, place   # before the next group steps

    spare, span = np.empty_like(root), 1   # each row points span images on, or at its root
    while span < deepest:   # a row of box b lies deepest - b images before its root
        root, spare = np.take(root, root, out=spare, mode="clip"), root
        span *= 2
    first = starts[deepest]
    reach = np.zeros(sizes[deepest], dtype=np.min_scalar_type(deepest))   # of the rows of the box at ``at``
    np.maximum.at(reach, np.subtract(root[:first], first, out=spare[:first]),
                  np.repeat(np.arange(deepest, 0, -1, dtype=reach.dtype), sizes[:-1]))
    del root, spare
    order = np.argsort(reach, kind="stable")   # deepest reach last
    counts = len(reach) - np.searchsorted(reach[order], depths)   # the rows of reach >= d, last in order
    rows = list(map(tuple, boxes[first + order[len(reach) - counts[0]:][::-1]].tolist()))
    sets = [frozenset(rows[:n]) for n in counts.tolist()]
    return [ReachableSet(d, p, int(sizes[deepest - d]), est.coalesced) for d, p in zip(depths, sets)]


def _suffix_minima(caps) -> np.ndarray:
    """Each cap lowered to the least cap at or after it: an ascending vector
    under the caps has coordinate j at most every later cap too."""
    return np.minimum.accumulate(np.asarray(caps, dtype=np.int64)[:, ::-1], axis=1)[:, ::-1]


def _rank_tables(tops) -> tuple[np.ndarray, np.ndarray]:
    """Rank tables of the boxes of a ``(B, S)`` array of suffix-minimum caps
    ``c``, side by side in one ``(S, total)`` array, and each box's first
    column.

    Box b owns the ``c[b, -1] + 2`` columns from its first, and entry ``[j,
    first + y]`` counts the ascending suffixes ``v_j <= ... <= v_{S-1}`` with
    ``v_j >= y`` and ``v_k <= c[b, k]``; ``[0, first]`` is the box's size.
    Row j is the reversed cumulative sum of row j+1 (row S counts the empty
    suffix, 1) cut above ``c[b, j]``, all boxes at once. The box holds every
    ``(0, ..., 0, y)`` with ``y <= c[b, -1]``, so its table has at most
    ``(S+1) (size+1)`` entries, whatever the largest cap.
    """
    width = tops[:, -1] + 2
    first = np.cumsum(width) - width
    y = np.arange(width.sum()) - np.repeat(first, width)
    above = y > np.repeat(tops.T, width, axis=1)   # row j: the columns above cap j
    table = np.empty(above.shape, dtype=np.int64)
    count = np.ones(len(y), dtype=np.int64)   # row S
    for j in range(len(above) - 1, -1, -1):
        count[above[j]] = 0
        tail = np.cumsum(count[::-1])[::-1]   # from each column to the last of all boxes
        count = table[j] = tail - np.repeat(np.append(tail[first[1:]], 0), width)
    return table, first


def _rank(table: np.ndarray, first, columns, out=None) -> np.ndarray:
    """Lexicographic rank of each ascending row in its box, from the rank
    tables (``_rank_tables``), the box's first column there and the row's
    coordinates, one column at a time, summed in ``out`` if given. The rows
    before ``v`` share its first j coordinates and have a smaller coordinate
    j, so with ``v_{-1} = 0`` the rank is ``sum_j T[j, v_{j-1}] - T[j, v_j]``."""
    rank = table[0].take(first, out=out, mode="clip")   # T[0, v_{-1}]: the box size
    for j, col in enumerate(columns):
        col = col + first
        rank -= table[j].take(col)
        if j + 1 < len(table):
            rank += table[j + 1].take(col)
    return rank


def _groups(sizes: np.ndarray, cap: int) -> list[tuple[int, int]]:
    """Runs ``[first, last)`` of consecutive boxes of at most ``cap`` rows in
    all, each as long as the next box allows (one box alone is within it)."""
    groups, first, rows = [], 0, 0
    for b, n in enumerate(sizes.tolist()):
        if rows + n > cap and b > first:
            groups.append((first, b))
            first, rows = b, 0
        rows += n
    if len(sizes):
        groups.append((first, len(sizes)))
    return groups


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
    for col in _suffix_minima(caps).T:
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
    box = np.empty((len(coords[-1]), len(coords)), dtype=np.int64, order="F")   # the step reads whole columns
    rows = slice(None)
    for j in range(len(coords) - 1, -1, -1):   # popped, so each column is freed once read
        box[:, j] = coords.pop()[rows]
        rows = parents.pop()[rows]
    return box, sizes
