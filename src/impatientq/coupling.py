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
remembers each start's box and chain, and starts lie on a grid of
absolute indices, so later targets that share a start resume its chain
instead of reading the box again. The chain is a deterministic function of
its interval and of index-tied drivers, and from a certified box it closes
to the stationary state whatever its start, so the result is the same, bit
for bit.

Every exact step here, on a lattice path too, is the one exact map: there
it runs on int64 multiples of ``alpha`` with each patience's integer
deadline (``kernel.accepted_multiples``) in place of the patience. For
lattice-valued service and gaps the whole ordered box below the upper
estimate is finite; propagating it forward with exact integer arithmetic
yields a shrinking nested family of reachable sets whose collapse to a
single point certifies a unique stationary state on the lattice. One
pass enumerates the boxes of all requested depths, and every box row then
takes its one step, all rows at once. When the box an index later holds
the image, the image is found there by its lexicographic rank, a closed
form over a table of suffix counts (the ranking of combinations, Knuth,
TAOCP Vol. 4A, 7.2.1.3), so no sort is needed. Each row points to its
image's row, and the rows reached from a depth's box at the target form
that depth's set. Only images that no box holds step on index by index,
and equal ones are merged by one sort of exact int64 keys into which the
rows are packed, as many columns to a key as its base allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    """A sample, the length of the chain that closed (or of the last one
    tried), and the depth and risk of the certified start box."""

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
    envelope, whose sample is its backward limit). A bounding chain runs
    from a start to ``at``, started from the box between the empty state
    and the certified supremum vector of the same kind (upper for the exact
    map) there. Rung ``h`` doubles from ``max(2S, 16)``, or from
    ``max_horizon`` if that is smaller, until the chain closes to a point at
    ``at``; it starts at the last multiple of ``h`` in absolute index at or
    before ``at - h``, but not before ``at - max_horizon`` (``>= 1``).
    ``horizon_used`` is ``at`` less the start: in ``[h, 2h)``, at most
    ``max_horizon``, and equal to it when the chain stays open. Drivers are
    tied to indices, so deeper rungs replay the same randomness. The exact
    chain runs on int64 multiples on a lattice path; an envelope's always
    runs in floats.

    The path remembers, for the ``CHAIN_MEMO`` starts used last (keyed on
    the absolute start index, ``servers`` and ``kind``), the certified box
    read there and the furthest index its chain has reached, with the
    interval there. A start seen before (consecutive targets share the
    starts of each rung) skips the box read; its chain resumes from that
    index when the index is not past ``at``, and reruns from the box
    otherwise. The chain is a deterministic function of its interval and of
    drivers tied to indices, so a resumed chain ends on the interval a fresh
    one would, bit for bit: the memo changes no result. A start first seen
    by the exact chain takes the box the upper envelope's chain read there,
    and vice versa. A start whose box is refused is never remembered.
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
    rung = min(max(2 * servers, 16), max_horizon)
    while True:
        start = max((at + path.offset - rung) // rung * rung - path.offset, at - max_horizon)
        horizon = at - start
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
    holds at most ``len(depths) * cap`` rows. Every row is a node of one
    forest, each edge leading from a state to its image one index later:

    * **Bulk step.** Every box row but those at ``at`` takes its one step
      in one ``advance_batch`` call per group of consecutive boxes holding
      at most ``cap`` rows, which bounds the step's temporaries as ``cap``
      bounds one box. An image that lies under the suffix-minimum caps of
      the box one index later (when that depth was requested) is held
      there, at the row its rank names (``_rank_tables``, ``_rank``); no
      sort is needed.
    * **Loose states.** An image that no box holds (the next depth was not
      requested, or the image lies above its box) is a loose state. Only
      loose states step index by index; each index tests them against its
      box, if any, and merges equal ones by one ``np.lexsort`` of the rows
      packed into exact int64 keys (``_key_weights``). A step raises the
      top coordinate by at most sigma and clips at zero, so over the window
      every coordinate lies in ``[0, base)`` with ``base = max cap + sum of
      sigma + 1``.

    The roots of the forest are the states at ``at``: the box of depth 0,
    if requested, and the loose states left there. Each edge moves one
    index on, so ``deepest.bit_length()`` rounds of pointer jumping take
    every row to its root. Depth ``d``'s set is the roots reached from its
    box, read back from one bit matrix over one list of root tuples.

    A box over ``cap`` is refused; of several, the error names the deepest
    one over it at the first column where any box is.
    """
    if not path.spec.is_lattice:
        raise ConfigurationError("reachable sets require a lattice-model spec")
    depths = sorted(set(int(d) for d in depths))
    if not depths:
        raise ValueError("depths must name at least one depth")
    if depths[0] < 0:
        raise ValueError("depths must be non-negative")
    deepest = depths[-1]
    alpha = path.spec.alpha
    est = _envelope_estimate(path, servers, at - deepest, "upper")
    # Estimates at every shallower index, consistent by construction.
    rolled = envelope_states(path, at - deepest, deepest, est.value, "upper")
    tau, sigma, deadline = _exact_drivers(path, at - deepest, deepest)

    desc = np.array(depths[::-1])   # box b is the box of depth desc[b], at driver row deepest - desc[b]
    caps = np.floor(rolled[deepest - desc] / alpha + 1e-9).astype(np.int64)
    boxes, sizes = _ordered_boxes(caps, cap, [f"at depth {d} (index {at - d})" for d in desc.tolist()])
    tops = _suffix_minima(caps)
    table, entry = _rank_tables(tops)
    starts = np.cumsum(sizes) - sizes
    box_at = dict(zip((deepest - desc).tolist(), range(len(desc))))   # driver row -> its box
    weights = _key_weights(int(caps.max()) + int(sigma.sum()) + 1, servers)

    def place(states, b):
        """Whether box ``b[r]`` holds row r of ``states``, and the row's
        node there when it does. Each row is ranked clipped to its box's
        caps, which keeps it ascending and inside the box."""
        inside = np.ones(len(states), dtype=bool)
        for j, top in enumerate(tops.T):
            inside &= states[:, j] <= top.take(b)
        clipped = (np.minimum(states[:, j], top.take(b)) for j, top in enumerate(tops.T))
        return inside, starts.take(b) + _rank(table, entry.take(b), clipped)

    # Bulk step: every box row but those at ``at`` steps once, and is
    # tested against the next box when there is one an index later.
    step_row = deepest - desc[desc > 0]   # the driver row of each box that steps
    drivers = np.vstack((tau[step_row], sigma[step_row], deadline[step_row]))
    follows = np.append(desc[1:] == desc[:-1] - 1, False)[:len(step_row)]   # box b+1 sits an index later
    parent, loose_at, loose_states, loose_from = [], [], [], []
    for lo, hi in _groups(sizes[:len(step_row)], cap):
        reps = sizes[lo:hi]
        images = advance_batch(boxes[starts[lo]:starts[hi - 1] + reps[-1]],
                               *np.repeat(drivers[:, lo:hi], reps, axis=1))[0]
        nxt = np.minimum(np.arange(lo, hi) + 1, len(desc) - 1)   # the last box has none after it
        inside, nodes = place(images, np.repeat(nxt, reps))
        inside &= np.repeat(follows[lo:hi], reps)
        out = np.flatnonzero(~inside)
        if len(out):
            loose_at.append(np.repeat(step_row[lo:hi] + 1, reps)[out])
            loose_states.append(images[out])
            loose_from.append(out + starts[lo])
        parent.append(nodes)
        del images, inside   # before the next group steps
    settled = int(sizes[:len(step_row)].sum())   # the rows from here on are the box at ``at``, if any
    parent = np.concatenate(parent + [np.arange(settled, len(boxes))])
    if loose_at:
        loose_at, loose_states, loose_from = (np.concatenate(a) for a in (loose_at, loose_states, loose_from))

    # Loose states step index by index from the first one.
    links = []   # (nodes, the nodes of their images) found by the loose pass
    roots, root_states = [np.arange(settled, len(boxes))], [boxes[settled:]]
    count = len(boxes)
    if len(loose_at):
        states, nodes = boxes[:0], parent[:0]
        cut = np.searchsorted(loose_at, np.arange(deepest + 2))
        for i in range(int(loose_at[0]), deepest + 1):
            if len(states):
                states = advance_batch(states, tau[i - 1], sigma[i - 1], deadline[i - 1])[0]
            states = np.concatenate((states, loose_states[cut[i]:cut[i + 1]]))
            nodes = np.concatenate((nodes, loose_from[cut[i]:cut[i + 1]]))
            if i in box_at:
                inside, held = place(states, np.full(len(states), box_at[i]))
                links.append((nodes[inside], held[inside]))
                states, nodes = states[~inside], nodes[~inside]
            keys = [states[:, cols] @ w for cols, w in weights]
            order = np.lexsort(keys)
            keys = [key.take(order) for key in keys]
            new = np.empty(len(order), dtype=bool)   # first row of each distinct state
            new[:1] = True
            np.not_equal(keys[0][1:], keys[0][:-1], out=new[1:])
            for key in keys[1:]:
                new[1:] |= key[1:] != key[:-1]
            links.append((nodes.take(order), count - 1 + np.cumsum(new)))
            states = states.take(order[new], axis=0)
            nodes = count + np.arange(len(states))
            count += len(states)
        roots.append(nodes)
        root_states.append(states)

    parent = np.concatenate((parent, np.arange(len(boxes), count)))
    for src, dst in links:
        parent[src] = dst
    for _ in range(deepest.bit_length()):   # each edge moves one index on: 2^k >= deepest edges
        parent = parent[parent]
    roots = np.concatenate(roots)
    where = np.empty(count, dtype=np.intp)
    where[roots] = np.arange(len(roots))
    bits = np.zeros((len(depths), len(roots)), dtype=bool)   # depths[k] owns row k
    bits[np.repeat(np.arange(len(depths))[::-1], sizes), where[parent[:len(boxes)]]] = True
    rows = list(map(tuple, np.concatenate(root_states).tolist()))
    sets = [frozenset(map(rows.__getitem__, np.flatnonzero(member).tolist())) for member in bits]
    return [ReachableSet(d, p, alpha, n, k == 0 or p <= sets[k - 1], est.coalesced)
            for k, (d, p, n) in enumerate(zip(depths, sets, sizes[::-1].tolist()))]


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


def _rank(table: np.ndarray, first, columns) -> np.ndarray:
    """Lexicographic rank of each ascending row in its box, from the rank
    tables (``_rank_tables``), the box's first column there and the row's
    coordinates, one column at a time. The rows before ``v`` share its
    first j coordinates and have a smaller coordinate j, so with ``v_{-1} =
    0`` the rank is ``sum_j T[j, v_{j-1}] - T[j, v_j]``."""
    rank = table[0].take(first)   # T[0, v_{-1}]: the box size
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
