"""Backward supremum bounds and forward rolls of the workload recursions.

The two monotone envelopes admit stationary states that sandwich every
stationary workload of the exact system. Because they are monotone, their
iterates from the empty state over drivers read backwards from the target
index only grow with the depth, and agreement between two depths says
nothing about deeper lags. Their limits are read instead by a dominating
start (Kendall & Moller 2000): ``coupling.cftp`` of an envelope kind rolls
from empty and from the certified supremum vector of this module, which
lies above the stationary state, and the two rolls meet only at that state.
The vector is the upper envelope's: the lower envelope merges the work
min(sigma, D) <= sigma + D through the same monotone ``_merge_shift``, so
its stationary state lies below the upper one's, and one box serves both.

The module computes the one-dimensional running-supremum bounds (the
ascending vector whose j-th entry is the backward supremum started at lag
S+1-j), the renovation-event mask, and forward state rolls along a driver
path used throughout the higher-level modules. One clipped delay line ends
every read, and shifts the upper envelope's top coordinate, the lag-1
supremum, to the certified read at every index (``metrics.bound_report``).
A supremum is read to a finite depth and carries a certificate: a
closed-form Chernoff bound on the chance that a deeper lag raises it. Up
to ``Z_RISK``, the vector dominates both envelopes' stationary states and
every stationary workload. ``certified_supremum`` reads it as deep as the
certificate needs; it is the one start box of every ``coupling.cftp``
chain, exact or envelope. A read resumes the path's previous read of the
same server count and depth from its last reset, so reads at neighbouring
indices step only their new lags, bit-identical to a read from scratch
(see ``_supremum_read``).
Long forward rolls run as time-parallel lanes with seam repair and return
the scalar recursion's states bit for bit; recursions over the same drivers
can share one such pass (see "Forward rolls" below).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ResourceCapError
from .kernel import (_exact_lane_step, _exact_step, _exact_work, _merge_shift, _merge_shift_batch,
                     accepted_multiples)
from .sequences import _CHAIN_BLOCK, StationaryPath

DEFAULT_MAX_DEPTH = 1 << 20
Z_RISK = 1e-12
# Chernoff exponents the certificate tries, in units of one over the
# largest mean of the laws: 2^-8 .. 2^3 in eighth octaves.
_THETA_GRID = tuple(2.0 ** (k / 8) for k in range(-64, 25))


@dataclass(frozen=True)
class SupremumBound:
    """Backward supremum vector read to a finite depth, with its certificate.

    ``values[j-1]`` is the supremum over lags ``S+1-j .. horizon`` (so the
    vector is ascending and the top coordinate uses every lag >= 1).
    Truncation can only under-estimate; ``risk`` bounds the probability
    that some lag beyond ``horizon`` raises a coordinate.
    """

    values: tuple[float, ...]
    horizon: int
    risk: float


def _effective_work(sigma: np.ndarray, patience: np.ndarray, kind: str) -> np.ndarray:
    if kind == "upper":
        return sigma + patience
    if kind == "lower":
        return np.minimum(sigma, patience)
    raise ValueError(f"kind must be 'upper' or 'lower', got {kind!r}")


@functools.lru_cache(maxsize=256)
def _chernoff_constants(laws: tuple) -> tuple[np.ndarray, np.ndarray, float]:
    """Constants of the top-supremum certificate for ``SequenceSpec.laws``.

    Past the ``d`` lags read, lag ``k`` raises a coordinate only if its work
    exceeds ``m + T`` (least coordinate plus the gaps read) plus ``k - d``
    unread gaps. By Markov's inequality and a union bound over ``k``, that
    has probability at most ``M_work(theta) e^(-theta (m + T)) phi/(1-phi)``,
    ``phi = M_tau(-theta)``, at any theta with ``M_work = M_sigma M_D``
    finite and ``phi < 1``. Under Markov modulation the drivers are
    independent given the chain and the worst state bounds each factor.
    Thetas scale with one over the largest finite mean, so a change of time
    unit scales them and leaves the risk as it is. Returns the usable thetas, ``log(M_work phi/(1-phi))``
    at each, and the depth at which the mean gaps alone reach ``Z_RISK``
    (0 if no theta is usable). They depend on the laws alone, so specs
    that differ only in their seed share one entry.
    """
    scale = max(m for law in laws for m in (d.mean() for d in law) if math.isfinite(m))
    thetas, log_c = [], []
    for theta in (g / scale for g in _THETA_GRID):
        log_phi = max(tau.log_mgf(-theta) for tau, _, _ in laws)
        log_work = max(sigma.log_mgf(theta) + patience.log_mgf(theta) for _, sigma, patience in laws)
        if log_work < math.inf and log_phi < 0.0:
            thetas.append(theta)
            log_c.append(log_work + log_phi - math.log(-math.expm1(log_phi)))
    thetas, log_c = np.array(thetas), np.array(log_c)
    thetas.setflags(write=False)  # the cache hands these arrays to every caller
    log_c.setflags(write=False)
    need = float(((log_c - math.log(Z_RISK)) / thetas).min()) if len(thetas) else 0.0
    return thetas, log_c, max(need, 0.0) / min(tau.mean() for tau, _, _ in laws)


def _supremum_read(path: StationaryPath, at: int, depth: int, servers: int, ahead: int, thetas, log_c):
    """Supremum vector at index ``at`` read to ``depth`` lags, with its risk,
    from one block that also covers ``ahead`` indices and the laws'
    constants ``thetas`` and ``log_c`` (``_chernoff_constants``).

    Coordinate ``j`` is ``[max over k in [S+1-j, depth] of
    (work shifted back k) - (sum of the k previous gaps)]+`` with the upper
    envelope's work, sigma+patience.

    The lags ``>= S`` common to every coordinate run as one clipped
    recursion ``v = [max(v, w) - t]+`` from ``v = 0`` at the deepest lag,
    which resumes the path's previous read of the same ``servers``
    (``_PathMemo.suprema``, one per server count). A *reset* is an index
    where ``v`` took the work term (``v <= w``) or was clipped to zero; from
    there on ``v`` no longer depends on the steps before it. A read of the same
    depth whose window ends at or after the remembered one, and contains its
    last reset, steps only its new lags from the remembered ``v``. That is
    the value a fresh run reaches, bit for bit: the max, the subtraction of
    the same gap and the clip are monotone under rounding, so the later
    start holds at most the earlier run's value at every common index. At
    the reset it therefore takes the same work term or the same clip, and
    from there both runs are one computation. The final ``S-1`` lags run
    ``metrics.bound_report``'s delay line; the risk reads every lag.
    """
    if servers < 1:
        raise ValueError("servers must be >= 1")
    if depth < servers:
        raise ValueError(f"depth must be at least the server count, got {depth} < {servers}")
    blk = path.block(at - depth, depth + ahead)
    # The window starts at ``base`` and its common lags end at ``end``. The
    # memo is (depth, end, v there, last reset).
    base, end = at - depth, at - servers + 1
    memo = path._memo.suprema.get(servers)
    if memo is not None and memo[0] == depth and memo[1] <= end and memo[3] >= base:
        _, first, v, reset = memo
    else:
        first, v, reset = base, 0.0, base
    new = slice(first - base, depth)
    work = _effective_work(blk.sigma[new], blk.patience[new], "upper").tolist()
    tau = blk.tau[new].tolist()

    # Each coordinate is a running supremum of partial sums; evaluate it by
    # the equivalent one-dimensional clipped recursion (numerically stable,
    # and float-identical to the autonomous top coordinate of the envelope
    # iterate). The clip is the selection ``max(v, 0.0)`` makes, without
    # the builtin call.
    fresh = end - first
    for i, w, t in zip(range(first, end), work[:fresh], tau[:fresh]):
        if v > w:
            v -= t
            if not v < 0.0:
                continue
            v = 0.0
        else:
            v = w - t
            if v < 0.0:
                v = 0.0
        reset = i
    path._memo.suprema[servers] = (depth, end, v, reset)
    # The final S-1 lags run a clipped delay line: each value shifts one lag
    # deeper and only the new lag-1 value takes work.
    values = [v]
    for w, t in zip(work[fresh:], tau[fresh:]):
        top = values[-1]
        values = [max(x - t, 0.0) for x in values] + [max((top if top > w else w) - t, 0.0)]
    values = tuple(values)

    # At most 1, which is also the risk when no theta is usable; no lag
    # raises an infinite supremum.
    exponent = float((log_c - thetas * (values[0] + blk.tau[:depth].sum())).min(initial=0.0))
    risk = 0.0 if values[0] == math.inf else math.exp(exponent)
    return SupremumBound(values, depth, risk)


def certified_supremum(path: StationaryPath, at: int, servers: int, ahead: int = 0) -> SupremumBound:
    """The supremum vector at ``at``, read as deep as its certificate needs.

    The first read goes a quarter past the depth at which the mean gaps
    alone bring the risk to ``Z_RISK``: at that depth the gaps read fall
    short of their mean often (a fifth of reads with Exp(1) gaps, Exp(0.4)
    service and Exp(0.2) patience), their spread is O(sqrt(depth)), and a
    quarter more makes a deeper read rare. The depth doubles until the
    risk is at most ``Z_RISK``; past ``DEFAULT_MAX_DEPTH`` it raises
    ``ResourceCapError``. Each read first asks for the one driver window
    that also covers the ``ahead`` indices from ``at``, so the box read and
    a roll from the box over those indices share one page cover of the
    path's memo. Without it, a roll that ends past the last page of the box
    read would miss and generate a second cover. Reads at neighbouring
    indices take the same first depth, so each resumes the one before it
    and steps only its new lags (``_supremum_read``); a doubled read
    replaces the path's resume entry and starts from scratch.
    """
    thetas, log_c, need = _chernoff_constants(path.spec.laws)
    depth = max(servers, math.ceil(min(1.25 * need, DEFAULT_MAX_DEPTH)))
    while True:
        zb = _supremum_read(path, at, depth, servers, ahead, thetas, log_c)
        if zb.risk <= Z_RISK:
            return zb
        if depth >= DEFAULT_MAX_DEPTH:
            raise ResourceCapError(f"upper supremum at index {at} not certified "
                                   f"(risk {zb.risk:.3g})", DEFAULT_MAX_DEPTH, 2 * depth)
        depth = min(2 * depth, DEFAULT_MAX_DEPTH)


# ---------------------------------------------------------------------------
# Forward rolls along the path
#
# A forward roll is inherently sequential, and a Python step costs about
# 2 us. Long rolls are therefore cut in time (Heidelberger & Stone 1990;
# Greenberg, Lubachevsky & Mitrani 1991): the roll of n steps splits into
# R chunks (lanes) of about CHUNK steps that advance together, one numpy
# step of width R per row. Every lane but the first starts from the empty
# state, a guess at its unknown true state, and its first row is its seam.
#
# The seams are repaired in one lockstep round. Every seam restarts from its
# predecessor's last row, and all unfinished seams advance together through
# the same lane step, each under its own drivers, overwriting their rows. A
# seam drops out once a new row equals the stored one in every recursion the
# pass carries (checked every 16 rows). From there on its lane is correct as
# stored, because the lane step applies the same IEEE max, min, add and
# subtract to the same operands. (Ties between +0 and -0 could pick
# different zeros, but every gap is strictly positive, so a zero never
# survives the subtraction that follows.) A seam that reaches its lane's end
# without matching changes that lane's last row, so the next seam restarted
# from a row that was not yet true. The scalar walk then runs in order, from
# the first seam whose incoming row differs from the one its round read: the
# scalar step re-runs from the true row until a stored row holds, running on
# through later seams if it must. Seams whose incoming row did not move are
# skipped. The worst case is one scalar roll on top of the lane pass and one
# round. Rows equal the scalar roll's bit for bit; rolls shorter than two
# chunks run the scalar loop alone. Rows take their dtype from the starting
# state, so the same roll serves the int64 lattice recursion, where every
# step is exact and the argument holds trivially.
#
# One pass can carry k recursions over the same drivers: their lanes stack
# coordinate-major into one contiguous (S, k, R) array, recursion i in
# ``[:, i]``. A step applies each recursion's own map to its lanes in one
# set of numpy calls on whole rows, writing into a buffer reused across
# steps, and the walk repairs each recursion with its own scalar step, so
# every recursion's rows are still its scalar roll's, bit for bit.
#
# Only the output rows take the roll's size. The lanes read their drivers
# in place: every 16 steps, the pass and the round copy the drivers of those
# steps of every lane into one reused (16, R) buffer per driver column.
# ---------------------------------------------------------------------------

CHUNK = 256


def _scalar_roll(u0: tuple[float, ...], step, drivers: tuple[np.ndarray, ...]) -> np.ndarray:
    """The reference roll: row 0 is ``u0``, row i+1 is ``step(row i, *drivers[:, i])``."""
    rows = [u := tuple(u0)]
    for d in zip(*[col.tolist() for col in drivers]):
        rows.append(u := step(u, *d))
    return np.array(rows, dtype=np.asarray(u0).dtype)


def _forward_roll(rolls, lane_step, drivers: tuple[np.ndarray, ...]) -> np.ndarray:
    """``_scalar_roll(u0, step, drivers)`` for every ``(u0, step)`` in
    ``rolls``, by seam repair, stacked into one ``(k, steps+1, S)`` array.

    The k recursions share the driver columns ``drivers`` of ``steps``
    indices: ``lane_step(U, *d, out)`` writes recursion i's ``step`` of
    ``U[:, i]`` (lane ``r`` under the values ``d[c][r]``) into ``out[:, i]``
    and returns ``out``. Every chunk after the first starts from the
    empty state. The columns are read in place, 16 steps at a time into
    reused ``(16, lanes)`` buffers; besides the returned rows, the roll
    allocates nothing of the roll's size.
    """
    steps = len(drivers[0])
    lanes = steps // CHUNK
    if lanes < 2:
        return np.stack([_scalar_roll(u0, step, drivers) for u0, step in rolls])
    length = -(-steps // lanes)
    lanes = -(-steps // length)  # no lane lies wholly in the padding
    # Driver c of lane r at its j-th step is drivers[c][r * length + j]; the
    # last lane runs past the roll on zero padding, and those rows are cut
    # off. ``read(j)`` copies the drivers of steps j .. j+15 of every lane
    # into the rows of one reused (16, lanes) buffer per driver.
    full = (lanes - 1) * length
    heads = [col[:full].reshape(lanes - 1, length).T for col in drivers]
    bufs = [np.zeros((16, lanes), dtype=col.dtype) for col in drivers]

    def read(j: int) -> list[np.ndarray]:
        h = min(16, length - j)
        for buf, head, col in zip(bufs, heads, drivers):
            buf[:h, :-1] = head[j : j + h]
            tail = col[full + j : full + j + h]
            buf[: len(tail), -1] = tail
            buf[len(tail) : h, -1] = 0
        return [buf[:h] for buf in bufs]

    k, width = len(rolls), len(rolls[0][0])
    dtype = np.asarray(rolls[0][0]).dtype
    states = np.empty((k, lanes * length + 1, width), dtype=dtype)
    by_lane = states[:, 1:].reshape(k, lanes, length, width)
    # Step j reads slot j-1 of ``batch`` (the start in the last slot) and
    # writes slot j % 16. The rows reach ``states`` 16 steps at a time: a
    # lane's rows lie a chunk apart there, and a write per step would touch
    # every lane's page.
    batch = np.zeros((16, width, k, lanes), dtype=dtype)
    u = batch[-1]
    for i, (u0, _) in enumerate(rolls):
        states[i, 0] = u[:, i, 0] = u0
    for j in range(0, length, 16):
        block = read(j)
        for slot, *d in zip(batch, *block):
            u = lane_step(u, *d, slot)
        by_lane[:, :, j : j + len(block[0])] = batch[: len(block[0])].transpose(2, 3, 0, 1)

    # The round: every seam restarts from its predecessor's last row. Live
    # seams step 16 rows at a time into one reused buffer, written back
    # together; a seam that reproduced a stored row reproduces every later
    # one (the same step of the same row), so it drops out at a block's end.
    lane_rows = by_lane.transpose(3, 0, 1, 2)   # (S, k, lanes, length), as the lanes step
    u = lane_rows[:, :, :-1, -1].copy()
    incoming = u.transpose(1, 2, 0)   # the round never writes into u
    live, flat = np.arange(1, lanes), np.empty(16 * u.size, dtype=dtype)
    for j in range(0, length, 16):
        rows = flat[: min(16, length - j) * u.size].reshape(-1, *u.shape)
        block = [np.take(d, live, axis=1) for d in read(j)]
        for slot, *d in zip(rows, *block):
            u = lane_step(u, *d, slot)
        held = (u == lane_rows[:, :, live, j + len(rows) - 1]).all(axis=(0, 1))
        lane_rows[:, :, live, j : j + len(rows)] = rows.transpose(1, 2, 3, 0)
        if held.all():
            break
        live, u = live[~held], np.compress(~held, u, axis=2)
    states = states[:, : steps + 1]

    # The walk: a seam whose incoming row moved since the round read it
    # restarts from the true row; a repair that runs into later lanes
    # repairs their seams on the way.
    for rows, read, (_, step) in zip(states, incoming, rolls):
        done = 0
        for seam in np.flatnonzero((rows[length:steps:length] != read).any(axis=1)) + 1:
            if seam * length >= done:
                done = _repair(rows, step, drivers, seam * length)
    return states


def _repair(states: np.ndarray, step, drivers: tuple[np.ndarray, ...], i: int) -> int:
    """Overwrite rows after ``i`` with scalar steps until one already holds.

    Returns the index of the first row the scalar step reproduced (or the
    last row). Drivers and stored rows convert to Python values in blocks
    that double up to 1024 steps, since most repairs end within a few steps.
    """
    u = tuple(states[i].tolist())
    block = 8
    while i < len(drivers[0]):
        stop = i + block
        rows = []
        for d, held in zip(zip(*[col[i:stop].tolist() for col in drivers]),
                           map(tuple, states[i + 1 : stop + 1].tolist())):
            u = step(u, *d)
            if u == held:
                break
            rows.append(u)
        if rows:
            states[i + 1 : i + 1 + len(rows)] = rows
        i += len(rows)
        if u == held:
            return i + 1
        block = min(2 * block, 1024)
    return i


def envelope_states(path: StationaryPath, at: int, steps: int, u0: tuple[float, ...],
                    kind: str) -> np.ndarray:
    """States of the envelope recursion at indices ``at .. at+steps``.

    Row ``i`` is the state at index ``at+i``; row 0 is ``u0``. Rolling a
    backward iterate forward deepens it by one lag per step, so a
    backward limit rolls forward into the limits at the later indices.
    """
    blk = path.block(at, steps)
    drivers = (_effective_work(blk.sigma, blk.patience, kind), blk.tau)
    return _forward_roll(((tuple(map(float, u0)), _merge_shift),), _merge_shift_batch, drivers)[0]


def _exact_drivers(path: StationaryPath, at: int, steps: int) -> tuple[np.ndarray, ...]:
    """``(tau, sigma, deadline)`` of the exact map at ``at .. at+steps-1`` in
    the path's own arithmetic: the float block, or on a lattice path the
    int64 multiples of tau and sigma and ``kernel.accepted_multiples`` of
    each patience."""
    if not path.spec.is_lattice:
        return path.block(at, steps)
    blk = path.lattice_block(at, steps)
    return blk.tau, blk.sigma, accepted_multiples(blk.patience, path.spec.alpha)


def _exact_lists(path: StationaryPath, at: int, steps: int) -> tuple[tuple[list, ...], int]:
    """``_exact_drivers`` at ``at .. at+steps-1`` as Python lists and the
    offset of ``at`` in them: its page's lists of ``_CHAIN_BLOCK`` indices,
    converted on its first read and kept in ``sequences._PathMemo.pages``
    until ``block`` replaces the cover, or a window across a page edge
    converted alone, at 0. A window of no steps converts nothing."""
    page, o = divmod(at, _CHAIN_BLOCK)
    if not 0 < steps <= _CHAIN_BLOCK - o:
        return tuple(col.tolist() for col in _exact_drivers(path, at, steps)), 0
    lists = path._memo.pages.get(page)
    if lists is None:   # stored after the read, which may replace the cover and drop its pages
        lists = path._memo.pages[page] = tuple(col.tolist() for col in _exact_drivers(path, at - o, _CHAIN_BLOCK))
    return lists, o


def _multiples(values, alpha: float) -> np.ndarray:
    """Time values as int64 multiples of alpha for the ``cftp`` box top and
    the reachable-set caps: the largest k with ``fl(k * alpha) <= v``, or one
    more within a slack of 1e-9 of a step. From 2^22 steps the floor of ``v
    / alpha + 1e-9`` can fall one short (from k = 20,971,524 at alpha = 0.1),
    so it is raised as ``kernel.accepted_multiples`` raises its own, below
    2^52 steps. A lattice start is read by ``rint`` (``exact_states``)."""
    v = np.asarray(values, dtype=np.float64)
    k = np.floor(v / alpha + 1e-9).astype(np.int64)
    if v.max(initial=0.0) >= 2**22 * alpha:   # below, the quotient is short by at most k * 2^-52 < 1e-9
        while (up := ((k + 1) * alpha <= v) & (v < 2.0**52 * alpha)).any():
            k += up
    return k


def _times(multiples, alpha: float) -> np.ndarray:
    """Int64 multiples of ``alpha`` in time units, ``k * alpha`` each."""
    return np.asarray(multiples, dtype=np.int64) * alpha


def exact_states(path: StationaryPath, at: int, steps: int,
                 u0: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Exact workload recursion along the path, in time units.

    Returns ``(states, accepted)``: row ``i`` is the workload at ``at+i``
    (row 0 is ``u0``), ``accepted[i]`` whether that customer is served. A
    lattice roll runs in multiples, scaled once; a start off it is refused.
    """
    drivers, start = _exact_drivers(path, at, steps), tuple(map(float, u0))
    alpha = path.spec.alpha if path.spec.is_lattice else None
    if alpha is not None:
        # the rule of ``lattice_block``; a start off the lattice is refused below
        k = np.rint(np.nan_to_num(start, nan=0.0, posinf=0.0, neginf=0.0) / alpha).astype(np.int64)
        if (off := _times(k, alpha) != start).any():
            j = int(off.argmax())
            raise ContractError(f"start coordinate {j} is {start[j]!r}, not a multiple of alpha {alpha!r}")
        start = tuple(k.tolist())
    states = _forward_roll(((start, _exact_step),), _exact_lane_step, drivers)[0]
    accepted = states[:-1, 0] <= drivers[2]
    del drivers   # before a lattice roll's rows are scaled
    return (states if alpha is None else _times(states, alpha)), accepted


def _sandwich_lane_step(u, tau, sigma, patience, out):
    # ``u[:, 0]``, ``u[:, 1]`` and ``u[:, 2]`` are the exact, lower and upper
    # lanes; each forms its own work in ``out[-1]`` (the exact one by
    # ``kernel._exact_work``, as ``_exact_lane_step`` does), then one merge
    # shift advances all three.
    x = out[-1]
    _exact_work(u[0, 0], sigma, patience, x[0])
    np.minimum(sigma, patience, out=x[1])
    np.add(sigma, patience, out=x[2])
    return _merge_shift_batch(u, x, tau, out)


def sandwich_states(path: StationaryPath, at: int, steps: int, exact0: tuple[float, ...],
                    lower0: tuple[float, ...], upper0: tuple[float, ...]) -> np.ndarray:
    """The exact workload and both envelopes rolled together from index ``at``.

    ``states[0]``, ``states[1]`` and ``states[2]`` are the rows of
    ``exact_states`` from ``exact0`` and of ``envelope_states`` from
    ``lower0`` (lower) and ``upper0`` (upper), bit for bit, on every path.
    One lane pass carries the three over the drivers of ``[at, at+steps)``;
    on a lattice path, whose exact roll runs in multiples, each rolls alone.
    """
    if path.spec.is_lattice:
        states = np.empty((3, steps + 1, len(exact0)))
        states[0] = exact_states(path, at, steps, exact0)[0]
        states[1] = envelope_states(path, at, steps, lower0, "lower")
        states[2] = envelope_states(path, at, steps, upper0, "upper")
        return states
    blk = path.block(at, steps)
    # The envelopes' scalar steps form their work from the block, as the lane step does
    rolls = ((tuple(map(float, exact0)), _exact_step),
             (tuple(map(float, lower0)), lambda u, t, s, p: _merge_shift(u, min(s, p), t)),
             (tuple(map(float, upper0)), lambda u, t, s, p: _merge_shift(u, s + p, t)))
    return _forward_roll(rolls, _sandwich_lane_step, blk)


# ---------------------------------------------------------------------------
# Renovation event
# ---------------------------------------------------------------------------


def _renovation_mask(y_states: np.ndarray, tau: np.ndarray, servers: int) -> tuple[np.ndarray, list]:
    """Rows of ``y_states`` where the renovation event holds, and its gap sums.

    At index t the event requires the first coordinate to vanish and, for
    each remaining coordinate l, that it not exceed the sum of the l-1
    gaps starting at t. ``tau`` must cover ``len(y_states) + servers - 2``
    entries starting at the same base index. Sums accumulate left to right
    per row, so witnesses reproduce a plain sequential sum exactly.
    """
    n = y_states.shape[0]
    mask = y_states[:, 0] == 0.0
    sums_by_ell = []
    sums = np.zeros(n)
    for ell in range(2, servers + 1):
        sums = sums + tau[ell - 2 : ell - 2 + n]
        sums_by_ell.append(sums)
        mask &= y_states[:, ell - 1] <= sums
    return mask, sums_by_ell
