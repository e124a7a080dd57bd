"""Backward supremum bounds and forward rolls of the workload recursions.

The two monotone envelopes admit stationary states that sandwich every
stationary workload of the exact system. Because they are monotone, their
iterates from the empty state over drivers read backwards from the target
index only grow with the depth, and agreement between two depths says
nothing about deeper lags. Their limits are read instead by a dominating
start (Kendall & Moller 2000): ``coupling.cftp`` of an envelope kind rolls
from empty and from the certified supremum vector of this module, which
lies above the stationary state, and the two rolls meet only at that state.

The module computes the one-dimensional running-supremum bounds (the
ascending vector whose j-th entry is the backward supremum started at lag
S+1-j), the renovation-event mask, and forward state rolls along a driver
path used throughout the higher-level modules. One clipped delay line ends
every read and rolls it forward (``top_supremum_series``), so the rolled
series is the certified read at every index.
A supremum is read to a finite depth and carries a certificate: a
closed-form Chernoff bound on the chance that a deeper lag raises it,
``stabilized`` when at most ``Z_RISK``. Up to that risk, the vector
dominates the envelope's stationary state and hence, for the upper kind,
every stationary workload. ``certified_supremum`` reads it as deep as the
certificate needs; it is the start box of every ``coupling.cftp`` chain,
exact or envelope. A read resumes the path's previous read of the same
kind, server count and depth from its last reset, so reads at neighbouring
indices step only their new lags, bit-identical to a read from scratch
(see ``supremum_bound``).
Long forward rolls run as time-parallel lanes with seam repair and return
the scalar recursion's states bit for bit; recursions over the same drivers
can share one such pass (see "Forward rolls" below).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceCapError
from .kernel import _merge_shift, _merge_shift_batch, accepted_multiples
from .sequences import StationaryPath

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
    that some lag beyond ``horizon`` raises a coordinate, and
    ``stabilized`` means ``risk <= Z_RISK``.
    """

    values: tuple[float, ...]
    horizon: int
    stabilized: bool
    risk: float


def _effective_work(tau: np.ndarray, sigma: np.ndarray, patience: np.ndarray, kind: str) -> np.ndarray:
    if kind == "upper":
        return sigma + patience
    if kind == "lower":
        return np.minimum(sigma, patience)
    raise ValueError(f"kind must be 'upper' or 'lower', got {kind!r}")


@functools.lru_cache(maxsize=256)
def _chernoff_constants(laws: tuple, kind: str) -> tuple[np.ndarray, np.ndarray, float]:
    """Constants of the top-supremum certificate for ``SequenceSpec.laws``.

    Past the ``d`` lags read, lag ``k`` raises a coordinate only if its work
    exceeds ``m + T`` (least coordinate plus the gaps read) plus ``k - d``
    unread gaps. By Markov's inequality and a union bound over ``k``, that
    has probability at most ``M_work(theta) e^(-theta (m + T)) phi/(1-phi)``,
    ``phi = M_tau(-theta)``, at any theta with ``M_work`` finite and
    ``phi < 1``; ``M_work`` is ``M_sigma M_D`` (upper) or ``min(M_sigma, M_D)``
    (lower). Under Markov modulation the drivers are independent given the
    chain and the worst state bounds each factor. Thetas scale with one over
    the largest finite mean, so a change of time unit scales them and leaves
    the risk as it is. Returns the usable thetas, ``log(M_work phi/(1-phi))``
    at each, and the depth at which the mean gaps alone reach ``Z_RISK``
    (0 if no theta is usable). They depend on the laws alone, so specs
    that differ only in their seed share one entry.
    """
    scale = max(m for law in laws for m in (d.mean() for d in law) if math.isfinite(m))
    thetas, log_c = [], []
    for theta in (g / scale for g in _THETA_GRID):
        log_phi = max(tau.log_mgf(-theta) for tau, _, _ in laws)
        if kind == "upper":
            log_work = max(sigma.log_mgf(theta) + patience.log_mgf(theta) for _, sigma, patience in laws)
        else:
            log_work = max(min(sigma.log_mgf(theta), patience.log_mgf(theta)) for _, sigma, patience in laws)
        if log_work < math.inf and log_phi < 0.0:
            thetas.append(theta)
            log_c.append(log_work + log_phi - math.log(-math.expm1(log_phi)))
    thetas, log_c = np.array(thetas), np.array(log_c)
    thetas.setflags(write=False)  # the cache hands these arrays to every caller
    log_c.setflags(write=False)
    need = float(((log_c - math.log(Z_RISK)) / thetas).min()) if len(thetas) else 0.0
    return thetas, log_c, max(need, 0.0) / min(tau.mean() for tau, _, _ in laws)


def supremum_bound(path: StationaryPath, at: int, kind: str, depth: int,
                   servers: int) -> SupremumBound:
    """Supremum vector at index ``at`` read to ``depth`` lags, certified.

    Coordinate ``j`` is ``[max over k in [S+1-j, depth] of
    (work shifted back k) - (sum of the k previous gaps)]+`` with work
    equal to sigma+patience (upper) or min(sigma, patience) (lower).

    The lags ``>= S`` common to every coordinate run as one clipped
    recursion ``v = [max(v, w) - t]+`` from ``v = 0`` at the deepest lag,
    which resumes the path's previous read of the same ``(kind, servers)``
    (``StationaryPath._suprema``). A *reset* is an index where ``v`` took
    the work term (``v <= w``) or was clipped to zero; from there on ``v``
    no longer depends on the steps before it. A read of the same depth
    whose window ends at or after the remembered one, and contains its
    last reset, steps only its new lags from the remembered ``v``. That is
    the value a fresh run reaches, bit for bit: the max, the subtraction of
    the same gap and the clip are monotone under rounding, so the later
    start holds at most the earlier run's value at every common index. At
    the reset it therefore takes the same work term or the same clip, and
    from there both runs are one computation. The final ``S-1`` lags run
    the delay line of ``top_supremum_series``; the risk reads every lag.
    """
    if servers < 1:
        raise ValueError("servers must be >= 1")
    if depth < servers:
        raise ValueError(f"depth must be at least the server count, got {depth} < {servers}")
    blk = path.block(at - depth, depth)
    # Absolute indices: the window starts at ``base`` and its common lags
    # end at ``end``. The memo is (depth, end, v there, last reset).
    common = depth - servers + 1
    base = at - depth + path.offset
    end = base + common
    memo = path._suprema.get((kind, servers))
    if memo is not None and memo[0] == depth and memo[1] <= end and memo[3] >= base:
        _, first, v, reset = memo
    else:
        first, v, reset = base, 0.0, base
    new = slice(first - base, None)
    work = _effective_work(blk.tau[new], blk.sigma[new], blk.patience[new], kind).tolist()
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
    path._suprema[(kind, servers)] = (depth, end, v, reset)
    # The final S-1 lags run the delay line of ``top_supremum_series``: each
    # value shifts one lag deeper and only the new lag-1 value takes work.
    values = [v]
    for w, t in zip(work[fresh:], tau[fresh:]):
        top = values[-1]
        values = [max(x - t, 0.0) for x in values] + [max((top if top > w else w) - t, 0.0)]
    values = tuple(values)

    thetas, log_c, _ = _chernoff_constants(path.spec.laws, kind)
    # At most 1, which is also the risk when no theta is usable; no lag
    # raises an infinite supremum.
    exponent = float((log_c - thetas * (values[0] + blk.tau.sum())).min(initial=0.0))
    risk = 0.0 if values[0] == math.inf else math.exp(exponent)
    return SupremumBound(values, depth, risk <= Z_RISK, risk)


def certified_supremum(path: StationaryPath, at: int, kind: str, servers: int,
                       ahead: int = 0) -> SupremumBound:
    """The supremum vector at ``at``, read as deep as its certificate needs.

    The first read goes a quarter past the depth at which the mean gaps
    alone bring the risk to ``Z_RISK``: at that depth the gaps read fall
    short of their mean often (a fifth of reads with Exp(1) gaps, Exp(0.4)
    service and Exp(0.2) patience), their spread is O(sqrt(depth)), and a
    quarter more makes a deeper read rare. The depth doubles until the
    bound is stabilized; past ``DEFAULT_MAX_DEPTH`` it raises
    ``ResourceCapError``. Each read first asks for the one driver window
    that also covers the ``ahead`` indices from ``at``, so the box read and
    a roll from the box over those indices share one page cover of the
    path's memo. Without it, a roll that ends past the last page of the box
    read would miss and generate a second cover. Reads at neighbouring
    indices take the same first depth, so each resumes the one before it
    and steps only its new lags (``supremum_bound``); a doubled read
    replaces the path's resume entry and starts from scratch.
    """
    depth = max(servers, math.ceil(min(1.25 * _chernoff_constants(path.spec.laws, kind)[2],
                                       DEFAULT_MAX_DEPTH)))
    while True:
        path.block(at - depth, depth + ahead)
        zb = supremum_bound(path, at, kind, depth, servers)
        if zb.stabilized:
            return zb
        if depth >= DEFAULT_MAX_DEPTH:
            raise ResourceCapError(f"{kind} supremum at index {at} not certified "
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
# ---------------------------------------------------------------------------

CHUNK = 256


def _scalar_roll(u0: tuple[float, ...], step, drivers: tuple[np.ndarray, ...]) -> np.ndarray:
    """The reference roll: row 0 is ``u0``, row i+1 is ``step(row i, *drivers[:, i])``."""
    states = np.empty((len(drivers[0]) + 1, len(u0)), dtype=np.asarray(u0).dtype)
    states[0] = u0
    u = tuple(u0)
    for i, d in enumerate(zip(*[col.tolist() for col in drivers]), 1):
        u = step(u, *d)
        states[i] = u
    return states


def _forward_roll(rolls, lane_step, drivers: tuple[np.ndarray, ...]) -> np.ndarray:
    """``_scalar_roll(u0, step, own)`` for every ``(u0, step, own)`` in
    ``rolls``, by seam repair, stacked into one ``(k, steps+1, S)`` array.

    The k recursions share the lane drivers ``drivers``, columns of the
    same ``steps`` indices as each ``own``: ``lane_step(U, *d, out)``
    writes recursion i's ``step`` of ``U[:, i]`` (lane ``r`` under the values
    ``d[c][r]``) into ``out[:, i]`` and returns ``out``. Every chunk after
    the first starts from the empty state.
    """
    steps = len(drivers[0])
    lanes = steps // CHUNK
    if lanes < 2:
        return np.stack([_scalar_roll(u0, step, own) for u0, step, own in rolls])
    length = -(-steps // lanes)
    lanes = -(-steps // length)  # no lane lies wholly in the padding
    # Driver c of lane r at its j-th step is cols[c][j, r]; the last lane
    # runs past the roll on zero padding, and those rows are cut off.
    cols, full = [], (lanes - 1) * length
    for col in drivers:
        lane_col = np.zeros((length, lanes), dtype=col.dtype)
        lane_col[:, :-1] = col[:full].reshape(lanes - 1, length).T
        lane_col[: steps - full, -1] = col[full:]
        cols.append(lane_col)
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
    for i, (u0, _, _) in enumerate(rolls):
        states[i, 0] = u[:, i, 0] = u0
    for j, d in enumerate(zip(*cols)):
        u = lane_step(u, *d, batch[j % 16])
        if j % 16 == 15 or j == length - 1:
            by_lane[:, :, j - j % 16 : j + 1] = batch[: j % 16 + 1].transpose(2, 3, 0, 1)

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
        block = [np.take(col[j : j + len(rows)], live, axis=1) for col in cols]
        for i, slot in enumerate(rows):
            u = lane_step(u, *(d[i] for d in block), slot)
        held = (u == lane_rows[:, :, live, j + len(rows) - 1]).all(axis=(0, 1))
        lane_rows[:, :, live, j : j + len(rows)] = rows.transpose(1, 2, 3, 0)
        if held.all():
            break
        live, u = live[~held], np.compress(~held, u, axis=2)
    states = states[:, : steps + 1]

    # The walk: a seam whose incoming row moved since the round read it
    # restarts from the true row; a repair that runs into later lanes
    # repairs their seams on the way.
    for rows, read, (_, step, own) in zip(states, incoming, rolls):
        done = 0
        for seam in np.flatnonzero((rows[length:steps:length] != read).any(axis=1)) + 1:
            if seam * length >= done:
                done = _repair(rows, step, own, seam * length)
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
    drivers = (_effective_work(blk.tau, blk.sigma, blk.patience, kind), blk.tau)
    return _forward_roll(((tuple(map(float, u0)), _merge_shift, drivers),), _merge_shift_batch,
                         drivers)[0]


def _exact_step(u, tau, sigma, deadline):
    x = u[0] + sigma if u[0] <= deadline else u[0]
    return _merge_shift(u, x, tau)


def _exact_lane_step(u, tau, sigma, deadline, out):
    # A rejected first coordinate exceeds a non-negative patience, so adding
    # zero to it leaves its bits alone: this is ``_exact_step`` on every lane.
    np.add(u[0], np.where(u[0] <= deadline, sigma, 0), out=out[-1])
    return _merge_shift_batch(u, out[-1], tau, out)


def _exact_drivers(path: StationaryPath, at: int, steps: int) -> tuple[np.ndarray, ...]:
    """``(tau, sigma, deadline)`` of the exact map at ``at .. at+steps-1`` in
    the path's own arithmetic: the float block, or on a lattice path the
    int64 multiples of tau and sigma and ``kernel.accepted_multiples`` of
    each patience."""
    if not path.spec.is_lattice:
        return path.block(at, steps)
    blk = path.lattice_block(at, steps)
    return blk.tau, blk.sigma, accepted_multiples(blk.patience, path.spec.alpha)


def _exact_roll(u0: tuple, drivers: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    states = _forward_roll(((u0, _exact_step, drivers),), _exact_lane_step, drivers)[0]
    return states, states[:-1, 0] <= drivers[2]


def exact_states(path: StationaryPath, at: int, steps: int,
                 u0: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Exact workload recursion along the path.

    Returns ``(states, accepted)`` where ``states[i]`` is the workload at
    index ``at+i`` (row 0 is ``u0``) and ``accepted[i]`` says whether the
    customer at index ``at+i`` enters service before her deadline.
    """
    return _exact_roll(tuple(map(float, u0)), path.block(at, steps))


def _sandwich_lane_step(u, tau, sigma, patience, out):
    # ``u[:, 0]``, ``u[:, 1]`` and ``u[:, 2]`` are the exact, lower and upper
    # lanes; each forms its own work in ``out[-1]`` (the exact one as
    # ``_exact_lane_step`` does), then one merge shift advances all three.
    x, first = out[-1], u[0, 0]
    np.add(first, np.where(first <= patience, sigma, 0.0), out=x[0])
    np.minimum(sigma, patience, out=x[1])
    np.add(sigma, patience, out=x[2])
    return _merge_shift_batch(u, x, tau, out)


def sandwich_states(path: StationaryPath, at: int, steps: int, exact0: tuple[float, ...],
                    lower0: tuple[float, ...], upper0: tuple[float, ...]) -> np.ndarray:
    """The exact workload and both envelopes rolled together from index ``at``.

    ``states[0]``, ``states[1]`` and ``states[2]`` are the rows of
    ``exact_states`` from ``exact0`` and of ``envelope_states`` from
    ``lower0`` (lower) and ``upper0`` (upper), bit for bit; the three share
    one lane pass over the drivers of ``[at, at+steps)``.
    """
    blk = path.block(at, steps)
    # The envelopes' scalar steps form their work from the block, as the lane step does
    rolls = ((tuple(map(float, exact0)), _exact_step, blk),
             (tuple(map(float, lower0)), lambda u, t, s, p: _merge_shift(u, min(s, p), t), blk),
             (tuple(map(float, upper0)), lambda u, t, s, p: _merge_shift(u, s + p, t), blk))
    return _forward_roll(rolls, _sandwich_lane_step, blk)


def lattice_states(path: StationaryPath, at: int, steps: int,
                   u0: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """``exact_states`` for a lattice-model path, in integer lattice steps.

    The same roll runs on int64 states with integer deadlines: row ``i``
    is the workload at index ``at+i`` in multiples of ``alpha`` (row 0 is
    ``u0``) and ``accepted`` the acceptance indicator, both as the
    ``advance_lattice`` loop gives them.
    """
    return _exact_roll(tuple(u0), _exact_drivers(path, at, steps))


def top_supremum_series(path: StationaryPath, at: int, n: int, zb: SupremumBound) -> np.ndarray:
    """The lag-S supremum of the upper read ``zb`` at ``at``, rolled over
    indices ``at .. at+n-1`` as a clipped delay line: the lag-1 value is
    the 1-D upper envelope from ``zb.values[-1]``, and lag l+1 at ``t+1`` is
    ``[lag l at t - tau_t]+``, started from ``zb``'s own value at ``at``.
    These are ``supremum_bound``'s steps, so entry ``i`` is the read's
    ``values[0]`` at ``at+i``, bit for bit, unless a lag deeper than that
    read raises it (by the resume argument there).
    """
    z = envelope_states(path, at, n - 1, (zb.values[-1],), "upper")[:, 0]
    tau = path.block(at, n - 1).tau
    for start in zb.values[-2::-1]:
        z = np.concatenate(([start], np.maximum(z[:-1] - tau, 0.0)))
    return z


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
