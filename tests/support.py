"""Shared helpers for the test suite: quick spec builders and random
configuration generators used by the property suites."""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from impatientq import sequences
from impatientq.coupling import ReachableSet, _bounding_chain, cftp
from impatientq.kernel import _require_ordered, advance_lattice
from impatientq.loynes import _effective_work, certified_supremum, envelope_states
from impatientq.sequences import (
    _CHAIN_BLOCK,
    STREAM_MODULATION,
    Deterministic,
    Exponential,
    LatticeDiscrete,
    ModulationSpec,
    SequenceSpec,
    ShiftedExponential,
    StationaryPath,
    Uniform,
    stream_uniforms,
)


# ---------------------------------------------------------------------------
# Literal oracles of the one-step maps: add the new work, sort, subtract the
# gap, clip at zero. They share no code with the kernel's merge.
# ---------------------------------------------------------------------------


def advance_direct(u, d):
    """The exact update of ``kernel.advance``, by literal add/sort/subtract/clip."""
    _require_ordered(u)
    v = list(u)
    if u[0] <= d.patience:
        v[0] += d.sigma
    v.sort()
    return tuple(max(x - d.tau, 0.0) for x in v)


def sort_merge_batch(u: np.ndarray, x, tau) -> np.ndarray:
    """Rows of ``u`` with the least coordinate raised to ``x`` (where ``x``
    is larger), sorted, minus the gap ``tau`` and clipped at zero, in
    ``u``'s dtype."""
    v = u.copy()
    v[:, 0] = np.maximum(u[:, 0], x)
    v.sort(axis=1)
    v -= np.asarray(tau, dtype=u.dtype).reshape(-1, 1) if np.ndim(tau) else tau
    np.maximum(v, 0, out=v)
    return v


def advance_direct_batch(u, tau, sigma, patience):
    return sort_merge_batch(u, u[:, 0] + np.where(u[:, 0] <= patience, sigma, 0.0), tau)


def advance_upper_batch(u, tau, sigma, patience):
    return sort_merge_batch(u, sigma + patience, tau)


def advance_lower_batch(u, tau, sigma, patience):
    return sort_merge_batch(u, np.minimum(sigma, patience), tau)


def advance_lattice_batch(u_mult, tau_mult, sigma_mult, patience, alpha):
    """``advance_lattice`` on (N, S) int64 rows, with its float acceptance
    comparison ``k * alpha <= patience``."""
    accepted = u_mult[:, 0].astype(np.float64) * alpha <= patience
    return sort_merge_batch(u_mult, u_mult[:, 0] + np.where(accepted, sigma_mult, 0), tau_mult)


# ---------------------------------------------------------------------------
# Closed-form references
# ---------------------------------------------------------------------------


def erlang_b(servers: int, offered_load: float) -> float:
    """Blocking probability of the S-server loss system (stable recursion)."""
    if servers < 1:
        raise ValueError("servers must be >= 1")
    if not (offered_load > 0.0):
        raise ValueError("offered load must be positive")
    b = 1.0
    for k in range(1, servers + 1):
        b = offered_load * b / (k + offered_load * b)
    return b


def mm1_wait_tail(rho: float, mu: float, x: float) -> float:
    """P(stationary wait > x) for the single-server Markovian queue."""
    if not (0.0 < rho < 1.0):
        raise ValueError("utilization must be in (0, 1)")
    if mu <= 0.0:
        raise ValueError("service rate must be positive")
    if x < 0.0:
        raise ValueError("x must be non-negative")
    return rho * math.exp(-mu * (1.0 - rho) * x)


def iid_spec(seed, tau, sigma, patience):
    return SequenceSpec(model="iid", seed=seed, tau=tau, sigma=sigma, patience=patience)


def det_spec(seed, tau, sigma, patience):
    return SequenceSpec(model="deterministic", seed=seed, tau=Deterministic(tau),
                        sigma=Deterministic(sigma), patience=Deterministic(patience))


def mm2_patience_spec(seed, service_rate=0.6, patience=1.0):
    """Two exponential servers with deterministic patience."""
    return iid_spec(seed, Exponential(1.0), Exponential(service_rate), Deterministic(patience))


DRAIN = det_spec(1, 2.0, 1.0, 0.5)        # everything drains each step
GROWTH = det_spec(1, 1.0, 2.0, 1.0)       # upper fixed point is positive

# A two-state Markov-modulated path.
MM_SPEC = SequenceSpec(
    model="markov_modulated",
    seed=7,
    modulation=ModulationSpec(
        transition=((0.9, 0.1), (0.2, 0.8)),
        states=(
            (Exponential(1.0), Exponential(1.0), Deterministic(1.0)),
            (Exponential(3.0), Exponential(0.5), Uniform(0.0, 2.0)),
        ),
    ),
)


# The perfbench ``certify`` model; before the bounding chain, ``cftp`` on seed
# 1 returned a wrong value at target 341.
CERTIFY = iid_spec(1, Exponential(1.0), Exponential(0.4), Exponential(0.2))
LATTICE = SequenceSpec(
    model="lattice", seed=1, alpha=0.5,
    tau=LatticeDiscrete(0.5, (1, 2, 3), (0.3, 0.4, 0.3)),
    sigma=LatticeDiscrete(0.5, (0, 2, 4, 6, 8), (0.2,) * 5),
    patience=Uniform(0.0, 6.0),
)
# The same gaps and services on a step that is not a power of two, with a
# patience of two steps: a roll of these drivers in floats drifts off the
# lattice, and its test ``u0 > patience`` then flags losses the exact map
# accepts.
NON_DYADIC = SequenceSpec(
    model="lattice", seed=1, alpha=0.1,
    tau=LatticeDiscrete(0.1, (1, 2, 3), (0.3, 0.4, 0.3)),
    sigma=LatticeDiscrete(0.1, (0, 2, 4, 6, 8), (0.2,) * 5),
    patience=Deterministic(0.2),
)


def random_distribution(rng: np.random.Generator, role: str):
    """A random marginal suitable for the given driver role."""
    kinds = ["exponential", "deterministic", "uniform", "shifted_exponential"]
    kind = kinds[rng.integers(len(kinds))]
    if kind == "exponential":
        return Exponential(rate=float(rng.uniform(0.4, 2.5)))
    if kind == "deterministic":
        low = 0.2 if role == "tau" else 0.0
        return Deterministic(value=float(rng.uniform(low, 2.0)))
    if kind == "uniform":
        low = float(rng.uniform(0.0, 0.8))
        return Uniform(low=low, high=low + float(rng.uniform(0.2, 2.0)))
    return ShiftedExponential(shift=float(rng.uniform(0.0, 0.5)),
                              rate=float(rng.uniform(0.5, 3.0)))


def random_iid_spec(rng: np.random.Generator) -> SequenceSpec:
    return SequenceSpec(
        model="iid",
        seed=int(rng.integers(2**62)),
        tau=random_distribution(rng, "tau"),
        sigma=random_distribution(rng, "sigma"),
        patience=random_distribution(rng, "patience"),
    )


def random_mm_spec(rng: np.random.Generator, n_states: int = 2) -> SequenceSpec:
    rows = []
    for _ in range(n_states):
        row = rng.uniform(0.1, 1.0, size=n_states)
        rows.append(tuple((row / row.sum()).tolist()))
    states = tuple(
        (random_distribution(rng, "tau"), random_distribution(rng, "sigma"),
         random_distribution(rng, "patience"))
        for _ in range(n_states)
    )
    return SequenceSpec(
        model="markov_modulated",
        seed=int(rng.integers(2**62)),
        modulation=ModulationSpec(transition=tuple(rows), states=states),
    )


def law_with_mean(rng: np.random.Generator, mean: float):
    """A random marginal with the given mean: exponential, uniform from
    zero, constant or shifted exponential."""
    kind = int(rng.integers(4))
    if kind == 0:
        return Exponential(rate=1.0 / mean)
    if kind == 1:
        return Uniform(low=0.0, high=2.0 * mean)
    if kind == 2:
        return Deterministic(value=mean)
    shift = float(rng.uniform(0.1, 0.9)) * mean
    return ShiftedExponential(shift=shift, rate=1.0 / (mean - shift))


def random_heavy_spec(rng: np.random.Generator, servers: int, model: str = "iid") -> SequenceSpec:
    """A heavily loaded random spec: in every (modulating) state the
    per-server load ``E[sigma] / (S E[tau])`` lies in [0.9, 1.1] and the
    mean patience in [5, 10] mean gaps. Its box reads run deeper and end
    further from their last reset (a 90th percentile of 7-10 lags against
    3-4 for the light random specs above), and its bounding chains reach
    horizons of 32-512 where those mostly coalesce at 16."""
    def triple():
        gap = float(rng.uniform(0.5, 2.0))
        return (law_with_mean(rng, gap),
                law_with_mean(rng, float(rng.uniform(0.9, 1.1)) * servers * gap),
                law_with_mean(rng, float(rng.uniform(5.0, 10.0)) * gap))

    seed = int(rng.integers(2**62))
    if model == "iid":
        tau, sigma, patience = triple()
        return SequenceSpec(model="iid", seed=seed, tau=tau, sigma=sigma, patience=patience)
    rows = []
    for _ in range(2):
        row = rng.uniform(0.1, 1.0, size=2)
        rows.append(tuple((row / row.sum()).tolist()))
    return SequenceSpec(model="markov_modulated", seed=seed,
                        modulation=ModulationSpec(transition=tuple(rows), states=(triple(), triple())))


def random_lattice_spec(rng: np.random.Generator, alpha: float = 1.0,
                        sigma_max: int = 2) -> SequenceSpec:
    def discrete(lo, hi):
        mults = tuple(range(lo, hi + 1))
        probs = rng.uniform(0.2, 1.0, size=len(mults))
        return LatticeDiscrete(alpha, mults, tuple((probs / probs.sum()).tolist()))

    return SequenceSpec(
        model="lattice",
        seed=int(rng.integers(2**62)),
        alpha=alpha,
        tau=discrete(1, 3),
        sigma=discrete(0, sigma_max),
        patience=Uniform(0.0, float(rng.uniform(0.5, 3.0))),
    )


def random_ordered(rng: np.random.Generator, count: int, servers: int,
                   scale: float = 4.0) -> np.ndarray:
    return np.sort(rng.uniform(0.0, scale, size=(count, servers)), axis=1)


def renovation_box(path: StationaryPath, servers: int, ev) -> tuple[tuple, tuple]:
    """The box certificate of renovation event ``ev``: the interval ``[L,
    U]`` that the bounding chain from ``[0, Y]`` at ``ev.index`` reaches
    S-1 steps later. ``L == U`` proves that every state of the box lands on
    that one point. On a lattice path the box, like ``cftp``'s, holds the
    multiples ``floor(y / alpha + 1e-9)``, and so do ``L`` and ``U``."""
    top, zero = ev.y_estimate, 0.0
    if path.spec.is_lattice:
        top, zero = tuple(math.floor(v / path.spec.alpha + 1e-9) for v in top), 0
    return _bounding_chain(path, ev.index, servers - 1, (zero,) * servers, top)


def cftp_from_unaligned_starts(path: StationaryPath, servers: int, at: int,
                               max_horizon: int = 1 << 20, kind: str = "exact"):
    """Reference for ``coupling.cftp``'s value from another start rule:
    horizon h doubles from ``max(2S, 16)`` (or ``max_horizon``) and starts
    at ``at - h`` exactly, with its own box read and a fresh bounding chain,
    no memo. The box rule is ``cftp``'s: between empty and the certified
    supremum vector, for every kind, on a lattice path in the multiples
    ``floor(z / alpha + 1e-9)``. The point the chain closes to at ``at``,
    or ``None`` when no horizon closes it."""
    lattice = kind == "exact" and path.spec.is_lattice
    horizon = min(max(2 * servers, 16), max_horizon)
    while True:
        top = certified_supremum(path, at - horizon, servers).values
        zero = 0.0
        if lattice:
            top, zero = tuple(math.floor(v / path.spec.alpha + 1e-9) for v in top), 0
        lo, hi = _bounding_chain(path, at - horizon, horizon, (zero,) * servers, top, kind)
        if lo == hi:
            return tuple(float(k) * path.spec.alpha for k in lo) if lattice else lo
        if horizon >= max_horizon:
            return None
        horizon = min(2 * horizon, max_horizon)


def path_of(spec) -> StationaryPath:
    return StationaryPath(spec)


def sequential_chain_block(spec: SequenceSpec, b: int, max_depth: int = 1 << 20):
    """Reference for ``StationaryPath._states``: every state of the
    modulating chain stepped forward one index at a time, through each
    row's own inverse-CDF search, from depths 1, 2, 4, ... before block
    ``b`` until all of them meet at its start; then that state stepped on
    through the block. ``None`` when they have not met from ``max_depth``."""
    mod = spec.modulation
    m = mod.n_states()
    cum = np.cumsum(np.asarray(mod.transition, dtype=np.float64), axis=1)
    cum[:, -1] = 1.0
    start = b * _CHAIN_BLOCK

    def jumps(lo, count):
        """Row i: the state entered from every state at index lo + i."""
        u = stream_uniforms(spec.seed, STREAM_MODULATION, lo, count)
        return np.stack([np.minimum(np.searchsorted(cum[s], u, side="right"), m - 1)
                         for s in range(m)], axis=1).tolist()

    depth = 1
    while True:
        states = list(range(m))
        for row in jumps(start - depth + 1, depth):
            states = [row[s] for s in states]
        if len(set(states)) == 1:
            break
        depth *= 2
        if depth > max_depth:
            return None
    s = states[0]
    out = [s]
    for row in jumps(start + 1, _CHAIN_BLOCK - 1):
        s = row[s]
        out.append(s)
    return np.array(out, dtype=np.int64)


def full_search_chain_run(path: StationaryPath, first: int, stop: int) -> list[np.ndarray]:
    """Oracle for ``StationaryPath._chain_run``: the same linear pass, but
    every modulation uniform is mapped to its cell by ``np.searchsorted``
    and the moves are read off the cells' maps, as the pass did before it
    searched only the uniforms outside the stay interval."""
    spec = path.spec
    edges, cell_maps = sequences._chain_tables(spec.modulation)
    m = cell_maps.shape[1]
    lo = first * _CHAIN_BLOCK + 1 - sequences._BACK_START
    n = stop * _CHAIN_BLOCK - lo
    cells = np.searchsorted(edges, stream_uniforms(spec.seed, STREAM_MODULATION, lo, n), side="right")
    window = np.arange(stop - first)[:, None] * _CHAIN_BLOCK + np.arange(sequences._BACK_START)
    windows = sequences._fold(np.take(cell_maps, np.take(cells, window), axis=0))
    state = 0
    for k in np.flatnonzero((windows != windows[:, :1]).any(axis=1)).tolist():
        before = sequences._look_back(spec, first + k, windows[k])
        if k == 0:
            state = before
    moves = np.flatnonzero(np.take((cell_maps != np.arange(m)).any(axis=1), cells))
    after = np.empty(len(moves) + 1, dtype=np.min_scalar_type(m - 1))
    after[0] = state
    for a in range(0, len(moves), _CHAIN_BLOCK):
        piece = np.take(cell_maps, cells[moves[a : a + _CHAIN_BLOCK]], axis=0)
        after[a + 1 : a + 1 + len(piece)] = sequences._prefix_compose(piece)[:, state]
        state = after[a + len(piece)]
    states = np.repeat(after, np.diff(moves, prepend=0, append=n))
    return [b.copy() for b in np.split(states[sequences._BACK_START - 1 :], stop - first)]


def ordered_box_reference(caps) -> list[tuple[int, ...]]:
    """Brute force for one box of ``coupling._ordered_boxes``: every
    ascending vector with coordinate j at most caps[j], in lexicographic
    order."""
    top = max(caps, default=0)
    return [u for u in itertools.combinations_with_replacement(range(top + 1), len(caps))
            if all(k <= c for k, c in zip(u, caps))]


def reachable_profile_reference(path: StationaryPath, servers: int, depths,
                                at: int = 0) -> list[ReachableSet]:
    """Per-depth reference for ``coupling.reachable_profile``: each depth's
    box, read off the same rolled upper estimate, enumerated by brute force
    and stepped state by state with the scalar ``advance_lattice`` over its
    own ``lattice_block(at - d, d)``."""
    depths = sorted(set(depths))
    deepest = depths[-1]
    alpha = path.spec.alpha
    est = cftp(path, servers, at - deepest, kind="upper")
    rolled = envelope_states(path, at - deepest, deepest, est.value, "upper")
    out, prev = [], None
    for d in depths:
        box = ordered_box_reference([math.floor(v / alpha + 1e-9) for v in rolled[deepest - d]])
        blk = path.lattice_block(at - d, d)
        points = set(box)
        for i in range(d):
            points = {advance_lattice(u, int(blk.tau[i]), int(blk.sigma[i]),
                                      float(blk.patience[i]), alpha)[0] for u in points}
        points = frozenset(points)
        out.append(ReachableSet(d, points, alpha, len(box), prev is None or points <= prev,
                                est.coalesced))
        prev = points
    return out


def reference_sweep_configs() -> list[tuple[str, SequenceSpec, int]]:
    """(name, spec, servers) for the deep-reference sweeps of the backward
    estimates: the four models on which stopping at agreement between
    doublings was seen to stop early, then random iid, Markov-modulated and
    lattice configs."""
    rng = np.random.default_rng(8192)
    bursty = ModulationSpec(
        transition=((0.995, 0.005), (0.02, 0.98)),
        states=((Exponential(1.0), Exponential(0.6), Deterministic(1.0)),
                (Exponential(1.8), Exponential(0.6), Uniform(0.0, 2.0))))
    configs = [
        ("mm2-d1", mm2_patience_spec(11), 2),
        ("bursty", SequenceSpec(model="markov_modulated", seed=11, modulation=bursty), 2),
        ("lattice", LATTICE, 3),
        ("certify", dataclasses.replace(CERTIFY, seed=11), 3),
    ]
    for k in range(3):
        configs.append((f"iid-{k}", random_iid_spec(rng), 1 + k))
    for k in range(2):
        configs.append((f"mm-{k}", random_mm_spec(rng), 2 + k))
    for k in range(2):
        configs.append((f"lattice-{k}", random_lattice_spec(rng, alpha=0.5, sigma_max=4), 2 + k))
    return configs


def deep_envelope(path: StationaryPath, ats, kind: str, servers: int,
                  depth: int = 8192) -> np.ndarray:
    """Row r is the ``kind`` envelope iterate of depth ``depth`` from the
    empty state at index ``ats[r]``: ``envelope_states(path, ats[r] - depth,
    depth, zeros, kind)[-1]``. All rows roll at once, one array per
    coordinate, through the scalar ``_merge_shift``'s IEEE operations on the
    same operands (max with the work, min with the next coordinate,
    subtract the gap, clip at zero), so each row equals that roll bit for
    bit."""
    ats = np.asarray(ats, dtype=np.int64)
    base = int(ats.min()) - depth
    blk = path.block(base, int(ats.max()) - base)
    work = _effective_work(blk.sigma, blk.patience, kind)
    offsets = ats - depth - base
    u = [np.zeros(len(ats)) for _ in range(servers)]
    for j in range(depth):
        w, t = work[offsets + j], blk.tau[offsets + j]
        merged = [np.minimum(np.maximum(a, w), b) for a, b in zip(u, u[1:])] + [np.maximum(u[-1], w)]
        u = [np.maximum(m - t, 0.0) for m in merged]
    return np.column_stack(u)
