"""Shared helpers for the test suite: quick spec builders and random
configuration generators used by the property suites."""

from __future__ import annotations

import numpy as np

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
        burn_in=2000,
    )


def random_lattice_spec(rng: np.random.Generator, alpha: float = 1.0) -> SequenceSpec:
    def discrete(lo, hi):
        mults = tuple(range(lo, hi + 1))
        probs = rng.uniform(0.2, 1.0, size=len(mults))
        return LatticeDiscrete(alpha, mults, tuple((probs / probs.sum()).tolist()))

    return SequenceSpec(
        model="lattice",
        seed=int(rng.integers(2**62)),
        alpha=alpha,
        tau=discrete(1, 3),
        sigma=discrete(0, 2),
        patience=Uniform(0.0, float(rng.uniform(0.5, 3.0))),
    )


def random_ordered(rng: np.random.Generator, count: int, servers: int,
                   scale: float = 4.0) -> np.ndarray:
    return np.sort(rng.uniform(0.0, scale, size=(count, servers)), axis=1)


def path_of(spec) -> StationaryPath:
    return StationaryPath(spec)


def sequential_chain_block(spec: SequenceSpec, b: int) -> np.ndarray:
    """Reference for ``StationaryPath._chain_block``: the modulating chain
    stepped one index at a time, from a stationary draw ``burn_in`` steps
    before block ``b``, through the same per-index jump tables."""
    mod = spec.modulation
    m = mod.n_states()
    steps = spec.burn_in + _CHAIN_BLOCK
    u = stream_uniforms(spec.seed, STREAM_MODULATION, b * _CHAIN_BLOCK - spec.burn_in, steps)
    cum = np.cumsum(np.asarray(mod.transition, dtype=np.float64), axis=1)
    cum[:, -1] = 1.0
    jump = np.empty((steps, m), dtype=np.int64)
    for s in range(m):
        jump[:, s] = np.minimum(np.searchsorted(cum[s], u, side="right"), m - 1)
    pi_cum = np.cumsum(mod.stationary())
    pi_cum[-1] = 1.0
    s = int(min(np.searchsorted(pi_cum, u[0], side="right"), m - 1))
    states = np.empty(steps, dtype=np.int64)
    states[0] = s
    for i in range(1, steps):
        s = jump[i, s]
        states[i] = s
    return states[spec.burn_in:]
