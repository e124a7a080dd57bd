"""Reproducible bi-infinite driver sequences feeding the queue.

Customer index ``n`` (any signed integer) carries a triple
``(tau, sigma, patience)``: the inter-arrival gap to customer ``n+1``, the
service requirement of customer ``n``, and the longest wait customer ``n``
tolerates before giving up. Values are produced by a stateless counter-based
generator keyed on ``(seed, stream, index)``, so the sequence shifted by
``k`` customers is exactly the sequence read at translated indices, any
window can be regenerated on demand, and concurrent readers never interact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigurationError

_MASK64 = (1 << 64) - 1
_PHI64 = 0x9E3779B97F4A7C15

# Stream tags keep the three coordinates (and the modulating chain)
# statistically independent under a single user-facing seed.
STREAM_TAU = 0xA1
STREAM_SIGMA = 0xA2
STREAM_PATIENCE = 0xA3
STREAM_MODULATION = 0xA4

_CHAIN_BLOCK = 4096


def _mix64_int(x: int) -> int:
    """SplitMix64 finalizer on a plain Python integer."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@functools.lru_cache(maxsize=256)
def _stream_key(seed: int, stream: int) -> int:
    return _mix64_int((seed & _MASK64) ^ _mix64_int(stream * 0xA24BAED4963EE407))


def stream_uniforms(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """Uniform(0,1) variates for indices ``start .. start+count-1``.

    Pure function of its arguments: index ``n`` always yields the same
    value, independent of any other call. Outputs are strictly inside
    (0, 1) so inverse-CDF transforms never produce boundary artifacts.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    key = np.uint64(_stream_key(seed, stream))
    idx = np.arange(start, start + count, dtype=np.int64).astype(np.uint64)
    x = key + idx * np.uint64(_PHI64)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return ((x >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


# ---------------------------------------------------------------------------
# Marginal distributions (all sampled by inverse CDF from one uniform).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exponential:
    rate: float

    def __post_init__(self):
        if not (0.0 < self.rate < math.inf):
            raise ConfigurationError(f"exponential rate must be positive and finite, got {self.rate}")

    def mean(self) -> float:
        return 1.0 / self.rate

    def strictly_positive(self) -> bool:
        return True

    def sample(self, u: np.ndarray) -> np.ndarray:
        return -np.log1p(-u) / self.rate

    def lattice_multipliers(self, alpha: float) -> Optional[np.ndarray]:
        return None


@dataclass(frozen=True)
class Deterministic:
    value: float

    def __post_init__(self):
        if not (self.value >= 0.0):
            raise ConfigurationError(f"deterministic value must be non-negative, got {self.value}")

    def mean(self) -> float:
        return self.value

    def strictly_positive(self) -> bool:
        return self.value > 0.0

    def sample(self, u: np.ndarray) -> np.ndarray:
        return np.full(u.shape, self.value, dtype=np.float64)

    def lattice_multipliers(self, alpha: float) -> Optional[np.ndarray]:
        if not math.isfinite(self.value):
            return None
        k = round(self.value / alpha)
        if k * alpha != self.value:
            return None
        return np.array([k], dtype=np.int64)


@dataclass(frozen=True)
class Uniform:
    low: float
    high: float

    def __post_init__(self):
        if not (0.0 <= self.low < self.high < math.inf):
            raise ConfigurationError(f"uniform bounds must satisfy 0 <= low < high, got [{self.low}, {self.high}]")

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def strictly_positive(self) -> bool:
        # Samples are low + u*(high-low) with u in the open interval (0,1).
        return self.low >= 0.0

    def sample(self, u: np.ndarray) -> np.ndarray:
        return self.low + u * (self.high - self.low)

    def lattice_multipliers(self, alpha: float) -> Optional[np.ndarray]:
        return None


@dataclass(frozen=True)
class ShiftedExponential:
    shift: float
    rate: float

    def __post_init__(self):
        if self.shift < 0.0 or not (0.0 < self.rate < math.inf):
            raise ConfigurationError(f"shifted exponential needs shift >= 0 and rate > 0, got ({self.shift}, {self.rate})")

    def mean(self) -> float:
        return self.shift + 1.0 / self.rate

    def strictly_positive(self) -> bool:
        return True

    def sample(self, u: np.ndarray) -> np.ndarray:
        return self.shift - np.log1p(-u) / self.rate

    def lattice_multipliers(self, alpha: float) -> Optional[np.ndarray]:
        return None


@dataclass(frozen=True)
class LatticeDiscrete:
    """Discrete law supported on multiples of a fixed step alpha."""

    alpha: float
    multipliers: tuple[int, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if self.alpha <= 0.0 or not math.isfinite(self.alpha):
            raise ConfigurationError(f"lattice step must be positive and finite, got {self.alpha}")
        if len(self.multipliers) != len(self.probs) or not self.multipliers:
            raise ConfigurationError("multipliers and probs must be non-empty and equal length")
        if any(k < 0 or k != int(k) for k in self.multipliers):
            raise ConfigurationError("multipliers must be non-negative integers")
        if any(p < 0.0 for p in self.probs) or abs(sum(self.probs) - 1.0) > 1e-9:
            raise ConfigurationError("probs must be non-negative and sum to 1")

    def _cum(self) -> np.ndarray:
        c = np.cumsum(np.asarray(self.probs, dtype=np.float64))
        c[-1] = 1.0
        return c

    def mean(self) -> float:
        return float(sum(p * k for p, k in zip(self.probs, self.multipliers)) * self.alpha)

    def strictly_positive(self) -> bool:
        return all(k >= 1 for k, p in zip(self.multipliers, self.probs) if p > 0.0)

    def sample_multipliers(self, u: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._cum(), u, side="right")
        idx = np.minimum(idx, len(self.multipliers) - 1)
        return np.asarray(self.multipliers, dtype=np.int64)[idx]

    def sample(self, u: np.ndarray) -> np.ndarray:
        return self.sample_multipliers(u).astype(np.float64) * self.alpha

    def lattice_multipliers(self, alpha: float) -> Optional[np.ndarray]:
        if alpha != self.alpha:
            return None
        return np.asarray(self.multipliers, dtype=np.int64)


Distribution = Exponential | Deterministic | Uniform | ShiftedExponential | LatticeDiscrete


# ---------------------------------------------------------------------------
# Sequence specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModulationSpec:
    """Finite irreducible Markov chain with per-state driver distributions."""

    transition: tuple[tuple[float, ...], ...]
    states: tuple[tuple[Distribution, Distribution, Distribution], ...]

    def __post_init__(self):
        m = len(self.transition)
        if m == 0 or len(self.states) != m:
            raise ConfigurationError("modulation needs one state entry per transition row")
        for row in self.transition:
            if len(row) != m:
                raise ConfigurationError("transition matrix must be square")
            if any(p < 0.0 for p in row) or abs(sum(row) - 1.0) > 1e-9:
                raise ConfigurationError("transition rows must be probability vectors")
        if not _strongly_connected(self.transition):
            raise ConfigurationError("modulating chain must be irreducible")

    def n_states(self) -> int:
        return len(self.transition)

    def stationary(self) -> np.ndarray:
        p = np.asarray(self.transition, dtype=np.float64)
        m = p.shape[0]
        a = np.vstack([p.T - np.eye(m), np.ones((1, m))])
        b = np.zeros(m + 1)
        b[-1] = 1.0
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        pi = np.clip(pi, 0.0, None)
        return pi / pi.sum()


def _strongly_connected(transition: Sequence[Sequence[float]]) -> bool:
    m = len(transition)

    def reach(forward: bool) -> bool:
        seen = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for j in range(m):
                p = transition[i][j] if forward else transition[j][i]
                if p > 0.0 and j not in seen:
                    seen.add(j)
                    frontier.append(j)
        return len(seen) == m

    return reach(True) and reach(False)


@dataclass(frozen=True)
class SequenceSpec:
    """Recipe for one bi-infinite driver sequence.

    ``model`` selects how the triple is drawn per index:

    * ``iid``: independent across indices, one marginal per coordinate.
    * ``deterministic``: constant triple (a degenerate iid case).
    * ``lattice``: iid with tau and sigma supported on multiples of ``alpha``.
    * ``markov_modulated``: a hidden irreducible chain picks per-state
      marginals; the chain starts from its stationary law so the sequence
      is stationary and ergodic.
    """

    model: str
    seed: int
    tau: Optional[Distribution] = None
    sigma: Optional[Distribution] = None
    patience: Optional[Distribution] = None
    alpha: Optional[float] = None
    modulation: Optional[ModulationSpec] = None
    burn_in: int = 10_000

    def __post_init__(self):
        if self.model not in ("iid", "deterministic", "lattice", "markov_modulated"):
            raise ConfigurationError(f"unknown model {self.model!r}")
        if self.model == "markov_modulated":
            if self.modulation is None:
                raise ConfigurationError("markov_modulated model requires a modulation spec")
            if self.burn_in < 1:
                raise ConfigurationError("burn_in must be >= 1")
            for tau_d, sigma_d, pat_d in self.modulation.states:
                _check_roles(tau_d, sigma_d, pat_d)
            return
        if self.tau is None or self.sigma is None or self.patience is None:
            raise ConfigurationError(f"model {self.model!r} requires tau, sigma and patience distributions")
        _check_roles(self.tau, self.sigma, self.patience)
        if self.model == "deterministic":
            for name, dist in (("tau", self.tau), ("sigma", self.sigma), ("patience", self.patience)):
                if not isinstance(dist, Deterministic):
                    raise ConfigurationError(f"deterministic model requires a constant {name}")
        if self.model == "lattice":
            if self.alpha is None or self.alpha <= 0.0:
                raise ConfigurationError("lattice model requires a positive alpha")
            if self.tau.lattice_multipliers(self.alpha) is None:
                raise ConfigurationError("lattice model requires tau supported on multiples of alpha")
            if self.sigma.lattice_multipliers(self.alpha) is None:
                raise ConfigurationError("lattice model requires sigma supported on multiples of alpha")

    @property
    def is_lattice(self) -> bool:
        return self.model == "lattice"


def _check_roles(tau: Distribution, sigma: Distribution, patience: Distribution):
    if not tau.strictly_positive():
        raise ConfigurationError("inter-arrival distribution must be strictly positive (simple arrivals)")
    if not math.isfinite(tau.mean()):
        raise ConfigurationError("inter-arrival distribution must have finite mean")
    if not math.isfinite(sigma.mean()):
        raise ConfigurationError("service distribution must have finite mean")
    # Infinite patience (a constant +inf) is accepted as the no-impatience
    # sentinel; any other patience law must be integrable.
    if not math.isfinite(patience.mean()) and not (
        isinstance(patience, Deterministic) and patience.value == math.inf
    ):
        raise ConfigurationError("patience distribution must have finite mean (or be constant +inf)")


# ---------------------------------------------------------------------------
# The path object
# ---------------------------------------------------------------------------


class DriverSample(NamedTuple):
    tau: float
    sigma: float
    patience: float


class DriverBlock(NamedTuple):
    tau: np.ndarray
    sigma: np.ndarray
    patience: np.ndarray


class LatticeBlock(NamedTuple):
    tau: np.ndarray        # int64 multiples of alpha
    sigma: np.ndarray      # int64 multiples of alpha
    patience: np.ndarray   # float64, unconstrained


@dataclass
class StationaryPath:
    """Index-addressed view of one realized driver sequence.

    ``sample_at(n)`` is a pure function of ``(spec, n + offset)``; a path
    shifted by ``k`` is just the same sequence read at translated indices.
    The only mutable member is a memo of modulating-chain segments, shared
    between a path and its shifts.
    """

    spec: SequenceSpec
    offset: int = 0
    _chain_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def shifted(self, k: int) -> "StationaryPath":
        return StationaryPath(self.spec, self.offset + k, self._chain_cache)

    def sample_at(self, n: int) -> DriverSample:
        b = self.block(n, 1)
        return DriverSample(float(b.tau[0]), float(b.sigma[0]), float(b.patience[0]))

    def block(self, start: int, count: int) -> DriverBlock:
        """Driver triples for indices ``start .. start+count-1`` as arrays."""
        base = start + self.offset
        u_tau = stream_uniforms(self.spec.seed, STREAM_TAU, base, count)
        u_sigma = stream_uniforms(self.spec.seed, STREAM_SIGMA, base, count)
        u_pat = stream_uniforms(self.spec.seed, STREAM_PATIENCE, base, count)
        if self.spec.model == "markov_modulated":
            states = self._states(base, count)
            mod = self.spec.modulation
            tau = np.empty(count)
            sigma = np.empty(count)
            patience = np.empty(count)
            for s in range(mod.n_states()):
                mask = states == s
                if not mask.any():
                    continue
                tau_d, sigma_d, pat_d = mod.states[s]
                tau[mask] = tau_d.sample(u_tau[mask])
                sigma[mask] = sigma_d.sample(u_sigma[mask])
                patience[mask] = pat_d.sample(u_pat[mask])
            return DriverBlock(tau, sigma, patience)
        return DriverBlock(
            self.spec.tau.sample(u_tau),
            self.spec.sigma.sample(u_sigma),
            self.spec.patience.sample(u_pat),
        )

    def lattice_block(self, start: int, count: int) -> LatticeBlock:
        """Integer tau/sigma multipliers for exact-arithmetic consumers."""
        if not self.spec.is_lattice:
            raise ConfigurationError("lattice_block requires a lattice-model spec")
        base = start + self.offset
        alpha = self.spec.alpha
        u_tau = stream_uniforms(self.spec.seed, STREAM_TAU, base, count)
        u_sigma = stream_uniforms(self.spec.seed, STREAM_SIGMA, base, count)
        u_pat = stream_uniforms(self.spec.seed, STREAM_PATIENCE, base, count)
        return LatticeBlock(
            _multiplier_samples(self.spec.tau, u_tau, alpha),
            _multiplier_samples(self.spec.sigma, u_sigma, alpha),
            self.spec.patience.sample(u_pat),
        )

    # -- modulating chain ---------------------------------------------------

    def _states(self, base_start: int, count: int) -> np.ndarray:
        out = np.empty(count, dtype=np.int64)
        pos = 0
        b = base_start // _CHAIN_BLOCK
        while pos < count:
            block = self._chain_block(b)
            lo = max(base_start + pos, b * _CHAIN_BLOCK) - b * _CHAIN_BLOCK
            take = min(_CHAIN_BLOCK - lo, count - pos)
            out[pos : pos + take] = block[lo : lo + take]
            pos += take
            b += 1
        return out

    def _chain_block(self, b: int) -> np.ndarray:
        """Chain states for indices ``[b*BLOCK, (b+1)*BLOCK)``.

        Each block is rebuilt from a stationary draw ``burn_in`` steps
        before its start, so every index has the stationary marginal and
        the construction stays a pure function of ``(spec, index)``. The
        burn-in makes disagreement across block seams (two anchors driving
        the same index) vanishingly unlikely; this approximates a genuinely
        two-sided stationary chain.

        The chain is a grand coupling: the uniform at each index fixes a
        jump map ``jump[i]`` on ``{0..m-1}``, the state entered from every
        state (looked up per cell of the transition rows, see
        ``_chain_tables``), and the chain applies these maps in turn.
        Composition of maps is associative, so the states come from composed
        maps instead of a step-by-step loop: the block's first state is
        ``jump[burn_in-1] o ... o jump[0]`` applied to the stationary draw
        (a pairwise tree reduction, ``_compose``), and the rest are the
        prefix compositions of the block's own maps read at that state
        (``_prefix_compose``). Only integer gathers run, and each state is
        the image of the same start under the same maps, so every state
        equals the one the chain stepped index by index reaches, bit for
        bit. The cost is O(m * burn_in) for the reduction plus
        O(m * BLOCK * log BLOCK) for the scan, in about 12 + log2(burn_in)
        numpy passes instead of ``burn_in + BLOCK`` interpreted steps; the
        log factor makes the scan the larger share as m grows.
        """
        cached = self._chain_cache.get((self.spec, b))
        if cached is not None:
            return cached
        edges, cell_maps, pi_cum = _chain_tables(self.spec.modulation)
        burn_in = self.spec.burn_in
        u = stream_uniforms(self.spec.seed, STREAM_MODULATION, b * _CHAIN_BLOCK - burn_in,
                            burn_in + _CHAIN_BLOCK)
        s0 = min(int(np.searchsorted(pi_cum, u[0], side="right")), len(pi_cum) - 1)
        # jump[i] is the map taken at index b*BLOCK - burn_in + 1 + i.
        jump = np.take(cell_maps, np.searchsorted(edges, u[1:], side="right"), axis=0)
        block = np.empty(_CHAIN_BLOCK, dtype=np.int64)
        block[0] = _compose(jump[:burn_in])[s0]
        block[1:] = _prefix_compose(jump[burn_in:])[:, block[0]]
        self._chain_cache[(self.spec, b)] = block
        return block


@functools.lru_cache(maxsize=64)
def _chain_tables(mod: ModulationSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-spec constants of the modulating chain.

    Returns the sorted distinct entries ``edges`` of the cumulative
    transition rows, the jump map ``cell_maps[k]`` taken by a uniform in
    cell ``k`` (``[edges[k-1], edges[k])``, with cell 0 below ``edges[0]``),
    and the cumulative stationary law. A row's inverse-CDF search compares
    the uniform only with that row's entries, none of which lies inside a
    cell, so every uniform in a cell takes the cell's map exactly.
    """
    cum = np.cumsum(np.asarray(mod.transition, dtype=np.float64), axis=1)
    cum[:, -1] = 1.0
    m = len(cum)
    edges = np.unique(cum)
    cell_maps = np.zeros((len(edges) + 1, m), dtype=np.int64)
    for s in range(m):
        cell_maps[1:, s] = np.minimum(np.searchsorted(cum[s], edges, side="right"), m - 1)
    pi_cum = np.cumsum(mod.stationary())
    pi_cum[-1] = 1.0
    for table in (edges, cell_maps, pi_cum):
        table.setflags(write=False)
    return edges, cell_maps, pi_cum


def _compose(maps: np.ndarray) -> np.ndarray:
    """The map ``maps[n-1] o ... o maps[0]`` of an ``(n, m)`` stack of maps
    on ``{0..m-1}`` (``n >= 1``), by pairwise tree reduction.

    Each pass composes neighbours ``(2k, 2k+1)`` with one flat gather,
    ``flat[first + row offset of the second]``; an odd map left over is
    folded into the last pair. About ``n*m`` gathers in ``log2 n`` passes.
    """
    n, m = maps.shape
    # Row offset of the second map of pair k in the flattened stack: (2k+1)*m.
    offsets = np.repeat(np.arange(m, n * m, 2 * m), m).reshape(-1, m)
    while len(maps) > 1:
        half = len(maps) // 2
        pairs = np.take(maps.ravel(), maps[0 : 2 * half : 2] + offsets[:half])
        if len(maps) % 2:
            pairs[-1] = maps[-1][pairs[-1]]
        maps = pairs
    return maps[0]


def _prefix_compose(maps: np.ndarray) -> np.ndarray:
    """Row ``i`` is ``maps[i] o ... o maps[0]``, for an ``(n, m)`` stack of
    maps on ``{0..m-1}``: a Hillis-Steele scan, ``log2 n`` passes that each
    compose every row with the row ``d`` above it by one flat gather."""
    prefix = np.array(maps)
    n, m = prefix.shape
    offsets = np.repeat(np.arange(0, n * m, m), m).reshape(n, m)
    d = 1
    while d < n:
        prefix[d:] = np.take(prefix.ravel(), prefix[:-d] + offsets[d:])
        d *= 2
    return prefix


def _multiplier_samples(dist: Distribution, u: np.ndarray, alpha: float) -> np.ndarray:
    if isinstance(dist, LatticeDiscrete):
        return dist.sample_multipliers(u)
    if isinstance(dist, Deterministic):
        mult = dist.lattice_multipliers(alpha)
        return np.full(u.shape, int(mult[0]), dtype=np.int64)
    raise ConfigurationError(f"{type(dist).__name__} is not supported on a lattice")
