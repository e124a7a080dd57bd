"""Reproducible bi-infinite driver sequences feeding the queue.

Customer index ``n`` (any signed integer) carries a triple
``(tau, sigma, patience)``: the inter-arrival gap to customer ``n+1``, the
service requirement of customer ``n``, and the longest wait customer ``n``
tolerates before giving up. Values are produced by a stateless counter-based
generator keyed on ``(seed, stream, index)``, so the sequence shifted by
``k`` customers is exactly the sequence read at translated indices, any
window can be regenerated on demand, and concurrent readers never interact.

Driver blocks are read-only arrays. A path keeps the most recent float
cover it generated (whole pages of ``_CHAIN_BLOCK`` indices, a Markov path's
chain states built in one pass over them) among its memos (``_PathMemo``)
and serves any window inside it as slices of that one. Lattice reads
(``lattice_block``) round the same cover's values to integer multiples of
the step.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, ResourceCapError

_MASK64 = (1 << 64) - 1
_PHI64 = 0x9E3779B97F4A7C15

# Stream tags keep the three coordinates (and the modulating chain)
# statistically independent under a single user-facing seed.
STREAM_TAU = 0xA1
STREAM_SIGMA = 0xA2
STREAM_PATIENCE = 0xA3
STREAM_MODULATION = 0xA4

_CHAIN_BLOCK = 4096
_COVER_GROUP = 3  # pages a cover draws and samples at once (96 KiB buffers, below glibc's 128 KiB mmap threshold)
CHAIN_MEMO = 1024
# A chain block looks back from _BACK_START maps before its start, doubling
# until the maps coalesce, and refuses past _BACK_CAP maps.
_BACK_START = 256
_BACK_CAP = 1 << 20
_PIECE = 1 << 16  # jump maps one look-back reduction holds at once


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
    The SplitMix64 finalizer (Steele, Lea & Flood 2014) runs in place on
    one uint64 array, each shift written into one scratch array that then
    takes the float64 output, through the int64 view (exact: x >> 11 < 2^53).
    """
    start, count = operator.index(start), operator.index(count)
    if count < 0:
        raise ValueError("count must be non-negative")
    x = np.arange(start, start + count, dtype=np.int64).view(np.uint64)
    x *= np.uint64(_PHI64)
    x += np.uint64(_stream_key(seed, stream))
    scratch = np.empty_like(x)
    x ^= np.right_shift(x, np.uint64(30), out=scratch)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= np.right_shift(x, np.uint64(27), out=scratch)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= np.right_shift(x, np.uint64(31), out=scratch)
    x >>= np.uint64(11)
    out = np.add(x.view(np.int64), 0.5, out=scratch.view(np.float64))
    return np.multiply(out, 2.0**-53, out=out)


# ---------------------------------------------------------------------------
# Marginal distributions (all sampled by inverse CDF from one uniform).
#
# ``log_mgf(theta)`` is log E e^(theta X), ``inf`` where the mean diverges;
# the top-supremum certificate in ``loynes`` reads it at positive theta for
# work and negative theta for gaps. In logs, large work cannot overflow.
# ---------------------------------------------------------------------------


class _Law:
    """What a law states unless it says otherwise: its samples are positive
    (each is drawn from a uniform in the open interval (0, 1)), and it lies
    on no lattice."""

    def strictly_positive(self) -> bool:
        return True

    def on_lattice(self, alpha: float) -> bool:
        return False


@dataclass(frozen=True)
class Exponential(_Law):
    rate: float

    def __post_init__(self):
        if not (0.0 < self.rate < math.inf):
            raise ConfigurationError(f"exponential rate must be positive and finite, got {self.rate}")

    def mean(self) -> float:
        return 1.0 / self.rate

    def sample(self, u: np.ndarray) -> np.ndarray:
        # ``-log1p(-u) / rate`` in one output array (IEEE division rounds
        # symmetrically, so dividing by ``-rate`` is the same bits)
        x = np.negative(u)
        np.log1p(x, out=x)
        return np.divide(x, -self.rate, out=x)

    def log_mgf(self, theta: float) -> float:
        return -math.log1p(-theta / self.rate) if theta < self.rate else math.inf


@dataclass(frozen=True)
class Deterministic(_Law):
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

    def log_mgf(self, theta: float) -> float:
        return theta * self.value

    def on_lattice(self, alpha: float) -> bool:
        return math.isfinite(self.value) and round(self.value / alpha) * alpha == self.value


@dataclass(frozen=True)
class Uniform(_Law):
    low: float
    high: float

    def __post_init__(self):
        if not (0.0 <= self.low < self.high < math.inf):
            raise ConfigurationError(f"uniform bounds must satisfy 0 <= low < high, got [{self.low}, {self.high}]")

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def sample(self, u: np.ndarray) -> np.ndarray:
        x = np.multiply(u, self.high - self.low)
        return np.add(self.low, x, out=x)

    def log_mgf(self, theta: float) -> float:
        # log of (e^(theta b) - e^(theta a)) / (theta (b - a)), factored at
        # the larger exponent so that neither overflows nor cancels
        w = abs(theta) * (self.high - self.low)
        edge = self.high if theta > 0.0 else self.low
        return theta * edge + math.log(-math.expm1(-w) / w) if w else 0.0


@dataclass(frozen=True)
class ShiftedExponential(_Law):
    shift: float
    rate: float

    def __post_init__(self):
        if not self.shift >= 0.0 or not (0.0 < self.rate < math.inf):
            raise ConfigurationError(f"shifted exponential needs shift >= 0 and rate > 0, got ({self.shift}, {self.rate})")

    def mean(self) -> float:
        return self.shift + 1.0 / self.rate

    def sample(self, u: np.ndarray) -> np.ndarray:
        # ``shift - log1p(-u) / rate`` in one output array, as ``Exponential``'s
        x = np.negative(u)
        np.log1p(x, out=x)
        np.divide(x, -self.rate, out=x)
        return np.add(x, self.shift, out=x)

    def log_mgf(self, theta: float) -> float:
        return theta * self.shift - math.log1p(-theta / self.rate) if theta < self.rate else math.inf


@dataclass(frozen=True)
class LatticeDiscrete(_Law):
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
        if not all(p >= 0.0 for p in self.probs) or not abs(sum(self.probs) - 1.0) <= 1e-9:
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

    def log_mgf(self, theta: float) -> float:
        terms = [(theta * self.alpha * k, p) for k, p in zip(self.multipliers, self.probs) if p > 0.0]
        top = max(x for x, _ in terms)
        return top + math.log(math.fsum(p * math.exp(x - top) for x, p in terms))

    def on_lattice(self, alpha: float) -> bool:
        return alpha == self.alpha


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
            if not all(p >= 0.0 for p in row) or not abs(sum(row) - 1.0) <= 1e-9:
                raise ConfigurationError("transition rows must be probability vectors")
        if not _strongly_connected(self.transition):
            raise ConfigurationError("modulating chain must be irreducible")

    def n_states(self) -> int:
        return len(self.transition)


def _strongly_connected(transition: Sequence[Sequence[float]]) -> bool:
    """Whether every state reaches every other: ``bit_length(m)`` squarings of
    the links and stays join each pair a path of fewer than m steps joins."""
    m = len(transition)
    reach = (np.asarray(transition) > 0.0) | np.eye(m, dtype=bool)
    for _ in range(m.bit_length()):
        reach = reach @ reach
    return bool(reach.all())


@dataclass(frozen=True)
class SequenceSpec:
    """Recipe for one bi-infinite driver sequence.

    ``model`` selects how the triple is drawn per index:

    * ``iid``: independent across indices, one marginal per coordinate.
    * ``deterministic``: constant triple (a degenerate iid case).
    * ``lattice``: iid with tau and sigma supported on multiples of ``alpha``.
    * ``markov_modulated``: a hidden irreducible chain picks per-state
      marginals; each chain state is read by coupling from the past, so the
      sequence is exactly stationary and ergodic (see
      ``StationaryPath._states``).

    A field its model does not read is refused.
    """

    model: str
    seed: int
    tau: Optional[Distribution] = None
    sigma: Optional[Distribution] = None
    patience: Optional[Distribution] = None
    alpha: Optional[float] = None
    modulation: Optional[ModulationSpec] = None

    def __post_init__(self):
        if self.model not in ("iid", "deterministic", "lattice", "markov_modulated"):
            raise ConfigurationError(f"unknown model {self.model!r}")
        read = {"markov_modulated": ("modulation",),
                "lattice": ("tau", "sigma", "patience", "alpha")}.get(self.model, ("tau", "sigma", "patience"))
        for name in ("tau", "sigma", "patience", "alpha", "modulation"):
            if name not in read and getattr(self, name) is not None:
                raise ConfigurationError(f"model {self.model!r} does not read {name}")
        if self.model == "markov_modulated":
            if self.modulation is None:
                raise ConfigurationError("markov_modulated model requires a modulation spec")
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
            if self.alpha is None or not 0.0 < self.alpha < math.inf:
                raise ConfigurationError(f"lattice model requires a positive finite alpha, got {self.alpha}")
            if not self.tau.on_lattice(self.alpha):
                raise ConfigurationError("lattice model requires tau supported on multiples of alpha")
            if not self.sigma.on_lattice(self.alpha):
                raise ConfigurationError("lattice model requires sigma supported on multiples of alpha")

    @property
    def is_lattice(self) -> bool:
        return self.model == "lattice"

    @functools.cached_property
    def laws(self) -> tuple[tuple[Distribution, Distribution, Distribution], ...]:
        """The (tau, sigma, patience) laws: one triple, or one per modulating
        state, built once."""
        return (self.modulation.states if self.model == "markov_modulated"
                else ((self.tau, self.sigma, self.patience),))


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


class _PathMemo:
    """The memos of one ``StationaryPath``, each with one eviction rule, read
    by one caller at a time. Every entry is a function of driver indices, so
    a memo changes cost, never a value.
    - ``cover``: ``block``'s one float cover, ``(first index, DriverBlock)``;
      ``pages``, ``loynes._exact_lists``' driver lists per page, go with it.
      A Markov path keeps no chain states apart from the cover's values.
    - ``chains``: ``coupling.cftp``'s one box per ``(start, servers)``, with
      the chain of each kind that started from it, least recently used past
      ``CHAIN_MEMO`` (``keep_chain``; a start met again moves to the end).
    - ``suprema``: ``loynes._supremum_read``'s resume entry per server count.
    """

    def __init__(self):
        self.cover, self.pages, self.suprema, self.chains = None, {}, {}, OrderedDict()

    def keep_chain(self, key: tuple, entry: tuple) -> None:
        self.chains[key] = entry   # a key stored before keeps its place, so it is moved
        self.chains.move_to_end(key)
        if len(self.chains) > CHAIN_MEMO:
            self.chains.popitem(last=False)


@dataclass(frozen=True)
class StationaryPath:
    """Index-addressed view of one realized driver sequence.

    ``sample_at(n)`` is a pure function of ``(spec, n)``, so the shift of
    the sequence by ``k`` is the same path read at ``n + k``. The path is
    frozen, so ``spec`` cannot change under its memos (one ``_PathMemo``).
    On a miss, ``block`` generates the request's aligned cover, the whole
    pages of ``_CHAIN_BLOCK`` indices (on a Markov path, chain blocks) it
    touches, and serves later windows inside it as views, so short reads
    near one index, such as ``coupling.cftp``'s horizons at neighbouring
    targets, share one generation. A read of no indices touches no memo.
    """

    spec: SequenceSpec
    _memo: _PathMemo = field(default_factory=_PathMemo, init=False, repr=False, compare=False)

    def sample_at(self, n: int) -> DriverSample:
        """The triple at index ``n``: read from the cover on a hit, otherwise
        generated alone, leaving the memo as it is."""
        n = operator.index(n)
        memo = self._memo.cover
        if memo is not None and 0 <= n - memo[0] < len(memo[1].tau):
            blk, i = memo[1], n - memo[0]
        else:
            blk, i = self._generate(n, 1), 0
        return DriverSample(float(blk.tau[i]), float(blk.sigma[i]), float(blk.patience[i]))

    def block(self, start: int, count: int) -> DriverBlock:
        """Driver triples for indices ``start .. start+count-1`` as read-only arrays."""
        start, count = operator.index(start), operator.index(count)
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:   # read-only empty arrays; the memo stays as it is
            return DriverBlock(*(np.frombuffer(b"") for _ in range(3)))
        memo = self._memo.cover
        if memo is None or not (0 <= start - memo[0] <= len(memo[1].tau) - count):
            lo = start - start % _CHAIN_BLOCK
            hi = start + count + (-(start + count)) % _CHAIN_BLOCK
            cover = self._generate(lo, hi - lo)
            for a in cover:
                a.setflags(write=False)
            memo = self._memo.cover = (lo, cover)
            self._memo.pages = {}   # the old cover's page lists go with it
        i, (tau, sigma, patience) = start - memo[0], memo[1]
        return DriverBlock(tau[i : i + count], sigma[i : i + count], patience[i : i + count])

    def _generate(self, start: int, count: int) -> DriverBlock:
        """Driver triples for ``start .. start+count-1``, drawn and sampled
        ``_COVER_GROUP`` pages at a time into the three preallocated
        columns, so only one group's uniforms and sampler outputs are alive
        at once. A column whose law is equal in every state (the same law by
        value), as every column of an unmodulated path is, samples the
        group's uniforms whole. A Markov-modulated path with some column that
        differs builds its chain states first, before the columns are
        allocated, and takes one index list per state and group; each such
        column's laws then sample their own indices into the uniforms'
        array, one gather, one sampler output and one scatter a state. The
        samplers act index by index, so the bits do not depend on the groups
        or the lists."""
        laws = self.spec.laws
        shared = [all(law[c] == laws[0][c] for law in laws) for c in range(3)]
        states = None if all(shared) else self._states(start, count)
        cols, size = [np.empty(count) for _ in range(3)], _COVER_GROUP * _CHAIN_BLOCK
        for g in range(0, count, size):
            m = min(size, count - g)
            at = None if states is None else [np.flatnonzero(states[g : g + m] == s) for s in range(len(laws))]
            for c, stream in enumerate((STREAM_TAU, STREAM_SIGMA, STREAM_PATIENCE)):
                u = stream_uniforms(self.spec.seed, stream, start + g, m)
                if shared[c]:
                    u = laws[0][c].sample(u)
                else:
                    for law, i in zip(laws, at):
                        u[i] = law[c].sample(u[i])
                cols[c][g : g + m] = u
        return DriverBlock(*cols)

    def lattice_block(self, start: int, count: int) -> DriverBlock:
        """``block`` with tau and sigma as int64 multiples of alpha (patience
        stays float64), for exact-arithmetic consumers, read off ``block``'s
        page memo: a float value ``fl(k * alpha)`` over ``alpha`` rounds back
        to ``k`` for every ``k`` below 2^51."""
        if not self.spec.is_lattice:
            raise ConfigurationError("lattice_block requires a lattice-model spec")
        blk = self.block(start, count)
        alpha = self.spec.alpha
        return DriverBlock(np.rint(blk.tau / alpha).astype(np.int64),
                           np.rint(blk.sigma / alpha).astype(np.int64), blk.patience)

    # -- modulating chain ---------------------------------------------------

    def _states(self, start: int, count: int) -> np.ndarray:
        """Chain states for indices ``start .. start+count-1``.

        The chain is a grand coupling: the uniform at each index fixes a
        jump map on ``{0..m-1}``, the state entered from every state (looked
        up per cell of the transition rows, see ``_chain_tables``), and the
        chain applies these maps in turn. The state at an index is the
        constant value of the backward composition of the maps ending there
        (coupling from the past, Propp & Wilson 1996): once some composition
        is constant every longer one is the same constant, so each state is
        exactly stationary and a pure function of ``(spec, index)``.

        The states are one pass (``_chain_run``) over the chain blocks of
        ``_CHAIN_BLOCK`` indices the window touches (for ``block``, its
        cover's pages), sliced to the window. ``count`` is at least 1.
        """
        first, lo = divmod(start, _CHAIN_BLOCK)
        return self._chain_run(first, (start + count - 1) // _CHAIN_BLOCK + 1)[lo : lo + count]

    def _chain_run(self, first: int, stop: int) -> np.ndarray:
        """The states of chain blocks ``first .. stop-1``, in one linear pass.

        The modulation uniforms are drawn once, from the first block's
        look-back window to the run's end. Each block keeps its own
        certificate: its window, the ``_BACK_START`` maps ending at its
        start, is mapped to its cells and composed (``_fold``, every window
        at once); a block whose window composes to a constant, as one
        holding a constant map does, has coalesced, and any other runs the
        doubling look-back (``_look_back``). The blocks are checked in order
        before any is built, so a run is refused as a read of its first
        refused block alone is.

        Only the maps that move some state are composed. A uniform takes
        the identity exactly when it lies in every state's stay interval,
        their intersection (``_chain_tables``' ``stay``), so two compares
        find the moves, and only their uniforms are mapped to cells (on a dense
        chain the interval is empty and every uniform is). Prefix scans
        (``_prefix_compose``) in pieces of at most ``_CHAIN_BLOCK`` maps,
        each read at the state where the last one ended, give the state
        after every move, and one ``np.repeat`` holds it until the next,
        both in the smallest unsigned dtype that holds a state. The pass
        starts before the first window, at a state from which that window
        reaches the first block's certified state. Only integer gathers run,
        so every state equals the one the chain stepped index by index from
        the coalesced state reaches, bit for bit.
        """
        spec = self.spec
        edges, cell_maps, (stay_lo, stay_hi) = _chain_tables(spec.modulation)
        m = cell_maps.shape[1]
        lo = first * _CHAIN_BLOCK + 1 - _BACK_START
        n = stop * _CHAIN_BLOCK - lo
        u = stream_uniforms(spec.seed, STREAM_MODULATION, lo, n)
        # the composition of each block's window, the _BACK_START maps ending at its start
        window = np.arange(stop - first)[:, None] * _CHAIN_BLOCK + np.arange(_BACK_START)
        windows = _fold(np.take(cell_maps, np.searchsorted(edges, np.take(u, window), side="right"), axis=0))
        state = 0
        for k in np.flatnonzero((windows != windows[:, :1]).any(axis=1)).tolist():
            before = _look_back(spec, first + k, windows[k])
            if k == 0:
                state = before
        moving = np.less(u, stay_lo)
        moving |= u >= stay_hi
        moves = np.flatnonzero(moving)
        cells = np.searchsorted(edges, u[moving], side="right")
        del u, moving
        after = np.empty(len(moves) + 1, dtype=np.min_scalar_type(m - 1))
        after[0] = state
        for a in range(0, len(moves), _CHAIN_BLOCK):
            piece = np.take(cell_maps, cells[a : a + _CHAIN_BLOCK], axis=0)
            after[a + 1 : a + 1 + len(piece)] = _prefix_compose(piece)[:, state]
            state = after[a + len(piece)]
        return np.repeat(after, np.diff(moves, prepend=0, append=n))[_BACK_START - 1 :]


@functools.lru_cache(maxsize=64)
def _chain_tables(mod: ModulationSpec) -> tuple[np.ndarray, np.ndarray, tuple[float, float]]:
    """Per-spec constants of the modulating chain, read off its cumulative
    transition rows ``cum`` (each ending on exactly 1.0).

    Returns the sorted distinct entries ``edges`` of ``cum``, the jump map
    ``cell_maps[k]`` taken by a uniform in cell ``k`` (``[edges[k-1],
    edges[k])``, with cell 0 below ``edges[0]``), and the stay interval
    ``stay = (lo, hi)``, the uniforms ``[lo, hi)`` whose jump map is the
    identity.

    A row's inverse-CDF search compares the uniform only with that row's
    entries, none of which lies inside a cell, so every uniform in a cell
    takes the cell's map exactly. Row ``s``'s search keeps state ``s``
    exactly when ``cum[s, s-1] <= u < cum[s, s]``, with ``cum[0, -1]`` read
    as 0 and the last state's upper end unbounded (the search is clipped to
    it). The identity keeps every state, so its uniforms are the
    intersection ``[max_s cum[s, s-1], min_s cum[s, s])``: empty (``lo >=
    hi``) on a chain where every map moves a state.
    """
    cum = np.cumsum(np.asarray(mod.transition, dtype=np.float64), axis=1)
    cum[:, -1] = 1.0
    m = len(cum)
    flat = np.sort(cum, axis=None)  # np.unique would import numpy.ma
    edges = flat[np.concatenate(([True], flat[1:] != flat[:-1]))]
    cell_maps = np.zeros((len(edges) + 1, m), dtype=np.int64)
    for s in range(m):
        cell_maps[1:, s] = np.minimum(np.searchsorted(cum[s], edges, side="right"), m - 1)
    for table in (edges, cell_maps):
        table.setflags(write=False)
    stay = float(np.diagonal(cum, -1).max(initial=0.0)), float(np.diagonal(cum)[:-1].min(initial=np.inf))
    return edges, cell_maps, stay


def _jump_maps(spec: SequenceSpec, start: int, count: int) -> np.ndarray:
    """The ``(count, m)`` jump maps of the chain at indices ``start ..
    start+count-1``, each chosen by the uniform at its index."""
    edges, cell_maps, _ = _chain_tables(spec.modulation)
    u = stream_uniforms(spec.seed, STREAM_MODULATION, start, count)
    return np.take(cell_maps, np.searchsorted(edges, u, side="right"), axis=0)


def _look_back(spec: SequenceSpec, b: int, window: np.ndarray) -> int:
    """The doubling look-back of chain block ``b``.

    It looks back ``back`` maps from the block start, ``_BACK_START`` at
    first and doubling: ``window`` composes the first ``_BACK_START`` of
    them, and each deeper try folds only the maps it adds (``_compose``)
    into ``deeper``, the composition of the look-back before the window.
    Once ``window`` read at ``deeper`` is constant, the block's start state
    is that constant, and ``deeper[0]`` is returned: a state at index
    ``b*BLOCK - _BACK_START`` from which the window's maps reach it. Memory
    stays bounded whatever the look-back. Past ``_BACK_CAP`` maps the block
    is refused with ``ResourceCapError``.
    """
    start = b * _CHAIN_BLOCK
    deeper = np.arange(spec.modulation.n_states())
    back = _BACK_START
    while back <= _BACK_CAP:
        if back > _BACK_START:
            deeper = deeper[_compose(spec, start + 1 - back, start + 1 - back // 2)]
        at_start = window[deeper]
        if (at_start == at_start[0]).all():
            return int(deeper[0])
        back *= 2
    raise ResourceCapError(
        f"modulating chain {spec.modulation.transition} did not coalesce before "
        f"chain block {b} (indices {start}..{start + _CHAIN_BLOCK - 1})",
        _BACK_CAP, back)


def _compose(spec: SequenceSpec, lo: int, hi: int) -> np.ndarray:
    """The composition ``f(hi-1) o ... o f(lo)`` of the chain's jump maps.

    Each piece of at most ``_PIECE`` maps folds pairwise (``_fold``); the
    pieces then compose in order.
    """
    out = np.arange(spec.modulation.n_states())
    for a in range(lo, hi, _PIECE):
        out = _fold(_jump_maps(spec, a, min(_PIECE, hi - a)))[out]
    return out


def _fold(maps: np.ndarray) -> np.ndarray:
    """The composition ``maps[..., -1, :] o ... o maps[..., 0, :]`` of each
    non-empty stack of ``n`` maps in a ``(..., n, m)`` array: the later map
    of each pair composed onto the earlier by one flat gather, halving every
    stack per pass."""
    *outer, n, m = maps.shape
    maps = maps.reshape(-1, n, m)
    while n > 1:
        half = n // 2
        pairs = maps[:, : 2 * half].reshape(-1, half, 2 * m)
        top = np.take(pairs, pairs[..., :m] + np.arange(m, pairs.size, 2 * m).reshape(-1, half, 1))
        maps = np.concatenate((top, maps[:, 2 * half :]), axis=1)
        n = maps.shape[1]
    return maps.reshape(*outer, m)


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
