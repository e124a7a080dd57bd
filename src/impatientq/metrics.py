"""Loss-probability estimation and the stationary bound report.

The loss probability is the long-run fraction of arrivals whose deadline
expires before service can start, equivalently the stationary frequency of
the least workload exceeding the patience. It is sandwiched by the same
functional evaluated at the lower and upper stationary envelopes, and from
above again by the top backward supremum:

    P(lower(1) > D)  <=  P_loss  <=  P(upper(1) > D)  <=  P(Z_top > D)

The exact workload and both envelopes start from ``coupling.cftp`` of
their kind (an envelope's sample is its backward limit), each as deep as
its own certificate needs, so the report has no depth or warm-up to
configure: every sampled index is stationary. The top supremum is the
upper envelope's top coordinate, shifted to lag S by a delay line.

Confidence intervals use batch means (the driver sequence may be
dependent) over a fixed 30 batches, so the Student-t quantile is one
constant. The batch length grows with the sample size; the count does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .coupling import _envelope_estimate, cftp
from .errors import ContractError
from .loynes import Z_RISK, certified_supremum, sandwich_states
from .sequences import _CHAIN_BLOCK, _COVER_GROUP, StationaryPath

BATCHES = 30
T_975 = 2.0452296421327025   # Student's t at 0.975 on BATCHES - 1 = 29 degrees of freedom
# A bound report's window rolls in chunks of ROLL_PAGES pages (2^17 samples)
# and its statistics take GROUP samples, a driver cover's page group, at once.
# Each chunk's lane roll runs about 256 lockstep steps whatever its length, so
# short chunks cost: a 10^5-sample report in chunks of 16 and 8 pages ran 28 %
# and 81 % slower.
ROLL_PAGES = 32
GROUP = _COVER_GROUP * _CHAIN_BLOCK


@dataclass(frozen=True)
class ProbabilityEstimate:
    probability: float
    half_width: float
    n: int

    def __repr__(self):
        return f"{self.probability:.6g} ± {self.half_width:.2g} (n={self.n})"


def batch_means(x: np.ndarray) -> ProbabilityEstimate:
    """Frequency of the bool indicators ``x`` with a 95% half-width from
    ``BATCHES`` non-overlapping batch means.

    The indicators are counted as they are (``np.count_nonzero``), without a
    float64 copy; any other dtype, or fewer than ``BATCHES`` indicators, is
    refused (``ValueError``).
    """
    x = np.asarray(x)
    if x.dtype != np.bool_:
        raise ValueError(f"need bool indicators, got dtype {x.dtype}")
    n = x.size
    if n < BATCHES:
        raise ValueError(f"need at least {BATCHES} observations, got {n}")
    per = n // BATCHES
    return _estimate(np.count_nonzero(x[: per * BATCHES].reshape(BATCHES, per), axis=1), np.count_nonzero(x), n)


def _estimate(counts: np.ndarray, total: int, n: int) -> ProbabilityEstimate:
    """``batch_means`` of ``n`` indicators from their true counts: ``counts``
    in each of the ``BATCHES`` batches of ``n // BATCHES``, ``total`` in all."""
    means = counts / (n // BATCHES)
    spread = float(means.std(ddof=1))
    return ProbabilityEstimate(float(total / n), T_975 * spread / math.sqrt(BATCHES), n)


def loss_probability(losses: np.ndarray) -> ProbabilityEstimate:
    """Fraction of lost arrivals, from their bool loss indicators, with a
    batch-means interval (``batch_means``)."""
    return batch_means(losses)


# ---------------------------------------------------------------------------
# Sandwich bound report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    p_lower: ProbabilityEstimate   # P(lower envelope first coordinate > patience)
    p_loss: ProbabilityEstimate    # P(workload first coordinate > patience)
    p_upper: ProbabilityEstimate   # P(upper envelope first coordinate > patience)
    p_z: ProbabilityEstimate       # P(top backward supremum > patience)
    n_samples: int
    # The three flags always read true, as an open chain or an uncertified
    # box is refused; perfbench's sandwich check reads them (ROADMAP item 1b).
    lower_stabilized: bool
    upper_stabilized: bool
    z_stabilized: bool
    # per-index columns (lower1, W1, upper1, z_top, patience, loss), optional;
    # z_top is the clipped lag-S supremum, the certified read at its index
    samples: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    # Always true, as out-of-order indicators are refused; perfbench's sandwich check reads it (ROADMAP item 1b).
    @property
    def ordering_ok(self) -> bool:
        """Sandwich ordering within the summed adjacent half-widths."""
        chain = (self.p_lower, self.p_loss, self.p_upper, self.p_z)
        return all(
            a.probability <= b.probability + a.half_width + b.half_width
            for a, b in zip(chain, chain[1:])
        )


def bound_report(path: StationaryPath, servers: int, n_samples: int, at: int = 0,
                 keep_samples: bool = False, max_horizon: int = 1 << 20) -> BoundReport:
    """Estimate the four sandwich probabilities over stationary indices.

    Every sampled state is stationary by construction. ``coupling.cftp``
    gives the exact workload at ``at``, bit for bit, and of the envelope
    kinds the backward limits there that both envelopes start from; the
    three recursions roll forward over the window, the exact one in its
    path's arithmetic (``loynes.sandwich_states``). z_top shifts the upper
    rows' top coordinate, the lag-1 supremum, to lag S by the delay line of
    the certified read (on a lattice path, the reported float columns are
    held on their sides of W1, and z_top above upper1). The report refuses
    (``ContractError``) when a chain does not coalesce, naming the kind, the
    index and the horizon, since no start from an arbitrary state is
    stationary, or when the four loss indicators are out of order at a
    sample; an infinite top supremum leaves no box to couple from, and
    ``cftp`` refuses it (``ConfigurationError``). ``max_horizon`` caps the
    exact ``cftp`` call. The intervals are batch means over ``BATCHES``
    = 30 batches, so fewer than 30 samples are refused up front.

    Apart from the kept ``samples``, the memory held does not grow with
    the window past ``ROLL_PAGES`` pages. A longer window rolls in chunks whose seams lie on the multiples
    of that many pages, each chunk from the rows its predecessor rolled at
    the seam, so the rows are the one-call roll's bit for bit (the roll is
    a pure function of its start and drivers), and each chunk's drivers are
    one cover of its own pages. Within a chunk the statistics take
    ``GROUP`` samples at a time (``_Tally``).
    """
    if n_samples < BATCHES:
        raise ValueError(f"n_samples ({n_samples}) must be at least the {BATCHES} batches")
    end, chunk = at + n_samples, ROLL_PAGES * _CHAIN_BLOCK
    seams = [at, *(range(at - at % chunk + chunk, end, chunk) if n_samples > chunk else ()), end]
    # Read first, the certified supremum covers the first chunk too, so the
    # page cover it leaves in the path's memo serves that chunk's roll and,
    # unless their deeper reads cross a page boundary, the coupling box and
    # estimates.
    zb = certified_supremum(path, at, servers, seams[1] - at)
    anchor = cftp(path, servers, at, max_horizon)
    if not anchor.coalesced:
        raise ContractError(f"cftp did not coalesce at index {at} by horizon {anchor.horizon_used}")
    lower, upper = (_envelope_estimate(path, servers, at, kind) for kind in ("lower", "upper"))
    rows, tally = (anchor.value, lower.value, upper.value), None
    for lo, hi in zip(seams, seams[1:]):
        blk = path.block(lo, hi - lo)   # the chunk's drivers, and the roll's inside them
        # A chunk before the last rolls on to the seam's rows, which the next one starts from.
        states = sandwich_states(path, lo, hi - lo - (hi == end), *rows)
        rows = states[:, -1].tolist()
        tally = tally or _Tally(path, servers, n_samples, at, zb, keep_samples)   # after the first roll's peak
        for g in range(0, hi - lo, GROUP):
            stop = min(g + GROUP, hi - lo)
            tally.add(lo - at + g, states[:, g:stop], blk.tau[g:stop], blk.patience[g:stop])
        del blk, states   # before the next chunk's cover and rows are made
    return BoundReport(*(_estimate(np.array(c[:BATCHES]), sum(c), n_samples) for c in tally.counts),  # p_lower .. p_z
                       n_samples=n_samples, lower_stabilized=lower.coalesced, upper_stabilized=upper.coalesced,
                       z_stabilized=zb.risk <= Z_RISK, samples=tally.samples)


class _Tally:
    """The statistics of one ``bound_report``, formed ``GROUP`` samples at a
    time: the delay line, the four loss indicators, their order and their
    true count in each batch, with the ``samples`` rows when they are kept.
    The delay line's lags carry from one group to the next, so every column
    is the one a single group over the window would give, bit for bit."""

    def __init__(self, path: StationaryPath, servers: int, n: int, at: int, zb, keep: bool):
        self.at, self.per, self.lattice = at, n // BATCHES, path.spec.is_lattice
        # Lags 2 .. S of z_top at the next sample; at ``at``, the certified read's.
        self.lags = list(zb.values[-2::-1])
        # Each indicator's count per batch, and past the last batch.
        self.counts = [[0] * (BATCHES + 1) for _ in range(4)]
        size = min(GROUP, n)
        self.inds, self.worse = np.empty((4, size), dtype=bool), np.empty(size, dtype=bool)
        self.line = [np.empty(size) for _ in range(min(servers - 1, 2))]
        self.samples = np.empty((n, 6)) if keep else None

    def add(self, i: int, states: np.ndarray, tau: np.ndarray, patience: np.ndarray) -> None:
        """Samples ``i .. i+m-1`` of the window: their exact, lower and upper
        rows ``states`` (``sandwich_states``' layout) and their drivers."""
        m = len(tau)
        # lag 1; lag l+1 at t+1 is [lag l at t - tau_t]+. The lags alternate
        # between two preallocated arrays.
        z_top = states[2, :, -1]
        for lag, start in enumerate(self.lags):
            shifted = self.line[lag % 2][:m]
            np.subtract(z_top[:-1], tau[:-1], out=shifted[1:])
            np.maximum(shifted[1:], 0.0, out=shifted[1:])
            shifted[0], self.lags[lag] = start, np.maximum(z_top[-1] - tau[-1], 0.0)
            z_top = shifted
        lower1, w1, upper1 = states[1, :, 0], states[0, :, 0], states[2, :, 0]
        if self.lattice:
            lower1, upper1 = np.minimum(lower1, w1), np.maximum(upper1, w1)
            z_top = np.maximum(z_top, upper1)
        cols = (lower1, w1, upper1, z_top, patience)
        # The sandwich holds pointwise: lower_ind <= loss_ind <= upper_ind <= z_ind.
        inds, worse = self.inds[:, :m], self.worse[:m]
        for ind, col in zip(inds, cols):
            np.greater(col, patience, out=ind)
        bad = [int(worse.argmax()) for a, b in zip(inds, inds[1:]) if np.greater(a, b, out=worse).any()]
        if bad:
            j = min(bad)
            got = (float(col[j]) for col in cols)
            raise ContractError("loss indicators out of order at sample {} (index {}): lower1 {!r}, W1 {!r}, "
                                "upper1 {!r}, z_top {!r}, patience {!r}".format(i + j, self.at + i + j, *got))
        if self.samples is not None:
            rows = self.samples[i : i + m]
            for k, col in enumerate(cols):
                rows[:, k] = col
            rows[:, 5] = inds[1]
        # Each batch the group meets counts its piece of the group; the samples
        # past the last batch count in the extra column.
        ends = [*range(i - i % self.per + self.per, i + m, self.per), i + m]
        for a, b in zip([i, *ends], ends):
            batch = min(a // self.per, BATCHES)
            for counts, ind in zip(self.counts, inds):
                counts[batch] += np.count_nonzero(ind[a - i : b - i])
