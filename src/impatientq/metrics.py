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
from .sequences import StationaryPath

BATCHES = 30
T_975 = 2.0452296421327025   # Student's t at 0.975 on BATCHES - 1 = 29 degrees of freedom


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
    means = np.count_nonzero(x[: per * BATCHES].reshape(BATCHES, per), axis=1) / per
    spread = float(means.std(ddof=1))
    return ProbabilityEstimate(float(np.count_nonzero(x) / n), T_975 * spread / math.sqrt(BATCHES), n)


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
    """
    if n_samples < BATCHES:
        raise ValueError(f"n_samples ({n_samples}) must be at least the {BATCHES} batches")
    # Read first, the certified supremum covers the window too, so the page
    # cover it leaves in the path's memo serves the rolls and, unless their
    # deeper reads cross a page boundary, the coupling box and estimates.
    zb = certified_supremum(path, at, servers, n_samples)
    anchor = cftp(path, servers, at, max_horizon)
    if not anchor.coalesced:
        raise ContractError(f"cftp did not coalesce at index {at} by horizon {anchor.horizon_used}")
    lower, upper = (_envelope_estimate(path, servers, at, kind) for kind in ("lower", "upper"))
    exact, lower_states, upper_states = sandwich_states(path, at, n_samples - 1, anchor.value,
                                                        lower.value, upper.value)
    blk = path.block(at, n_samples)
    # lag 1; lag l+1 at t+1 is [lag l at t - tau_t]+, at ``at`` zb's. The
    # lags alternate between two preallocated arrays.
    z_top = upper_states[:, -1]
    line = [np.empty(n_samples) for _ in range(min(servers - 1, 2))]
    for lag, start in enumerate(zb.values[-2::-1]):
        shifted = line[lag % 2]
        np.subtract(z_top[:-1], blk.tau[:-1], out=shifted[1:])
        np.maximum(shifted[1:], 0.0, out=shifted[1:])
        shifted[0], z_top = start, shifted
    lower1, w1, upper1 = lower_states[:, 0], exact[:, 0], upper_states[:, 0]
    if path.spec.is_lattice:
        lower1, upper1 = np.minimum(lower1, w1), np.maximum(upper1, w1)
        z_top = np.maximum(z_top, upper1)
    cols = (lower1, w1, upper1, z_top, blk.patience)
    # The sandwich holds pointwise: lower_ind <= loss_ind <= upper_ind <= z_ind.
    inds, worse = np.empty((4, n_samples), dtype=bool), np.empty(n_samples, dtype=bool)
    for ind, col in zip(inds, cols):
        np.greater(col, blk.patience, out=ind)
    bad = [int(worse.argmax()) for a, b in zip(inds, inds[1:]) if np.greater(a, b, out=worse).any()]
    if bad:
        i = min(bad)
        got = (float(col[i]) for col in cols)
        raise ContractError("loss indicators out of order at sample {} (index {}): lower1 {!r}, W1 {!r}, "
                            "upper1 {!r}, z_top {!r}, patience {!r}".format(i, at + i, *got))
    samples = np.column_stack([*cols, inds[1].astype(np.float64)]) if keep_samples else None
    return BoundReport(*(batch_means(ind) for ind in inds), n_samples=n_samples,   # p_lower .. p_z
                       lower_stabilized=lower.coalesced, upper_stabilized=upper.coalesced,
                       z_stabilized=zb.risk <= Z_RISK, samples=samples)
