"""Loss-probability estimation and the stationary bound report.

The loss probability is the long-run fraction of arrivals whose deadline
expires before service can start, equivalently the stationary frequency of
the least workload exceeding the patience. It is sandwiched by the same
functional evaluated at the lower and upper stationary envelopes, and from
above again by the top backward supremum:

    P(lower(1) > D)  <=  P_loss  <=  P(upper(1) > D)  <=  P(Z_top > D)

The envelopes start from their backward limits and the top supremum from
its certified read, each as deep as its own certificate needs, so the
report has no depth to configure.

Confidence intervals use batch means (the driver sequence may be
dependent), with a Student-t quantile on the batch count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np
from scipy import stats as _stats

from .des import ArrivalRecord
from .loynes import (
    certified_supremum,
    envelope_states,
    exact_states,
    stationary_estimate,
    top_supremum_series,
)
from .sequences import StationaryPath

DEFAULT_BATCHES = 30


@dataclass(frozen=True)
class ProbabilityEstimate:
    probability: float
    half_width: float
    n: int

    def __repr__(self):
        return f"{self.probability:.6g} ± {self.half_width:.2g} (n={self.n})"


def batch_means(x: np.ndarray, n_batches: int = DEFAULT_BATCHES) -> ProbabilityEstimate:
    """Mean with a 95% half-width from non-overlapping batch means."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n < n_batches:
        raise ValueError(f"need at least {n_batches} observations, got {n}")
    per = n // n_batches
    means = x[: per * n_batches].reshape(n_batches, per).mean(axis=1)
    spread = float(means.std(ddof=1))
    t_quantile = float(_stats.t.ppf(0.975, n_batches - 1))
    return ProbabilityEstimate(float(x.mean()), t_quantile * spread / math.sqrt(n_batches), n)


def loss_probability(trace: Union[Sequence[ArrivalRecord], np.ndarray],
                     n_batches: int = DEFAULT_BATCHES) -> ProbabilityEstimate:
    """Fraction of lost arrivals in a trace, with a batch-means interval."""
    if isinstance(trace, np.ndarray):
        losses = trace.astype(np.float64)
    else:
        if len(trace) < 1:
            raise ValueError("trace must contain at least one arrival")
        losses = np.fromiter((r.loss for r in trace), dtype=np.float64, count=len(trace))
    if losses.size < n_batches:
        # Short traces: fall back to a plain binomial interval.
        p = float(losses.mean())
        hw = 1.96 * math.sqrt(p * (1 - p) / losses.size)
        return ProbabilityEstimate(p, hw, int(losses.size))
    return batch_means(losses, n_batches)


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
    warmup: int
    lower_stabilized: bool
    upper_stabilized: bool
    z_stabilized: bool
    # per-index columns (lower1, W1, upper1, z_top, patience, loss), optional
    samples: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @property
    def ordering_ok(self) -> bool:
        """Sandwich ordering within the summed adjacent half-widths."""
        chain = (self.p_lower, self.p_loss, self.p_upper, self.p_z)
        return all(
            a.probability <= b.probability + a.half_width + b.half_width
            for a, b in zip(chain, chain[1:])
        )


def bound_report(path: StationaryPath, servers: int, n_samples: int, at: int = 0,
                 warmup: int = 10_000, n_batches: int = DEFAULT_BATCHES,
                 keep_samples: bool = False) -> BoundReport:
    """Estimate the four sandwich probabilities over stationary indices.

    The workload itself runs from empty starting ``warmup`` indices before
    the sampling window (renovation erases the start); both envelopes roll
    forward from their backward limits; the top supremum, read to the depth
    its certificate needs, rolls its own one-dimensional recursion.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    # The exact roll reads the widest driver window, so the path's window
    # memo serves every later read while warmup covers the deepest one: an
    # estimate's horizon plus the depth of its certified box.
    states, accepted = exact_states(path, at - warmup, warmup + n_samples, (0.0,) * servers)
    patience = path.block(at, n_samples).patience
    loss_ind = ~accepted[warmup : warmup + n_samples]
    w_first = states[warmup : warmup + n_samples, 0]

    lower = stationary_estimate(path, at, "lower", servers)
    lower_states = envelope_states(path, at, n_samples - 1, lower.vector, "lower")
    lower_ind = lower_states[:, 0] > patience

    upper = stationary_estimate(path, at, "upper", servers)
    upper_states = envelope_states(path, at, n_samples - 1, upper.vector, "upper")
    upper_ind = upper_states[:, 0] > patience

    zb = certified_supremum(path, at, "upper", servers)
    z_top = top_supremum_series(path, at, n_samples, zb.horizon, servers)
    z_ind = z_top > patience

    samples = None
    if keep_samples:
        samples = np.column_stack([
            lower_states[:, 0], w_first, upper_states[:, 0], z_top, patience,
            loss_ind.astype(np.float64),
        ])
    return BoundReport(
        p_lower=batch_means(lower_ind, n_batches),
        p_loss=batch_means(loss_ind, n_batches),
        p_upper=batch_means(upper_ind, n_batches),
        p_z=batch_means(z_ind, n_batches),
        n_samples=n_samples,
        warmup=warmup,
        lower_stabilized=lower.stabilized,
        upper_stabilized=upper.stabilized,
        z_stabilized=zb.stabilized,
        samples=samples,
    )


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
