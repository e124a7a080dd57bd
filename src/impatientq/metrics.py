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
dependent), with a Student-t quantile on the batch count. The quantile
needs only ``math``: Hill's closed form (CACM Algorithm 396, 1970) starts
Halley steps (Newton with a curvature term) on the t tail, written as a
regularized incomplete beta whose continued fraction is evaluated by the
modified Lentz method. The tests hold it to 1e-12 relative of a
reference library quantile at q = 0.975 for df 1-1000, 1e4 and 1e6 (it
comes within 4e-15 there) and on a grid of levels from 1e-6 to 1 - 1e-6.

The module also estimates the frequencies of the sufficient stability
conditions (``estimate_conditions``), with binomial intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .coupling import CftpResult, _envelope_estimate, cftp, detect_renovation
from .errors import ContractError
from .loynes import certified_supremum, envelope_states, sandwich_states
from .sequences import StationaryPath

DEFAULT_BATCHES = 30


@dataclass(frozen=True)
class ProbabilityEstimate:
    probability: float
    half_width: float
    n: int

    @classmethod
    def binomial(cls, hits: float, n: int) -> ProbabilityEstimate:
        """Frequency of ``hits`` in ``n`` trials with a 95% normal-approximation
        binomial half-width (for independent trials or short samples)."""
        p = hits / n
        return cls(p, 1.96 * math.sqrt(p * (1.0 - p) / n), n)

    def __repr__(self):
        return f"{self.probability:.6g} ± {self.half_width:.2g} (n={self.n})"


def batch_means(x: np.ndarray, n_batches: int = DEFAULT_BATCHES) -> ProbabilityEstimate:
    """Mean with a 95% half-width from non-overlapping batch means."""
    if n_batches < 2:
        raise ValueError(f"batch means need at least 2 batches, got {n_batches}")
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n < n_batches:
        raise ValueError(f"need at least {n_batches} observations, got {n}")
    per = n // n_batches
    means = x[: per * n_batches].reshape(n_batches, per).mean(axis=1)
    spread = float(means.std(ddof=1))
    return ProbabilityEstimate(float(x.mean()),
                               t_quantile(0.975, n_batches - 1) * spread / math.sqrt(n_batches), n)


def loss_probability(losses: np.ndarray, n_batches: int = DEFAULT_BATCHES) -> ProbabilityEstimate:
    """Fraction of lost arrivals, from their loss indicators, with a batch-means interval."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size < 1:
        raise ValueError("trace must contain at least one arrival")
    if losses.size < n_batches:
        # Short traces: fall back to a plain binomial interval.
        return ProbabilityEstimate.binomial(float(losses.sum()), int(losses.size))
    return batch_means(losses, n_batches)


# ---------------------------------------------------------------------------
# Student-t quantile
# ---------------------------------------------------------------------------


_HALF_LOG_PI = 0.5 * math.log(math.pi)


def t_quantile(q: float, df: float) -> float:
    """Quantile at level ``q`` of Student's t with ``df >= 1`` degrees of freedom.

    Hill's Algorithm 396 gives a start within about 1e-3 relative; Halley
    steps on the upper tail then run until a step moves ``t`` by less than
    1e-6 relative. Convergence is cubic, so what is left is the rounding
    of the tail itself (about 1e-15 relative), not the iteration's.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {q}")
    if not df >= 1.0:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if q == 0.5:
        return 0.0
    # Past 1e20 the t quantile equals the normal one to double precision.
    df = min(df, 1e20)
    p = min(q, 1.0 - q)          # upper-tail probability of |t|; 1 - q is exact for q >= 1/2
    t = _hill(2.0 * p, df)
    for _ in range(8):
        step = (_t_tail(t, df) - p) / _t_density(t, df)
        step /= 1.0 - 0.5 * step * t * (df + 1.0) / (df + t * t)
        t += step
        if abs(step) <= 1e-6 * t:
            return t if q > 0.5 else -t
    raise ArithmeticError(f"t quantile at q={q}, df={df} did not converge")


def _hill(p: float, n: float) -> float:
    """Hill (1970), CACM Algorithm 396: |t| with two-tailed probability ``p``
    (exact for n = 1 and 2)."""
    if n == 1.0:
        return 1.0 / math.tan(0.5 * math.pi * p)
    if n == 2.0:
        return math.sqrt(2.0 / (p * (2.0 - p)) - 2.0)
    a = 1.0 / (n - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(0.5 * math.pi * a) * n
    y = (d * p) ** (2.0 / n)
    if y > 0.05 + a:
        # asymptotic expansion around the normal deviate
        x = _normal_upper(0.5 * p)
        y = x * x
        if n < 5.0:
            c += 0.3 * (n - 4.5) * (x + 0.6)
        c = (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b + c
        y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b + 1.0) * x
        y = math.expm1(a * y * y)
    else:
        y = ((1.0 / (((n + 6.0) / (n * y) - 0.089 * d - 0.822) * (n + 2.0) * 3.0)
              + 0.5 / (n + 4.0)) * y - 1.0) * (n + 1.0) / (n + 2.0) + 1.0 / y
    return math.sqrt(n * y)


def _normal_upper(p: float) -> float:
    """Normal deviate with upper tail ``p <= 1/2`` (Abramowitz & Stegun
    26.2.23, absolute error below 4.5e-4): only a start for ``_hill``."""
    t = math.sqrt(-2.0 * math.log(p))
    return t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))


def _t_tail(t: float, df: float) -> float:
    """P(T > t) for t > 0: half the regularized incomplete beta I_x(df/2, 1/2)
    at x = df / (df + t^2), taken directly for t >= 1 and as the
    complement of I_(1-x)(1/2, df/2) below, where both fractions are
    short and well conditioned."""
    a, t2 = 0.5 * df, t * t
    x, y = df / (df + t2), t2 / (df + t2)
    # x^a y^(1/2) / B(a, 1/2), with log1p keeping x^a exact when x is near 1
    front = math.exp(_log_gamma_ratio(a) - _HALF_LOG_PI - a * math.log1p(t2 / df)
                     + 0.5 * math.log(y))
    if t2 >= 1.0:
        return 0.5 * front * _beta_fraction(a, 0.5, x, y) / a
    return 0.5 - front * _beta_fraction(0.5, a, y, x)


def _t_density(t: float, df: float) -> float:
    return math.exp(_log_gamma_ratio(0.5 * df) - _HALF_LOG_PI - 0.5 * math.log(df)
                    - 0.5 * (df + 1.0) * math.log1p(t * t / df))


def _log_gamma_ratio(a: float) -> float:
    """log(Gamma(a + 1/2) / Gamma(a)). For large ``a`` the difference of two
    ``lgamma`` values would lose digits to their size, so it is taken from
    the difference of the two Stirling series instead (error below 1e-17
    for a >= 20)."""
    if a < 20.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)

    def series(z):
        w = 1.0 / (z * z)
        return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680 - w / 1188)))) / z

    return 0.5 * math.log(a) + (a * math.log1p(0.5 / a) - 0.5) + (series(a + 0.5) - series(a))


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """Continued fraction of I_x(a, b) * a * B(a, b) / (x^a y^b), y = 1 - x,
    by the modified Lentz method.

    When x is near 1 and ``a`` is large, the odd partial numerators lie
    within O(1/a) of -1 and the textbook recurrence cancels away about
    log10(a) digits. So for b <= 1 the sum 1 + odd term is formed from
    ``y`` (all its parts are then non-negative), and the even steps carry
    C - 1 and D - 1 rather than C and D.
    """
    small_b = b <= 1.0
    one_plus_odd = ((1.0 - b) + (a + b) * y) / (a + 1.0) if small_b else 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / one_plus_odd
    c, h = 1.0, d
    for m in range(1, 100_000):
        a2m = a + 2 * m
        even = m * (b - m) * x / ((a2m - 1.0) * a2m)
        d_less_1 = -even * d / (1.0 + even * d)
        c_less_1 = even / c
        den, num = a2m * (a2m + 1.0), (a + m) * (a + b + m)
        odd = -num * x / den
        if small_b:
            one_plus_odd = (a * (2 * m + 1.0 - b) + m * (3 * m + 2.0 - b) + num * y) / den
        else:
            one_plus_odd = 1.0 + odd
        d = 1.0 / (one_plus_odd + odd * d_less_1)
        c = one_plus_odd - odd * c_less_1 / (1.0 + c_less_1)
        h *= (1.0 + d_less_1) * (1.0 + c_less_1) * d * c
        if abs(d * c - 1.0) <= 2.2e-16:
            return h
    raise ArithmeticError(f"incomplete beta fraction at a={a}, b={b}, x={x} did not converge")


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
    lower_stabilized: bool
    upper_stabilized: bool
    z_stabilized: bool
    # per-index columns (lower1, W1, upper1, z_top, patience, loss), optional;
    # z_top is the clipped lag-S supremum, the certified read at its index
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
                 n_batches: int = DEFAULT_BATCHES, keep_samples: bool = False,
                 max_horizon: int = 1 << 20) -> BoundReport:
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
    exact ``cftp`` call. Fewer than 2 batches, or fewer samples than
    batches, are refused up front.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if n_batches < 2:
        raise ValueError(f"batch means need at least 2 batches, got {n_batches}")
    if n_samples < n_batches:
        raise ValueError(f"n_samples ({n_samples}) must be at least n_batches ({n_batches})")
    # Read first, the certified supremum covers the window too, so the page
    # cover it leaves in the path's memo serves the rolls and, unless their
    # deeper reads cross a page boundary, the coupling box and estimates.
    zb = certified_supremum(path, at, "upper", servers, n_samples)
    anchor = cftp(path, servers, at, max_horizon)
    if not anchor.coalesced:
        raise ContractError(f"cftp did not coalesce at index {at} by horizon {anchor.horizon_used}")
    lower, upper = (_envelope_estimate(path, servers, at, kind) for kind in ("lower", "upper"))
    exact, lower_states, upper_states = sandwich_states(path, at, n_samples - 1, anchor.value,
                                                        lower.value, upper.value)
    blk = path.block(at, n_samples)
    z_top = upper_states[:, -1]   # lag 1; lag l+1 at t+1 is [lag l at t - tau_t]+, at ``at`` zb's
    for start in zb.values[-2::-1]:
        z_top = np.concatenate(([start], np.maximum(z_top[:-1] - blk.tau[:-1], 0.0)))
    lower1, w1, upper1 = lower_states[:, 0], exact[:, 0], upper_states[:, 0]
    if path.spec.is_lattice:
        lower1, upper1 = np.minimum(lower1, w1), np.maximum(upper1, w1)
        z_top = np.maximum(z_top, upper1)
    cols = (lower1, w1, upper1, z_top, blk.patience)
    # The sandwich holds pointwise: lower_ind <= loss_ind <= upper_ind <= z_ind.
    inds = np.stack([col > blk.patience for col in cols[:4]])
    bad = np.flatnonzero((inds[:-1] > inds[1:]).any(axis=0))
    if len(bad):
        i = int(bad[0])
        got = (float(col[i]) for col in cols)
        raise ContractError("loss indicators out of order at sample {} (index {}): lower1 {!r}, W1 {!r}, "
                            "upper1 {!r}, z_top {!r}, patience {!r}".format(i, at + i, *got))
    samples = np.column_stack([*cols, inds[1].astype(np.float64)]) if keep_samples else None
    return BoundReport(*(batch_means(ind, n_batches) for ind in inds), n_samples=n_samples,   # p_lower .. p_z
                       lower_stabilized=lower.coalesced, upper_stabilized=upper.coalesced,
                       z_stabilized=zb.stabilized, samples=samples)


# ---------------------------------------------------------------------------
# Stability-condition estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """Empirical frequencies of the sufficient stability conditions."""

    n_samples: int
    z1_zero: ProbabilityEstimate
    work_le_tau: ProbabilityEstimate        # sigma + patience <= tau
    sigma_lt_tau: ProbabilityEstimate       # sigma < tau
    renovation: ProbabilityEstimate         # the coalescence-forcing event
    z_depth: int
    upper_estimate: CftpResult


def estimate_conditions(path: StationaryPath, servers: int, n_samples: int,
                        at: int = 0) -> ConditionReport:
    """Monte-Carlo frequencies of the stability conditions over
    ``n_samples`` consecutive indices starting at ``at``; the top supremum
    is read to the depth its certificate needs, and the renovation events
    are ``coupling.detect_renovation``'s over the same window."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    blk = path.block(at, n_samples)
    work_le_tau = int(np.count_nonzero(blk.sigma + blk.patience <= blk.tau))
    sigma_lt_tau = int(np.count_nonzero(blk.sigma < blk.tau))

    zb = certified_supremum(path, at, "upper", 1)
    z_hits = int(np.count_nonzero(envelope_states(path, at, n_samples - 1, zb.values, "upper") == 0.0))

    scan = detect_renovation(path, servers, (at, at + n_samples - 1))

    return ConditionReport(
        n_samples=n_samples,
        z1_zero=ProbabilityEstimate.binomial(z_hits, n_samples),
        work_le_tau=ProbabilityEstimate.binomial(work_le_tau, n_samples),
        sigma_lt_tau=ProbabilityEstimate.binomial(sigma_lt_tau, n_samples),
        renovation=ProbabilityEstimate.binomial(len(scan.events), n_samples),
        z_depth=zb.horizon,
        upper_estimate=scan.estimate,
    )

