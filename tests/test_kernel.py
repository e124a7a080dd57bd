import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from impatientq.errors import ContractError
from impatientq.kernel import (
    NEVER,
    _exact_work,
    _merge_shift,
    _merge_shift_batch,
    accepted_multiples,
    advance,
    advance_batch,
    advance_lattice,
)
from impatientq.sequences import DriverSample
from support import (
    advance_direct,
    advance_direct_batch,
    advance_lattice_batch,
    advance_lower_batch,
    advance_upper_batch,
    random_ordered,
)

N_TRIALS = 100_000


def drivers(rng, n):
    return (rng.uniform(0.05, 3.0, n), rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 3.0, n))


# ---------------------------------------------------------------------------
# Frozen examples
# ---------------------------------------------------------------------------


def test_advance_examples():
    out = advance((0.0, 0.0), DriverSample(1.0, 2.0, 0.0))
    assert out.next == (0.0, 1.0) and out.accepted
    out = advance((1.0, 3.0), DriverSample(1.0, 2.0, 0.0))
    assert out.next == (0.0, 2.0) and not out.accepted
    out = advance((4.0, 7.0), DriverSample(10.0, 1.0, 5.0))
    assert out.next == (0.0, 0.0) and out.accepted


def test_advance_direct_examples():
    assert advance_direct((0.0, 2.0, 5.0), DriverSample(1.0, 4.0, 1.0)) == (1.0, 3.0, 4.0)
    # single server reduces to the plain one-server recursion
    assert advance_direct((2.0,), DriverSample(1.5, 1.0, float("inf"))) == (1.5,)
    assert advance_direct((3.0,), DriverSample(5.0, 1.0, float("inf"))) == (0.0,)
    # null patience with busy least server: pure drain
    assert advance_direct((1.0, 2.0), DriverSample(0.5, 4.0, 0.0)) == (0.5, 1.5)


def _envelope_examples(work, oracle, cases):
    # each case by the R = 1 merge of the envelope's work and by the oracle
    for u, (tau, sigma, pat), want in cases:
        assert _merge_shift(u, work(sigma, pat), tau) == want
        assert oracle(np.array([u]), tau, sigma, pat).tolist() == [list(want)]


def test_advance_upper_examples():
    _envelope_examples(lambda sigma, pat: sigma + pat, advance_upper_batch, [
        ((0.0, 0.0), (1.0, 2.0, 1.0), (0.0, 2.0)),
        ((1.0, 4.0), (2.0, 2.0, 1.0), (1.0, 2.0)),
        ((1.0, 2.0), (9.0, 2.0, 1.0), (0.0, 0.0)),   # full drain when the gap dominates
    ])


def test_advance_lower_examples():
    _envelope_examples(min, advance_lower_batch, [
        ((0.0, 0.0), (1.0, 2.0, 1.0), (0.0, 0.0)),
        ((1.0, 4.0), (2.0, 5.0, 3.0), (1.0, 2.0)),
        ((1.0, 4.0), (0.5, 0.0, 3.0), (0.5, 3.5)),   # zero effective work: pure drain
    ])


def test_contract_violations():
    with pytest.raises(ContractError):
        advance((2.0, 1.0), DriverSample(1.0, 1.0, 1.0))
    with pytest.raises(ContractError, match="ascending and non-negative"):
        advance((-1.0, 1.0), DriverSample(1.0, 1.0, 1.0))
    with pytest.raises(ContractError):
        advance((), DriverSample(1.0, 1.0, 1.0))


# ---------------------------------------------------------------------------
# Oracle equivalence and ordering
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("servers", [1, 2, 3, 5])
def test_coordinate_form_equals_direct_form(servers):
    rng = np.random.default_rng(10 + servers)
    u = random_ordered(rng, N_TRIALS, servers)
    tau, sigma, pat = drivers(rng, N_TRIALS)
    got, _ = advance_batch(u, tau, sigma, pat)
    want = advance_direct_batch(u, tau, sigma, pat)
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("servers", [1, 2, 3, 5])
def test_batch_matches_scalar(servers):
    rng = np.random.default_rng(20 + servers)
    u = random_ordered(rng, 500, servers)
    tau, sigma, pat = drivers(rng, 500)
    batch, acc = advance_batch(u, tau, sigma, pat)
    up = advance_upper_batch(u, tau, sigma, pat)
    lo = advance_lower_batch(u, tau, sigma, pat)
    for i in range(500):
        d = DriverSample(tau[i], sigma[i], pat[i])
        out = advance(tuple(u[i]), d)
        assert out.next == tuple(batch[i]) and out.accepted == acc[i]
        assert _merge_shift(tuple(u[i]), d.sigma + d.patience, d.tau) == tuple(up[i])
        assert _merge_shift(tuple(u[i]), min(d.sigma, d.patience), d.tau) == tuple(lo[i])
        assert advance_direct(tuple(u[i]), d) == out.next


@pytest.mark.parametrize("servers", [1, 2, 3, 5])
def test_outputs_ordered(servers):
    rng = np.random.default_rng(30 + servers)
    u = random_ordered(rng, N_TRIALS, servers)
    tau, sigma, pat = drivers(rng, N_TRIALS)
    for out in (advance_batch(u, tau, sigma, pat)[0],
                advance_upper_batch(u, tau, sigma, pat),
                advance_lower_batch(u, tau, sigma, pat)):
        assert np.all(np.diff(out, axis=1) >= 0.0)
        assert out.min() >= 0.0


# ---------------------------------------------------------------------------
# Suffix-domination comparisons (the exact map against its envelopes)
# ---------------------------------------------------------------------------


def _suffix_dominating_pair(rng, n, servers):
    """(u, v, i): ordered states with v dominating u on coordinates >= i."""
    u = random_ordered(rng, n, servers)
    v = random_ordered(rng, n, servers)
    i = rng.integers(0, servers, size=n)
    cols = np.arange(servers)
    suffix = cols[None, :] >= i[:, None]
    v = np.where(suffix, np.maximum(u, v), v)
    # keep order: ascending on the prefix by construction, max of two
    # ascending tails is ascending, and the boundary only ever grows
    assert np.all(np.diff(v, axis=1) >= 0.0)
    return u, v, suffix


def test_exact_below_upper_on_suffixes():
    rng = np.random.default_rng(77)
    for servers in (1, 2, 3, 5):
        u, v, suffix = _suffix_dominating_pair(rng, N_TRIALS, servers)
        tau, sigma, pat = drivers(rng, N_TRIALS)
        exact, _ = advance_batch(u, tau, sigma, pat)
        upper = advance_upper_batch(v, tau, sigma, pat)
        assert not np.any((exact > upper) & suffix)


def test_lower_below_exact_on_suffixes():
    rng = np.random.default_rng(78)
    for servers in (1, 2, 3, 5):
        u, v, suffix = _suffix_dominating_pair(rng, N_TRIALS, servers)
        tau, sigma, pat = drivers(rng, N_TRIALS)
        lower = advance_lower_batch(u, tau, sigma, pat)
        exact, _ = advance_batch(v, tau, sigma, pat)
        assert not np.any((lower > exact) & suffix)


def test_envelopes_monotone():
    rng = np.random.default_rng(79)
    for servers in (1, 2, 3, 5):
        u = random_ordered(rng, N_TRIALS, servers)
        v = np.maximum(u, random_ordered(rng, N_TRIALS, servers))
        tau, sigma, pat = drivers(rng, N_TRIALS)
        assert np.all(advance_upper_batch(u, tau, sigma, pat)
                      <= advance_upper_batch(v, tau, sigma, pat))
        assert np.all(advance_lower_batch(u, tau, sigma, pat)
                      <= advance_lower_batch(v, tau, sigma, pat))


def test_top_coordinate_autonomy():
    rng = np.random.default_rng(80)
    servers = 4
    u = random_ordered(rng, 10_000, servers)
    tau, sigma, pat = drivers(rng, 10_000)
    up = advance_upper_batch(u, tau, sigma, pat)
    lo = advance_lower_batch(u, tau, sigma, pat)
    assert np.array_equal(up[:, -1], np.maximum(np.maximum(u[:, -1], sigma + pat) - tau, 0.0))
    assert np.array_equal(lo[:, -1], np.maximum(np.maximum(u[:, -1], np.minimum(sigma, pat)) - tau, 0.0))
    # changing the lower coordinates never moves the top
    u2 = u.copy()
    u2[:, :-1] = u2[:, :-1] * rng.uniform(0.0, 1.0, size=(10_000, 1))
    assert np.array_equal(advance_upper_batch(u2, tau, sigma, pat)[:, -1], up[:, -1])


def test_conditional_work_inequalities():
    rng = np.random.default_rng(81)
    u1 = rng.uniform(0.0, 4.0, N_TRIALS)
    sigma = rng.uniform(0.0, 3.0, N_TRIALS)
    pat = rng.uniform(0.0, 3.0, N_TRIALS)
    contrib = u1 + sigma * (u1 <= pat)
    assert np.all(contrib <= np.maximum(u1, sigma + pat))
    assert np.all(contrib >= np.maximum(u1, np.minimum(sigma, pat)))


def _lattice_step(u, tau, sigma, patience, alpha):
    """The int64 exact map as the package runs it: ``advance_batch`` with the
    deadline of each patience."""
    return advance_batch(u, tau, sigma, accepted_multiples(patience, alpha))


def test_lattice_closure():
    rng = np.random.default_rng(82)
    servers = 3
    u = np.sort(rng.integers(0, 8, size=(20_000, servers)), axis=1).astype(np.int64)
    for _ in range(5):
        tau = int(rng.integers(1, 4))
        sigma = int(rng.integers(0, 4))
        pat = float(rng.uniform(0.0, 5.0))  # patience may live off the lattice
        u = _lattice_step(u, tau, sigma, pat, alpha=0.5)[0]
    assert u.dtype == np.int64 and u.min() >= 0
    # float path agrees with the integer path on lattice data
    uf = np.sort(rng.integers(0, 8, size=(1000, servers)), axis=1).astype(np.float64) * 0.5
    ui = (uf / 0.5).astype(np.int64)
    out_f, acc_f = advance_batch(uf, 1.0, 1.5, 0.8)
    out_i, acc_i = _lattice_step(ui, 2, 3, 0.8, alpha=0.5)
    assert np.array_equal(out_f, out_i.astype(np.float64) * 0.5)
    assert np.array_equal(acc_f, acc_i)


def test_advance_lattice_scalar_matches_batch():
    rng = np.random.default_rng(83)
    for _ in range(200):
        s = int(rng.integers(1, 5))
        u = tuple(sorted(int(v) for v in rng.integers(0, 6, size=s)))
        tau, sigma = int(rng.integers(1, 4)), int(rng.integers(0, 4))
        pat = float(rng.uniform(0.0, 4.0))
        scalar, acc = advance_lattice(u, tau, sigma, pat, alpha=1.0)
        batch, batch_acc = _lattice_step(np.array([u], dtype=np.int64), tau, sigma, pat, alpha=1.0)
        assert scalar == tuple(batch[0]) and acc == batch_acc[0]
        assert acc == (u[0] * 1.0 <= pat)


def test_advance_lattice_batch_per_row_drivers():
    # One driver per row, as the lattice lane roll uses it: the int64
    # ``advance_batch`` with deadlines equals the literal sort oracle and the
    # scalar ``advance_lattice`` under each row's own driver, deadline ties
    # (patience on the lattice) and infinite patience included.
    rng = np.random.default_rng(84)
    n = 400
    for s in (1, 2, 3, 8):
        for alpha in (0.5, 0.1, 1 / 3):
            u = np.sort(rng.integers(0, 8, size=(n, s)), axis=1).astype(np.int64)
            tau = rng.integers(0, 4, n)
            sigma = rng.integers(0, 5, n)
            pat = np.select([rng.random(n) < 0.4, rng.random(n) < 0.1],
                            [rng.integers(0, 8, n) * alpha, np.full(n, math.inf)],
                            rng.uniform(0.0, 8 * alpha, n))
            out, acc = _lattice_step(u, tau, sigma, pat, alpha)
            assert out.dtype == np.int64
            assert np.array_equal(out, advance_lattice_batch(u, tau, sigma, pat, alpha))
            for r in range(n):
                scalar, accepted = advance_lattice(tuple(u[r].tolist()), int(tau[r]), int(sigma[r]),
                                                   float(pat[r]), alpha)
                assert tuple(out[r].tolist()) == scalar and acc[r] == accepted


def test_accepted_multiples_matches_the_acceptance_comparison():
    # For k in a window around each deadline, and for the largest k the
    # contract covers, ``k <= deadline`` holds exactly when the float
    # comparison ``k * alpha <= patience`` does. A patience equal to the
    # float product k * alpha is where the float quotient's floor can fall
    # one short of k (k = 43 at alpha = 0.1); one ulp either side moves the
    # deadline by at most one. Patience of 2^52 steps and more maps to NEVER.
    top = 2**51 - 1
    for alpha in (0.1, 0.3, 1 / 3, 0.45, 1.1, 1e-9, 7.3, 1e6):
        products = [k * alpha for k in range(400)] + [top * alpha, 3e15 * alpha]
        patience = np.array([0.0, math.inf, 1e300, 2.0**60 * alpha, 2.0**52 * alpha]
                            + [q for p in products for q in (p, math.nextafter(p, 0.0),
                                                             math.nextafter(p, math.inf), p + alpha / 2)])
        got = accepted_multiples(patience, alpha)
        assert got.dtype == np.int64 and got.shape == patience.shape
        for p, d in zip(patience.tolist(), got.tolist()):
            for k in [*range(max(d - 3, 0), min(d + 4, top)), top]:
                assert (k <= d) == (k * alpha <= p), (alpha, p, d, k)
        assert got[:5].tolist() == [0] + [NEVER] * 4
    assert 43 * 0.1 / 0.1 < 43 and accepted_multiples(43 * 0.1, 0.1) == 43


# ---------------------------------------------------------------------------
# Hypothesis spot checks
# ---------------------------------------------------------------------------


finite = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


@given(st.lists(finite, min_size=1, max_size=6), finite, finite,
       st.floats(min_value=0.01, max_value=50.0, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_hypothesis_equivalence_and_order(raw, sigma, pat, tau):
    u = tuple(sorted(raw))
    d = DriverSample(tau, sigma, pat)
    out = advance(u, d)
    assert out.next == advance_direct(u, d)
    for v in (out.next, _merge_shift(u, sigma + pat, tau), _merge_shift(u, min(sigma, pat), tau)):
        assert list(v) == sorted(v) and min(v) >= 0.0
    assert out.accepted == (u[0] <= pat)


def test_merge_clips_at_the_state_type_zero():
    # one merge serves float states and int lattice multiples: clipped
    # coordinates keep the state's type
    out, _ = advance_lattice((0, 1, 5), 3, 2, 0.25, 0.5)
    assert out == (0, 0, 2) and all(type(k) is int for k in out)
    assert _merge_shift((0.0, 1.0), 0.5, 2.0) == (0.0, 0.0)
    assert all(type(v) is float for v in _merge_shift((0.0, 1.0), 0.5, 2.0))


# The merge at the edges random draws rarely reach: the new work ``x`` equal
# to a coordinate, a coordinate minus the gap exactly zero, clipped
# coordinates, one server. ``(u, sigma, tau)`` with ``x = u[0] + sigma``.
MERGE_EDGES = [
    ((0.5, 1.0, 2.0), 0.0, 0.25),   # x equals u[0]
    ((0.5, 1.0, 2.0), 0.5, 0.25),   # x equals u[1]
    ((0.5, 1.0, 2.0), 1.5, 0.25),   # x equals the top coordinate
    ((1.0, 1.0, 1.0), 0.0, 1.0),    # every coordinate minus the gap is exactly 0
    ((0.25, 1.0, 3.0), 0.75, 1.0),  # x = u[1] = tau: exactly 0 below a survivor
    ((0.5, 1.0, 2.0), 4.0, 3.0),    # lower coordinates clipped, the top survives
    ((0.5, 1.0, 2.0), 0.5, 9.0),    # every coordinate clipped
    ((0.0, 0.0), 0.0, 0.5),         # empty state, nothing joins
    ((0.0,), 0.0, 1.0),             # S = 1, clipped
    ((2.0,), 1.0, 3.0),             # S = 1, exactly 0
    ((2.0,), 1.0, 0.5),             # S = 1, no clip
]


def _float_bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("u, sigma, tau", MERGE_EDGES)
def test_merge_edges_bit_identical_to_batch_and_direct(u, sigma, tau):
    x = u[0] + sigma
    got = _merge_shift(u, x, tau)
    assert all(type(v) is float for v in got)
    lanes = np.array([u]).T
    batch = _merge_shift_batch(lanes, np.array([x]), tau, np.empty_like(lanes))[:, 0]
    direct = advance_direct(u, DriverSample(tau, sigma, math.inf))
    assert _float_bits(got) == batch.tobytes() == _float_bits(direct), (got, batch, direct)


@pytest.mark.parametrize("u, sigma, tau", MERGE_EDGES)
def test_merge_edges_on_int_lattice_states(u, sigma, tau):
    # The same edges in lattice multiples (step 0.25): ints stay ints, and
    # int64 states keep int64 down to the clipped zero.
    u, sigma, tau = tuple(round(4 * v) for v in u), round(4 * sigma), round(4 * tau)
    want = advance_lattice_batch(np.array([u], dtype=np.int64), tau, sigma, math.inf, 0.25)[0]
    got_batch = advance_batch(np.array([u], dtype=np.int64), tau, sigma, NEVER)[0][0]
    assert got_batch.dtype == np.int64 and np.array_equal(got_batch, want)
    got = _merge_shift(u, u[0] + sigma, tau)
    assert got == tuple(want.tolist()) and all(type(k) is int for k in got)
    u64 = tuple(np.int64(k) for k in u)
    got64 = _merge_shift(u64, u64[0] + np.int64(sigma), np.int64(tau))
    assert got64 == got and all(type(k) is np.int64 for k in got64)


@pytest.mark.parametrize("servers", [1, 2, 3, 5])
def test_merge_bit_identical_to_batch_on_ties(servers):
    # Small integer-valued floats make ties between x and the coordinates,
    # and exact zeros after the gap, the common case.
    rng = np.random.default_rng(40 + servers)
    n = 4000
    u = np.sort(rng.integers(0, 4, (n, servers)), axis=1).astype(np.float64)
    sigma = rng.integers(0, 4, n).astype(np.float64)
    tau = rng.integers(1, 4, n).astype(np.float64)
    x = u[:, 0] + sigma
    batch = _merge_shift_batch(u.T, x, tau, np.empty_like(u.T)).T
    for i in range(n):
        row = tuple(u[i].tolist())
        got = _merge_shift(row, x[i].item(), tau[i].item())
        assert _float_bits(got) == batch[i].tobytes(), (row, x[i], tau[i])
        direct = advance_direct(row, DriverSample(tau[i].item(), sigma[i].item(), math.inf))
        assert _float_bits(got) == _float_bits(direct), (row, x[i], tau[i])


def test_batch_step_peak_memory():
    # The merge writes into its output: on column-major int64 rows at S = 3,
    # as the lattice boxes are stepped, advance_batch holds its 24-byte
    # output rows, the acceptance mask and the merged work, about 33 bytes a
    # row at its peak (65 with an (N, S-1) maximum and minimum allocated).
    import tracemalloc

    rng = np.random.default_rng(3)
    n = 200_000
    u = np.asfortranarray(np.sort(rng.integers(0, 40, size=(n, 3)), axis=1))
    drivers = rng.integers(1, 4, n), rng.integers(0, 9, n), rng.integers(0, 12, n)
    tracemalloc.start()
    try:
        out, _ = advance_batch(u, *drivers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.flags.f_contiguous and peak <= 40 * n, peak / n


@pytest.mark.parametrize("n", [1, 7, 16, 1000])
def test_exact_work_equals_the_where_form(n):
    # The lane work ``u0 + sigma * (u0 <= D)`` has the bits of the
    # ``u0 + where(u0 <= D, sigma, 0)`` form it replaces, on floats with
    # ties u0 == D, zero services, empty states and infinite patience, and
    # on int64 lattice lanes with the ``NEVER`` deadline.
    rng = np.random.default_rng(n)
    u0 = rng.exponential(1.0, n)
    u0[::3] = 0.0
    deadline = rng.uniform(0.0, 2.0, n)
    deadline[1::4] = u0[1::4]
    deadline[2::5] = math.inf
    sigma = rng.exponential(1.0, n)
    sigma[::2] = 0.0
    k0 = rng.integers(0, 20, n)
    kd = rng.integers(0, 20, n)
    kd[1::4] = k0[1::4]
    kd[2::5] = NEVER
    ks = rng.integers(0, 9, n)
    cases = [(u0, sigma, deadline), (u0, sigma, math.inf), (u0, 0.0, deadline), (u0, 0.7, 0.0),
             (k0, ks, kd), (k0, ks, NEVER), (k0, 3, kd), (k0, 0, 0)]
    for first, s, d in cases:
        want = np.add(first, np.where(first <= d, s, 0))
        out = np.empty_like(first)
        got = _exact_work(first, s, d, out)
        assert got is out and got.dtype == first.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), (first.dtype, s, d)
