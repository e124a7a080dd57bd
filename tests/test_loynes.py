import math

import numpy as np
import pytest

from impatientq import loynes, metrics
from impatientq.coupling import cftp
from impatientq.errors import ConfigurationError
from impatientq.kernel import _merge_shift
from impatientq.loynes import (
    certified_supremum,
    envelope_states,
    exact_states,
    lattice_states,
    supremum_bound,
)
from impatientq.metrics import estimate_conditions
from impatientq.sequences import (
    Deterministic,
    Exponential,
    ModulationSpec,
    SequenceSpec,
    StationaryPath,
)
from support import (
    CERTIFY,
    DRAIN,
    GROWTH,
    LATTICE,
    MM_SPEC,
    deep_envelope,
    iid_spec,
    random_heavy_spec,
    random_iid_spec,
    random_mm_spec,
    reference_sweep_configs,
)

MM2D = iid_spec(17, Exponential(1.0), Exponential(0.6), Deterministic(1.0))


def test_supremum_bound_drain_is_zero():
    path = StationaryPath(DRAIN)
    for depth in (3, 10, 100):
        zb = supremum_bound(path, 0, "upper", depth, 3)
        assert zb.values == (0.0, 0.0, 0.0)


def test_supremum_bound_growth_example():
    # work 3, gap 1: the lag-l supremum is 3 - l, so the vector is (0, 1, 2)
    path = StationaryPath(GROWTH)
    zb = supremum_bound(path, 0, "upper", 2000, 3)
    assert zb.values == (0.0, 1.0, 2.0)
    assert zb.stabilized


def test_lower_below_upper():
    rng = np.random.default_rng(5)
    for _ in range(20):
        path = StationaryPath(random_iid_spec(rng))
        lo = supremum_bound(path, 0, "lower", 256, 3)
        up = supremum_bound(path, 0, "upper", 256, 3)
        assert all(a <= b for a, b in zip(lo.values, up.values))


def test_depth_below_servers_rejected():
    path = StationaryPath(MM2D)
    with pytest.raises(ValueError):
        supremum_bound(path, 0, "upper", 2, 3)
    with pytest.raises(ValueError):
        supremum_bound(path, 0, "sideways", 8, 2)


def test_supremum_monotone_in_horizon():
    rng = np.random.default_rng(6)
    for _ in range(10):
        path = StationaryPath(random_iid_spec(rng))
        prev = supremum_bound(path, 0, "upper", 4, 4).values
        for depth in (8, 16, 64, 256):
            cur = supremum_bound(path, 0, "upper", depth, 4).values
            assert all(a <= b for a, b in zip(prev, cur))
            prev = cur


def test_single_server_iterate_telescopes_exactly():
    rng = np.random.default_rng(7)
    paths = [StationaryPath(random_iid_spec(rng)) for _ in range(10)]
    paths.append(StationaryPath(random_mm_spec(rng)))
    for path in paths:
        for kind in ("upper", "lower"):
            for depth in (1, 3, 17, 128):
                it = envelope_states(path, -depth, depth, (0.0,), kind)[-1]
                zb = supremum_bound(path, 0, kind, depth, 1)
                assert it[0] == zb.values[0]


def test_top_coordinate_identity_exact():
    rng = np.random.default_rng(8)
    for servers in (2, 3, 5):
        for _ in range(10):
            path = StationaryPath(random_iid_spec(rng))
            for depth in (servers, 2 * servers, 64, 257):
                it = envelope_states(path, -3 - depth, depth, (0.0,) * servers, "upper")[-1]
                zb = supremum_bound(path, -3, "upper", depth, servers)
                assert it[-1] == zb.values[-1]
                lo = envelope_states(path, -3 - depth, depth, (0.0,) * servers, "lower")[-1]
                zl = supremum_bound(path, -3, "lower", depth, servers)
                assert lo[-1] == zl.values[-1]


def test_supremum_values_match_direct_maximum():
    # independent evaluation: explicit partial sums, then the running max
    rng = np.random.default_rng(9)
    path = StationaryPath(random_iid_spec(rng))
    servers, depth = 3, 512
    blk = path.block(-depth, depth)
    work = (blk.sigma + blk.patience)[::-1]
    terms = work - np.cumsum(blk.tau[::-1])
    zb = supremum_bound(path, 0, "upper", depth, servers)
    for j in range(1, servers + 1):
        lag0 = servers + 1 - j
        direct = max(float(terms[lag0 - 1:].max()), 0.0)
        assert abs(direct - zb.values[j - 1]) <= 1e-11


def test_iterate_monotone_in_depth():
    rng = np.random.default_rng(10)
    for _ in range(50):
        spec = random_iid_spec(rng)
        servers = int(rng.integers(1, 6))
        path = StationaryPath(spec)
        for kind in ("upper", "lower"):
            prev = envelope_states(path, -1, 1, (0.0,) * servers, kind)[-1]
            for depth in (2, 4, 8, 16, 32):
                cur = envelope_states(path, -depth, depth, (0.0,) * servers, kind)[-1]
                assert all(a <= b + 1e-12 for a, b in zip(prev, cur))
                prev = cur


def test_iterate_dominated_by_supremum_at_stabilized_depth():
    rng = np.random.default_rng(11)
    for _ in range(20):
        path = StationaryPath(random_iid_spec(rng))
        est = cftp(path, 3, 0, kind="upper")
        if not est.coalesced:
            continue
        zb = supremum_bound(path, 0, "upper", max(est.horizon_used, 3), 3)
        assert all(v <= z + 1e-9 for v, z in zip(est.value, zb.values))


def test_backward_iterate_drain_is_empty():
    # negative drift: nothing accumulates at any depth
    path = StationaryPath(DRAIN)
    for depth in (1, 5, 64):
        assert envelope_states(path, -depth, depth, (0.0,) * 3, "upper")[-1].tolist() == [0.0] * 3


def test_stationary_estimate_deterministic_fixed_points():
    drain = cftp(StationaryPath(DRAIN), 2, 0, kind="upper")
    assert drain.coalesced and drain.value == (0.0, 0.0)
    growth = cftp(StationaryPath(GROWTH), 1, 0, kind="upper")
    assert growth.coalesced and growth.value == (2.0,)
    lower = cftp(StationaryPath(GROWTH), 1, 0, kind="lower")
    # effective work min(2, 1) = 1, gap 1: the lower state stays empty
    assert lower.coalesced and lower.value == (0.0,)


def test_stabilized_estimate_is_pathwise_fixed_point():
    rng = np.random.default_rng(12)
    hits = 0
    for _ in range(15):
        path = StationaryPath(random_iid_spec(rng))
        d = path.sample_at(0)
        for kind, work in (("upper", d.sigma + d.patience), ("lower", min(d.sigma, d.patience))):
            est = cftp(path, 2, 0, kind=kind)
            if not est.coalesced:
                continue
            hits += 1
            rolled = _merge_shift(est.value, work, d.tau)
            nxt = envelope_states(path, 1 - est.horizon_used, est.horizon_used, (0.0, 0.0), kind)[-1]
            assert all(abs(a - b) <= 1e-9 for a, b in zip(rolled, nxt))
    assert hits > 10


def test_unstabilized_flag_on_divergent_config():
    # infinite patience makes the upper effective work and the supremum
    # infinite: there is no box to couple from, so the upper estimate is
    # refused at its first box read rather than rolled from empty alone
    spec = iid_spec(3, Exponential(1.0), Exponential(2.0), Deterministic(float("inf")))
    path = StationaryPath(spec)
    with pytest.raises(ConfigurationError, match="top supremum is not finite"):
        cftp(path, 1, 0, kind="upper")
    assert not path._chains


SWEEP = reference_sweep_configs()


@pytest.mark.parametrize("name, spec, servers", SWEEP, ids=[c[0] for c in SWEEP])
def test_estimate_equals_deep_reference(name, spec, servers):
    # Both estimates at 1000 indices (every 37th) against the envelope
    # iterate from empty 8192 indices back, bit for bit.
    path = StationaryPath(spec)
    ats = np.arange(-18_000, 19_000, 37)
    for kind in ("upper", "lower"):
        deep = deep_envelope(path, ats, kind, servers)
        wrong = [(at, est.value, tuple(ref.tolist()))
                 for at, ref in zip(ats.tolist(), deep)
                 for est in [cftp(path, servers, at, kind=kind)]
                 if not est.coalesced or est.value != tuple(ref.tolist())]
        assert not wrong, (kind, len(wrong), wrong[:3])
    # the lane reference is the scalar roll it stands for
    at = int(ats[500])
    roll = envelope_states(path, at - 8192, 8192, (0.0,) * servers, "upper")[-1]
    assert roll.tolist() == deep_envelope(path, [at], "upper", servers)[0].tolist()


def test_envelope_states_consistency():
    path = StationaryPath(MM2D)
    est = cftp(path, 2, 0, kind="upper")
    states = envelope_states(path, 0, 100, est.value, "upper")
    u = est.value
    for i in range(100):
        d = path.sample_at(i)
        u = _merge_shift(u, d.sigma + d.patience, d.tau)
        assert tuple(states[i + 1]) == u


def test_exact_states_matches_scalar_advance():
    from impatientq.kernel import advance

    path = StationaryPath(MM2D)
    states, accepted = exact_states(path, -5, 200, (0.0, 0.0))
    u = (0.0, 0.0)
    for i in range(200):
        out = advance(u, path.sample_at(-5 + i))
        assert bool(accepted[i]) == out.accepted
        u = out.next
        assert tuple(states[i + 1]) == u


def test_lane_rolls_hand_the_merge_contiguous_lanes(monkeypatch):
    # The merge reads coordinate i of every lane as the row ``u[i]`` and
    # writes into the roll's own ``out``: both must be C-contiguous in every
    # lane step of every roll, the main pass and the round alike. The values
    # would not change on a strided view, only the speed: a (3, R, S) view
    # of stacked lanes, neither C- nor F-contiguous, slows every call.
    seen, merge = [], loynes._merge_shift_batch

    def spy(u, x, tau, out=None):
        seen.append((u.shape, u.flags.c_contiguous and out is not None and out.flags.c_contiguous))
        return merge(u, x, tau, out)

    monkeypatch.setattr(loynes, "_merge_shift_batch", spy)
    metrics.bound_report(StationaryPath(MM_SPEC), 2, 20_000)
    exact_states(StationaryPath(MM_SPEC), 0, 3 * loynes.CHUNK + 5, (0.0, 0.0))
    lattice_states(StationaryPath(LATTICE), 0, 3 * loynes.CHUNK + 5, (0, 0, 0))
    bad = [shape for shape, ok in seen if not ok]
    assert len(seen) > 500 and not bad, (len(seen), len(bad), bad[:5])
    assert {shape[:2] for shape, _ in seen} >= {(2, 3), (1, 1), (2, 1), (3, 1)}


# ---------------------------------------------------------------------------
# Stability-condition estimates
# ---------------------------------------------------------------------------


def test_conditions_drain():
    rep = estimate_conditions(StationaryPath(DRAIN), 2, 1000)
    assert rep.work_le_tau.probability == 1.0
    assert rep.z1_zero.probability == 1.0
    assert rep.renovation.probability == 1.0


def test_conditions_growth():
    rep = estimate_conditions(StationaryPath(GROWTH), 1, 1000)
    assert rep.sigma_lt_tau.probability == 0.0
    assert rep.renovation.probability == 0.0   # upper state is constant 2 > 0


def test_conditions_exponential_pair():
    spec = iid_spec(11, Exponential(1.0), Exponential(1.0), Deterministic(0.0))
    rep = estimate_conditions(StationaryPath(spec), 1, 100_000)
    assert abs(rep.work_le_tau.probability - 0.5) <= 0.01


def test_conditions_read_the_top_supremum_at_z_depth():
    # z_depth is the depth the certificate needed for the one-dimensional
    # top supremum: certified there, and far short of a fixed 4096
    path = StationaryPath(MM2D)
    rep = estimate_conditions(path, 2, 200)
    assert rep.z_depth == certified_supremum(path, 0, "upper", 1).horizon
    assert supremum_bound(path, 0, "upper", rep.z_depth, 1).stabilized
    assert 1 <= rep.z_depth < 4096


def test_conditions_reject_empty():
    with pytest.raises(ValueError):
        estimate_conditions(StationaryPath(DRAIN), 2, 0)


def test_supremum_certificate_against_deep_reference():
    # Certify at a loose risk: at the first doubling depth whose risk is at
    # most 1e-2, the depth-8192 supremum (the direct formula over the lags,
    # not the recursion) may exceed the certified values (a lag beyond the
    # depth read raised a coordinate) in at most that share of (spec,
    # index) pairs, up to three binomial standard deviations.
    from support import random_lattice_spec, random_mm_spec

    rng = np.random.default_rng(2024)
    families = (random_iid_spec, lambda r: random_lattice_spec(r, alpha=0.5), random_mm_spec)
    risk, pairs, exceed = 1e-2, 0, 0
    for k in range(105):
        spec = families[k % 3](rng)
        servers = int(rng.integers(1, 4))
        path = StationaryPath(spec)
        window = path.block(-8192, 8192 + 19 * 997)   # the memo serves every read below
        for at in range(0, 20 * 997, 997):
            blk = [col[at : at + 8192] for col in window]
            depth = servers
            zb = supremum_bound(path, at, "upper", depth, servers)
            while zb.risk > risk and depth < 8192:
                depth *= 2
                zb = supremum_bound(path, at, "upper", depth, servers)
            if zb.risk > risk:
                continue
            tau, sigma, patience = blk
            terms = (sigma + patience)[::-1] - np.cumsum(tau[::-1])
            deep = [max(float(terms[servers - j:].max()), 0.0) for j in range(1, servers + 1)]
            assert all(z <= d + 1e-9 for z, d in zip(zb.values, deep))
            exceed += any(d > z + 1e-9 for z, d in zip(zb.values, deep))
            pairs += 1
    assert pairs >= 2000
    assert exceed <= pairs * risk + 3 * (pairs * risk * (1 - risk)) ** 0.5, (exceed, pairs)


def test_supremum_risk_closed_form():
    # Exp(1) gaps, Exp(0.4) service, Exp(0.2) patience: phi/(1-phi) = 1/theta,
    # so risk = min over the grid of M_sigma M_D e^(-theta (m + T)) / theta;
    # the grid is 2^-8 .. 2^3 in eighth octaves over the largest mean, 5.
    # Under Markov modulation each factor comes from its worst state: here
    # the gaps from the state with the shorter Exp(2) gaps (phi = 2/(2+theta)
    # against 1/(1+theta), so phi/(1-phi) = 2/theta), the work from the other.
    # Its seed puts the least coordinate below the top one in all three reads.
    iid = iid_spec(1, Exponential(1.0), Exponential(0.4), Exponential(0.2))
    modulated = SequenceSpec(model="markov_modulated", seed=162, modulation=ModulationSpec(
        transition=((0.6, 0.4), (0.3, 0.7)),
        states=((Exponential(2.0), Exponential(0.5), Exponential(0.25)),
                (Exponential(1.0), Exponential(0.4), Exponential(0.2)))))
    for spec, gaps in ((iid, 1.0), (modulated, 2.0)):
        path = StationaryPath(spec)
        for at, depth in ((28, 40), (35, 150), (7, 400)):
            zb = supremum_bound(path, at, "upper", depth, 3)
            assert zb.values[0] < zb.values[-1]   # the least coordinate is the one that counts
            elapsed = float(path.block(at - depth, depth).tau.sum())
            want = min(0.4 / (0.4 - t) * 0.2 / (0.2 - t) * math.exp(-t * (zb.values[0] + elapsed)) * gaps / t
                       for t in (2.0 ** (k / 8) / 5.0 for k in range(-64, 25)) if t < 0.2)
            assert zb.risk == pytest.approx(min(want, 1.0), rel=1e-9), (spec.model, at, depth)


def test_supremum_risk_fields():
    path = StationaryPath(MM2D)
    shallow = supremum_bound(path, 0, "upper", 4, 2)
    deep = supremum_bound(path, 0, "upper", 4096, 2)
    assert 0.0 <= deep.risk <= 1e-12 and deep.stabilized
    assert shallow.risk > 1e-12 and not shallow.stabilized
    # infinite work: nothing can raise an infinite supremum
    inf = StationaryPath(iid_spec(3, Exponential(1.0), Exponential(2.0), Deterministic(float("inf"))))
    zb = supremum_bound(inf, 0, "upper", 8, 2)
    assert zb.values == (float("inf"),) * 2 and zb.risk == 0.0


@pytest.mark.parametrize("model", ["iid", "markov"])
def test_chernoff_constants_are_shared_across_seeds(model):
    # the certificate's constants depend on the laws alone: two specs that
    # differ only by seed (every bounds replication, every sandwich job)
    # compute them once between them
    import dataclasses

    from impatientq import loynes

    base = (iid_spec(1, Exponential(1.37), Exponential(0.61), Exponential(0.29)) if model == "iid"
            else random_mm_spec(np.random.default_rng(2718)))
    other = dataclasses.replace(base, seed=base.seed + 1)
    misses = loynes._chernoff_constants.cache_info().misses
    a = loynes._chernoff_constants(base.laws, "upper")
    b = loynes._chernoff_constants(other.laws, "upper")
    assert loynes._chernoff_constants.cache_info().misses == misses + 1
    assert all(np.array_equal(x, y) for x, y in zip(a[:2], b[:2])) and a[2] == b[2]
    zb = [certified_supremum(StationaryPath(s), 0, "upper", 2) for s in (base, other)]
    assert loynes._chernoff_constants.cache_info().misses == misses + 1
    assert zb[0].values != zb[1].values   # the seeds read different paths


def _bound_fields(zb):
    return zb.values, zb.horizon, zb.stabilized, np.float64(zb.risk).view(np.int64)


def _sweep_targets(order, depth, rng, n=16, first=4096 + 8):
    """Targets of one read order; windows ``[t - depth, t)`` near ``first``
    cross the driver page boundary at 4096."""
    if order == "descending":
        return list(range(first + n, first, -1))
    if order == "shuffled":
        return rng.permutation(np.arange(first, first + n)).tolist()
    stride = {"ascending": 1, "stride-7": 7, "stride-depth-1": depth - 1, "stride-depth+1": depth + 1}[order]
    return [first + stride * k for k in range(n)]


RESUME_SPECS = {
    "certify": CERTIFY, "markov": MM_SPEC, "lattice": LATTICE,
    "infinite-patience": iid_spec(3, Exponential(1.0), Exponential(2.0), Deterministic(math.inf)),
    "heavy-iid": random_heavy_spec(np.random.default_rng(1919), 4),
    "heavy-markov": random_heavy_spec(np.random.default_rng(1920), 4, "markov_modulated"),
}


@pytest.mark.parametrize("name", list(RESUME_SPECS))
def test_supremum_bound_resume_changes_no_result(name):
    # reads on one shared path, which resume each other, against a fresh
    # path per read: every field, the risk by its bits. Each order
    # interleaves both kinds and S = 1..4 at the certified depth or its
    # doubling, so a read also follows reads of other keys; every other
    # order runs on a shifted path. The sweep must both resume reads and
    # meet remembered resets that lie before the new window.
    spec = RESUME_SPECS[name]
    rng = np.random.default_rng(2020)
    keys = [(kind, servers) for kind in ("upper", "lower") for servers in range(1, 5)]
    reference = StationaryPath(spec)   # its shifts share one memo of chain blocks
    certified = {key: certified_supremum(reference, 0, *key).horizon for key in keys}
    orders = ("ascending", "descending", "shuffled", "stride-7", "stride-depth-1", "stride-depth+1")
    resumed = reset_outside = 0
    for scale in (1, 2):
        for i, order in enumerate(orders):
            shift = 37 * (i % 2)
            shared = StationaryPath(spec).shifted(shift)
            reads = zip(*[[(t, key) for t in _sweep_targets(order, scale * certified[key], rng)] for key in keys])
            for t, (kind, servers) in (read for step in reads for read in step):
                depth = scale * certified[kind, servers]
                before = shared._suprema.get((kind, servers))
                if before is not None and before[0] == depth and before[1] <= t + shift - servers + 1:
                    inside = before[3] >= t + shift - depth
                    resumed += inside
                    reset_outside += not inside
                zb = supremum_bound(shared, t, kind, depth, servers)
                fresh = supremum_bound(reference.shifted(t + shift), 0, kind, depth, servers)
                assert _bound_fields(zb) == _bound_fields(fresh), (name, scale, order, t, kind, servers)
    assert resumed > 0 and reset_outside > 0, (resumed, reset_outside)


def test_consecutive_cftp_box_reads_step_few_lags(monkeypatch):
    # consecutive cftp targets read a box only at a new start of the rung
    # grid, about one per 16 targets plus one per rung (16, 32 and 64
    # here); each read resumes the read before it and steps only the 16 new
    # lags between the starts, where a read from scratch steps all 222
    from impatientq import coupling, loynes

    stepped = []
    effective_work = loynes._effective_work

    def counting(tau, sigma, patience, kind):
        stepped.append(len(tau) - 2)   # less the final S - 1 = 2 lags
        return effective_work(tau, sigma, patience, kind)

    path = StationaryPath(CERTIFY)
    for t in range(1, 129):
        coupling.cftp(path, 3, at=t)
    monkeypatch.setattr(loynes, "_effective_work", counting)
    for t in range(129, 429):
        assert coupling.cftp(path, 3, at=t).coalesced
    assert 1 <= len(stepped) <= 300 // 16 + 3 and max(stepped) <= 16, stepped


def test_supremum_bound_resume_is_keyed_on_servers():
    # a read of S = 4 at t + 3 ends its common lags where a read of S = 1
    # at t does, but starts 3 lags later: the S = 1 read must not resume it.
    # At depth 8 the 3 deeper lags often hold the supremum.
    path = StationaryPath(CERTIFY)
    deeper_lags_count = 0
    for t in range(-200, 200):
        supremum_bound(path, t + 3, "upper", 8, 4)
        zb = supremum_bound(path, t, "upper", 8, 1)
        fresh = StationaryPath(CERTIFY)
        assert _bound_fields(zb) == _bound_fields(supremum_bound(fresh, t, "upper", 8, 1)), t
        deeper_lags_count += zb.values != supremum_bound(fresh, t, "upper", 5, 1).values
    assert deeper_lags_count > 0
