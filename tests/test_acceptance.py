"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

import json

import numpy as np

from impatientq.cli import main as cli_main
from impatientq.coupling import cftp, detect_renovation, reachable_profile
from impatientq.des import cross_validate
from impatientq.kernel import advance, advance_batch
from impatientq.loynes import envelope_states, exact_states, supremum_bound
from impatientq.metrics import bound_report, loss_probability
from impatientq.sequences import (
    Deterministic,
    DriverSample,
    Exponential,
    StationaryPath,
    Uniform,
)
from support import (
    advance_direct_batch,
    advance_lower_batch,
    advance_upper_batch,
    erlang_b,
    iid_spec,
    random_iid_spec,
    random_lattice_spec,
    random_mm_spec,
    random_ordered,
    renovation_box,
)


def _report(criterion: str, detail: str):
    print(f"[ACCEPTANCE] {criterion}: PASS — {detail}")


# ---------------------------------------------------------------------------
# 1. Recursion/physics equivalence
# ---------------------------------------------------------------------------


def test_criterion_1_recursion_physics_equivalence():
    rng = np.random.default_rng(20240811)
    servers_cycle = [1, 2, 3, 5]
    worst = 0.0
    n_checked = 0
    for k in range(20):
        servers = servers_cycle[k % 4]
        spec = random_mm_spec(rng) if k % 10 >= 7 else random_iid_spec(rng)
        report = cross_validate(StationaryPath(spec), servers, 100_000, tol=1e-9)
        assert report.passed, (k, servers, spec, report)
        assert report.decisions_agree
        worst = max(worst, report.max_discrepancy)
        n_checked += 1
    assert n_checked == 20
    _report("criterion 1 (recursion = physics, 20 configs x 1e5 arrivals)",
            f"worst sup-norm discrepancy {worst:.2e} <= 1e-9, decisions exact")


# ---------------------------------------------------------------------------
# 2. Erlang B reduction (null patience)
# ---------------------------------------------------------------------------


def test_criterion_2_erlang_b_reduction():
    # M/M/2/2, arrival rate 1, service rate 1
    spec = iid_spec(101, Exponential(1.0), Exponential(1.0), Deterministic(0.0))
    _, accepted = exact_states(StationaryPath(spec), 0, 1_000_000, (0.0, 0.0))
    est2 = loss_probability(~accepted)
    want2 = erlang_b(2, 1.0)
    assert abs(est2.probability - want2) <= 0.01

    # M/M/3/3, arrival rate 1.2, service rate 1
    spec = iid_spec(102, Exponential(1.2), Exponential(1.0), Deterministic(0.0))
    _, accepted = exact_states(StationaryPath(spec), 0, 1_000_000, (0.0, 0.0, 0.0))
    est3 = loss_probability(~accepted)
    want3 = erlang_b(3, 1.2)
    assert abs(est3.probability - want3) <= 0.01

    _report("criterion 2 (Erlang B, null patience)",
            f"M/M/2/2: {est2.probability:.4f} vs {want2:.4f}; "
            f"M/M/3/3: {est3.probability:.4f} vs {want3:.4f} (tol 0.01)")


# ---------------------------------------------------------------------------
# 3. No-impatience reduction to the classic multi-server recursion
# ---------------------------------------------------------------------------


def test_criterion_3_kiefer_wolfowitz_reduction():
    spec = iid_spec(103, Exponential(1.0), Exponential(2.0), Deterministic(float("inf")))
    states, accepted = exact_states(StationaryPath(spec), 0, 1_000_000, (0.0,))
    assert bool(accepted.all())
    frac_zero = float(np.mean(states[1:, 0] == 0.0))
    assert abs(frac_zero - 0.5) <= 0.01
    _report("criterion 3 (no impatience, M/M/1 rho=0.5)",
            f"empirical P(W=0) = {frac_zero:.4f} vs 0.5 (tol 0.01), no losses")


# ---------------------------------------------------------------------------
# 4. Sandwich bounds across seeded configs
# ---------------------------------------------------------------------------


def test_criterion_4_sandwich_bounds():
    patiences = [0.5, 1.0, 2.0]
    violations = 0
    rows = []
    for r in range(10):
        spec = iid_spec(2000 + r, Exponential(1.0), Exponential(0.6),
                        Deterministic(patiences[r % 3]))
        rep = bound_report(StationaryPath(spec), 2, 100_000)
        row = (rep.p_lower.probability, rep.p_loss.probability,
               rep.p_upper.probability, rep.p_z.probability)
        if list(row) != sorted(row):
            violations += 1
        rows.append(row)
    assert violations == 0
    lo, pl, up, pz = rows[0]
    _report("criterion 4 (sandwich bounds, 10 seeded configs)",
            f"0 ordering violations; e.g. {lo:.4f} <= {pl:.4f} <= {up:.4f} <= {pz:.4f}")


# ---------------------------------------------------------------------------
# 5. One-step comparison inequalities
# ---------------------------------------------------------------------------


def test_criterion_5_comparison_inequalities():
    rng = np.random.default_rng(4242)
    n = 100_000
    for servers in (1, 3, 5):
        u = random_ordered(rng, n, servers)
        v = random_ordered(rng, n, servers)
        start = rng.integers(0, servers, size=n)
        suffix = np.arange(servers)[None, :] >= start[:, None]
        v = np.where(suffix, np.maximum(u, v), v)
        tau = rng.uniform(0.05, 3.0, n)
        sigma = rng.uniform(0.0, 3.0, n)
        pat = rng.uniform(0.0, 3.0, n)
        exact_u, _ = advance_batch(u, tau, sigma, pat)
        upper_v = advance_upper_batch(v, tau, sigma, pat)
        assert not np.any((exact_u > upper_v) & suffix)
        lower_u = advance_lower_batch(u, tau, sigma, pat)
        exact_v, _ = advance_batch(v, tau, sigma, pat)
        assert not np.any((lower_u > exact_v) & suffix)

    u1 = rng.uniform(0.0, 4.0, n)
    sigma = rng.uniform(0.0, 3.0, n)
    pat = rng.uniform(0.0, 3.0, n)
    contrib = u1 + sigma * (u1 <= pat)
    assert np.all(contrib <= np.maximum(u1, sigma + pat))
    assert np.all(contrib >= np.maximum(u1, np.minimum(sigma, pat)))
    _report("criterion 5 (one-step comparison inequalities)",
            "1e5 suffix-dominating pairs per assertion and both pointwise "
            "work inequalities: zero violations")


# ---------------------------------------------------------------------------
# 6. Backward scheme structure
# ---------------------------------------------------------------------------


def test_criterion_6_backward_structure():
    rng = np.random.default_rng(606)
    for _ in range(1000):
        spec = random_iid_spec(rng)
        servers = int(rng.integers(1, 6))
        path = StationaryPath(spec)
        for kind in ("upper", "lower"):
            shallow = envelope_states(path, -8, 8, (0.0,) * servers, kind)[-1]
            deep = envelope_states(path, -16, 16, (0.0,) * servers, kind)[-1]
            assert all(a <= b + 1e-12 for a, b in zip(shallow, deep)), spec

    exact_hits = 0
    for _ in range(100):
        path = StationaryPath(random_iid_spec(rng))
        for depth in (1, 13, 64):
            it = envelope_states(path, -depth, depth, (0.0,), "upper")[-1]
            zb = supremum_bound(path, 0, depth, 1)
            assert it[0] == zb.values[0]
            exact_hits += 1
    for servers in (2, 3, 5):
        for _ in range(40):
            path = StationaryPath(random_iid_spec(rng))
            for depth in (servers, 32, 129):
                it = envelope_states(path, -depth, depth, (0.0,) * servers, "upper")[-1]
                zb = supremum_bound(path, 0, depth, servers)
                assert it[-1] == zb.values[-1]
                exact_hits += 1
    _report("criterion 6 (backward scheme structure)",
            f"monotone depth growth over 1000 configs; {exact_hits} exact "
            "iterate-vs-supremum identities (single server and top coordinate)")


# ---------------------------------------------------------------------------
# 7. Renovation forces coalescence
# ---------------------------------------------------------------------------


def test_criterion_7_renovation_coalescence():
    from impatientq.metrics import estimate_conditions

    rng = np.random.default_rng(707)
    checked = 0
    for servers, seed in ((2, 501), (3, 502)):
        spec = iid_spec(seed, Deterministic(3.0), Exponential(1.0), Uniform(0.0, 1.0))
        path = StationaryPath(spec)
        # premise: the explicit sufficient condition holds empirically
        assert estimate_conditions(path, servers, 2_000).z1_zero.probability > 0.0
        scan = detect_renovation(path, servers, (0, 9_999))
        assert scan.estimate.coalesced
        assert scan.frequency > 0.0
        blk = path.block(0, 10_000 + servers)
        for ev in scan.events:
            # the box certificate: every state of [0, Y] lands on one point
            lo, hi = renovation_box(path, servers, ev)
            assert lo == hi, (ev, lo, hi)
            # 100 sampled states of the box, stepped by the literal oracle
            pts = np.sort(rng.uniform(0.0, 1.0, size=(100, servers)) * np.asarray(ev.y_estimate), axis=1)
            for i in range(ev.index, ev.index + servers - 1):
                pts = advance_direct_batch(pts, blk.tau[i], blk.sigma[i], blk.patience[i])
            assert (pts == np.asarray(lo)).all(), ev
            checked += 1
    assert checked > 0
    _report("criterion 7 (renovation => coalescence)",
            f"{checked} renovation indices in 1e4 windows, 100 random initial "
            "states each, coalescence within S-1 steps, zero failures")


# ---------------------------------------------------------------------------
# 8. Coupling-from-the-past fixed point
# ---------------------------------------------------------------------------


def test_criterion_8_cftp_fixed_point():
    spec = iid_spec(808, Exponential(1.0), Exponential(0.6), Deterministic(1.0))
    path = StationaryPath(spec)
    res = cftp(path, 2)
    assert res.coalesced
    w = res.value
    for t in range(1000):
        w_next = advance(w, path.sample_at(t)).next
        res_t = cftp(path, 2, at=t + 1)
        assert res_t.coalesced
        assert res_t.value == w_next, (t, res_t.value, w_next)
        w = w_next
    for at in (0, 500):
        blk = path.block(at - 8192, 8192)
        deep = (0.0, 0.0)
        for d in zip(blk.tau.tolist(), blk.sigma.tolist(), blk.patience.tolist()):
            deep = advance(deep, DriverSample(*d)).next
        assert cftp(path, 2, at=at).value == deep, at
    _report("criterion 8 (coupling-from-the-past fixed point)",
            "stationary identity holds bit-exactly across 1000 consecutive "
            "indices; value equals the exact roll from empty 8192 indices "
            "earlier at indices 0 and 500")


# ---------------------------------------------------------------------------
# 9. Lattice reachable sets
# ---------------------------------------------------------------------------


def test_criterion_9_lattice_reachable_sets():
    rng = np.random.default_rng(909)
    for _ in range(10):
        spec = random_lattice_spec(rng)
        path = StationaryPath(spec)
        sets = reachable_profile(path, 2, range(0, 13))
        assert all(b.points <= a.points for a, b in zip(sets, sets[1:])), spec
        sizes = [len(s) for s in sets]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    # independent coordinates, positive probability of sigma < tau
    from impatientq.metrics import estimate_conditions

    spec = random_lattice_spec(np.random.default_rng(4), alpha=1.0)
    path = StationaryPath(spec)
    assert estimate_conditions(path, 2, 2_000).sigma_lt_tau.probability > 0.0
    depth = 10 * 2
    singletons = sum(
        len(reachable_profile(path, 2, (depth,), at=401 * t)[0]) == 1
        for t in range(30)
    )
    assert singletons > 0
    _report("criterion 9 (lattice reachable sets)",
            f"nesting holds at every depth over 10 configs; singleton fraction "
            f"{singletons}/30 at depth {depth} under independent inputs")


# ---------------------------------------------------------------------------
# 10. Byte-identical reproducibility
# ---------------------------------------------------------------------------


REPRO_INI = """
[experiment]
servers = 2
seed = 90210

[model]
kind = iid

[tau]
dist = exponential
rate = 1.0

[sigma]
dist = exponential
rate = 0.6

[patience]
dist = uniform
low = 0.0
high = 2.0

[run]
n_arrivals = 20000
n_samples = 20000
renovation_start = 0
renovation_end = 999
"""


def test_criterion_10_reproducibility(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(REPRO_INI)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for cmd in ("validate", "bounds", "cftp", "renovate", "simulate"):
        assert cli_main([cmd, "--config", str(cfg), "--out", str(out_a)]) == 0
        assert cli_main([cmd, "--config", str(cfg), "--out", str(out_b)]) == 0
    files = sorted(p.name for p in out_a.iterdir())
    assert files == sorted(p.name for p in out_b.iterdir())
    for name in files:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    seeds = {json.loads((out_a / n).read_text())["seed"]
             for n in files if n.endswith(".json")}
    assert seeds == {90210}
    _report("criterion 10 (reproducibility)",
            f"{len(files)} output files byte-identical across repeated runs")
