"""Seam-repair forward rolls against the scalar reference roll.

Every long roll in ``loynes`` runs as time-parallel lanes whose chunk seams
are repaired afterwards; the result must equal the plain scalar loop
(``loynes._scalar_roll``) bit for bit, not merely closely. The reference is
obtained by raising ``loynes.CHUNK`` past the roll length, which sends the
same call down the scalar loop. Lanes and loop share their arithmetic, so on
a lattice path the exact rows must also equal the ``advance_lattice`` loop,
scaled by ``alpha`` once.
"""

import math

import numpy as np
import pytest

from impatientq import loynes, metrics
from impatientq.kernel import _merge_shift, advance, advance_lattice
from impatientq.sequences import (
    Deterministic,
    DriverSample,
    Exponential,
    LatticeDiscrete,
    ModulationSpec,
    SequenceSpec,
    StationaryPath,
    Uniform,
)

from support import (
    DRAIN,
    NON_DYADIC,
    det_spec,
    iid_spec,
    random_iid_spec,
    random_lattice_spec,
    random_mm_spec,
)

CHUNK = loynes.CHUNK
STEPS = (2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1, 3 * CHUNK + 37)


def _identical(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    if a.dtype == np.float64:
        a, b = a.view(np.int64), b.view(np.int64)
    return a.shape == b.shape and np.array_equal(a, b)


def _rolls(path, at, steps, u0):
    """Every lane-rolled recursion of ``u0`` at ``at`` over ``steps``, as arrays."""
    states, accepted = loynes.exact_states(path, at, steps, u0)
    return {
        "exact": states,
        "accepted": accepted,
        "upper": loynes.envelope_states(path, at, steps, u0, "upper"),
        "lower": loynes.envelope_states(path, at, steps, u0, "lower"),
        "sandwich": loynes.sandwich_states(path, at, steps, u0, u0, u0),
    }


def _assert_matches_oracle(monkeypatch, path, at, steps, u0):
    lanes = _rolls(path, at, steps, u0)
    with monkeypatch.context() as m:
        m.setattr(loynes, "CHUNK", 1 << 40)
        scalar = _rolls(path, at, steps, u0)
    for name in scalar:
        assert _identical(lanes[name], scalar[name]), (name, steps, u0)
    if path.spec.is_lattice:
        states, accepted = _lattice_loop(path, at, steps, _multiples_of(path, u0))
        assert _identical(lanes["exact"], states * path.spec.alpha), (steps, u0)
        assert _identical(lanes["sandwich"][0], states * path.spec.alpha), (steps, u0)
        assert _identical(lanes["accepted"], accepted), (steps, u0)
    return lanes


SANDWICH = SequenceSpec(
    model="markov_modulated", seed=5,
    modulation=ModulationSpec(
        transition=((0.995, 0.005), (0.02, 0.98)),
        states=((Exponential(1.0), Exponential(0.6), Deterministic(1.0)),
                (Exponential(1.8), Exponential(0.6), Uniform(0.0, 2.0)))),
)
CERTIFY = iid_spec(7, Exponential(1.0), Exponential(0.4), Exponential(0.2))
MM1_HEAVY = iid_spec(3, Exponential(1.0), Exponential(1 / 0.95), Deterministic(math.inf))
S8_HEAVY = iid_spec(9, Exponential(1.0), Exponential(0.13), Uniform(0.0, 3.0))
LOSS = iid_spec(8, Exponential(1.0), Exponential(1.0), Deterministic(0.0))  # ties at W(1) = D = 0


@pytest.mark.parametrize("servers", [1, 2, 3, 8])
def test_random_sweep_matches_oracle(monkeypatch, servers):
    rng = np.random.default_rng(1000 + servers)
    for trial in range(3):
        spec = random_mm_spec(rng) if trial == 2 else random_iid_spec(rng)
        steps = STEPS[int(rng.integers(len(STEPS)))]
        at = int(rng.integers(-5000, 5000))
        _assert_matches_oracle(monkeypatch, StationaryPath(spec), at, steps, (0.0,) * servers)


@pytest.mark.parametrize("steps", STEPS)
def test_named_models_match_oracle(monkeypatch, steps):
    for spec, servers in ((SANDWICH, 2), (CERTIFY, 3), (MM1_HEAVY, 1), (S8_HEAVY, 8), (LOSS, 2),
                          (DRAIN, 2), (NON_DYADIC, 3)):
        _assert_matches_oracle(monkeypatch, StationaryPath(spec), 11, steps, (0.0,) * servers)


def test_exact_lanes_match_kernel_advance():
    # The scalar roll shares the acceptance rule with the lanes; check both
    # against the kernel's one-step map, on a model that ties W(1) = D.
    path = StationaryPath(LOSS)
    steps = 2 * CHUNK + 1
    states, accepted = loynes.exact_states(path, 0, steps, (0.0, 0.0))
    blk = path.block(0, steps)
    u = (0.0, 0.0)
    for i, d in enumerate(zip(blk.tau.tolist(), blk.sigma.tolist(), blk.patience.tolist())):
        out = advance(u, DriverSample(*d))
        assert bool(accepted[i]) == out.accepted
        u = out.next
        assert tuple(states[i + 1].tolist()) == u
    assert accepted.any() and not accepted.all()


def test_infinite_patience_states_match_oracle(monkeypatch):
    spec = iid_spec(21, Exponential(1.0), Exponential(0.7), Deterministic(math.inf))
    lanes = _assert_matches_oracle(monkeypatch, StationaryPath(spec), 0, 3 * CHUNK, (0.0, 0.0))
    assert np.isinf(lanes["upper"][2:]).all()


def test_start_far_above_stationarity_matches_oracle(monkeypatch):
    # Draining 1e3 units of work takes several chunks, so early seams stay
    # wrong until the repair catches up with the lanes.
    path = StationaryPath(CERTIFY)
    _assert_matches_oracle(monkeypatch, path, 0, 6 * CHUNK + 5, (400.0, 700.0, 1000.0))


def test_never_coalescing_repair_spans_every_seam(monkeypatch):
    # tau = sigma = 1 with unbounded patience holds the workload at 1000.5,
    # while every lane started from 0 stays at 0: no seam ever closes.
    path = StationaryPath(det_spec(1, 1.0, 1.0, math.inf))
    lanes = _assert_matches_oracle(monkeypatch, path, 0, 4 * CHUNK + 3, (1000.5,))
    assert (lanes["exact"] == 1000.5).all()
    assert lanes["accepted"].all()


def test_small_chunks_match_oracle(monkeypatch):
    # Many short chunks put a seam in nearly every transient.
    rng = np.random.default_rng(77)
    for servers in (1, 2, 4):
        spec = random_iid_spec(rng)
        with monkeypatch.context() as m:
            m.setattr(loynes, "CHUNK", 8)
            lanes = _rolls(StationaryPath(spec), 3, 700, (0.0,) * servers)
        with monkeypatch.context() as m:
            m.setattr(loynes, "CHUNK", 1 << 40)
            scalar = _rolls(StationaryPath(spec), 3, 700, (0.0,) * servers)
        for name in scalar:
            assert _identical(lanes[name], scalar[name]), (name, servers)


def test_bound_report_matches_scalar_rolls(monkeypatch):
    for spec, servers in ((SANDWICH, 2), (CERTIFY, 3)):
        path = StationaryPath(spec)
        lanes = metrics.bound_report(path, servers, 4000, keep_samples=True)
        with monkeypatch.context() as m:
            m.setattr(loynes, "CHUNK", 1 << 40)
            scalar = metrics.bound_report(path, servers, 4000, keep_samples=True)
        assert lanes == scalar
        assert _identical(lanes.samples, scalar.samples)


# ---------------------------------------------------------------------------
# The stacked exact, lower and upper roll against three scalar rolls
# ---------------------------------------------------------------------------


def _kernel_roll(u0, one_step, blk):
    """The scalar reference roll under one step ``one_step(u, DriverSample)``."""
    return loynes._scalar_roll(u0, lambda u, *d: one_step(u, DriverSample(*d)), blk)


def _assert_stacked_matches_scalar_rolls(path, at, steps, starts):
    blk = path.block(at, steps)
    stacked = loynes.sandwich_states(path, at, steps, *starts)
    assert stacked.shape == (3, steps + 1, len(starts[0]))
    lower = _kernel_roll(starts[1], lambda u, d: _merge_shift(u, min(d.sigma, d.patience), d.tau), blk)
    upper = _kernel_roll(starts[2], lambda u, d: _merge_shift(u, d.sigma + d.patience, d.tau), blk)
    if path.spec.is_lattice:   # the exact rows in the lattice's own arithmetic
        exact = _lattice_loop(path, at, steps, _multiples_of(path, starts[0]))[0] * path.spec.alpha
    else:
        exact = _kernel_roll(starts[0], lambda u, d: advance(u, d).next, blk)
    references = (exact, lower, upper)
    for name, rows, reference in zip(("exact", "lower", "upper"), stacked, references):
        assert _identical(rows, reference), (name, steps, starts)


def _ascending(rng, servers, scale):
    return tuple(np.sort(rng.uniform(0.0, scale, servers)).tolist())


@pytest.mark.parametrize("servers", [1, 2, 4])
def test_stacked_roll_matches_three_scalar_rolls(monkeypatch, servers):
    # Chunks of 8 steps put a seam in nearly every transient, and each
    # recursion starts elsewhere, so the three repair different seams.
    monkeypatch.setattr(loynes, "CHUNK", 8)
    rng = np.random.default_rng(3000 + servers)
    specs = (random_iid_spec(rng), random_mm_spec(rng), random_lattice_spec(rng),
             LOSS, LATTICE_TIES, NON_DYADIC)
    for spec in specs:
        path = StationaryPath(spec)
        for steps in (7, 16, 700):
            starts = ((0.0,) * servers, _ascending(rng, servers, 3.0), _ascending(rng, servers, 30.0))
            _assert_stacked_matches_scalar_rolls(path, int(rng.integers(-500, 500)), steps, starts)


# ---------------------------------------------------------------------------
# The lattice roll, in int64 multiples, against the ``advance_lattice`` loop
# ---------------------------------------------------------------------------

LATTICE_STEPS = (1, CHUNK - 1) + STEPS
# gap == service == step, patience on the lattice: every comparison ties
LATTICE_TIES = SequenceSpec(
    model="lattice", seed=6, alpha=1.0,
    tau=LatticeDiscrete(1.0, (1,), (1.0,)),
    sigma=LatticeDiscrete(1.0, (1,), (1.0,)),
    patience=LatticeDiscrete(1.0, (0, 1, 2), (0.4, 0.3, 0.3)),
)


def _lattice_loop(path, at, steps, u0):
    """The scalar lattice recursion, one ``advance_lattice`` call per index."""
    blk = path.lattice_block(at, steps)
    alpha = path.spec.alpha
    u, rows, accepted = u0, [u0], []
    for d in zip(blk.tau.tolist(), blk.sigma.tolist(), blk.patience.tolist()):
        u, ok = advance_lattice(u, *d, alpha)
        rows.append(u)
        accepted.append(ok)
    return np.array(rows, dtype=np.int64), np.array(accepted, dtype=bool)


def _multiples_of(path, u):
    """A start on the lattice in multiples of ``alpha``."""
    return tuple(round(v / path.spec.alpha) for v in u)


def _assert_lattice_matches_loop(path, at, steps, u0):
    """``exact_states`` from the multiples ``u0`` against the loop, scaled once."""
    alpha = path.spec.alpha
    states, accepted = loynes.exact_states(path, at, steps, tuple(k * alpha for k in u0))
    ref_states, ref_accepted = _lattice_loop(path, at, steps, u0)
    assert states.dtype == np.float64, steps
    assert _identical(states, ref_states * alpha), (steps, u0)
    assert _identical(accepted, ref_accepted), (steps, u0)


@pytest.mark.parametrize("servers", [1, 2, 3, 8])
def test_lattice_roll_matches_advance_lattice_loop(servers):
    rng = np.random.default_rng(2000 + servers)
    for steps in LATTICE_STEPS:
        spec = random_lattice_spec(rng, alpha=float(rng.choice([0.5, 1.0, 0.3])))
        for path in (StationaryPath(LATTICE_TIES), StationaryPath(spec)):
            _assert_lattice_matches_loop(path, int(rng.integers(-5000, 5000)), steps,
                                         (0,) * servers)


def test_lattice_roll_from_a_high_start_matches_loop():
    # A start far above stationarity keeps early seams wrong for a while.
    path = StationaryPath(random_lattice_spec(np.random.default_rng(12), alpha=0.5))
    _assert_lattice_matches_loop(path, 0, 6 * CHUNK + 5, (400, 700, 1000))


def test_lattice_roll_small_chunks_match_loop(monkeypatch):
    rng = np.random.default_rng(78)
    monkeypatch.setattr(loynes, "CHUNK", 8)
    for servers in (1, 2, 4):
        for path in (StationaryPath(LATTICE_TIES), StationaryPath(random_lattice_spec(rng))):
            _assert_lattice_matches_loop(path, 3, 700, (0,) * servers)


# ---------------------------------------------------------------------------
# The lane round and the walk after it
# ---------------------------------------------------------------------------


def _record_repairs(monkeypatch):
    """Replace ``loynes._repair`` by a wrapper that records each call's step and row."""
    calls, repair = [], loynes._repair

    def recorded(states, step, drivers, i):
        calls.append((step, i))
        return repair(states, step, drivers, i)

    monkeypatch.setattr(loynes, "_repair", recorded)
    return calls


def test_walk_runs_through_the_seams_of_one_stacked_recursion(monkeypatch):
    # Gaps and services of 1 with unbounded patience drain two servers by one
    # unit a step, so the exact rows from (300.5, 1000.5) stay high all roll
    # long while every exact lane started from 0 stays at 0: no exact seam
    # closes. Both envelopes close every seam within two steps. Seams stay
    # in the round until their exact rows hold too, and the walk then runs
    # the exact recursion alone from the second seam to the end.
    monkeypatch.setattr(loynes, "CHUNK", 8)
    calls = _record_repairs(monkeypatch)
    path = StationaryPath(det_spec(1, 1.0, 1.0, math.inf))
    _assert_stacked_matches_scalar_rolls(path, 0, 700, ((300.5, 1000.5), (0.0, 0.0), (0.0, 0.0)))
    assert len(calls) == 1 and calls[0][0] is loynes._exact_step
    assert 0 < calls[0][1] < 700


def test_seam_first_matching_on_its_last_row(monkeypatch):
    # Gaps of 1 and services of 0.5 drain the work by 0.5 a step, and a lane
    # started from 0 stays at 0. With 8 lanes of 8 steps, lane 0 ends at 4.0
    # from 8.0, and the seam restarting there reaches 0 exactly on its
    # lane's last row (row 16); every later seam restarts from 0 and holds
    # at once, so the round alone repairs the roll.
    monkeypatch.setattr(loynes, "CHUNK", 8)
    calls = _record_repairs(monkeypatch)
    path = StationaryPath(det_spec(1, 1.0, 0.5, math.inf))
    states, _ = loynes.exact_states(path, 0, 64, (8.0,))
    assert states[15, 0] == 0.5 and states[16, 0] == 0.0
    assert calls == []
    _assert_matches_oracle(monkeypatch, path, 0, 64, (8.0,))


def test_lattice_round_and_walk_match_loop(monkeypatch):
    # From far above stationarity the int64 lanes run through their seams,
    # so the walk repairs cascaded seams as well as the round.
    monkeypatch.setattr(loynes, "CHUNK", 8)
    calls = _record_repairs(monkeypatch)
    path = StationaryPath(random_lattice_spec(np.random.default_rng(12), alpha=0.5))
    _assert_lattice_matches_loop(path, 0, 700, (40, 70, 100))
    assert calls


def test_sandwich_report_needs_no_walk(monkeypatch):
    # The main job at the default chunk: every seam of every roll closes in
    # the lane round, with no scalar repair step.
    calls = _record_repairs(monkeypatch)
    metrics.bound_report(StationaryPath(SANDWICH), 2, 100_000)
    assert calls == []


def test_walk_resumes_at_the_seam_where_it_matched(monkeypatch):
    # Hand-made drivers: every step adds 0.25 to the workload, so distinct
    # rows stay distinct, except at index 23, where a deadline of 2 and a
    # gap of 20 send every row above 2 to 0 and lift a row below it by 80.
    # With 8 lanes of 8 steps, the walk from seam 2 (true row 14) first
    # matches the round's rows on row 24, which is seam 3's incoming row;
    # the round read it as 81.75 (lane 2 from its guess), so the walk must
    # resume there.
    monkeypatch.setattr(loynes, "CHUNK", 8)
    tau, sigma, deadline = np.full(64, 0.25), np.full(64, 0.5), np.full(64, math.inf)
    tau[23], sigma[23], deadline[23] = 20.0, 100.0, 2.0
    drivers = (tau, sigma, deadline)
    calls = _record_repairs(monkeypatch)
    rows = loynes._forward_roll((((10.0,), loynes._exact_step, drivers),), loynes._exact_lane_step,
                                drivers)[0]
    assert _identical(rows, loynes._scalar_roll((10.0,), loynes._exact_step, drivers))
    assert [i for _, i in calls][:2] == [16, 24]
