import dataclasses
import json
import pickle
import sys
from collections import OrderedDict

import numpy as np
import pytest

from impatientq import coupling
from impatientq.coupling import (
    _bounding_chain,
    _ordered_boxes,
    _rank,
    _rank_tables,
    _suffix_minima,
    cftp,
    detect_renovation,
    reachable_profile,
)
from impatientq.errors import ConfigurationError, ContractError, ResourceCapError
from impatientq.kernel import advance, advance_lattice
from impatientq.loynes import envelope_states, exact_states
from impatientq.metrics import bound_report, estimate_conditions
from impatientq.sequences import (
    Deterministic,
    DriverSample,
    Exponential,
    LatticeDiscrete,
    SequenceSpec,
    StationaryPath,
    Uniform,
)
from support import (
    CERTIFY,
    DRAIN,
    GROWTH,
    LATTICE,
    MM_SPEC,
    advance_direct_batch,
    cftp_from_unaligned_starts,
    deep_envelope,
    det_spec,
    iid_spec,
    ordered_box_reference,
    random_heavy_spec,
    random_iid_spec,
    random_lattice_spec,
    random_mm_spec,
    reachable_profile_reference,
    reference_sweep_configs,
    renovation_box,
)

MM2D = iid_spec(17, Exponential(1.0), Exponential(0.6), Deterministic(1.0))

# Deterministic config whose exact map has two disjoint limit cycles:
# always accepted (patience 1 >= state mod the cycle), drift +0.2 per step
# until rejection resets. Trajectories from different starts never merge,
# and the upper state is constant 1.2 > 0, so no renovation index exists.
TWO_CYCLES = det_spec(2, tau=1.0, sigma=1.2, patience=1.0)


def test_renovation_everywhere_when_draining():
    scan = detect_renovation(StationaryPath(DRAIN), 1, (0, 99))
    assert scan.frequency == 1.0
    assert len(scan.events) == 100
    assert scan.events[0].tau_sums == ()   # servers - 1 gap sums
    assert scan.events[0].y_estimate == (0.0,)


def test_no_renovation_in_growth():
    scan = detect_renovation(StationaryPath(GROWTH), 1, (0, 199))
    assert scan.frequency == 0.0
    assert scan.events == ()


def test_renovation_events_witnesses():
    scan = detect_renovation(StationaryPath(MM2D), 2, (0, 499))
    assert 0.0 < scan.frequency < 1.0
    path = StationaryPath(MM2D)
    for ev in scan.events[:10]:
        assert ev.y_estimate[0] == 0.0
        assert len(ev.tau_sums) == 2 - 1   # servers - 1
        assert ev.y_estimate[1] <= ev.tau_sums[0]
        assert ev.tau_sums[0] == path.sample_at(ev.index).tau


def test_empty_window_rejected():
    with pytest.raises(ValueError):
        detect_renovation(StationaryPath(DRAIN), 1, (5, 4))


def test_renovation_frequency_consistent_with_conditions():
    from impatientq.metrics import estimate_conditions

    path = StationaryPath(MM2D)
    n = 2_000
    scan = detect_renovation(path, 2, (0, n - 1))
    rep = estimate_conditions(path, 2, n)
    assert scan.frequency == rep.renovation.probability


def test_unstabilized_estimate_disables_detection():
    # infinite patience: the upper supremum is infinite, so there is no box
    # to read the upper estimate from and detection is refused
    spec = iid_spec(3, Exponential(1.0), Exponential(2.0), Deterministic(float("inf")))
    path = StationaryPath(spec)
    with pytest.raises(ConfigurationError, match="top supremum is not finite"):
        detect_renovation(path, 1, (0, 9))


SWEEP = reference_sweep_configs()


@pytest.mark.parametrize("name, spec, servers", SWEEP, ids=[c[0] for c in SWEEP])
def test_renovation_events_against_deep_reference(name, spec, servers):
    # 20 windows of 100 indices: the events are the indices where the upper
    # iterate from empty 8192 indices before the window, rolled through it,
    # has an empty first coordinate and each coordinate l >= 2 at most the
    # sum of the l-1 gaps from that index.
    path = StationaryPath(spec)
    starts = np.arange(20) * 523 - 4000
    deep = deep_envelope(path, starts, "upper", servers)
    for a, y0 in zip(starts.tolist(), deep):
        states = envelope_states(path, a, 99, tuple(y0.tolist()), "upper")
        tau = path.block(a, 100 + servers).tau
        want = [a + i for i, y in enumerate(states.tolist())
                if y[0] == 0.0 and all(y[ell - 1] <= sum(tau[i : i + ell - 1].tolist())
                                       for ell in range(2, servers + 1))]
        scan = detect_renovation(path, servers, (a, a + 99))
        assert [ev.index for ev in scan.events] == want, (a, scan.estimate, tuple(y0.tolist()))
        assert all(len(ev.tau_sums) == servers - 1 for ev in scan.events)


def test_renovation_implies_coalescence():
    # Each event's box closes to one point S-1 steps on (in multiples of
    # alpha on LATTICE), and states sampled from the box, stepped by the
    # literal oracle, land on that point.
    rng = np.random.default_rng(0)
    for spec, servers in ((MM2D, 2), (LATTICE, 3)):
        path = StationaryPath(spec)
        scan = detect_renovation(path, servers, (0, 999))
        assert scan.events
        for ev in scan.events[:100]:
            lo, hi = renovation_box(path, servers, ev)
            assert lo == hi, (ev, lo, hi)
            y = np.asarray(ev.y_estimate)
            pts = np.vstack([np.zeros(servers), y, np.sort(rng.uniform(0.0, 1.0, size=(20, servers)) * y, axis=1)])
            blk = path.block(ev.index, servers - 1)
            for d in zip(blk.tau, blk.sigma, blk.patience):
                pts = advance_direct_batch(pts, *d)
            assert (pts == np.asarray(lo) * (spec.alpha if spec.is_lattice else 1.0)).all(), ev


def test_deterministic_two_server_coalescence_in_one_step():
    # gap 2, service 1, patience 1.5: the upper state is (0, 0.5) and every
    # index renovates; any start (0, a) with a <= 0.5 maps to (0, 0) in one
    # step (accept, merge {a, 1}, subtract 2, clip), so coalescence needs
    # exactly S-1 = 1 step
    spec = det_spec(5, tau=2.0, sigma=1.0, patience=1.5)
    path = StationaryPath(spec)
    est = cftp(path, 2, 0, kind="upper")
    assert est.value == (0.0, 0.5)
    scan = detect_renovation(path, 2, (0, 9))
    assert scan.frequency == 1.0
    assert scan.events[0].y_estimate == est.value
    assert renovation_box(path, 2, scan.events[0]) == ((0.0, 0.0), (0.0, 0.0))
    out = advance((0.0, 0.25), path.sample_at(0)).next
    assert out == (0.0, 0.0)


def test_single_server_coalescence_trivial():
    path = StationaryPath(DRAIN)
    scan = detect_renovation(path, 1, (0, 5))
    for ev in scan.events:
        assert renovation_box(path, 1, ev) == ((0.0,), (0.0,))


def test_negative_control_non_coalescence():
    path = StationaryPath(TWO_CYCLES)
    scan = detect_renovation(path, 1, (0, 99))
    assert scan.frequency == 0.0
    # distinct starts below the upper state stay distinct forever
    est = cftp(path, 1, 0, kind="upper")
    assert est.value == (2.2 - 1.0,)
    # S=1: zero steps, so the box [0, 1.2] stays open
    assert _bounding_chain(path, 0, 0, (0.0,), est.value) == ((0.0,), est.value)
    res = cftp(path, 1, max_horizon=64)
    assert not res.coalesced
    assert res.value is None
    assert res.horizon_used == 64


# ---------------------------------------------------------------------------
# CFTP
# ---------------------------------------------------------------------------


def test_cftp_drain_coalesces_immediately():
    res = cftp(StationaryPath(DRAIN), 2)
    assert res.coalesced and res.horizon_used == 16
    assert res.value == (0.0, 0.0)


def test_cftp_fixed_point_shift_consistency():
    path = StationaryPath(MM2D)
    res = cftp(path, 2)
    assert res.coalesced
    w = res.value
    for t in range(40):
        w_next = advance(w, path.sample_at(t)).next
        res_t = cftp(path, 2, at=t + 1)
        assert res_t.coalesced
        assert res_t.value == w_next
        w = w_next


def test_cftp_sandwich():
    path = StationaryPath(MM2D)
    res = cftp(path, 2)
    lower = cftp(path, 2, 0, kind="lower")
    upper = cftp(path, 2, 0, kind="upper")
    assert all(lo <= v + 1e-9 for lo, v in zip(lower.value, res.value))
    assert all(v <= up + 1e-9 for v, up in zip(res.value, upper.value))


def test_cftp_lattice_exact():
    spec = SequenceSpec(
        model="lattice", seed=21, alpha=0.5,
        tau=LatticeDiscrete(0.5, (2, 3), (0.5, 0.5)),
        sigma=LatticeDiscrete(0.5, (1, 2, 3), (0.5, 0.3, 0.2)),
        patience=Uniform(0.0, 2.0),
    )
    path = StationaryPath(spec)
    res = cftp(path, 2)
    assert res.coalesced
    assert all(v / 0.5 == int(v / 0.5) for v in res.value)
    w_next = advance(res.value, path.sample_at(0)).next
    res1 = cftp(path, 2, at=1)
    assert res1.value == w_next


@pytest.mark.parametrize("seed", [1, 2])
def test_cftp_equals_deep_forward_roll(seed):
    # reference: one exact scalar roll from empty, started 8192 indices
    # before the first target
    path = StationaryPath(dataclasses.replace(CERTIFY, seed=seed))
    blk = path.block(1 - 8192, 8192 + 499)
    w, deep = (0.0,) * 3, {}
    for n, d in enumerate(zip(blk.tau.tolist(), blk.sigma.tolist(), blk.patience.tolist()), 2 - 8192):
        w = advance(w, DriverSample(*d)).next
        deep[n] = w
    for t in range(1, 501):
        res = cftp(path, 3, at=t)
        assert res.coalesced and res.value == deep[t], (t, res, deep[t])
        assert res.z_risk <= 1e-12


def test_cftp_horizon_never_exceeds_max_horizon():
    # max_horizon below the starting horizon max(2S, 16) = 16 caps the start,
    # and a cap that is no power of two clips the grid start of the last
    # rung to at - max_horizon: on targets off every grid and negative
    # targets, also 37 indices later. An open chain spans the whole cap;
    # TWO_CYCLES never closes.
    open_chains = 0
    for spec, servers in ((CERTIFY, 3), (MM_SPEC, 2), (TWO_CYCLES, 1)):
        for offset in (0, 37):
            path = StationaryPath(spec)
            for t in (7, 23, 101, 999, -5, -77, -1000):
                at = t + offset
                for max_horizon in (1, 3, 4, 8, 16, 24, 32, 100, 1000):
                    res = cftp(path, servers, at=at, max_horizon=max_horizon)
                    assert res.horizon_used <= max_horizon, (spec.seed, at, max_horizon, res)
                    if res.coalesced:
                        free = cftp(StationaryPath(spec), servers, at=at)
                        assert res.value == free.value, (spec.seed, at, max_horizon, res)
                    else:
                        assert res.horizon_used == max_horizon, (spec.seed, at, max_horizon, res)
                        open_chains += 1
    assert open_chains >= 2 * 7 * 9, open_chains


def test_cftp_ladder_at_zero_is_unchanged():
    # At index 0 the grid starts of rung h are -h, so
    # the horizons are the doubling ladder 16, 32, 64, ... (from 2S when S
    # is above 8), or the cap.
    rng = np.random.default_rng(29)
    specs = [(CERTIFY, 3), (MM_SPEC, 2), (LATTICE, 3), (TWO_CYCLES, 1)]
    specs += [(random_iid_spec(rng), 1 + k % 3) for k in range(4)]
    specs += [(random_mm_spec(rng), 2), (random_lattice_spec(rng, alpha=0.5), 2), (CERTIFY, 9)]
    seen = set()
    for spec, servers in specs:
        first = max(2 * servers, 16)
        for kind in KINDS:
            for max_horizon in (64, 1 << 20):
                res = cftp(StationaryPath(spec), servers, at=0, max_horizon=max_horizon, kind=kind)
                ratio = res.horizon_used // first
                on_ladder = res.horizon_used == first * ratio and ratio & (ratio - 1) == 0
                assert on_ladder or res.horizon_used == max_horizon, (spec.seed, kind, res)
                seen.add(ratio)
    assert {1, 2, 4} <= seen, seen


@pytest.mark.parametrize("model", ["certify", "markov", "lattice", "random"])
def test_cftp_value_does_not_depend_on_the_start(model):
    # Every value where both close equals, bit for bit, the chain's from the
    # unaligned starts at - h with a fresh box read at each horizon.
    rng = np.random.default_rng(2930)
    if model == "random":
        cases = [(random_iid_spec(rng), 2), (random_mm_spec(rng), 3),
                 (random_lattice_spec(rng, alpha=0.5), 2), (random_heavy_spec(rng, 2), 2)]
    else:
        cases = [{"certify": (CERTIFY, 3), "markov": (MM_SPEC, 2), "lattice": (LATTICE, 3)}[model]]
    both = 0
    for spec, servers in cases:
        path = StationaryPath(spec)
        for kind in KINDS:
            for t in list(range(-40, 40, 3)) + [1000 + 17 * k for k in range(8)]:
                res = cftp(path, servers, at=t, max_horizon=256, kind=kind)
                want = cftp_from_unaligned_starts(StationaryPath(spec), servers, t, 256, kind)
                if res.coalesced and want is not None:
                    both += 1
                    assert np.array_equal(np.array(res.value).view(np.int64), np.array(want).view(np.int64)), \
                        (spec.seed, kind, t, res, want)
    assert both >= 50 * len(cases), both


def test_consecutive_cftp_targets_step_few_merges(monkeypatch):
    # 100 consecutive targets share their chains: each resumes the one
    # before by a step, 703 _merge_shift calls in all. A chain remembered
    # closed steps as a point from its first step; stepping both of its
    # ends took 798 calls. Without the memo the chains take 11,443 calls,
    # and from the unaligned starts at - h 11,805.
    calls = []
    merge_shift = coupling._merge_shift
    monkeypatch.setattr(coupling, "_merge_shift", lambda *a: calls.append(1) or merge_shift(*a))
    path = StationaryPath(CERTIFY)
    for t in range(1, 101):
        assert cftp(path, 3, at=t).coalesced
    assert len(calls) <= 703, len(calls)


def test_consecutive_cftp_targets_convert_each_page_once(monkeypatch):
    # The exact chains of 1,000 consecutive targets read their drivers as
    # slices of the path's converted pages: each page they touch is
    # converted once, where one conversion per chain would be about 1,800.
    from impatientq import loynes

    built, touched = [], set()
    exact_drivers, exact_lists = loynes._exact_drivers, loynes._exact_lists

    def spying(path, at, steps):
        if steps == 4096 and at % 4096 == 0:
            built.append(at // 4096)
        return exact_drivers(path, at, steps)

    def reading(path, at, steps):
        touched.update(range(at // 4096, (at + max(steps, 1) - 1) // 4096 + 1))
        return exact_lists(path, at, steps)

    monkeypatch.setattr(loynes, "_exact_drivers", spying)
    monkeypatch.setattr(coupling, "_exact_lists", reading)
    path = StationaryPath(CERTIFY)
    for t in range(1, 1001):
        assert cftp(path, 3, at=t).coalesced
    assert built and len(set(built)) == len(built) and set(built) <= touched, (built, touched)


def test_cftp_result_contract():
    # A coalesced result must carry a value, built positionally, by keyword
    # or by dataclasses.replace. A result is frozen; equal results compare
    # and hash equal and print alike; asdict, replace and pickle read back
    # the five fields.
    for build in (lambda: coupling.CftpResult(None, True, 16, 100, 1e-13),
                  lambda: coupling.CftpResult(value=None, coalesced=True, horizon_used=16, z_depth=100,
                                              z_risk=1e-13)):
        with pytest.raises(ValueError, match="coalesced result must carry a value"):
            build()
    res = cftp(StationaryPath(CERTIFY), 3, at=5)
    with pytest.raises(ValueError, match="coalesced result must carry a value"):
        dataclasses.replace(res, value=None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.value = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        del res.coalesced
    names = ["value", "coalesced", "horizon_used", "z_depth", "z_risk"]
    assert [f.name for f in dataclasses.fields(res)] == names
    same = coupling.CftpResult(res.value, True, res.horizon_used, res.z_depth, res.z_risk)
    again = cftp(StationaryPath(CERTIFY), 3, at=5)
    for other in (same, again, pickle.loads(pickle.dumps(res)), dataclasses.replace(res)):
        assert other == res and hash(other) == hash(res) and repr(other) == repr(res), other
    assert dataclasses.asdict(res) == dict(zip(names, (res.value, True, res.horizon_used, res.z_depth, res.z_risk)))
    assert repr(res) == (f"CftpResult(value={res.value!r}, coalesced=True, horizon_used={res.horizon_used!r}, "
                         f"z_depth={res.z_depth!r}, z_risk={res.z_risk!r})")
    open_chain = coupling.CftpResult(None, False, 64, 100, 1e-13)
    assert open_chain != res and len({res, open_chain, same}) == 2
    deeper = dataclasses.replace(open_chain, horizon_used=128)
    assert deeper == coupling.CftpResult(None, False, 128, 100, 1e-13) and open_chain.horizon_used == 64


def test_a_cftp_result_is_built_in_one_call():
    # Speed only: the result's own __init__ checks it and stores the five
    # fields in its __dict__ in one statement, one Python call a result
    # with no object.__setattr__; a frozen dataclass's generated __init__
    # sets each field through object.__setattr__ and then calls
    # __post_init__.
    calls = []
    sys.setprofile(lambda frame, event, arg: calls.append(frame.f_code.co_name) if event == "call" else None)
    try:
        coupling.CftpResult((1.0, 2.0), True, 16, 100, 1e-13)
    finally:
        sys.setprofile(None)
    assert calls == ["__init__"], calls
    assert "__setattr__" not in coupling.CftpResult.__init__.__code__.co_names


def test_a_start_met_again_moves_to_the_end_in_place():
    # Speed only: a chain entry already stored is refreshed with
    # move_to_end, never popped and stored again, and only a new start is
    # stored; the memo stays least recently used, so after each call the
    # start of its last rung is the most recent entry. 300 consecutive
    # targets meet a stored start on most rungs.
    stores, pops, moves = [], [], []

    class Counting(OrderedDict):
        def __setitem__(self, key, value):
            stores.append(key in self)
            super().__setitem__(key, value)

        def pop(self, *args):
            pops.append(args[0])
            return super().pop(*args)

        def move_to_end(self, key, last=True):
            moves.append(key)
            super().move_to_end(key, last)

    path = StationaryPath(CERTIFY)
    path._memo.chains = Counting()
    for t in range(1, 301):
        res = cftp(path, 3, at=t)
        assert next(reversed(path._memo.chains)) == (t - res.horizon_used, 3), t
    assert not any(stores) and not pops and len(moves) > 300, (sum(stores), len(pops), len(moves))
    assert len(stores) == len(path._memo.chains), len(stores)


def test_consecutive_cftp_targets_share_driver_generations(monkeypatch):
    # Every horizon of every target reads a window inside one page cover of
    # the path's memo; one window per read would generate over 200 times.
    # A grid start lies up to 2h - 1 indices before its target, and the box
    # read asks for a window that reaches the target, so the read and the
    # chain share one cover even when the chain crosses a page edge (index
    # 4096) where the box read alone would stop.
    from impatientq import sequences

    generated = []
    uniforms = sequences.stream_uniforms

    def counting(seed, stream, start, count):
        if stream == sequences.STREAM_TAU:
            generated.append((start, count))
        return uniforms(seed, stream, start, count)

    monkeypatch.setattr(sequences, "stream_uniforms", counting)
    path = StationaryPath(CERTIFY)
    for t in range(1, 101):
        assert cftp(path, 3, at=t).coalesced
    assert 1 <= len(generated) <= 2, generated
    for t in range(4097, 4112):
        generated.clear()
        assert cftp(StationaryPath(CERTIFY), 3, at=t).coalesced
        assert len(generated) == 1, (t, generated)


def test_consecutive_cftp_targets_read_each_box_once(monkeypatch):
    # Rung h starts target t on the last multiple of h at or before t - h,
    # so consecutive targets share their starts, and a multiple of 32 or 64
    # is a start of rung 16 too: past the first 128 targets only every
    # sixteenth target meets a new start, and 100 targets read 6 boxes.
    # From the starts t - h, cftp would read one box per target here, and
    # about 2.3 with no chain memo as well.
    from impatientq import coupling

    reads = []
    certified = coupling.certified_supremum
    monkeypatch.setattr(coupling, "certified_supremum", lambda *a, **k: reads.append(a) or certified(*a, **k))
    path = StationaryPath(CERTIFY)
    horizons = [cftp(path, 3, at=t).horizon_used for t in range(1, 129)]
    reads.clear()
    for t in range(129, 229):
        assert cftp(path, 3, at=t).coalesced
    assert max(horizons) <= 128 and 1 <= len(reads) <= 6, len(reads)


def test_every_kind_starts_from_one_box_read(monkeypatch):
    # The exact chain and both envelopes' start from one box per start and
    # server count: whichever kind reaches a start first reads it, and the
    # others take it from the memo. All three kinds run at several targets,
    # in every order of the kinds, on one path each, against a fresh path
    # per call, field for field. On the lattice the exact chain runs in
    # multiples beside the envelopes' float chains from the same box.
    import itertools

    from impatientq import coupling

    reads = []
    certified = coupling.certified_supremum
    monkeypatch.setattr(coupling, "certified_supremum",
                        lambda *a, **k: reads.append(a[1:3]) or certified(*a, **k))
    targets = (0, 5, -40, 37, 300)
    for spec, servers in ((MM_SPEC, 2), (CERTIFY, 3), (LATTICE, 3)):
        fresh = {(kind, at): _fields(cftp(StationaryPath(spec), servers, at=at, kind=kind))
                 for kind in KINDS for at in targets}
        for order in itertools.permutations(KINDS):
            reads.clear()
            path = StationaryPath(spec)
            for at in targets:
                for kind in order:
                    assert _fields(cftp(path, servers, at=at, kind=kind)) == fresh[kind, at], (order, kind, at)
            assert sorted(reads) == sorted(path._memo.chains), (spec.seed, order, reads)
            assert max(len(chains) for _, chains in path._memo.chains.values()) == 3, (spec.seed, order)


KINDS = ("exact", "lower", "upper")


def _fields(res):
    return res.value, res.coalesced, res.horizon_used, res.z_depth, np.float64(res.z_risk).view(np.int64)


@pytest.mark.parametrize("family", ["iid", "lattice", "markov"])
def test_cftp_memo_changes_no_result(family):
    # one path shared by every call against a fresh path per call, over
    # ascending, descending, shuffled and strided targets, mixed server
    # counts and horizon caps. The fixed models reach horizons 32-128, so
    # later targets resume remembered chains, or on descending targets meet
    # chains already past them; a cap of 16 leaves some chains open. The
    # heavy iid and Markov specs reach deeper horizons and resume box reads
    # over long runs without a reset. Every target runs the exact map and
    # both envelopes, in a rotating order, so the chains of all three kinds
    # start at the same indices of one path, from one box: a memo that did
    # not tell the kinds apart would hand one kind's chain to another.
    rng = np.random.default_rng(1818)
    fixed, draw = {"iid": (CERTIFY, random_iid_spec),
                   "lattice": (LATTICE, lambda r: random_lattice_spec(r, alpha=0.5)),
                   "markov": (MM_SPEC, random_mm_spec)}[family]
    specs = [fixed, draw(rng), draw(rng)]
    if family != "lattice":
        specs.append(random_heavy_spec(rng, 2, {"iid": "iid", "markov": "markov_modulated"}[family]))
    open_chains = 0
    for k, spec in enumerate(specs):
        shared = StationaryPath(spec)
        for order in range(4):
            targets = list(range(-20, 20))
            if order == 1:
                targets.reverse()
            elif order == 2:
                rng.shuffle(targets)
            elif order == 3:
                targets = [7 * t for t in targets]
            servers = (3, 3, 2, 3)[order] if k == 0 else 1 + (order + k) % 3
            for i, t in enumerate(targets):
                max_horizon = (16, 64, 1 << 20)[i % 3]
                turn = i // 3 % 3
                for kind in (KINDS[turn:] + KINDS[:turn]):
                    res = cftp(shared, servers, at=t, max_horizon=max_horizon, kind=kind)
                    fresh = cftp(StationaryPath(spec), servers, at=t, max_horizon=max_horizon, kind=kind)
                    assert _fields(res) == _fields(fresh), (k, order, t, servers, max_horizon, kind)
                    open_chains += not res.coalesced
    assert open_chains > 0


def _bits(x):
    """``x`` for an exact comparison: dataclasses field by field, arrays by
    dtype, shape and bytes, and every float by its bits."""
    if dataclasses.is_dataclass(x):
        return type(x).__name__, tuple(_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (tuple, list)):
        return tuple(_bits(v) for v in x)
    return np.float64(x).tobytes() if isinstance(x, float) else x


def _entry_point_calls(spec):
    """Every entry point that reads a path's memos, each a call on a path:
    the sandwich report at a, cftp of each kind at targets before and after
    a, a renovation scan, the condition estimates, an exact roll and, on
    the lattice, a reachable profile. Their windows cross the page edge at
    12288, so the cover moves between calls."""
    a = 12_200
    calls = [lambda p: bound_report(p, 2, 300, at=a, keep_samples=True)]
    calls += [lambda p, t=t, kind=kind: cftp(p, 2, at=t, kind=kind)
              for t in (a - 40, a + 7, a + 150) for kind in KINDS]
    calls += [lambda p: detect_renovation(p, 2, (a - 20, a + 120)),
              lambda p: estimate_conditions(p, 2, 300, at=a + 50),
              lambda p: exact_states(p, a + 10, 200, cftp(p, 2, at=a + 10).value)]
    if spec.is_lattice:
        calls.append(lambda p: reachable_profile(p, 2, (0, 4, 9), at=a + 20))
    return calls


@pytest.mark.parametrize("spec", [CERTIFY, MM_SPEC, LATTICE], ids=["iid", "markov", "lattice"])
def test_mixed_entry_points_on_one_path(spec):
    # The entry points run in turn on one path, in two orders, against a
    # fresh path per call.
    calls = _entry_point_calls(spec)
    fresh = [_bits(call(StationaryPath(spec))) for call in calls]
    for order in (calls, calls[::-1]):
        path = StationaryPath(spec)
        for call in order:
            k = calls.index(call)
            assert _bits(call(path)) == fresh[k], (k, order is calls)


@pytest.mark.parametrize("spec", [CERTIFY, MM_SPEC, LATTICE], ids=["iid", "markov", "lattice"])
def test_eviction_changes_no_result(spec):
    # One path driven past every bound of its memo: the entry points, then
    # cftp at more than CHAIN_MEMO targets 1,100 apart, each a start of its
    # own, over 292 pages (on the Markov path, chain blocks, more than the
    # 256 kept). Every entry the entry points and the first targets left is
    # evicted; read again, each equals a fresh path's, floats by their bits.
    calls = _entry_point_calls(spec)
    fresh = [_bits(call(StationaryPath(spec))) for call in calls]
    path = StationaryPath(spec)
    assert [_bits(call(path)) for call in calls] == fresh
    targets = [10**7 + 1100 * k for k in range(coupling.CHAIN_MEMO + 60)]
    first = [_bits(cftp(path, 2, at=t)) for t in targets[:20]]
    for t in targets[20:]:
        cftp(path, 2, at=t)
    memo = path._memo
    assert len(memo.chains) == coupling.CHAIN_MEMO and min(memo.chains)[0] > targets[19]
    if spec.model == "markov_modulated":
        assert len(memo.blocks) == 256 and min(memo.blocks) > targets[19] // 4096
    assert [_bits(call(path)) for call in calls] == fresh
    assert [_bits(cftp(path, 2, at=t)) for t in targets[:20]] == first
    assert first == [_bits(cftp(StationaryPath(spec), 2, at=t)) for t in targets[:20]]


@pytest.mark.parametrize("max_horizon", [0, -5])
def test_cftp_refuses_max_horizon_below_one(monkeypatch, max_horizon):
    # refused before any box read, naming the argument
    from impatientq import coupling

    monkeypatch.setattr(coupling, "certified_supremum", None)
    with pytest.raises(ValueError, match="max_horizon"):
        cftp(StationaryPath(CERTIFY), 3, at=0, max_horizon=max_horizon)


@pytest.mark.parametrize("at, max_horizon", [(0, 64.0), (0, 100.5), (7.0, 64)])
def test_cftp_refuses_a_float_index(monkeypatch, at, max_horizon):
    # Read as an index, as ``block`` reads its own: refused before any box
    # read, not at the first rung that reaches a float max_horizon (GROWTH's
    # chain never closes).
    from impatientq import coupling

    reads = []
    monkeypatch.setattr(coupling, "certified_supremum", lambda *args: reads.append(args))
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        cftp(StationaryPath(GROWTH), 1, at=at, max_horizon=max_horizon)
    assert reads == []


def test_cftp_reads_numpy_integers_as_ints():
    # A numpy index gives the result of the same Python int, whose fields
    # ``json.dumps`` takes.
    res = cftp(StationaryPath(CERTIFY), 2, at=np.int64(7), max_horizon=np.int64(1 << 20))
    assert type(res.horizon_used) is int
    assert res == cftp(StationaryPath(CERTIFY), 2, at=7)
    json.dumps(dataclasses.asdict(res))


def test_cftp_refuses_unknown_kind(monkeypatch):
    # refused before any box read, naming the argument
    from impatientq import coupling

    monkeypatch.setattr(coupling, "certified_supremum", None)
    with pytest.raises(ValueError, match="kind must be 'exact', 'lower' or 'upper', got 'middle'"):
        cftp(StationaryPath(CERTIFY), 3, at=0, kind="middle")


def test_cftp_memo_stays_bounded():
    # targets 17 apart share no start, so 3000 of them fill the memo
    from impatientq import coupling

    path = StationaryPath(CERTIFY)
    for t in range(3000):
        cftp(path, 3, at=17 * t)
        assert len(path._memo.chains) <= coupling.CHAIN_MEMO
    assert len(path._memo.chains) == coupling.CHAIN_MEMO


def test_cftp_lattice_equals_deep_advance_lattice_loop():
    path = StationaryPath(LATTICE)
    blk = path.lattice_block(1 - 8192, 8192 + 299)
    u, deep = (0, 0, 0), {}
    for n, d in enumerate(zip(blk.tau.tolist(), blk.sigma.tolist(), blk.patience.tolist()), 2 - 8192):
        u = advance_lattice(u, *d, 0.5)[0]
        deep[n] = tuple(float(k) * 0.5 for k in u)
    for t in range(1, 301):
        res = cftp(path, 3, at=t)
        assert res.coalesced and res.value == deep[t], (t, res, deep[t])


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("model", ["certify", "lattice", "markov"])
def test_cftp_anchor_rolls_into_every_later_target(monkeypatch, model, seed):
    # Once the chain closes at ``at``, the stationary workload at every later
    # index is the exact recursion rolled from that value: the identity that
    # lets ``metrics.bound_report`` anchor one roll with one ``cftp`` call.
    # Chunks of 100 steps send the roll through its lanes and seam repairs.
    from impatientq import loynes

    monkeypatch.setattr(loynes, "CHUNK", 100)
    spec, servers = {"certify": (CERTIFY, 3), "lattice": (LATTICE, 3), "markov": (MM_SPEC, 2)}[model]
    path = StationaryPath(dataclasses.replace(spec, seed=seed))
    at, n = 1, 1000
    anchor = cftp(path, servers, at=at)
    assert anchor.coalesced
    states = loynes.exact_states(path, at, n - 1, anchor.value)[0]
    for i in range(n):
        res = cftp(path, servers, at=at + i)
        assert res.coalesced, (at + i, res)
        assert np.array_equal(np.array(res.value).view(np.int64), states[i].view(np.int64)), \
            (at + i, res.value, states[i])


def test_bounding_chain_contains_every_trajectory():
    # random states of a random box [0, top], stepped by the exact map, stay
    # inside the chain's interval after every step
    rng = np.random.default_rng(4242)
    for trial in range(36):
        family = trial % 3
        if family == 0:
            spec = random_iid_spec(rng)
        elif family == 1:
            spec = random_lattice_spec(rng, alpha=0.5)
        else:
            spec = random_mm_spec(rng)
        servers = int(rng.integers(1, 5))
        path = StationaryPath(spec)
        start, steps = int(rng.integers(-5000, 5000)), 40
        if spec.is_lattice:   # every ordered lattice state of the box
            top_mult = np.sort(rng.integers(0, 13, size=servers))
            box = (0,) * servers, tuple(top_mult.tolist())
            states = list(map(tuple, _ordered_boxes([top_mult.tolist()], 10**6, ["top"])[0].tolist()))
            blk = path.lattice_block(start, steps)
            step = lambda u, i: advance_lattice(u, int(blk.tau[i]), int(blk.sigma[i]),  # noqa: E731
                                                float(blk.patience[i]), 0.5)[0]
        else:
            top = tuple(np.sort(rng.uniform(0.0, 6.0, size=servers)).tolist())
            box = (0.0,) * servers, top
            states = [tuple(p) for p in (np.sort(rng.uniform(0.0, 1.0, size=(30, servers)), axis=1)
                                         * np.asarray(top)).tolist()] + [(0.0,) * servers, top]
            step = lambda u, i: advance(u, path.sample_at(start + i)).next  # noqa: E731
        for i in range(steps):
            states = [step(u, i) for u in states]
            lo, hi = _bounding_chain(path, start, i + 1, *box)
            for u in states:
                assert all(a <= b <= c for a, b, c in zip(lo, u, hi)), (trial, i, lo, u, hi)


def test_bounding_chain_resumes_bit_for_bit():
    # the chain run over j steps and resumed from its interval over the rest
    # ends where one run over every step does, for every j: what lets
    # ``cftp`` resume a remembered chain
    rng = np.random.default_rng(4343)
    for trial in range(12):
        spec = (random_iid_spec, lambda r: random_lattice_spec(r, alpha=0.5), random_mm_spec)[trial % 3](rng)
        servers = int(rng.integers(1, 5))
        path = StationaryPath(spec)
        start, steps = int(rng.integers(-5000, 5000)), 40
        if spec.is_lattice:
            box = (0,) * servers, tuple(np.sort(rng.integers(0, 13, size=servers)).tolist())
        else:
            box = (0.0,) * servers, tuple(np.sort(rng.uniform(0.0, 6.0, size=servers)).tolist())
        whole = _bounding_chain(path, start, steps, *box)
        for j in range(steps + 1):
            assert _bounding_chain(path, start + j, steps - j, *_bounding_chain(path, start, j, *box)) == whole, \
                (trial, j)


def test_certified_box_dominates_deep_states():
    # the start box: the exact workload and the upper envelope iterate, both
    # from empty 4096 indices back, sit under the certified supremum vector
    from impatientq.loynes import exact_states, supremum_bound

    rng = np.random.default_rng(515)
    for trial in range(40):
        spec = (random_iid_spec, random_mm_spec)[trial % 2](rng)
        servers = int(rng.integers(1, 5))
        path = StationaryPath(spec)
        at = int(rng.integers(-10_000, 10_000))
        exact = exact_states(path, at - 4096, 4096, (0.0,) * servers)[0][-1]
        upper = envelope_states(path, at - 4096, 4096, (0.0,) * servers, "upper")[-1]
        depth = servers
        zb = supremum_bound(path, at, depth, servers)
        while not zb.stabilized:
            depth *= 2
            zb = supremum_bound(path, at, depth, servers)
        assert all(w <= u <= z for w, u, z in zip(exact, upper, zb.values)), (trial, exact, upper, zb)


_FAMILIES = {"iid": random_iid_spec, "mm": random_mm_spec, "lattice": lambda r: random_lattice_spec(r, alpha=0.5)}
LOWER_BOX_SPECS = SWEEP + [(f"random-{family}-{k}", _FAMILIES[family](np.random.default_rng(3838 + k)), 1 + k % 4)
                           for k, family in enumerate(list(_FAMILIES) * 4)]


@pytest.mark.parametrize("name, spec, servers", LOWER_BOX_SPECS, ids=[c[0] for c in LOWER_BOX_SPECS])
def test_lower_envelope_starts_from_the_upper_box(name, spec, servers):
    # The lower envelope's chain starts from the upper certified box. At 40
    # indices its iterate from empty 8192 indices back lies under that box,
    # componentwise, and cftp of the lower kind equals it bit for bit.
    from impatientq.loynes import certified_supremum

    path = StationaryPath(spec)
    ats = np.arange(-5000, 5000, 250)
    deep = deep_envelope(path, ats, "lower", servers)
    for at, ref in zip(ats.tolist(), deep):
        box = np.array(certified_supremum(StationaryPath(spec), at, servers).values)   # read alone
        assert (ref <= box).all(), (at, ref, box)
        est = cftp(path, servers, at, kind="lower")
        assert est.coalesced and np.array(est.value).view(np.int64).tolist() == ref.view(np.int64).tolist(), \
            (at, est, ref)


def test_cftp_reports_certified_box():
    res = cftp(StationaryPath(CERTIFY), 3, at=0)
    assert res.z_depth >= 3 and 0.0 <= res.z_risk <= 1e-12


def test_cftp_lattice_box_holds_the_stationary_state(monkeypatch):
    # On a lattice path the exact chain starts from the box of multiples
    # [0, floor(Z / alpha + 1e-9)]. On this queue the stationary state often
    # sits exactly on that top, so a box one multiple lower misses it. The
    # top of each fresh chain (a new path per target remembers no chain)
    # must hold the depth-64 reachable singleton at its start index, which
    # is the stationary state there. The chain itself stays open here: with
    # L0 <= D < U0 its hull keeps both 0 and a state of at least sigma - 1.
    spec = SequenceSpec(model="lattice", seed=3, alpha=1.0,
                        tau=LatticeDiscrete(1.0, (1,), (1.0,)),
                        sigma=LatticeDiscrete(1.0, (1, 2), (0.5, 0.5)),
                        patience=Deterministic(1.0))
    real, tops = coupling._bounding_chain, {}

    def chain(path, start, steps, lo, hi, kind="exact"):
        if kind == "exact":
            assert lo == (0,)
            tops[start] = hi
        return real(path, start, steps, lo, hi, kind)

    monkeypatch.setattr(coupling, "_bounding_chain", chain)
    for t in range(0, 600, 3):
        cftp(StationaryPath(spec), 1, at=t, max_horizon=64)
    on_top = 0
    for start, top in tops.items():
        (state,) = reachable_profile(StationaryPath(spec), 1, (64,), at=start)[0].points
        assert state <= top, (start, state, top)
        on_top += state == top
    assert len(tops) >= 200 and on_top >= len(tops) // 2, (len(tops), on_top)


def _rescaled(spec, c):
    """``spec`` with every time (gap, service, patience) multiplied by ``c``."""
    def law(d):
        if isinstance(d, Exponential):
            return Exponential(d.rate / c)
        if isinstance(d, Uniform):
            return Uniform(d.low * c, d.high * c)
        return Deterministic(d.value * c)
    return dataclasses.replace(spec, tau=law(spec.tau), sigma=law(spec.sigma), patience=law(spec.patience))


BOUNDED_WORK = iid_spec(5, Exponential(1.0), Uniform(0.5, 1.5), Deterministic(2.0))


@pytest.mark.parametrize("spec, servers, c", [
    (CERTIFY, 3, 2.0**7), (CERTIFY, 3, 2.0**-7), (BOUNDED_WORK, 2, 2.0**17),
], ids=["certify-x128", "certify-x1/128", "bounded-x2^17"])
def test_cftp_does_not_depend_on_the_time_unit(spec, servers, c):
    # A power-of-two time unit scales every sample, sum and difference
    # exactly, so the horizon, the box depth and its risk stay the same and
    # the value scales bit for bit. At x128 the patience rate is below 2^-8,
    # and at x2^17 e^(theta D) exceeds the float range for every theta
    # >= 2^-8, so only exponents scaled to the laws and taken in logs
    # certify both.
    base, scaled = StationaryPath(spec), StationaryPath(_rescaled(spec, c))
    for at in range(0, 40, 4):
        a, b = cftp(base, servers, at=at), cftp(scaled, servers, at=at)
        assert (b.horizon_used, b.z_depth, b.z_risk) == (a.horizon_used, a.z_depth, a.z_risk), at
        assert a.coalesced and b.value == tuple(c * v for v in a.value), at


SLOW_PATIENCE = iid_spec(8, Exponential(1.0), Exponential(2.0), Exponential(0.001))


def test_cftp_slow_patience_equals_deep_exact_roll():
    # a light queue whose box needs some 50,000 lags and whose upper chain
    # drains for thousands of steps
    from impatientq.loynes import exact_states

    path = StationaryPath(SLOW_PATIENCE)
    res = cftp(path, 2, at=1)
    assert res.coalesced and res.horizon_used < 2**15 and res.z_depth > 10_000
    deep = exact_states(path, 1 - 2**15, 2**15, (0.0, 0.0))[0][-1]
    assert res.value == tuple(deep.tolist())


def test_cftp_uncertified_box_hits_depth_cap(monkeypatch):
    # with the depth cap below the lags the certificate needs, cftp refuses
    import impatientq.loynes as loynes

    monkeypatch.setattr(loynes, "DEFAULT_MAX_DEPTH", 64)
    path = StationaryPath(SLOW_PATIENCE)
    for _ in range(2):   # a refused box is not remembered
        with pytest.raises(ResourceCapError, match="not certified"):
            cftp(path, 2)
        assert not path._memo.chains


def test_cftp_infinite_top_refused():
    spec = iid_spec(3, Exponential(1.0), Exponential(2.0), Deterministic(float("inf")))
    path = StationaryPath(spec)
    for _ in range(2):   # a refused box is not remembered
        with pytest.raises(ConfigurationError):
            cftp(path, 2)
        assert not path._memo.chains


# ---------------------------------------------------------------------------
# Lattice reachable sets
# ---------------------------------------------------------------------------


def test_reachable_set_trivial_box():
    spec = SequenceSpec(
        model="lattice", seed=4, alpha=1.0,
        tau=LatticeDiscrete(1.0, (2,), (1.0,)),
        sigma=LatticeDiscrete(1.0, (1,), (1.0,)),
        patience=Deterministic(0.0),
    )
    shallow, rs = reachable_profile(StationaryPath(spec), 1, (4, 5))
    assert rs.points == frozenset({(0,)})
    assert rs.points <= shallow.points


def test_reachable_profile_nesting_random_configs():
    rng = np.random.default_rng(31)
    for _ in range(6):
        spec = random_lattice_spec(rng)
        path = StationaryPath(spec)
        sets = reachable_profile(path, 2, range(0, 11))
        assert all(b.points <= a.points for a, b in zip(sets, sets[1:]))
        sizes = [len(s) for s in sets]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] >= 1
        # reachable points stay inside the sandwich box at the target index
        est = cftp(path, 2, 0, kind="upper")
        for s in sets:
            for p in s.points:
                assert all(k * s.alpha <= y + 1e-9 for k, y in zip(p, est.value))


def test_reachable_set_collapse_under_drift():
    # gaps at least 2, service at most 2, positive drain probability:
    # the box collapses to the empty state and stays a singleton
    spec = SequenceSpec(
        model="lattice", seed=91, alpha=1.0,
        tau=LatticeDiscrete(1.0, (2, 3), (0.5, 0.5)),
        sigma=LatticeDiscrete(1.0, (1, 2), (0.6, 0.4)),
        patience=Uniform(0.0, 1.5),
    )
    path = StationaryPath(spec)
    singleton = 0
    for t in range(20):
        rs = reachable_profile(path, 2, (20,), at=311 * t)[0]
        singleton += len(rs) == 1
    assert singleton > 0


def test_reachable_set_requires_lattice():
    with pytest.raises(ConfigurationError):
        reachable_profile(StationaryPath(MM2D), 2, (3, 4))


def test_reachable_set_cap():
    spec = SequenceSpec(
        model="lattice", seed=14, alpha=0.25,
        tau=LatticeDiscrete(0.25, (1, 2), (0.5, 0.5)),
        sigma=LatticeDiscrete(0.25, (2, 3, 8), (0.5, 0.3, 0.2)),
        patience=Uniform(2.0, 6.0),
    )
    with pytest.raises(ResourceCapError):
        reachable_profile(StationaryPath(spec), 3, (8,), cap=50)


def test_ordered_box_against_brute_force():
    rng = np.random.default_rng(808)
    for trial in range(60):
        servers = 1 + trial % 4
        caps = rng.integers(0, 7, size=servers)
        if trial % 3:   # the caps a rolled upper estimate gives are ascending
            caps = np.sort(caps)
        caps = caps.tolist()
        box, sizes = _ordered_boxes([caps], 10**6, ["one"])
        assert box.dtype == np.int64 and box.shape[1] == servers
        assert list(map(tuple, box.tolist())) == ordered_box_reference(caps), caps
        assert sizes.tolist() == [len(box)]


def test_ordered_box_cap_boundary():
    caps = [0, 2, 3, 5]
    size = len(ordered_box_reference(caps))
    assert len(_ordered_boxes([caps], size, ["one"])[0]) == size
    with pytest.raises(ResourceCapError) as exc:
        _ordered_boxes([caps], size - 1, ["one"])
    assert exc.value.cap == size - 1
    assert exc.value.requested == 1 * 3 * 4 * 6
    # a high cap before a low one bounds nothing: (0, 0) is the whole box
    assert _ordered_boxes([[5, 0]], 1, ["one"])[0].tolist() == [[0, 0]]


def test_ordered_boxes_batch_against_brute_force():
    # several boxes in one pass, each with its own caps, come back grouped
    # in row order, each equal to its own brute-force enumeration
    rng = np.random.default_rng(909)
    for trial in range(40):
        servers = 1 + trial % 4
        caps = rng.integers(0, 7, size=(1 + trial % 6, servers))
        if trial % 3:
            caps = np.sort(caps, axis=1)
        box, sizes = _ordered_boxes(caps, 10**6, [str(b) for b in range(len(caps))])
        assert box.dtype == np.int64 and box.shape == (int(sizes.sum()), servers)
        want = [ordered_box_reference(row) for row in caps.tolist()]
        assert sizes.tolist() == [len(w) for w in want], caps
        got = np.split(box, np.cumsum(sizes)[:-1])
        assert [list(map(tuple, g.tolist())) for g in got] == want, caps


@pytest.mark.parametrize("servers", [3, 4])
def test_ordered_boxes_peak_memory(servers):
    # the builder holds its columns and parent indices, not copies of the
    # growing box: at most twice the returned box at its peak (about 2.4x
    # when every column repeated and restacked the box)
    import tracemalloc

    caps = np.sort(np.random.default_rng(31).integers(20, 60 if servers == 3 else 30, size=(12, servers)), axis=1)
    tracemalloc.start()
    try:
        box, _ = _ordered_boxes(caps, 10**7, ["box"] * len(caps))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert box.nbytes > 4 * 2**20 and peak <= 2 * box.nbytes, (peak, box.nbytes)


def test_ordered_boxes_cap_names_the_box_over_it():
    # only the second box is over the cap: the error carries its own size
    # bound and name, not the first box's
    small, large = [1, 1, 2], [0, 2, 3, 5]
    cap = len(ordered_box_reference(large)) - 1
    assert len(ordered_box_reference([0] + small)) <= cap
    with pytest.raises(ResourceCapError) as exc:
        _ordered_boxes([[0] + small, large], cap, ["first", "second"])
    assert exc.value.cap == cap
    assert exc.value.requested == 1 * 3 * 4 * 6
    assert "second" in str(exc.value) and "first" not in str(exc.value)
    # two boxes over the cap at the same column: the first row is named
    with pytest.raises(ResourceCapError) as exc:
        _ordered_boxes([[4, 4], [6, 6]], 3, ["deep", "shallow"])
    assert exc.value.requested == 5 * 5 and "deep" in str(exc.value)
    # the first row passes the cap only at its last column, the second at
    # its first: the first column over the cap decides
    with pytest.raises(ResourceCapError) as exc:
        _ordered_boxes([[1, 1, 9], [6, 6, 6]], 5, ["deep", "shallow"])
    assert exc.value.requested == 7 ** 3 and "shallow" in str(exc.value)


def test_rank_tables_rank_every_box_row():
    # T[0, 0] of each box is its size, and the rank of every row of a box is
    # its place in the box's lexicographic order. Half the trials draw caps
    # that are not ascending, which need lowering to suffix minima; the
    # all-zero row holds one state.
    rng = np.random.default_rng(77)
    lowered = 0
    for trial in range(48):
        servers = 1 + trial % 8
        caps = rng.integers(0, 7 if servers <= 4 else 4, size=(1 + trial % 5, servers))
        if trial % 2:
            caps = np.sort(caps, axis=1)
        caps[-1] = 0
        tops = _suffix_minima(caps)
        lowered += int((tops != caps).any())
        box, sizes = _ordered_boxes(caps, 10**6, [str(b) for b in range(len(caps))])
        table, first = _rank_tables(tops)
        want = [len(ordered_box_reference(row)) for row in caps.tolist()]
        assert table[0, first].tolist() == sizes.tolist() == want, caps
        owner = np.repeat(np.arange(len(caps)), sizes)
        place = np.arange(len(box)) - (np.cumsum(sizes) - sizes)[owner]
        assert _rank(table, first[owner], box.T).tolist() == place.tolist(), caps
    assert lowered >= 10


def test_reachable_profile_in_groups_of_boxes(monkeypatch):
    # A cap just above the largest box steps the boxes in several groups;
    # every set, box size and nesting flag equals the run in one group, on
    # contiguous and on gapped depths.
    groups, real = [], coupling._groups

    def grouped(sizes, cap):
        groups.append(real(sizes, cap))
        return groups[-1]

    monkeypatch.setattr(coupling, "_groups", grouped)
    path = StationaryPath(LATTICE)
    for at, depths in ((0, range(31)), (257, range(31)), (514, (0, 1, 2, 5, 6, 9, 14, 15, 16, 30))):
        whole = reachable_profile(path, 3, depths, at=at)
        assert len(groups.pop()) == 1
        cap = max(s.box_size for s in whole) + 1
        assert reachable_profile(path, 3, depths, at=at, cap=cap) == whole, at
        assert len(groups.pop()) >= 3, at


def test_reachable_refusal_names_the_deepest_box_whatever_the_groups(monkeypatch):
    # Estimates lowered to the empty state at depths 1 and 5 leave images of
    # the depth-2 and depth-6 boxes above their boxes. The refusal names the
    # first image above the box at depth 5 (index -5), in one group of boxes
    # as in several.
    real = coupling.envelope_states

    def lowered(path, at, steps, u0, kind):
        out = real(path, at, steps, u0, kind).copy()
        out[[steps - 5, steps - 1]] = 0.0
        return out

    path = StationaryPath(LATTICE)
    sizes = np.array([s.box_size for s in reachable_profile(path, 3, range(31))][:0:-1])   # the stepped boxes
    monkeypatch.setattr(coupling, "envelope_states", lowered)
    pattern = r"at index -5 lies above the upper estimate's box \(0, 0, 0\)"
    messages = []
    for cap in (10**6, sizes.max() + 1):
        with pytest.raises(ContractError, match=pattern) as exc:
            reachable_profile(path, 3, range(31), cap=cap)
        messages.append(str(exc.value))
    assert len(coupling._groups(sizes, sizes.max() + 1)) >= 3 and messages[0] == messages[1]


def test_reachable_profile_peak_memory():
    # A large profile: S = 3, patience Uniform(0, 40), 1.75M box rows in 31
    # boxes, the largest 95k rows. Its traced peak is the rank of its group
    # of 1M images, 2.645 times the boxes' bytes before the roots were
    # composed by pointer jumping; the spare root buffer and the reach array
    # come after the groups and keep under it.
    import tracemalloc

    path = StationaryPath(dataclasses.replace(LATTICE, patience=Uniform(0.0, 40.0)))
    cftp(path, 3, -30, kind="upper")   # the estimate and its drivers, kept by the path
    tracemalloc.start()
    try:
        sets = reachable_profile(path, 3, range(31))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    boxes = 3 * 8 * sum(s.box_size for s in sets)
    assert boxes > 40 * 10**6 and len(sets[0]) == sets[0].box_size == 70_196
    assert peak <= 2.65 * boxes, (peak, boxes)


def test_reachable_profile_two_membership_words():
    # More than 64 depths, so a profile whose depths were packed into one
    # 64-bit word would fold the deepest sets into shallow ones. A null-drift
    # queue with long patience keeps those sets apart, so a mix-up shows.
    def spec(seed, tau, sigma, patience):
        return SequenceSpec(
            model="lattice", seed=seed, alpha=1.0,
            tau=LatticeDiscrete(1.0, tau, (1 / len(tau),) * len(tau)),
            sigma=LatticeDiscrete(1.0, sigma, (1 / len(sigma),) * len(sigma)),
            patience=Uniform(0.0, patience))

    cases = [(spec(1, (1, 3), (0, 4), 40.0), 1), (spec(3, (1, 3), (0, 4), 40.0), 1),
             (spec(1, (2,), (1, 3), 20.0), 2)]
    for lattice, servers in cases:
        path = StationaryPath(lattice)
        got = reachable_profile(path, servers, range(70))
        assert got == reachable_profile_reference(path, servers, range(70)), lattice
        if servers == 1:   # the depths past 64 hold sets of several sizes
            assert len(got[64]) > 1 and len(got[69]) == 1


def test_reachable_profile_against_per_depth_reference():
    # The bulk step of all depths at once against each depth's box stepped
    # on its own, state by state. The depths come unsorted, with a repeat
    # and gaps; a gapped profile is the contiguous one read at its depths.
    rng = np.random.default_rng(2718)
    compared = 0
    for trial in range(36):
        # heavier service than the default keeps the deep sets from collapsing
        spec = random_lattice_spec(rng, alpha=(1.0, 0.5)[trial % 2], sigma_max=2 + 3 * (trial % 3))
        servers = 1 + trial % 4
        at = int(rng.integers(-5000, 5001))
        if trial == 0:
            depths = (7, 0, 3, 3, 12)
        else:   # unsorted, with a repeat and gaps
            depths = [int(d) for d in rng.choice(13, size=4, replace=False)]
            depths.append(depths[int(rng.integers(4))])
        path = StationaryPath(spec)
        want = reachable_profile_reference(path, servers, depths, at)
        if not want[0].estimate_stabilized:
            with pytest.raises(ContractError):
                reachable_profile(path, servers, depths, at)
            continue
        got = reachable_profile(path, servers, depths, at)
        assert got == want, (trial, depths)
        contiguous = reachable_profile(path, servers, range(max(depths) + 1), at)
        assert got == [contiguous[s.depth] for s in got], (trial, depths)
        compared += 1
    assert compared >= 30


def test_coupling_at_negative_indices():
    path = StationaryPath(MM2D)
    scan = detect_renovation(path, 2, (-500, -301))
    res = cftp(path, 2, at=-173)
    assert res.coalesced
    # the renovation scan's memos change nothing
    assert cftp(StationaryPath(MM2D), 2, at=-173) == res
    lat = SequenceSpec(
        model="lattice", seed=21, alpha=0.5,
        tau=LatticeDiscrete(0.5, (2, 3), (0.5, 0.5)),
        sigma=LatticeDiscrete(0.5, (1, 2, 3), (0.5, 0.3, 0.2)),
        patience=Uniform(0.0, 2.0),
    )
    sets = reachable_profile(StationaryPath(lat), 2, range(0, 8), at=-97)
    assert all(b.points <= a.points for a, b in zip(sets, sets[1:]))


def test_reachable_set_depth_validation():
    spec = SequenceSpec(
        model="lattice", seed=4, alpha=1.0,
        tau=LatticeDiscrete(1.0, (2,), (1.0,)),
        sigma=LatticeDiscrete(1.0, (1,), (1.0,)),
        patience=Deterministic(0.0),
    )
    with pytest.raises(ValueError, match="non-negative"):
        reachable_profile(StationaryPath(spec), 1, (-1, 0))
    with pytest.raises(ValueError, match="at least one depth"):
        reachable_profile(StationaryPath(spec), 1, [])
    with pytest.raises(TypeError):   # not read as depth 2
        reachable_profile(StationaryPath(spec), 1, (2.5,))
