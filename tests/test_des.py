import csv
import dataclasses
import hashlib
import io
import math
from heapq import heapreplace

import numpy as np
import pytest

from impatientq import des
from impatientq.config import parse_config
from impatientq.des import Trace, cross_validate, run, write_trace
from impatientq.kernel import _merge_shift, advance_lattice
from impatientq.loynes import _exact_drivers, exact_states
from impatientq.sequences import (
    Deterministic,
    Exponential,
    LatticeDiscrete,
    SequenceSpec,
    StationaryPath,
    Uniform,
)
from support import LATTICE, det_spec, iid_spec, random_iid_spec, random_lattice_spec, random_mm_spec
from test_cli import LATTICE_INI, MM2D_INI


def test_hand_trace_single_server():
    spec = det_spec(1, tau=1.0, sigma=1.5, patience=0.0)
    trace = run(StationaryPath(spec), 1, 3)
    assert len(trace) == 3
    assert trace.seen.tolist() == [[0.0], [0.5], [0.0]]
    assert trace.served.tolist() == [True, False, True]


def test_periodic_loss_limit():
    spec = det_spec(1, tau=1.0, sigma=1.5, patience=0.0)
    trace = run(StationaryPath(spec), 1, 10_000)
    assert (~trace.served).sum() / 10_000 == 0.5


def test_infinite_patience_never_loses():
    spec = iid_spec(9, Exponential(1.0), Exponential(2.0), Deterministic(math.inf))
    trace = run(StationaryPath(spec), 1, 20_000)
    assert trace.served.all()
    assert cross_validate(StationaryPath(spec), 1, 20_000).passed


def test_zero_service_keeps_empty_workload():
    spec = iid_spec(4, Exponential(1.0), Deterministic(0.0), Uniform(0.0, 1.0))
    trace = run(StationaryPath(spec), 2, 2_000)
    assert trace.seen.shape == (2_000, 2) and not trace.seen.any()
    assert trace.served.all()


def test_loss_accounting():
    spec = iid_spec(12, Exponential(1.0), Exponential(0.5), Uniform(0.0, 1.0))
    trace = run(StationaryPath(spec), 2, 5_000)
    assert len(trace) == trace.served.size == 5_000 and trace.served.dtype == bool
    assert 0 < trace.served.sum() < 5_000


def test_decisions_match_patience_comparison():
    spec = iid_spec(13, Exponential(1.0), Exponential(0.7), Uniform(0.0, 2.0))
    path = StationaryPath(spec)
    trace = run(path, 3, 5_000)
    patience = path.block(0, 5_000).patience
    for i, (seen, served) in enumerate(zip(trace.seen.tolist(), trace.served.tolist())):
        assert served == (seen[0] <= patience[i])


def test_cross_validate_mm2():
    spec = iid_spec(5, Exponential(1.0), Exponential(0.7), Uniform(0.0, 2.0))
    report = cross_validate(StationaryPath(spec), 2, 50_000)
    assert report.passed
    assert report.max_discrepancy <= 1e-9
    assert report.first_divergence is None


def _corrupted(trace, flip=None, shift=None):
    """``trace`` with the decision at ``flip`` reversed and the workload at
    ``shift`` raised by 0.5 in every coordinate."""
    seen, served = trace.seen.copy(), trace.served.copy()
    if flip is not None:
        served[flip] = not served[flip]
    if shift is not None:
        seen[shift] += 0.5
    return Trace(seen, served)


def _row(trace, i):
    return tuple(trace.seen[i].tolist())


def _assert_python_divergence(div):
    idx, seen, state = div
    assert type(idx) is int
    assert all(type(v) is float for v in seen + state)


def test_cross_validate_reports_first_divergence(monkeypatch):
    # Corrupt the simulator's trace: a flipped decision at 40 and a
    # workload 0.5 off at 90. The first divergence is the earlier of the two.
    path = StationaryPath(iid_spec(5, Exponential(1.0), Exponential(0.7), Uniform(0.0, 2.0)))
    trace = run(path, 2, 3_000)
    honest = cross_validate(path, 2, 3_000)
    bad = _corrupted(trace, flip=40, shift=90)
    monkeypatch.setattr(des, "run", lambda *args: bad)
    report = cross_validate(path, 2, 3_000)
    assert not report.decisions_agree and not report.passed
    assert report.first_divergence[:2] == (40, _row(trace, 40))
    _assert_python_divergence(report.first_divergence)
    assert report.max_discrepancy >= 0.5 - honest.max_discrepancy
    # With only the workload corrupted, it is the first divergence.
    bad = _corrupted(trace, shift=90)
    report = cross_validate(path, 2, 3_000)
    assert report.decisions_agree
    idx, seen, state = report.first_divergence
    assert idx == 90 and seen == _row(bad, 90)
    _assert_python_divergence(report.first_divergence)
    assert max(abs(a - b) for a, b in zip(seen, state)) == report.max_discrepancy


def test_lattice_cross_validate_reports_first_divergence(monkeypatch):
    # The lattice twin of the test above: the recursion side is the integer
    # lane roll, scaled by alpha. Expected values come from the scalar
    # ``advance_lattice`` loop, as the lattice branch computed them before.
    spec = random_lattice_spec(np.random.default_rng(41), alpha=0.5)
    path = StationaryPath(spec)
    n = 3_000
    trace = run(path, 2, n)
    blk = path.lattice_block(0, n)
    u, states = (0, 0), []
    for tau, sigma, patience in zip(blk.tau.tolist(), blk.sigma.tolist(), blk.patience.tolist()):
        states.append(tuple(v * 0.5 for v in u))
        u, _ = advance_lattice(u, tau, sigma, patience, 0.5)
    honest = cross_validate(path, 2, n)
    assert honest.passed and honest.max_discrepancy == 0.0
    bad = _corrupted(trace, flip=40, shift=90)
    monkeypatch.setattr(des, "run", lambda *args: bad)
    report = cross_validate(path, 2, n)
    assert not report.decisions_agree and not report.passed
    assert report.first_divergence == (40, _row(trace, 40), states[40])
    _assert_python_divergence(report.first_divergence)
    assert report.max_discrepancy == 0.5
    bad = _corrupted(trace, shift=90)
    report = cross_validate(path, 2, n)
    assert report.decisions_agree and not report.passed
    assert report.first_divergence == (90, _row(bad, 90), states[90])
    assert report.max_discrepancy == 0.5


def test_cross_validate_null_patience_loss_system():
    # D = 0 degenerates to the pure loss system; decisions still agree
    spec = iid_spec(8, Exponential(1.0), Exponential(1.0), Deterministic(0.0))
    report = cross_validate(StationaryPath(spec), 2, 50_000)
    assert report.passed and report.decisions_agree


def test_cross_validate_markov_modulated():
    rng = np.random.default_rng(3)
    report = cross_validate(StationaryPath(random_mm_spec(rng)), 2, 20_000)
    assert report.passed


def test_cross_validate_random_configs():
    rng = np.random.default_rng(14)
    for _ in range(5):
        servers = int(rng.integers(1, 6))
        report = cross_validate(StationaryPath(random_iid_spec(rng)), servers, 10_000)
        assert report.passed, report


def test_adversarial_lattice_ties_exact():
    # gap == service == step: every comparison ties somewhere
    spec = SequenceSpec(
        model="lattice", seed=6, alpha=1.0,
        tau=LatticeDiscrete(1.0, (1,), (1.0,)),
        sigma=LatticeDiscrete(1.0, (1,), (1.0,)),
        patience=LatticeDiscrete(1.0, (0, 1, 2), (0.4, 0.3, 0.3)),
    )
    report = cross_validate(StationaryPath(spec), 2, 50_000)
    assert report.passed
    assert report.max_discrepancy == 0.0


def test_lattice_mixed_rates_exact():
    spec = SequenceSpec(
        model="lattice", seed=61, alpha=0.5,
        tau=LatticeDiscrete(0.5, (1, 2, 3), (0.3, 0.4, 0.3)),
        sigma=LatticeDiscrete(0.5, (0, 1, 2, 4), (0.1, 0.3, 0.3, 0.3)),
        patience=Uniform(0.0, 2.0),  # off-lattice patience is allowed
    )
    report = cross_validate(StationaryPath(spec), 3, 50_000)
    assert report.passed
    assert report.max_discrepancy == 0.0


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1 / 3, 7.3])
def test_lattice_run_equals_the_scalar_advance_lattice_loop(alpha):
    # The engine on int multiples and deadlines against the recursion
    # stepped by the scalar ``advance_lattice`` and its float comparison, on
    # patience on the lattice (ties), off it, and infinite.
    rng = np.random.default_rng(round(alpha * 1000))
    for patience in (Deterministic(math.inf), Deterministic(3 * alpha), Uniform(0.0, 4 * alpha),
                     Exponential(0.5 / alpha)):
        spec = dataclasses.replace(random_lattice_spec(rng, alpha=alpha, sigma_max=4), patience=patience)
        servers, n = int(rng.integers(1, 5)), 3000
        path = StationaryPath(spec)
        trace = run(path, servers, n)
        blk = path.lattice_block(0, n)
        u = (0,) * servers
        drivers = zip(blk.tau.tolist(), blk.sigma.tolist(), blk.patience.tolist())
        for seen, served, d in zip(trace.seen.tolist(), trace.served.tolist(), drivers):
            assert seen == [k * alpha for k in u], (patience, seen)
            u, accepted = advance_lattice(u, *d, alpha)
            assert served == accepted, (patience, seen)


# sha256 of ``des.run``'s records on two ``test_cli`` configs, pinned from
# the separate float and lattice engines before they were merged. The
# records are the ``(index, seen tuple, served, loss)`` tuples the engine
# returned then, rebuilt from the trace's columns.
@pytest.mark.parametrize("text, digest", [
    (LATTICE_INI, "bffa72d99c030807c534db508325671c72a724888c2c31f5a8ea3ea55afbfb1a"),
    (MM2D_INI, "8edf522c4aeecbdb8716977401420d46c1b7de7cf28ffdf2addc6070d7671100"),
], ids=["LATTICE_INI", "MM2D_INI"])
def test_run_records_pinned(text, digest):
    cfg = parse_config(text)
    trace = run(StationaryPath(cfg.spec), cfg.servers, cfg.run.n_arrivals)
    records = [(i, tuple(seen), served, not served)
               for i, (seen, served) in enumerate(zip(trace.seen.tolist(), trace.served.tolist()))]
    assert hashlib.sha256(repr(records).encode()).hexdigest() == digest


@pytest.mark.parametrize("name,spec,servers", [
    ("overload", iid_spec(1, Exponential(5.0), Exponential(1.0), Uniform(0.0, 3.0)), 4),
    ("zero_mass_services", SequenceSpec(
        model="lattice", seed=2, alpha=0.5,
        tau=LatticeDiscrete(0.5, (1, 2), (0.5, 0.5)),
        sigma=LatticeDiscrete(0.5, (0, 0, 5), (0.45, 0.45, 0.1)),
        patience=Uniform(0.0, 4.0)), 3),
    ("tie_storm", det_spec(3, 0.5, 2.5, 2.0), 3),
    ("micro_patience", iid_spec(4, Exponential(2.0), Exponential(0.5), Uniform(0.0, 0.05)), 2),
    ("long_queue", iid_spec(5, Exponential(2.0), Exponential(0.9), Deterministic(50.0)), 2),
])
def test_cross_validate_stress_regimes(name, spec, servers):
    report = cross_validate(StationaryPath(spec), servers, 30_000)
    assert report.passed, (name, report)
    if spec.is_lattice or spec.model == "deterministic":
        assert report.max_discrepancy == 0.0


def test_run_argument_errors():
    path = StationaryPath(det_spec(1, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        run(path, 0, 10)
    with pytest.raises(ValueError):
        run(path, 1, 0)


def test_write_trace():
    spec = det_spec(1, tau=1.0, sigma=1.5, patience=0.0)
    trace = run(StationaryPath(spec), 1, 3)
    buf = io.StringIO()
    write_trace(trace, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "index,W1,served,loss"
    assert lines[1] == "0,0.0,1,0"
    assert lines[2] == "1,0.5,0,1"


def _old_write_trace(trace, out):
    # The csv-module writer this module used before rows were joined by
    # hand, reading the trace's columns one row at a time.
    servers = trace.seen.shape[1]
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["index"] + [f"W{i + 1}" for i in range(servers)] + ["served", "loss"])
    for i, (seen, served) in enumerate(zip(trace.seen.tolist(), trace.served.tolist())):
        writer.writerow([i] + [repr(v) for v in seen] + [int(served), int(not served)])


def _assert_writers_agree(trace):
    new, old = io.StringIO(), io.StringIO()
    write_trace(trace, new)
    _old_write_trace(trace, old)
    assert new.getvalue() == old.getvalue()
    return new.getvalue()


@pytest.mark.parametrize("spec,servers,n", [
    (det_spec(1, tau=1.0, sigma=1.5, patience=0.0), 1, 50),
    (iid_spec(12, Exponential(1.0), Exponential(0.5), Uniform(0.0, 1.0)), 1, 2_000),
    (iid_spec(5, Exponential(1.0), Exponential(0.7), Deterministic(math.inf)), 3, 2_000),
    (random_lattice_spec(np.random.default_rng(9), alpha=0.3), 4, 2_000),
], ids=["det-one-server", "iid-one-server", "iid-three-servers", "lattice"])
def test_write_trace_bytes_match_csv_writer(spec, servers, n):
    _assert_writers_agree(run(StationaryPath(spec), servers, n))
    empty = Trace(np.empty((0, 0)), np.empty(0, dtype=bool))
    assert _assert_writers_agree(empty) == "index,served,loss\n"


@pytest.mark.parametrize("rows", [des._WRITE_ROWS - 1, des._WRITE_ROWS, des._WRITE_ROWS + 1,
                                  2 * des._WRITE_ROWS + 1])
@pytest.mark.parametrize("spec,servers", [
    (iid_spec(12, Exponential(1.0), Exponential(0.5), Uniform(0.0, 1.0)), 2),
    (random_lattice_spec(np.random.default_rng(9), alpha=0.3), 3),
], ids=["iid", "lattice"])
def test_write_trace_bytes_match_csv_writer_at_write_seams(spec, servers, rows):
    _assert_writers_agree(run(StationaryPath(spec), servers, rows))


@pytest.mark.parametrize("rows", [des._WRITE_ROWS - 1, des._WRITE_ROWS + 1])
def test_write_trace_formats_values_by_their_bits(rows):
    # Blocks of few distinct values, where 0.0 and -0.0 compare equal but
    # print apart, and blocks of mostly distinct values holding both zeros.
    rng = np.random.default_rng(rows)
    pool = np.array([0.0, -0.0, 0.5, 0.1 + 0.2, 1e-5, 1e16, 2.5e-300, 7.0])
    few = pool[rng.integers(0, pool.size, (rows, 3))]
    many = rng.exponential(size=(rows, 3))
    many[rng.random((rows, 3)) < 0.2] = 0.0
    many[rng.random((rows, 3)) < 0.2] = -0.0
    for seen in (few, many, np.vstack([few, many]), np.vstack([many, few])):
        text = _assert_writers_agree(Trace(seen, rng.random(len(seen)) < 0.5))
        assert ",-0.0," in text and ",0.0," in text


def _reference_engine(path, servers, n):
    """The simulator before its residuals were kept ascending: residuals in
    server order, a sorted copy for every fold, ``min`` and ``list.index``
    to find the server that takes a job, and the line purged at every
    arrival. Workloads are in the path's own arithmetic."""
    zero = 0 if path.spec.is_lattice else 0.0
    taus, sigmas, patiences = (col.tolist() for col in _exact_drivers(path, 0, n))
    residuals, line, seen, served = [zero] * servers, [], [], [False] * n
    for j in range(n):
        line = [entry for entry in line if entry[0] >= zero]
        fold = sorted(residuals)
        for rem, sig, _ in line:
            if fold[0] <= rem:
                heapreplace(fold, fold[0] + sig)
        seen.append(sorted(fold))
        if line or fold[0] > zero:
            line.append([patiences[j], sigmas[j], j])
        else:
            served[j] = True
            residuals[residuals.index(fold[0])] = sigmas[j]
        if j < n - 1:
            while line and min(residuals) <= taus[j]:
                f = min(residuals)
                rem, sig, i = line.pop(0)
                if rem >= f:
                    served[i] = True
                    residuals[residuals.index(f)] = f + sig
            residuals = [r - taus[j] if r > taus[j] else zero for r in residuals]
            for entry in line:
                entry[0] -= taus[j]
    for rem, sig, i in line:
        f = min(residuals)
        if rem >= f:
            served[i] = True
            residuals[residuals.index(f)] = f + sig
    return seen, served


@pytest.mark.parametrize("kind,seed", [("iid", 72), ("lattice", 75), ("mm", 74)])
def test_run_equals_the_recursion_across_engine_chunks(kind, seed):
    # Seeded random specs, with losses, and n crossing the engine's driver
    # chunk. The trace equals the reference engine bit for bit, and the
    # served flags are the recursion's acceptance indicator. The workloads
    # equal the recursion's bit for bit on a lattice; a float engine adds a
    # waiting customer's service after gaps the recursion subtracts after
    # it, so there they agree to a few ulps.
    rng = np.random.default_rng(seed)
    if kind == "lattice":
        spec = random_lattice_spec(rng, alpha=0.3, sigma_max=6)
    else:
        spec = (random_iid_spec if kind == "iid" else random_mm_spec)(rng)
    servers, n = int(rng.integers(1, 5)), des._CHUNK + 1_000
    path = StationaryPath(spec)
    trace = run(path, servers, n)
    ref_seen, ref_served = _reference_engine(path, servers, n)
    states, accepted = exact_states(path, 0, n, (0.0,) * servers)
    if spec.is_lattice:
        ref_seen = np.array(ref_seen, dtype=np.int64) * spec.alpha
        assert np.array_equal(trace.seen.view(np.int64), states[:-1].view(np.int64))
    else:
        ref_seen = np.array(ref_seen, dtype=np.float64)
        assert np.abs(trace.seen - states[:-1]).max() <= 1e-12
    assert trace.seen.dtype == np.float64 and trace.seen.shape == (n, servers)
    assert np.array_equal(trace.seen.view(np.int64), ref_seen.view(np.int64))
    assert trace.served.tolist() == ref_served
    assert np.array_equal(trace.served, accepted)
    assert 0 < accepted.sum() < n


@pytest.mark.parametrize("kind", ["iid", "lattice"])
def test_cross_validate_generates_its_drivers_once(monkeypatch, kind):
    # Speed only: a run past the engine's driver chunk (32,768 arrivals)
    # generates its window's page cover once, and the engine's chunks and
    # the recursion both read it; before, the chunks generated their own
    # covers and the recursion a third, twice the indices.
    generate = StationaryPath._generate
    generated = []
    monkeypatch.setattr(StationaryPath, "_generate",
                        lambda self, start, count: generated.append((start, count)) or generate(self, start, count))
    spec = iid_spec(3, Exponential(1.0), Exponential(0.4), Exponential(0.2)) if kind == "iid" else LATTICE
    report = cross_validate(StationaryPath(spec), 3, 50_000)
    assert generated == [(0, 53_248)], generated
    assert report.passed and report.n_arrivals == 50_000, report


def test_trace_columns_are_read_only():
    trace = run(StationaryPath(det_spec(1, tau=1.0, sigma=1.5, patience=0.0)), 2, 10)
    assert len(trace) == 10
    for column in (trace.seen, trace.served):
        with pytest.raises(ValueError):
            column[0] = 0


# Golden pins: sha256 of the ``write_trace`` output and the loss count, taken
# from the simulator before its fold moved to a heap and its expiry scan to
# a flag. The two oracle models are the perfbench configs' models, copied.
GOLDEN = [
    ("oracle_float", SequenceSpec(model="iid", seed=1, tau=Exponential(1.0),
                                  sigma=Exponential(0.225), patience=Exponential(0.02)),
     4, 20_000, "d1cc06067c47fa5904ebfc4dc282ce8a3152b17d9f3476321f3f97391127e027", 2820),
    ("oracle_lattice", SequenceSpec(model="lattice", seed=1, alpha=0.5,
                                    tau=LatticeDiscrete(0.5, (1, 2, 3), (0.3, 0.4, 0.3)),
                                    sigma=LatticeDiscrete(0.5, (0, 2, 4, 6, 8), (0.2,) * 5),
                                    patience=Uniform(0.0, 6.0)),
     3, 50_000, "98db7df2077a2ed3acd229cb642f17c94cac8b21e45eac6469df7aba00308266", 1025),
    ("long_queue", iid_spec(5, Exponential(2.0), Exponential(0.9), Deterministic(50.0)),
     2, 30_000, "bad68059f35434472f0c032320caff46f57e1cc9134b5d23122e679d34e760b9", 2938),
    ("tie_storm", det_spec(3, 0.5, 2.5, 2.0),
     3, 30_000, "c96ae76245e4e06bb0a100570c98172cecae187cc8d4b291616969a95dffbb41", 11997),
    ("zero_mass_services", SequenceSpec(
        model="lattice", seed=2, alpha=0.5,
        tau=LatticeDiscrete(0.5, (1, 2), (0.5, 0.5)),
        sigma=LatticeDiscrete(0.5, (0, 0, 5), (0.45, 0.45, 0.1)),
        patience=Uniform(0.0, 4.0)),
     3, 30_000, "a02c566e414aa1bf3de759cbb0c6960ec3f45368e7f7c8ae469eb8c1f0456bb4", 3),
]


@pytest.mark.parametrize("name,spec,servers,n,digest,losses", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_traces(name, spec, servers, n, digest, losses):
    trace = run(StationaryPath(spec), servers, n)
    buf = io.StringIO()
    write_trace(trace, buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
    assert (~trace.served).sum() == losses


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@pytest.mark.parametrize("servers", range(1, 9))
def test_heap_fold_equals_merge_shift_fold(servers):
    # The simulator's fold: each waiting customer who fits replaces the least
    # virtual workload w by w + sigma in a heap, sorted once at the end. The
    # recursion's form merges w + sigma into the rest with a zero gap.
    rng = np.random.default_rng(500 + servers)
    grid = [0.0, 0.25, 0.5, 1.0, 1.5]  # repeated values make ties everywhere
    for _ in range(300):
        def draw(size, extra=()):
            pool = np.array(grid + list(extra))
            out = np.where(rng.random(size) < 0.5, rng.choice(pool, size),
                           rng.uniform(0.0, 3.0, size))
            return out.tolist()
        residuals = draw(servers)
        length = int(rng.integers(0, 25))
        line = list(zip(draw(length, (math.inf,)), draw(length)))  # (patience, sigma)
        merged = tuple(sorted(residuals))
        for rem, sig in line:
            if merged[0] <= rem:
                merged = _merge_shift(merged, merged[0] + sig, 0.0)
        heap = sorted(residuals)
        for rem, sig in line:
            if heap[0] <= rem:
                heapreplace(heap, heap[0] + sig)
        heap.sort()
        assert _bits(heap) == _bits(merged), (residuals, line)
