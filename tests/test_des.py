import csv
import dataclasses
import hashlib
import io
import math
from heapq import heapreplace

import numpy as np
import pytest

from impatientq.config import parse_config
from impatientq.des import cross_validate, run, write_trace
from impatientq.kernel import _merge_shift, advance_lattice
from impatientq.sequences import (
    Deterministic,
    Exponential,
    LatticeDiscrete,
    SequenceSpec,
    StationaryPath,
    Uniform,
)
from support import det_spec, iid_spec, random_iid_spec, random_lattice_spec, random_mm_spec
from test_cli import LATTICE_INI, MM2D_INI


def test_hand_trace_single_server():
    spec = det_spec(1, tau=1.0, sigma=1.5, patience=0.0)
    records = run(StationaryPath(spec), 1, 3)
    assert [r.workload_seen for r in records] == [(0.0,), (0.5,), (0.0,)]
    assert [r.served for r in records] == [True, False, True]
    assert all(r.served != r.loss for r in records)


def test_periodic_loss_limit():
    spec = det_spec(1, tau=1.0, sigma=1.5, patience=0.0)
    records = run(StationaryPath(spec), 1, 10_000)
    assert sum(r.loss for r in records) / 10_000 == 0.5


def test_infinite_patience_never_loses():
    spec = iid_spec(9, Exponential(1.0), Exponential(2.0), Deterministic(math.inf))
    records = run(StationaryPath(spec), 1, 20_000)
    assert sum(r.loss for r in records) == 0
    assert cross_validate(StationaryPath(spec), 1, 20_000).passed


def test_zero_service_keeps_empty_workload():
    spec = iid_spec(4, Exponential(1.0), Deterministic(0.0), Uniform(0.0, 1.0))
    records = run(StationaryPath(spec), 2, 2_000)
    assert all(r.workload_seen == (0.0, 0.0) for r in records)
    assert all(r.served for r in records)


def test_loss_accounting():
    spec = iid_spec(12, Exponential(1.0), Exponential(0.5), Uniform(0.0, 1.0))
    records = run(StationaryPath(spec), 2, 5_000)
    served = sum(r.served for r in records)
    lost = sum(r.loss for r in records)
    assert served + lost == 5_000
    assert all(r.served != r.loss for r in records)


def test_decisions_match_patience_comparison():
    spec = iid_spec(13, Exponential(1.0), Exponential(0.7), Uniform(0.0, 2.0))
    path = StationaryPath(spec)
    records = run(path, 3, 5_000)
    patience = path.block(0, 5_000).patience
    for r in records:
        assert r.served == (r.workload_seen[0] <= patience[r.index])


def test_cross_validate_mm2():
    spec = iid_spec(5, Exponential(1.0), Exponential(0.7), Uniform(0.0, 2.0))
    report = cross_validate(StationaryPath(spec), 2, 50_000)
    assert report.passed
    assert report.max_discrepancy <= 1e-9
    assert report.first_divergence is None


def test_cross_validate_reports_first_divergence(monkeypatch):
    # Corrupt the simulator's records: a flipped decision at 40 and a
    # workload 0.5 off at 90. The first divergence is the earlier of the two.
    from impatientq import des

    path = StationaryPath(iid_spec(5, Exponential(1.0), Exponential(0.7), Uniform(0.0, 2.0)))
    records = run(path, 2, 3_000)
    honest = cross_validate(path, 2, 3_000)
    bad = list(records)
    bad[40] = bad[40]._replace(served=not bad[40].served)
    bad[90] = bad[90]._replace(workload_seen=tuple(v + 0.5 for v in bad[90].workload_seen))
    monkeypatch.setattr(des, "run", lambda *args: bad)
    report = cross_validate(path, 2, 3_000)
    assert not report.decisions_agree and not report.passed
    assert report.first_divergence[:2] == (40, records[40].workload_seen)
    assert report.max_discrepancy >= 0.5 - honest.max_discrepancy
    # With only the workload corrupted, it is the first divergence.
    bad[40] = records[40]
    report = cross_validate(path, 2, 3_000)
    assert report.decisions_agree
    idx, seen, state = report.first_divergence
    assert idx == 90 and seen == bad[90].workload_seen
    assert max(abs(a - b) for a, b in zip(seen, state)) == report.max_discrepancy


def test_lattice_cross_validate_reports_first_divergence(monkeypatch):
    # The lattice twin of the test above: the recursion side is the integer
    # lane roll, scaled by alpha. Expected values come from the scalar
    # ``advance_lattice`` loop, as the lattice branch computed them before.
    from impatientq import des
    from impatientq.kernel import advance_lattice

    spec = random_lattice_spec(np.random.default_rng(41), alpha=0.5)
    path = StationaryPath(spec)
    n = 3_000
    records = run(path, 2, n)
    blk = path.lattice_block(0, n)
    u, states = (0, 0), []
    for tau, sigma, patience in zip(blk.tau.tolist(), blk.sigma.tolist(), blk.patience.tolist()):
        states.append(tuple(v * 0.5 for v in u))
        u, _ = advance_lattice(u, tau, sigma, patience, 0.5)
    honest = cross_validate(path, 2, n)
    assert honest.passed and honest.max_discrepancy == 0.0
    bad = list(records)
    bad[40] = bad[40]._replace(served=not bad[40].served)
    bad[90] = bad[90]._replace(workload_seen=tuple(v + 0.5 for v in bad[90].workload_seen))
    monkeypatch.setattr(des, "run", lambda *args: bad)
    report = cross_validate(path, 2, n)
    assert not report.decisions_agree and not report.passed
    assert report.first_divergence == (40, records[40].workload_seen, states[40])
    assert report.max_discrepancy == 0.5
    bad[40] = records[40]
    report = cross_validate(path, 2, n)
    assert report.decisions_agree and not report.passed
    assert report.first_divergence == (90, bad[90].workload_seen, states[90])
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
        records = run(path, servers, n)
        blk = path.lattice_block(0, n)
        u = (0,) * servers
        for rec, d in zip(records, zip(blk.tau.tolist(), blk.sigma.tolist(), blk.patience.tolist())):
            assert rec.workload_seen == tuple(k * alpha for k in u), (patience, rec)
            u, accepted = advance_lattice(u, *d, alpha)
            assert rec.served == accepted and rec.loss != accepted, (patience, rec)


# sha256 of ``des.run``'s records on two ``test_cli`` configs, pinned from
# the separate float and lattice engines before they were merged.
@pytest.mark.parametrize("text, digest", [
    (LATTICE_INI, "bffa72d99c030807c534db508325671c72a724888c2c31f5a8ea3ea55afbfb1a"),
    (MM2D_INI, "8edf522c4aeecbdb8716977401420d46c1b7de7cf28ffdf2addc6070d7671100"),
], ids=["LATTICE_INI", "MM2D_INI"])
def test_run_records_pinned(text, digest):
    cfg = parse_config(text)
    records = run(StationaryPath(cfg.spec), cfg.servers, cfg.run.n_arrivals)
    assert hashlib.sha256(repr([tuple(r) for r in records]).encode()).hexdigest() == digest


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
    records = run(StationaryPath(spec), 1, 3)
    buf = io.StringIO()
    write_trace(records, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "index,W1,served,loss"
    assert lines[1] == "0,0.0,1,0"
    assert lines[2] == "1,0.5,0,1"


def _old_write_trace(records, out):
    # The csv-module writer this module used before rows were joined by hand.
    servers = len(records[0].workload_seen) if records else 0
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["index"] + [f"W{i + 1}" for i in range(servers)] + ["served", "loss"])
    for rec in records:
        writer.writerow([rec.index] + [repr(v) for v in rec.workload_seen]
                        + [int(rec.served), int(rec.loss)])


@pytest.mark.parametrize("spec,servers,n", [
    (det_spec(1, tau=1.0, sigma=1.5, patience=0.0), 1, 50),
    (iid_spec(12, Exponential(1.0), Exponential(0.5), Uniform(0.0, 1.0)), 1, 2_000),
    (iid_spec(5, Exponential(1.0), Exponential(0.7), Deterministic(math.inf)), 3, 2_000),
    (random_lattice_spec(np.random.default_rng(9), alpha=0.3), 4, 2_000),
], ids=["det-one-server", "iid-one-server", "iid-three-servers", "lattice"])
def test_write_trace_bytes_match_csv_writer(spec, servers, n):
    records = run(StationaryPath(spec), servers, n)
    new, old = io.StringIO(), io.StringIO()
    write_trace(records, new)
    _old_write_trace(records, old)
    assert new.getvalue() == old.getvalue()
    new, old = io.StringIO(), io.StringIO()
    write_trace([], new)
    _old_write_trace([], old)
    assert new.getvalue() == old.getvalue() == "index,served,loss\n"


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
    records = run(StationaryPath(spec), servers, n)
    buf = io.StringIO()
    write_trace(records, buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
    assert sum(r.loss for r in records) == losses


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
