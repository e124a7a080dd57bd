import io
import math

import numpy as np
import pytest

from impatientq.des import cross_validate, run, write_trace
from impatientq.sequences import (
    Deterministic,
    Exponential,
    LatticeDiscrete,
    SequenceSpec,
    StationaryPath,
    Uniform,
)
from support import det_spec, iid_spec, random_iid_spec, random_mm_spec


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
