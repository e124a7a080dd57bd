import hashlib
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from impatientq import coupling, loynes, metrics, sequences
from impatientq.coupling import CftpResult, cftp
from impatientq.errors import ConfigurationError, ContractError
from impatientq.des import run
from impatientq.loynes import certified_supremum, exact_states
from impatientq.metrics import (BATCHES, T_975, BoundReport, ProbabilityEstimate, batch_means, bound_report,
                                loss_probability)
from impatientq.sequences import _CHAIN_BLOCK, Deterministic, Exponential, StationaryPath, Uniform, stream_uniforms
from support import (DRAIN, GROWTH, LATTICE, MM_SPEC, NON_DYADIC, det_spec, erlang_a, erlang_b, iid_spec,
                     level_crossing_loss, mm1_wait_tail, random_iid_spec)


def test_erlang_b_values():
    assert erlang_b(1, 1.0) == 0.5
    assert erlang_b(2, 1.0) == pytest.approx(0.2, abs=1e-15)
    assert erlang_b(3, 1.2) == pytest.approx(0.0897755610972568, abs=1e-15)


def test_erlang_b_arguments():
    with pytest.raises(ValueError):
        erlang_b(0, 1.0)
    with pytest.raises(ValueError):
        erlang_b(2, 0.0)
    with pytest.raises(ValueError):
        erlang_b(2, -1.0)


def test_erlang_a_values():
    # At a very large abandonment rate a customer who finds every server
    # busy leaves at once, as in the loss system. At abandonment rate equal
    # to the service rate the number in system is Poisson(rho), so one
    # server loses (rho - 1 + e^-rho) / rho of the arrivals.
    for servers, load in ((1, 0.5), (3, 2.7), (8, 6.0)):
        assert erlang_a(servers, 1.0, 1.0 / load, 1e9) == pytest.approx(erlang_b(servers, load), rel=1e-6)
    for rho in (0.3, 1.0, 4.0):
        assert erlang_a(1, rho, 1.0, 1.0) == pytest.approx((rho - 1.0 + math.exp(-rho)) / rho, rel=1e-12)
    assert erlang_a(3, 1.0, 1 / 2.7, 1 / 13.5) == pytest.approx(0.107358, abs=5e-7)
    with pytest.raises(ValueError):
        erlang_a(0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        erlang_a(2, 1.0, 1.0, 0.0)


@pytest.mark.parametrize("servers,arrival_rate,service_rate,abandon_rate",
                         [(1, 0.9, 1.0, 0.5), (2, 2.5, 1.0, 0.3), (3, 2.4, 1.0, 2.0), (5, 4.0, 0.9, 0.1)])
def test_level_crossing_loss_equals_erlang_a(servers, arrival_rate, service_rate, abandon_rate):
    # Exponential patience makes the M/M/S+G queue the Erlang-A chain; the
    # two share no code (an integral against a birth-death sum).
    pytest.importorskip("scipy.integrate")
    got = level_crossing_loss(servers, arrival_rate, service_rate, Exponential(abandon_rate))
    assert got == pytest.approx(erlang_a(servers, arrival_rate, service_rate, abandon_rate), rel=1e-9, abs=0)


def test_level_crossing_loss_at_zero_patience_is_erlang_b():
    # A customer who cannot wait is lost when every server is busy. With
    # warnings as errors, a Deterministic patience's kink splits quad's
    # integral rather than raising its IntegrationWarning.
    pytest.importorskip("scipy.integrate")
    for servers, arrival_rate, service_rate in ((1, 0.9, 1.0), (2, 2.5, 1.0), (3, 2.4, 1.0), (5, 4.0, 0.9)):
        got = level_crossing_loss(servers, arrival_rate, service_rate, Deterministic(0.0))
        assert got == pytest.approx(erlang_b(servers, arrival_rate / service_rate), rel=1e-12, abs=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert 0.0 < level_crossing_loss(3, 2.4, 1.0, Deterministic(1.5)) < erlang_b(3, 2.4)


def test_bound_report_p_loss_covers_erlang_a():
    # 200 seeded M/M/3+M reports (gaps Exp(1), service mean 2.7, patience
    # mean 13.5, 10^5 samples each): p_loss's batch-means interval covers
    # the exact Erlang-A loss. At nominal 95 % the count covered is
    # Binomial(200, 0.95), inside [180, 198] with probability 0.998.
    want = erlang_a(3, 1.0, 1 / 2.7, 1 / 13.5)
    covered = 0
    for seed in range(1000, 1200):
        spec = iid_spec(seed, Exponential(1.0), Exponential(1 / 2.7), Exponential(1 / 13.5))
        est = bound_report(StationaryPath(spec), 3, 100_000).p_loss
        covered += abs(est.probability - want) <= est.half_width
    assert 180 <= covered <= 198, covered


def test_mm1_wait_tail_values():
    assert mm1_wait_tail(0.5, 1.0, 0.0) == 0.5
    assert mm1_wait_tail(0.5, 1.0, math.log(2.0) / 0.5) == pytest.approx(0.25, rel=1e-12)
    assert mm1_wait_tail(0.9, 2.0, 1e6) == pytest.approx(0.0, abs=1e-300)


def test_mm1_wait_tail_arguments():
    with pytest.raises(ValueError):
        mm1_wait_tail(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        mm1_wait_tail(0.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        mm1_wait_tail(0.5, 1.0, -1.0)


def test_loss_probability_no_impatience():
    spec = iid_spec(9, Exponential(1.0), Exponential(2.0), Deterministic(math.inf))
    est = loss_probability(~run(StationaryPath(spec), 1, 5_000).served)
    assert est.probability == 0.0
    assert est.half_width == 0.0


def test_loss_probability_periodic():
    spec = det_spec(1, tau=1.0, sigma=1.5, patience=0.0)
    est = loss_probability(~run(StationaryPath(spec), 1, 10_000).served)
    assert est.probability == 0.5


def test_loss_probability_refuses_short_trace():
    # every interval is batch means over BATCHES batches: fewer indicators
    # are refused, BATCHES of them are batch means
    for losses in (np.arange(BATCHES - 1) % 3 == 0, [], np.array([], dtype=bool)):
        with pytest.raises(ValueError):
            loss_probability(losses)
    losses = np.arange(BATCHES) % 3 == 0
    assert loss_probability(losses) == batch_means(losses)


def test_batch_means_basics():
    for value in (False, True):
        est = batch_means(np.full(3000, value))
        assert est.probability == float(value) and est.half_width == 0.0
    rng = np.random.default_rng(0)
    est = batch_means(rng.uniform(size=30_000) < 0.5)
    assert abs(est.probability - 0.5) < 0.02
    assert 0.0 < est.half_width < 0.02
    with pytest.raises(ValueError):
        batch_means(np.ones(10, dtype=bool))
    for numbers in (np.full(3000, 0.25), np.ones(3000, dtype=np.int64)):
        with pytest.raises(ValueError, match="bool"):
            batch_means(numbers)


def _float_batch_means(x: np.ndarray) -> ProbabilityEstimate:
    """The batch-means estimate of float64 values, by float sums: the
    reference for the counts of bool indicators."""
    per = x.size // BATCHES
    means = x[: per * BATCHES].reshape(BATCHES, per).mean(axis=1)
    return ProbabilityEstimate(float(x.mean()), T_975 * float(means.std(ddof=1)) / math.sqrt(BATCHES), x.size)


@pytest.mark.parametrize("n", [31, 59, 1_001, 99_991])
def test_batch_means_counts_bool_indicators_as_floats(n):
    # Bool indicators give the float64 indicators' probability and half-width
    # bit for bit, on lengths whose tail is left out of the batches (every
    # sum of float64 indicators is an exact count), and are counted without
    # a float64 copy: that of 99,991 indicators takes 800 KB, and their
    # counts peak at 55 KB, in the per-batch sum's cast buffers.
    import tracemalloc

    x = np.random.default_rng(n).random(n) < 0.3
    want = _float_batch_means(x.astype(np.float64))
    tracemalloc.start()
    try:
        got = batch_means(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got.probability, got.half_width, got.n) == (want.probability, want.half_width, want.n)
    assert type(got.probability) is float and peak < 100_000, peak


def test_t_975_matches_reference():
    # the one t quantile the intervals use: 0.975 on BATCHES - 1 degrees of freedom
    stats = pytest.importorskip("scipy.stats")
    want = float(stats.t.ppf(0.975, BATCHES - 1))
    assert BATCHES == 30 and abs(T_975 / want - 1.0) <= 1e-15


def test_package_import_loads_only_stdlib_and_numpy():
    # The t quantile needs no scipy; importing the package and its CLI must
    # not pull it in, nor anything beyond the standard library and numpy.
    # The statistics and fractions modules are left out too: they are slow
    # to import and the package has no use for them, and so is hashlib,
    # which maps OpenSSL. Parsing a config does not load it either: the
    # sha256 stamp comes from the interpreter's built-in module.
    # (``__mp_main__`` is the alias of ``__main__`` that multiprocessing
    # registers.)
    text = "".join(f"[{section}]\n{body}\n" for section, body in (
        ("experiment", "servers = 2\nseed = 7"), ("tau", "dist = exponential\nrate = 1.0"),
        ("sigma", "dist = exponential\nrate = 0.5"), ("patience", "dist = deterministic\nvalue = 1.0")))
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import impatientq, impatientq.cli\n"
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(new - set(sys.stdlib_module_names) - {'numpy', 'impatientq', '__mp_main__'}))\n"
        "print(sorted(new & {'scipy', 'statistics', 'fractions', 'hashlib', '_hashlib'}))\n"
        f"cfg = impatientq.config.parse_config({text!r})\n"
        "print('_hashlib' in sys.modules, cfg.sha256)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.split("\n")
    assert out[:3] == ["[]", "[]", f"False {hashlib.sha256(text.encode()).hexdigest()}"], out


def _probabilities(rep):
    """The report's four probabilities, in sandwich order; the indicators are
    ordered at every sample, so their means are too, exactly."""
    return [est.probability for est in (rep.p_lower, rep.p_loss, rep.p_upper, rep.p_z)]


def test_bound_report_drain_all_zero():
    rep = bound_report(StationaryPath(DRAIN), 2, 2_000)
    for est in (rep.p_lower, rep.p_loss, rep.p_upper, rep.p_z):
        assert est.probability == 0.0 and est.half_width == 0.0


def test_bound_report_growth_refuses():
    # Gaps of 1, service 2, patience 1: from empty the workload runs
    # 0, 1, 2, 1, 2, ... and from 2 (the top supremum) it runs 2, 1, 2, ...
    # The two orbits never meet, so the path has no unique stationary state,
    # cftp does not coalesce, and the report refuses instead of rolling from
    # an arbitrary start.
    with pytest.raises(ContractError, match="cftp did not coalesce at index 0"):
        bound_report(StationaryPath(GROWTH), 1, 2_000)


def test_bound_report_refuses_an_infinite_top_supremum():
    spec = iid_spec(3, Exponential(1.0), Exponential(2.0), Deterministic(math.inf))
    with pytest.raises(ConfigurationError, match="top supremum is not finite"):
        bound_report(StationaryPath(spec), 2, 2_000)


def test_bound_report_refuses_without_coalescence(monkeypatch):
    def stuck(path, servers, at=0, max_horizon=1 << 20):
        return CftpResult(None, False, 64, 100, 1e-13)

    monkeypatch.setattr(metrics, "cftp", stuck)
    with pytest.raises(ContractError, match="cftp did not coalesce at index 5 by horizon 64"):
        bound_report(StationaryPath(DRAIN), 2, 2_000, at=5)


@pytest.mark.parametrize("open_kind", ["lower", "upper"])
def test_bound_report_refuses_an_open_envelope_chain(monkeypatch, open_kind):
    # An envelope whose chain did not close has no backward limit to start
    # from; the refusal names the kind, the index and the horizon.
    from impatientq import coupling

    real = coupling.cftp

    def stuck(path, servers, at=0, max_horizon=1 << 20, kind="exact"):
        if kind == open_kind:
            return CftpResult(None, False, 1 << 20, 100, 1e-13)
        return real(path, servers, at, max_horizon, kind)

    monkeypatch.setattr(coupling, "cftp", stuck)
    with pytest.raises(ContractError, match=f"{open_kind} estimate at index 5 did not coalesce by horizon 1048576"):
        bound_report(StationaryPath(DRAIN), 2, 2_000, at=5)


def test_bound_report_ordering_mm2d():
    spec = iid_spec(23, Exponential(1.0), Exponential(0.6), Deterministic(1.0))
    rep = bound_report(StationaryPath(spec), 2, 30_000)
    # the sandwich is strict for this load
    assert rep.p_lower.probability < rep.p_loss.probability
    assert rep.p_loss.probability < rep.p_upper.probability
    chain = [rep.p_lower, rep.p_loss, rep.p_upper, rep.p_z]
    assert all(a.probability <= b.probability for a, b in zip(chain, chain[1:]))


def test_bound_report_samples():
    spec = iid_spec(23, Exponential(1.0), Exponential(0.6), Deterministic(1.0))
    rep = bound_report(StationaryPath(spec), 2, 1_000, keep_samples=True)
    assert rep.samples.shape == (1_000, 6)
    # lower1 <= W1 <= upper1 <= z_top by value at every sample. A z_top
    # rolled from an unclipped cumulative maximum over its window fell
    # 4.4e-16 below upper1 at the first six samples of draw 17 at S = 1.
    rng = np.random.default_rng(11)
    draws = [random_iid_spec(rng) for _ in range(17)]
    reports = [(spec, 2, rep)] + [
        (spec, servers, bound_report(StationaryPath(spec), servers, 5_000, keep_samples=True))
        for spec in (MM_SPEC, draws[8], draws[13], draws[16]) for servers in (1, 2, 3)]
    for spec, servers, rep in reports:
        bad = np.flatnonzero((np.diff(rep.samples[:, :4], axis=1) < 0.0).any(axis=1))
        assert not len(bad), (spec.seed, servers, bad[:8], rep.samples[bad[:8], :4])


@pytest.mark.parametrize("patience", [0.2, 0.3])
def test_bound_report_on_a_non_dyadic_lattice(patience):
    # With alpha = 0.1 a float roll drifts off the lattice and counts losses
    # that the exact map accepts. Each W1 is the stationary workload that
    # ``cftp`` gives at its index, and the loss column is the exact lattice
    # recursion's, rolled from the anchor. The envelopes and z_top are float
    # rolls, yet the columns are ordered by value at every sample: unclipped,
    # upper1 ended an ulp below an equal W1 at patience 0.2. The float 0.3 is
    # below 3 * 0.1, so that patience accepts two steps, not three.
    path, n = StationaryPath(replace(NON_DYADIC, patience=Deterministic(patience))), 20_000
    rep = bound_report(path, 3, n, keep_samples=True)
    w1 = rep.samples[:, 1]
    for i in range(0, n, 1999):
        assert w1[i] == cftp(path, 3, at=i).value[0], i
    bad = np.flatnonzero((np.diff(rep.samples[:, :4], axis=1) < 0.0).any(axis=1))
    assert not len(bad), (bad[:8], rep.samples[bad[:8], :4])
    _, accepted = exact_states(path, 0, n, cftp(path, 3).value)
    assert np.array_equal(rep.samples[:, 5] == 1.0, ~accepted)
    assert np.array_equal(~accepted, w1 > 2 * 0.1)
    assert rep.p_loss.probability == (~accepted).mean()


SANDWICH_MODULATION = sequences.ModulationSpec(
    transition=((0.995, 0.005), (0.02, 0.98)),
    states=((Exponential(1.0), Exponential(0.6), Deterministic(1.0)),
            (Exponential(1.8), Exponential(0.6), Uniform(0.0, 2.0))))


def test_bound_report_peak_memory():
    # A 100,000-sample report on the benchmark's sandwich model peaks in its
    # roll, holding its driver pages and the three stacked rolls: 87.3 traced
    # bytes a sample. Its statistics come after the roll, a group of samples
    # at a time. No per-step or per-call copy of the roll's size is made; a
    # copy of the lane drivers would add 24. The bound is 95, a margin of 7.7.
    import tracemalloc

    n = 100_000
    specs = [sequences.SequenceSpec(model="markov_modulated", seed=seed, modulation=SANDWICH_MODULATION)
             for seed in (1, 5)]
    bound_report(StationaryPath(specs[0]), 2, n)   # module caches and imports
    tracemalloc.start()
    try:
        bound_report(StationaryPath(specs[1]), 2, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 95 * n, peak / n


def test_bound_report_rejects_empty():
    with pytest.raises(ValueError):
        bound_report(StationaryPath(DRAIN), 2, 0)


def test_mm1_wait_tail_matches_simulation():
    # single Markovian server at half load, no impatience
    rho, mu = 0.5, 2.0
    spec = iid_spec(77, Exponential(1.0), Exponential(mu), Deterministic(math.inf))
    states, _ = exact_states(StationaryPath(spec), 0, 200_000, (0.0,))
    waits = states[2_000:, 0]
    for x in (0.0, 1.0, 2.0):
        emp = batch_means(waits > x)
        want = mm1_wait_tail(rho, mu, x)
        assert abs(emp.probability - want) <= max(3 * emp.half_width, 0.01), (x, emp, want)


def test_top_supremum_roll_matches_per_index_bound():
    # z_top is the upper rows' top coordinate, the lag-1 supremum, shifted to
    # lag S by a clipped delay line: the certified read at every index, bit
    # for bit, across the seams of the lane roll; the reads run on a path of
    # their own. On a lattice path z_top is that read raised to the reported
    # upper1, and at S = 1 it is upper1 itself.
    n = 3 * loynes.CHUNK + 37
    for spec in (iid_spec(41, Exponential(1.0), Exponential(0.7), Uniform(0.0, 1.5)), MM_SPEC, NON_DYADIC):
        for servers in (1, 2, 3, 4):
            samples = bound_report(StationaryPath(spec), servers, n, keep_samples=True).samples
            upper1, z_top = np.ascontiguousarray(samples[:, 2]), np.ascontiguousarray(samples[:, 3])
            reads = StationaryPath(spec)
            want = np.array([certified_supremum(reads, t, servers).values[0] for t in range(n)])
            if spec.is_lattice:
                want = np.maximum(want, upper1)
            assert np.array_equal(z_top.view(np.int64), want.view(np.int64)), (spec.seed, servers)
            if servers == 1:
                assert np.array_equal(z_top.view(np.int64), upper1.view(np.int64)), spec.seed


def test_bound_report_refuses_out_of_order_indicators(monkeypatch):
    # With the upper rows' top coordinate zero, z_top is zero past its first
    # sample, and the first later sample whose upper envelope exceeds its
    # patience breaks upper_ind <= z_ind.
    samples = bound_report(StationaryPath(MM_SPEC), 2, 2_000, at=5, keep_samples=True).samples
    i = 1 + int(np.argmax(samples[1:, 2] > samples[1:, 4]))
    lower1, w1, upper1, _, patience = samples[i, :5].tolist()
    sandwich_states = metrics.sandwich_states

    def top_zeroed(*args):
        states = sandwich_states(*args)
        states[2][:, -1] = 0.0
        return states

    monkeypatch.setattr(metrics, "sandwich_states", top_zeroed)
    with pytest.raises(ContractError) as err:
        bound_report(StationaryPath(MM_SPEC), 2, 2_000, at=5)
    assert str(err.value) == (
        f"loss indicators out of order at sample {i} (index {i + 5}): lower1 {lower1!r}, "
        f"W1 {w1!r}, upper1 {upper1!r}, z_top 0.0, patience {patience!r}")


def test_bound_report_rolls_each_recursion_once(monkeypatch):
    # A float report carries its three recursions in one lane pass, and z_top
    # reads the upper rows: no fourth roll. A lattice report rolls the exact
    # recursion in multiples and each float envelope alone.
    calls, forward_roll = [], loynes._forward_roll

    def counting(rolls, lane_step, drivers):
        calls.append(len(rolls))
        return forward_roll(rolls, lane_step, drivers)

    monkeypatch.setattr(loynes, "_forward_roll", counting)
    bound_report(StationaryPath(MM_SPEC), 2, 2_000)
    assert calls == [3]
    calls.clear()
    bound_report(StationaryPath(LATTICE), 3, 2_000)
    assert calls == [1, 1, 1]


def test_bound_report_refuses_fewer_samples_than_batches(monkeypatch):
    # Refused before any work, naming the sample count and the 30 batches: no chain runs.
    chains, real = [], coupling.cftp

    def spy(*args, **kwargs):
        chains.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(metrics, "cftp", spy)
    monkeypatch.setattr(coupling, "cftp", spy)   # the envelope estimates'
    with pytest.raises(ValueError, match=r"^n_samples \(29\) must be at least the 30 batches$"):
        bound_report(StationaryPath(MM_SPEC), 2, 29)
    assert chains == []
    assert bound_report(StationaryPath(MM_SPEC), 2, 30).n_samples == 30
    assert len(chains) == 3


def test_bound_report_single_server():
    spec = iid_spec(53, Exponential(1.0), Exponential(0.8), Deterministic(0.5))
    rep = bound_report(StationaryPath(spec), 1, 20_000)
    assert _probabilities(rep) == sorted(_probabilities(rep))
    assert rep.p_loss.probability > 0.0


def test_bound_report_markov_modulated():
    from support import random_mm_spec
    import numpy as np

    rep = bound_report(StationaryPath(random_mm_spec(np.random.default_rng(2))), 2, 20_000)
    assert _probabilities(rep) == sorted(_probabilities(rep))


def test_bound_report_generates_its_drivers_once(monkeypatch):
    # Covers are counted where they are generated; each draws its streams
    # in page groups, so their uniforms' calls no longer count covers.
    generated, generate = [], StationaryPath._generate

    def counting(path, start, count):
        generated.append((start, count))
        return generate(path, start, count)

    monkeypatch.setattr(StationaryPath, "_generate", counting)
    rep = bound_report(StationaryPath(MM_SPEC), 2, 20_000, keep_samples=True)
    # The page cover of the certified supremum's read [at - depth, at + n)
    # serves every other read.
    assert generated == [(-4_096, 24_576)]
    # sha256 of the samples. Every column but z_top is as computed before
    # driver windows were memoized, when the same report generated its tau
    # uniforms 11 times and started the exact workload from empty 10,000
    # indices before the window; z_top is the clipped lag-S supremum, the
    # earlier unclipped series' positive part at every sample here.
    assert hashlib.sha256(rep.samples.tobytes()).hexdigest() == (
        "70f19c73afe443143f1a610caf3df0d429626f5b8ed95150a1e9c2061de26ba9")


REPORT_SPECS = {"float": iid_spec(41, Exponential(1.0), Exponential(0.7), Uniform(0.0, 1.5)),
                "markov": MM_SPEC, "lattice": NON_DYADIC}


def _estimates(rep):
    return [(est.probability.hex(), est.half_width.hex(), est.n)
            for est in (rep.p_lower, rep.p_loss, rep.p_upper, rep.p_z)]


@pytest.mark.parametrize("servers", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(REPORT_SPECS))
def test_chunked_and_grouped_reports_equal_one_pass(monkeypatch, name, servers):
    # A window rolled in chunks of one page, with its statistics in groups
    # of 1,000 samples, gives the one-pass report bit for bit: estimates,
    # samples and the refusal of an out-of-order sample. The window starts
    # 37 samples before a seam and ends off a page, and neither the groups
    # nor the seams lie on the batches of 562 samples. The estimates are
    # also batch_means' of the kept samples' indicators.
    spec, at, n = REPORT_SPECS[name], 2 * _CHAIN_BLOCK - 37, 4 * _CHAIN_BLOCK + 500
    default_group = metrics.GROUP   # before the groups of 1,000 below
    one = bound_report(StationaryPath(spec), servers, n, at=at, keep_samples=True)
    indicators = one.samples[:, :4] > one.samples[:, 4:5]
    assert _estimates(one) == _estimates(BoundReport(*(batch_means(np.ascontiguousarray(ind))
                                                       for ind in indicators.T), n, True, True, True))
    monkeypatch.setattr(metrics, "ROLL_PAGES", 1)
    monkeypatch.setattr(metrics, "GROUP", 1_000)
    chunked = bound_report(StationaryPath(spec), servers, n, at=at, keep_samples=True)
    assert _estimates(chunked) == _estimates(one)
    assert chunked.samples.tobytes() == one.samples.tobytes()
    if spec.is_lattice:
        return   # its columns are held in order by value, so no sample is out of order
    # W1 raised above the patience at a sample whose upper envelope is not a
    # loss, the first such in the second group of the last chunk.
    k = next(k for k in range(5 * _CHAIN_BLOCK + 1_000 - at, n) if one.samples[k, 2] <= one.samples[k, 4])
    sandwich_states = metrics.sandwich_states

    def raised(path, lo, steps, *rows):
        states = sandwich_states(path, lo, steps, *rows)
        if lo <= at + k <= lo + steps:
            states[0, at + k - lo, 0] = 1e9
        return states

    monkeypatch.setattr(metrics, "sandwich_states", raised)
    refusals = []
    for pages, group in ((32, default_group), (1, 1_000)):
        monkeypatch.setattr(metrics, "ROLL_PAGES", pages)
        monkeypatch.setattr(metrics, "GROUP", group)
        with pytest.raises(ContractError) as err:
            bound_report(StationaryPath(spec), servers, n, at=at)
        refusals.append(str(err.value))
    assert refusals[0] == refusals[1]
    assert refusals[0].startswith(f"loss indicators out of order at sample {k} (index {at + k}): ")


def test_a_long_report_holds_one_roll_chunk():
    # A 10^6-sample report on the sandwich model rolls in chunks of 2^17
    # samples, each over a cover of its own pages, so its traced peak is
    # that of about 1.3 * 10^5 samples: 11.4 MB, 1.4 times a 10^5-sample
    # report's. One pass held 81.7 MB, ten times.
    import tracemalloc

    spec = sequences.SequenceSpec(model="markov_modulated", seed=5, modulation=SANDWICH_MODULATION)
    bound_report(StationaryPath(replace(spec, seed=1)), 2, 100_000)   # module caches and imports
    peaks = []
    for n in (100_000, 1_000_000):
        tracemalloc.start()
        try:
            bound_report(StationaryPath(spec), 2, n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.6 * peaks[0], [p / 1e6 for p in peaks]


def test_a_chunked_report_generates_each_page_once(monkeypatch):
    # Chunks of two pages: the certified supremum's cover serves the short
    # first chunk, and each later chunk generates its own pages, once.
    generated, generate = [], StationaryPath._generate

    def counting(path, start, count):
        generated.append((start, count))
        return generate(path, start, count)

    monkeypatch.setattr(StationaryPath, "_generate", counting)
    monkeypatch.setattr(metrics, "ROLL_PAGES", 2)
    at, n = 2 * _CHAIN_BLOCK - 37, 20_000
    bound_report(StationaryPath(MM_SPEC), 2, n, at=at)
    pages = [p for start, count in generated for p in range(start // _CHAIN_BLOCK, (start + count) // _CHAIN_BLOCK)]
    assert all(start % _CHAIN_BLOCK == 0 == count % _CHAIN_BLOCK for start, count in generated)
    assert pages == list(range(pages[0], (at + n - 1) // _CHAIN_BLOCK + 1)), generated
    assert len(generated) == 4 and generated[1] == (2 * _CHAIN_BLOCK, 2 * _CHAIN_BLOCK), generated
