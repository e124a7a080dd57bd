import math

import numpy as np
import pytest
from scipy import stats

from impatientq.errors import ConfigurationError
from impatientq.sequences import (
    Deterministic,
    Exponential,
    LatticeDiscrete,
    ModulationSpec,
    SequenceSpec,
    ShiftedExponential,
    StationaryPath,
    Uniform,
    _CHAIN_BLOCK,
    _chain_tables,
    _compose,
    _prefix_compose,
    stream_uniforms,
)
from support import iid_spec, random_iid_spec, random_mm_spec, sequential_chain_block

MM_SPEC = SequenceSpec(
    model="markov_modulated",
    seed=7,
    burn_in=2000,
    modulation=ModulationSpec(
        transition=((0.9, 0.1), (0.2, 0.8)),
        states=(
            (Exponential(1.0), Exponential(1.0), Deterministic(1.0)),
            (Exponential(3.0), Exponential(0.5), Uniform(0.0, 2.0)),
        ),
    ),
)


def test_deterministic_sample():
    spec = SequenceSpec(model="deterministic", seed=0, tau=Deterministic(2.0),
                        sigma=Deterministic(1.0), patience=Deterministic(0.5))
    assert StationaryPath(spec).sample_at(-7) == (2.0, 1.0, 0.5)


def test_purity_bit_exact():
    rng = np.random.default_rng(101)
    specs = [random_iid_spec(rng) for _ in range(16)] + [random_mm_spec(rng) for _ in range(4)]
    for spec in specs:
        path = StationaryPath(spec)
        ns = rng.integers(-10_000, 10_000, size=500)
        first = [path.sample_at(int(n)) for n in ns]
        second = [path.sample_at(int(n)) for n in ns]
        assert first == second


def test_block_matches_scalar():
    rng = np.random.default_rng(55)
    for spec in (random_iid_spec(rng), random_mm_spec(rng), MM_SPEC):
        path = StationaryPath(spec)
        blk = path.block(-25, 60)
        for i in (0, 13, 59):
            s = path.sample_at(-25 + i)
            assert (s.tau, s.sigma, s.patience) == (blk.tau[i], blk.sigma[i], blk.patience[i])


def test_shift_group_law():
    rng = np.random.default_rng(2)
    path = StationaryPath(random_iid_spec(rng))
    for _ in range(200):
        j = int(rng.integers(-10_000, 10_000))
        n = int(rng.integers(-10_000, 10_000))
        assert path.shifted(j).sample_at(n) == path.sample_at(n + j)
    mm = StationaryPath(MM_SPEC)
    for _ in range(20):
        j = int(rng.integers(-5_000, 5_000))
        n = int(rng.integers(-5_000, 5_000))
        assert mm.shifted(j).sample_at(n) == mm.sample_at(n + j)


def test_shift_identity_and_inverse():
    path = StationaryPath(iid_spec(3, Exponential(1.0), Exponential(1.0), Deterministic(1.0)))
    assert path.shifted(0).sample_at(42) == path.sample_at(42)
    assert path.shifted(3).shifted(-3).sample_at(-11) == path.sample_at(-11)


def test_deterministic_path_is_shift_invariant():
    spec = SequenceSpec(model="deterministic", seed=9, tau=Deterministic(2.0),
                        sigma=Deterministic(1.0), patience=Deterministic(0.5))
    path = StationaryPath(spec)
    assert path.shifted(17).sample_at(5) == path.sample_at(5)


def test_simple_arrivals_tau_positive():
    rng = np.random.default_rng(8)
    for spec in (random_iid_spec(rng), random_iid_spec(rng), MM_SPEC):
        blk = StationaryPath(spec).block(-500_000, 1_000_000)
        assert blk.tau.min() > 0.0


def test_lattice_support():
    spec = SequenceSpec(
        model="lattice", seed=3, alpha=0.5,
        tau=LatticeDiscrete(0.5, (2, 3, 4), (0.3, 0.4, 0.3)),
        sigma=LatticeDiscrete(0.5, (0, 1, 2), (0.2, 0.5, 0.3)),
        patience=Uniform(0.0, 2.0),
    )
    path = StationaryPath(spec)
    blk = path.block(-50, 100)
    assert np.all(np.mod(blk.sigma, 0.5) == 0.0)
    assert np.all(np.mod(blk.tau, 0.5) == 0.0)
    lat = path.lattice_block(-50, 100)
    assert np.array_equal(lat.tau.astype(float) * 0.5, blk.tau)
    assert np.array_equal(lat.sigma.astype(float) * 0.5, blk.sigma)


def test_markov_modulated_empirical_stationarity():
    path = StationaryPath(MM_SPEC)
    n = 100_000
    a = path.block(0, n).tau
    b = path.block(35_000, n).tau
    ks = stats.ks_2samp(a, b).statistic
    assert ks <= 0.02


def test_markov_modulated_state_marginal():
    pi = MM_SPEC.modulation.stationary()
    states = StationaryPath(MM_SPEC)._states(0, 50_000)
    freq = np.bincount(states, minlength=2) / states.size
    assert np.abs(freq - pi).max() < 0.02


def test_markov_modulated_golden_states():
    # Literal chain states of MM_SPEC; any change to driver values must edit these.
    path = StationaryPath(MM_SPEC)
    assert path._states(0, 16).tolist() == [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1]
    assert [int(np.count_nonzero(path._chain_block(b) == 1)) for b in (-3, 0, 5)] == [1404, 1357, 1381]


def _chain_spec(transition, burn_in):
    states = tuple((Exponential(1.0 + s), Exponential(1.0), Uniform(0.0, 1.0 + s))
                   for s in range(len(transition)))
    return SequenceSpec(model="markov_modulated", seed=29, burn_in=burn_in,
                        modulation=ModulationSpec(transition=transition, states=states))


_RANDOM_ROWS = np.random.default_rng(17).uniform(0.1, 1.0, size=(3, 3))
CHAINS = {
    "sandwich": ((0.995, 0.005), (0.02, 0.98)),
    "random3": tuple(tuple((row / row.sum()).tolist()) for row in _RANDOM_ROWS),
    "near_reducible": ((0.9999, 0.0001), (0.0001, 0.9999)),
    "periodic": ((0.0, 1.0), (1.0, 0.0)),
    "single": ((1.0,),),
    # A row summing to just over 1: its cumulative sum passes 1.0 before the
    # last entry, which is then pinned back to 1.0.
    "overshoot": ((0.5, 0.5 + 5e-10, 0.0), (0.0, 0.3, 0.7), (0.6, 0.0, 0.4)),
}


@pytest.mark.parametrize("burn_in", [1, 2, 3, 4095, 4096, 4097, 10_000])
@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_chain_block_matches_sequential_chain(chain, burn_in):
    spec = _chain_spec(CHAINS[chain], burn_in)
    path = StationaryPath(spec)
    for b in (-300, -1, 0, 7, 1000):
        assert np.array_equal(path._chain_block(b), sequential_chain_block(spec, b))


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_chain_cell_maps_match_row_search(chain):
    # The per-cell jump maps must equal each row's own inverse-CDF search,
    # also for uniforms sitting exactly on, or one ulp either side of, a
    # breakpoint.
    mod = _chain_spec(CHAINS[chain], 1).modulation
    edges, cell_maps, _ = _chain_tables(mod)
    near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    u = np.concatenate([near[(near > 0.0) & (near < 1.0)], np.random.default_rng(3).random(1000)])
    cum = np.cumsum(np.asarray(mod.transition), axis=1)
    cum[:, -1] = 1.0
    m = len(cum)
    expected = np.stack([np.minimum(np.searchsorted(cum[s], u, side="right"), m - 1)
                         for s in range(m)], axis=1)
    assert np.array_equal(np.take(cell_maps, np.searchsorted(edges, u, side="right"), axis=0), expected)


def test_block_straddling_chain_blocks_through_shift():
    k = -3 * _CHAIN_BLOCK + 11
    path = StationaryPath(MM_SPEC).shifted(k)
    start, count = -5 - k, _CHAIN_BLOCK + 20  # base indices -5 .. BLOCK+14: blocks -1, 0, 1
    states = np.concatenate([sequential_chain_block(MM_SPEC, b) for b in (-1, 0, 1)])
    states = states[_CHAIN_BLOCK - 5 : _CHAIN_BLOCK - 5 + count]
    assert set(states.tolist()) == {0, 1}
    blk = path.block(start, count)
    for coord, stream in enumerate((0xA1, 0xA2, 0xA3)):
        u = stream_uniforms(MM_SPEC.seed, stream, -5, count)
        expected = np.empty(count)
        for s, dists in enumerate(MM_SPEC.modulation.states):
            expected[states == s] = dists[coord].sample(u[states == s])
        assert np.array_equal(blk[coord], expected)


def _sequential_prefix(maps):
    m = maps.shape[1]
    acc, rows = np.arange(m), []
    for f in maps:
        acc = f[acc]
        rows.append(acc)
    return np.array(rows)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 1024, 1025])
def test_composition_helpers_match_sequential_loop(n, m):
    rng = np.random.default_rng(1000 * n + m)
    maps = rng.integers(0, m, size=(n, m))
    expected = _sequential_prefix(maps)
    assert np.array_equal(_compose(maps), expected[-1])
    assert np.array_equal(_prefix_compose(maps), expected)
    assert np.array_equal(_compose(maps[::-1]), _sequential_prefix(maps[::-1])[-1])  # strided input


def test_iid_samples_uncorrelated_across_indices():
    spec = iid_spec(6, Exponential(1.0), Exponential(1.0), Uniform(0.0, 2.0))
    blk = StationaryPath(spec).block(0, 200_000)
    for x in (blk.tau, blk.sigma, blk.patience):
        a, b = x[:-1] - x.mean(), x[1:] - x.mean()
        lag1 = float(np.dot(a, b) / np.sqrt(np.dot(a, a) * np.dot(b, b)))
        assert abs(lag1) < 0.01
    # coordinates are driven by separate streams
    c = float(np.corrcoef(blk.tau, blk.sigma)[0, 1])
    assert abs(c) < 0.01


def test_uniform_stream_reproducible_and_open():
    u1 = stream_uniforms(42, 0xA1, -10, 100)
    u2 = stream_uniforms(42, 0xA1, -10, 100)
    assert np.array_equal(u1, u2)
    assert u1.min() > 0.0 and u1.max() < 1.0
    # distinct streams and seeds decorrelate
    assert not np.array_equal(u1, stream_uniforms(42, 0xA2, -10, 100))
    assert not np.array_equal(u1, stream_uniforms(43, 0xA1, -10, 100))


def test_infinite_patience_allowed():
    spec = iid_spec(1, Exponential(1.0), Exponential(2.0), Deterministic(math.inf))
    assert StationaryPath(spec).sample_at(0).patience == math.inf


@pytest.mark.parametrize("bad", [
    lambda: Exponential(0.0),
    lambda: Exponential(-1.0),
    lambda: Uniform(-0.5, 1.0),
    lambda: Uniform(1.0, 1.0),
    lambda: Deterministic(-2.0),
    lambda: ShiftedExponential(-0.1, 1.0),
    lambda: LatticeDiscrete(1.0, (0, 1), (0.6, 0.6)),
    lambda: LatticeDiscrete(0.0, (1,), (1.0,)),
])
def test_invalid_distributions(bad):
    with pytest.raises(ConfigurationError):
        bad()


def test_invalid_specs():
    with pytest.raises(ConfigurationError):
        iid_spec(1, Deterministic(0.0), Exponential(1.0), Deterministic(1.0))  # tau not positive
    with pytest.raises(ConfigurationError):
        SequenceSpec(model="lattice", seed=1, alpha=1.0, tau=Exponential(1.0),
                     sigma=LatticeDiscrete(1.0, (1,), (1.0,)), patience=Deterministic(1.0))
    with pytest.raises(ConfigurationError):
        SequenceSpec(model="nope", seed=1)
    with pytest.raises(ConfigurationError):
        SequenceSpec(model="markov_modulated", seed=1)
    with pytest.raises(ConfigurationError):
        ModulationSpec(transition=((0.5, 0.4), (0.2, 0.8)), states=((Exponential(1.0),) * 3,) * 2)
    with pytest.raises(ConfigurationError):
        # reducible chain
        ModulationSpec(transition=((1.0, 0.0), (0.0, 1.0)), states=((Exponential(1.0),) * 3,) * 2)
    with pytest.raises(ConfigurationError):
        # infinite-mean tau
        iid_spec(1, Deterministic(math.inf), Exponential(1.0), Deterministic(1.0))


def test_lattice_deterministic_requires_exact_multiple():
    with pytest.raises(ConfigurationError):
        SequenceSpec(model="lattice", seed=1, alpha=1.0,
                     tau=LatticeDiscrete(1.0, (1, 2), (0.5, 0.5)),
                     sigma=Deterministic(1.5), patience=Deterministic(1.0))
    spec = SequenceSpec(model="lattice", seed=1, alpha=0.5,
                        tau=LatticeDiscrete(0.5, (2,), (1.0,)),
                        sigma=Deterministic(1.5), patience=Deterministic(1.0))
    assert StationaryPath(spec).lattice_block(0, 4).sigma.tolist() == [3, 3, 3, 3]
