import dataclasses
import functools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

from impatientq import sequences
from impatientq.errors import ConfigurationError, ResourceCapError
from impatientq.sequences import (
    Deterministic,
    Exponential,
    LatticeDiscrete,
    ModulationSpec,
    SequenceSpec,
    ShiftedExponential,
    StationaryPath,
    Uniform,
    STREAM_SIGMA,
    STREAM_TAU,
    _CHAIN_BLOCK,
    _chain_tables,
    _prefix_compose,
    stream_uniforms,
)
from support import (
    CERTIFY,
    MM_SPEC,
    det_spec,
    full_search_chain_run,
    iid_spec,
    random_iid_spec,
    random_lattice_spec,
    random_mm_spec,
    sequential_chain_block,
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


def test_deterministic_path_is_shift_invariant():
    spec = SequenceSpec(model="deterministic", seed=9, tau=Deterministic(2.0),
                        sigma=Deterministic(1.0), patience=Deterministic(0.5))
    path = StationaryPath(spec)
    assert path.sample_at(5) == path.sample_at(22)


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


def _drawn_multipliers(dist, u, alpha):
    """The multipliers drawn straight from the uniforms: the lattice
    generation ``lattice_block`` used before it read the float page memo."""
    if isinstance(dist, LatticeDiscrete):
        return dist.sample_multipliers(u)
    return np.full(u.shape, int(dist.lattice_multipliers(alpha)[0]), dtype=np.int64)


def test_lattice_block_equals_the_multipliers_drawn_from_the_uniforms():
    # ``lattice_block`` rounds the float block over alpha; it must return the
    # multipliers the uniforms draw, on random specs and on steps from 1e-9
    # to 1e6, with deterministic laws, large multipliers and memo hits.
    rng = np.random.default_rng(2051)
    alphas = [1e-9, 1e-3, 0.1, 1 / 3, 0.5, 1.0, 7.3, 1e3, 1e6]
    for trial in range(200):
        alpha = alphas[trial % len(alphas)]
        spec = random_lattice_spec(rng, alpha=alpha, sigma_max=int(rng.integers(1, 9)))
        if trial % 4 == 1:
            spec = dataclasses.replace(spec, tau=Deterministic(int(rng.integers(1, 5)) * alpha))
        if trial % 4 >= 2:
            large = LatticeDiscrete(alpha, tuple(int(k) for k in rng.integers(1, 2**40, 3)), (0.2, 0.3, 0.5))
            spec = dataclasses.replace(spec, **{"sigma" if trial % 4 == 2 else "tau": large})
        path = StationaryPath(spec)
        start, count = int(rng.integers(-10_000, 10_000)), int(rng.integers(1, 3000))
        for lo, n in ((start, count), (start + count // 3, count // 2)):  # a miss, then a hit
            lat = path.lattice_block(lo, n)
            for got, dist, stream in ((lat.tau, spec.tau, STREAM_TAU), (lat.sigma, spec.sigma, STREAM_SIGMA)):
                want = _drawn_multipliers(dist, stream_uniforms(spec.seed, stream, lo, n), alpha)
                assert got.dtype == np.int64 and np.array_equal(got, want), (trial, alpha, dist)
            assert np.array_equal(lat.patience, path.block(lo, n).patience)


def test_markov_modulated_empirical_stationarity():
    path = StationaryPath(MM_SPEC)
    n = 100_000
    a = path.block(0, n).tau
    b = path.block(35_000, n).tau
    ks = stats.ks_2samp(a, b).statistic
    assert ks <= 0.02


def test_markov_modulated_state_marginal():
    # pi P = pi for a two-state chain: pi is proportional to (p10, p01)
    p = MM_SPEC.modulation.transition
    pi = np.array([p[1][0], p[0][1]]) / (p[0][1] + p[1][0])
    states = StationaryPath(MM_SPEC)._states(0, 50_000)
    freq = np.bincount(states, minlength=2) / states.size
    assert np.abs(freq - pi).max() < 0.02


def _chain_block(path, b):
    """Chain block ``b`` of ``path``'s modulating chain, read alone."""
    return path._states(b * _CHAIN_BLOCK, _CHAIN_BLOCK)


def test_markov_modulated_golden_states():
    # Literal chain states of MM_SPEC; any change to driver values must edit these.
    path = StationaryPath(MM_SPEC)
    assert path._states(0, 16).tolist() == [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1]
    assert [int(np.count_nonzero(_chain_block(path, b) == 1)) for b in (-3, 0, 5)] == [1404, 1357, 1381]


def _chain_spec(transition):
    states = tuple((Exponential(1.0 + s), Exponential(1.0), Uniform(0.0, 1.0 + s))
                   for s in range(len(transition)))
    return SequenceSpec(model="markov_modulated", seed=29,
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
    # No identity cell: every jump map moves a state.
    "dense": ((0.3, 0.7), (0.6, 0.4)),
    # No constant cell either: the maps (0, 1, 0) and (1, 2, 2) only reach a
    # constant composed, so every block runs the doubling look-back.
    "merging": ((0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5)),
}

_reference_chain_block = functools.lru_cache(maxsize=None)(sequential_chain_block)


@pytest.mark.parametrize("start", [1, 2, 3, 4095, 4096, 4097, 10_000])
@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_chain_block_matches_sequential_chain(monkeypatch, chain, start):
    # Any look-back length the search starts from reads the same block; a
    # chain whose states never meet (periodic) is refused by both. The cap
    # keeps the stepped reference short there and is far above the ~5,000
    # maps near_reducible needs.
    cap = 1 << 16
    monkeypatch.setattr(sequences, "_BACK_START", start)
    monkeypatch.setattr(sequences, "_BACK_CAP", cap)
    spec = _chain_spec(CHAINS[chain])
    path = StationaryPath(spec)
    for b in (-300, -1, 0, 7, 1000):
        want = _reference_chain_block(spec, b, cap)
        if want is None:
            with pytest.raises(ResourceCapError):
                _chain_block(path, b)
        else:
            assert np.array_equal(_chain_block(path, b), want), b
    assert (chain == "periodic") == (want is None)


SEAM_SPECS = {name: _chain_spec(t) for name, t in CHAINS.items() if name != "periodic"}
_SEAM_RNG = np.random.default_rng(4242)
SEAM_SPECS.update({f"random_mm{k}": random_mm_spec(_SEAM_RNG, n_states=2 + k % 3)
                   for k in range(20)})


@pytest.mark.parametrize("name", sorted(SEAM_SPECS))
def test_chain_seams_take_the_jump_of_their_uniform(name):
    # The state at each block start is the state one index earlier moved by
    # the jump its uniform selects: the blocks form one chain.
    spec = SEAM_SPECS[name]
    mod = spec.modulation
    m = mod.n_states()
    cum = np.cumsum(np.asarray(mod.transition, dtype=np.float64), axis=1)
    cum[:, -1] = 1.0
    lo, n_blocks = -20, 40
    states = StationaryPath(spec)._states(lo * _CHAIN_BLOCK, n_blocks * _CHAIN_BLOCK)
    for k in range(1, n_blocks):
        seam = (lo + k) * _CHAIN_BLOCK
        u = stream_uniforms(spec.seed, sequences.STREAM_MODULATION, seam, 1)
        prev = states[k * _CHAIN_BLOCK - 1]
        assert states[k * _CHAIN_BLOCK] == min(int(np.searchsorted(cum[prev], u[0], side="right")),
                                               m - 1), seam


def test_periodic_chain_refused():
    spec = _chain_spec(CHAINS["periodic"])
    with pytest.raises(ResourceCapError) as exc:
        StationaryPath(spec).block(0, 10)
    assert "((0.0, 1.0), (1.0, 0.0))" in str(exc.value) and "chain block 0" in str(exc.value)
    assert exc.value.cap == sequences._BACK_CAP


def test_refusal_holds_a_bounded_look_back():
    # A 4-state cycle never coalesces: the refusal reads 2^20 look-back maps,
    # and holds at most one piece of them at a time.
    transition = tuple(tuple(float(j == (i + 1) % 4) for j in range(4)) for i in range(4))
    spec = _chain_spec(transition)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError):
            StationaryPath(spec).block(0, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_chain_block_refused_past_the_cap(monkeypatch):
    # near_reducible coalesces after about 5,000 maps; a cap of 512 refuses.
    monkeypatch.setattr(sequences, "_BACK_START", 256)
    monkeypatch.setattr(sequences, "_BACK_CAP", 512)
    path = StationaryPath(_chain_spec(CHAINS["near_reducible"]))
    with pytest.raises(ResourceCapError) as exc:
        for b in range(10):
            _chain_block(path, b)
    assert (exc.value.cap, exc.value.requested) == (512, 1024)
    assert "did not coalesce" in str(exc.value)


def _lone_refusal(spec, b):
    """``(cap, requested, message)`` of a read of chain block ``b`` alone on a
    fresh path, or ``None`` when the block is read."""
    try:
        _chain_block(StationaryPath(spec), b)
    except ResourceCapError as exc:
        return exc.cap, exc.requested, str(exc)
    return None


@pytest.mark.parametrize("seed", [29, 30, 31])
def test_run_refuses_as_its_first_refused_block_alone(monkeypatch, seed):
    # A read across many blocks is refused with the cap, the request and the
    # block that a read of the first refused block alone gives, also when
    # the run starts at blocks that coalesce.
    monkeypatch.setattr(sequences, "_BACK_START", 256)
    monkeypatch.setattr(sequences, "_BACK_CAP", 512)
    spec = dataclasses.replace(_chain_spec(CHAINS["near_reducible"]), seed=seed)
    lone = [_lone_refusal(spec, b) for b in range(-40, 40)]
    assert any(r is None for r in lone) and any(r is not None for r in lone)
    starts = {0, next(k for k, r in enumerate(lone) if r is None)}
    for k in sorted(starts):
        refused = next((r for r in lone[k : k + 10] if r is not None), None)
        path = StationaryPath(spec)
        if refused is None:
            path._states((k - 40) * _CHAIN_BLOCK + 5, 10 * _CHAIN_BLOCK - 5)
            continue
        with pytest.raises(ResourceCapError) as exc:
            path._states((k - 40) * _CHAIN_BLOCK + 5, 10 * _CHAIN_BLOCK - 5)
        assert (exc.value.cap, exc.value.requested, str(exc.value)) == refused
        assert refused[:2] == (512, 1024)


COVER_CHAINS = ("sandwich", "dense", "overshoot", "single", "merging")


def _reference_states(spec, lo, count):
    """The stepped reference over ``lo .. lo+count-1``, block by block."""
    first = lo // _CHAIN_BLOCK
    stop = -(-(lo + count) // _CHAIN_BLOCK)
    states = np.concatenate([_reference_chain_block(spec, b, 1 << 20) for b in range(first, stop)])
    return states[lo - first * _CHAIN_BLOCK :][:count]


@pytest.mark.parametrize("back_start", [1, 256, 4097, 10_000])
@pytest.mark.parametrize("chain", COVER_CHAINS)
def test_states_over_covers_match_sequential_chain(monkeypatch, chain, back_start):
    # Covers that start mid-block and span up to ten blocks, read on fresh
    # paths, equal the chain stepped index by index.
    monkeypatch.setattr(sequences, "_BACK_START", back_start)
    spec = _chain_spec(CHAINS[chain])
    rng = np.random.default_rng([back_start, len(chain)])
    for _ in range(3):
        lo = int(rng.integers(-20 * _CHAIN_BLOCK, 20 * _CHAIN_BLOCK))
        count = int(rng.integers(1, 10 * _CHAIN_BLOCK))
        got = StationaryPath(spec)._states(lo, count)
        m = spec.modulation.n_states()
        assert got.dtype == np.min_scalar_type(m - 1), (got.dtype, m)   # the memo's blocks, not widened
        assert np.array_equal(got, _reference_states(spec, lo, count)), (lo, count)


@pytest.mark.parametrize("chain", COVER_CHAINS)
def test_partly_cached_runs_through_shifts(monkeypatch, chain):
    # The chain-block memo is keyed on the block index: a wide read after
    # scattered narrow ones builds only the runs between cached blocks, and
    # every block it returns, cached or new, is the stepped reference.
    spec = _chain_spec(CHAINS[chain])
    path = StationaryPath(spec)
    for b in (-4, -1, 0, 3, 4):
        path.block(b * _CHAIN_BLOCK + 100, 50)
    assert set(path._memo.blocks) == {-4, -1, 0, 3, 4}
    runs, chain_run = [], StationaryPath._chain_run
    monkeypatch.setattr(StationaryPath, "_chain_run",
                        lambda self, first, stop: runs.append((first, stop)) or chain_run(self, first, stop))
    lo, count = -6 * _CHAIN_BLOCK + 7, 12 * _CHAIN_BLOCK - 20
    path.block(lo, count)
    assert runs == [(-6, -4), (-3, -1), (1, 3), (5, 6)], runs
    assert set(path._memo.blocks) == set(range(-6, 6))
    for b, block in path._memo.blocks.items():
        assert np.array_equal(block, _reference_chain_block(spec, b, 1 << 20)), b
    assert np.array_equal(path._states(lo, count), _reference_states(spec, lo, count))


def test_spaced_reads_keep_a_bounded_chain_memo():
    # 3,000 ten-index reads 5,000 apart touch 3,006 chain blocks. The path
    # keeps the 256 used last, one byte a state, each block owning its
    # bytes rather than holding its run alive: at most 1 MiB, where keeping
    # every block as int64 held 93.9 MiB. A kept block holds a fresh
    # path's states.
    path = StationaryPath(MM_SPEC)
    for k in range(3000):
        path.block(5000 * k, 10)
    blocks = path._memo.blocks
    assert len(blocks) == sequences._BLOCK_MEMO == 256
    assert sum(b.nbytes for b in blocks.values()) <= 1 << 20
    assert all(b.dtype == np.uint8 and b.base is None for b in blocks.values())
    last = 5000 * 2999 // _CHAIN_BLOCK
    assert list(blocks)[-1] == last and min(blocks) > last - 400
    for b in (min(blocks), last):
        assert np.array_equal(blocks[b], StationaryPath(MM_SPEC)._states(b * _CHAIN_BLOCK, _CHAIN_BLOCK)), b


def test_a_million_sample_report_builds_each_chain_block_once(monkeypatch):
    # Every read of a 10^6-sample report (the certified read, the cftp
    # boxes and chains, the rolls) lies in 246 chain blocks, which the
    # bounded memo holds at once: each is built once.
    from impatientq.metrics import bound_report

    built, chain_run = [], StationaryPath._chain_run
    monkeypatch.setattr(StationaryPath, "_chain_run",
                        lambda self, first, stop: built.extend(range(first, stop)) or chain_run(self, first, stop))
    path = StationaryPath(MM_SPEC)
    bound_report(path, 2, 10**6)
    assert len(built) == len(set(built)) == len(path._memo.blocks) == 246, sorted(built)


def test_a_path_refuses_a_new_spec():
    # The memos serve the spec the path was made with, so neither the spec
    # nor the memo can be replaced; the path still reads its own drivers.
    path = StationaryPath(CERTIFY)
    want = _bits(path.block(0, 5))
    with pytest.raises(dataclasses.FrozenInstanceError):
        path.spec = MM_SPEC
    with pytest.raises(dataclasses.FrozenInstanceError):
        path._memo = type(path._memo)()
    assert path.spec is CERTIFY and _bits(path.block(0, 5)) == want
    assert _bits(StationaryPath(MM_SPEC).block(0, 5)) != want


def test_run_composes_moving_maps_across_piece_seams(monkeypatch):
    # On the dense chain every map moves a state, so a run of three blocks
    # composes more than _CHAIN_BLOCK maps and reads its later pieces at the
    # state where the one before ended.
    spec = _chain_spec(CHAINS["dense"])
    edges, cell_maps = _chain_tables(spec.modulation)
    assert not (cell_maps == np.arange(2)).all(axis=1).any()
    pieces = []
    compose = sequences._prefix_compose
    monkeypatch.setattr(sequences, "_prefix_compose", lambda maps: pieces.append(len(maps)) or compose(maps))
    lo = -2 * _CHAIN_BLOCK + 1234
    got = StationaryPath(spec)._states(lo, 2 * _CHAIN_BLOCK)
    assert len(pieces) > 1 and max(pieces) == _CHAIN_BLOCK, pieces
    assert np.array_equal(got, _reference_states(spec, lo, 2 * _CHAIN_BLOCK))


@pytest.mark.parametrize("back_start", [2, 256])
@pytest.mark.parametrize("chain", ["merging", "overshoot", "dense", "sandwich"])
def test_deeper_look_back_runs_only_for_open_windows(monkeypatch, chain, back_start):
    # A block whose window, the _BACK_START maps ending at its start, does
    # not compose to a constant looks back deeper; no other block does. With
    # windows of two maps, merging's maps (0, 1, 0) and (1, 2, 2), none of
    # them constant, leave windows open and reach the folded look-back.
    monkeypatch.setattr(sequences, "_BACK_START", back_start)
    spec = _chain_spec(CHAINS[chain])
    calls, composed = [], []
    look_back, compose = sequences._look_back, sequences._compose
    monkeypatch.setattr(sequences, "_look_back",
                        lambda spec, b, window: calls.append(b) or look_back(spec, b, window))
    monkeypatch.setattr(sequences, "_compose", lambda *args: composed.append(args[1:]) or compose(*args))
    got = StationaryPath(spec)._states(-3 * _CHAIN_BLOCK, 6 * _CHAIN_BLOCK)
    open_windows = []
    for b in range(-3, 3):
        window = _sequential_prefix(sequences._jump_maps(spec, b * _CHAIN_BLOCK + 1 - back_start, back_start))[-1]
        if len(set(window.tolist())) > 1:
            open_windows.append(b)
    assert calls == open_windows
    assert bool(composed) == bool(open_windows)
    if (chain, back_start) == ("merging", 2):
        assert open_windows
    assert np.array_equal(got, _reference_states(spec, -3 * _CHAIN_BLOCK, 6 * _CHAIN_BLOCK))


def test_markov_modulated_block_does_not_import_numpy_ma():
    # numpy.ma takes over 10 ms to import; the chain tables find the
    # distinct breakpoints without it.
    import os
    import subprocess
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    probe = ("import sys\n"
             "from impatientq.sequences import *\n"
             "laws = tuple((Exponential(r), Exponential(1.0), Exponential(1.0)) for r in (1.0, 2.0))\n"
             "mod = ModulationSpec(((0.9, 0.1), (0.2, 0.8)), laws)\n"
             "print('numpy.ma' in sys.modules)\n"
             "StationaryPath(SequenceSpec('markov_modulated', 11, modulation=mod)).block(-5000, 10000)\n"
             "print('numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True)
    assert out.stdout.split() == ["False", "False"], out


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_chain_cell_maps_match_row_search(chain):
    # The per-cell jump maps must equal each row's own inverse-CDF search,
    # also for uniforms sitting exactly on, or one ulp either side of, a
    # breakpoint.
    mod = _chain_spec(CHAINS[chain]).modulation
    edges, cell_maps = _chain_tables(mod)
    near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    u = np.concatenate([near[(near > 0.0) & (near < 1.0)], np.random.default_rng(3).random(1000)])
    cum = np.cumsum(np.asarray(mod.transition), axis=1)
    cum[:, -1] = 1.0
    m = len(cum)
    expected = np.stack([np.minimum(np.searchsorted(cum[s], u, side="right"), m - 1)
                         for s in range(m)], axis=1)
    assert np.array_equal(np.take(cell_maps, np.searchsorted(edges, u, side="right"), axis=0), expected)


# Chains for the stay-interval pass: a sticky one (few moves), a dense one
# (empty interval), rows with zero-probability entries, 3 and 4 states.
RUN_CHAINS = {
    "sticky": CHAINS["sandwich"],
    "dense": CHAINS["dense"],
    "zero_entries": ((0.5, 0.0, 0.5), (0.2, 0.6, 0.2), (0.0, 0.3, 0.7)),
    "three": CHAINS["random3"],
    "four": ((0.97, 0.01, 0.01, 0.01), (0.02, 0.95, 0.02, 0.01),
             (0.01, 0.0, 0.96, 0.03), (0.03, 0.0, 0.02, 0.95)),
}


@pytest.mark.parametrize("run", [(-3, 2), (-1, 0), (0, 1), (7, 10)], ids=lambda r: f"{r[0]}..{r[1]}")
@pytest.mark.parametrize("chain", sorted(RUN_CHAINS))
def test_chain_run_equals_the_full_search_oracle(chain, run):
    # Searching only the uniforms outside the stay interval builds the same
    # blocks, bit for bit and in the same dtype, as mapping every uniform to
    # its cell; the runs cross page edges and negative indices.
    spec = _chain_spec(RUN_CHAINS[chain])
    got = StationaryPath(spec)._chain_run(*run)
    want = full_search_chain_run(StationaryPath(spec), *run)
    assert len(got) == len(want) == run[1] - run[0]
    for b, (g, w) in enumerate(zip(got, want), run[0]):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), b


@pytest.mark.parametrize("chain", sorted(CHAINS) + sorted(RUN_CHAINS))
def test_stay_interval_holds_exactly_the_identity_cells(chain):
    # A uniform lies in the stay interval exactly when its cell's jump map
    # is the identity, also on, and one ulp either side of, every edge.
    mod = _chain_spec({**CHAINS, **RUN_CHAINS}[chain]).modulation
    edges, cell_maps = _chain_tables(mod)
    lo, hi = sequences._stay_interval(mod)
    near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    u = np.concatenate([near[(near > 0.0) & (near < 1.0)], np.random.default_rng(5).random(1000)])
    identity = (cell_maps == np.arange(mod.n_states())).all(axis=1)
    assert np.array_equal((lo <= u) & (u < hi), identity[np.searchsorted(edges, u, side="right")])
    assert (lo < hi) == bool(identity.any())


@pytest.mark.parametrize("chain", ["sticky", "dense"])
def test_chain_run_searches_only_windows_and_moves(monkeypatch, chain):
    # The cell search reads each block's window and the uniforms whose map
    # moves a state: about 9 % of the uniforms on the sticky chain of the
    # sandwich benchmark, every one on the dense chain, whose stay interval
    # is empty.
    spec = _chain_spec(RUN_CHAINS[chain])
    first, stop = -2, 24
    lo = first * _CHAIN_BLOCK + 1 - sequences._BACK_START
    n = stop * _CHAIN_BLOCK - lo
    edges, cell_maps = _chain_tables(spec.modulation)
    u = stream_uniforms(spec.seed, sequences.STREAM_MODULATION, lo, n)
    moving = ~(cell_maps == np.arange(spec.modulation.n_states())).all(axis=1)
    moves = int(np.count_nonzero(moving[np.searchsorted(edges, u, side="right")]))
    windows = (stop - first) * sequences._BACK_START
    sizes, looked, search = [], [], np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda a, v, *args, **kw: sizes.append(np.size(v)) or search(a, v, *args, **kw))
    look_back = sequences._look_back
    monkeypatch.setattr(sequences, "_look_back", lambda *args: looked.append(args[1]) or look_back(*args))
    StationaryPath(spec)._chain_run(first, stop)
    assert not looked   # every window of this run composes to a constant
    assert sum(sizes) == windows + moves, (sizes, windows, moves)
    if chain == "sticky":
        assert sum(sizes) <= 0.1 * n, sum(sizes) / n
    else:
        assert moves == n


def test_block_straddling_chain_blocks_through_shift():
    path = StationaryPath(MM_SPEC)
    start, count = -5, _CHAIN_BLOCK + 20  # indices -5 .. BLOCK+14: blocks -1, 0, 1
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


# A 3-state chain, and one whose covers near index 0 never enter state 2:
# it is entered with probability 1e-9 an index, from state 0 alone.
COVER_CHAINS = {
    "random3": CHAINS["random3"],
    "unvisited": ((0.5, 0.5 - 1e-9, 1e-9), (0.5, 0.5, 0.0), (1.0, 0.0, 0.0)),
}


@pytest.mark.parametrize("chain", sorted(COVER_CHAINS))
def test_markov_cover_matches_masked_reference(chain):
    # The cover samples each state's laws at that state's index list; the
    # reference gathers and scatters through a boolean mask per state and
    # coordinate, at the sequential chain's states.
    spec = _chain_spec(COVER_CHAINS[chain])
    start, count = -5, _CHAIN_BLOCK + 20  # blocks -1, 0, 1
    states = np.concatenate([sequential_chain_block(spec, b) for b in (-1, 0, 1)])
    states = states[_CHAIN_BLOCK - 5 : _CHAIN_BLOCK - 5 + count]
    assert set(states.tolist()) == ({0, 1} if chain == "unvisited" else {0, 1, 2})
    blk = StationaryPath(spec).block(start, count)
    for coord, stream in enumerate((0xA1, 0xA2, 0xA3)):
        u = stream_uniforms(spec.seed, stream, start, count)
        expected = np.full(count, np.nan)
        for s, dists in enumerate(spec.modulation.states):
            expected[states == s] = dists[coord].sample(u[states == s])
        assert blk[coord].tobytes() == expected.tobytes()


@pytest.mark.parametrize("chain", ["sandwich", "dense"])
def test_markov_cover_peak_memory(chain):
    # A cover of 26 pages keeps 24 bytes an index of drivers and one of chain
    # states (2.55 MiB). Its chain states are built before any stream is
    # drawn, and each stream is sampled in its own uniforms' array, so the
    # build peaks at 1.88 (sandwich) and 1.70 (dense) times what it keeps;
    # streams drawn before the states peak at 2.30 on the dense chain, whose
    # states move at most indices.
    spec = _chain_spec(CHAINS[chain])
    n = 26 * _CHAIN_BLOCK
    StationaryPath(dataclasses.replace(spec, seed=1)).block(-_CHAIN_BLOCK, n)   # module caches
    tracemalloc.start()
    try:
        path = StationaryPath(spec)
        path.block(-_CHAIN_BLOCK, n)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept <= 25.2 * n and peak <= 2 * kept, (kept / n, peak / kept)


# Modulated specs with some column whose law is the same in every state. The
# equal laws are built as distinct objects, so only their values are equal.
SHARED_SPECS = {
    # the sandwich benchmark's laws: only the service law is shared
    "sigma": (CHAINS["sandwich"], lambda: (
        (Exponential(1.0), Exponential(0.6), Deterministic(1.0)),
        (Exponential(1.8), Exponential(0.6), Uniform(0.0, 2.0)))),
    "tau_and_patience": (CHAINS["dense"], lambda: (
        (Exponential(1.0), Exponential(0.6), Uniform(0.0, 2.0)),
        (Exponential(1.0), Exponential(0.9), Uniform(0.0, 2.0)))),
    "patience_of_three": (CHAINS["random3"], lambda: tuple(
        (Exponential(1.0 + s), Uniform(0.1 * s, 2.0), ShiftedExponential(0.5, 2.0)) for s in range(3))),
    "all": (CHAINS["dense"], lambda: tuple(
        (Exponential(1.5), Uniform(0.2, 1.0), Deterministic(1.5)) for _ in range(2))),
}


def _shared_spec(name):
    transition, laws = SHARED_SPECS[name]
    states = laws()
    assert states[0][0] is not states[1][0]
    return SequenceSpec(model="markov_modulated", seed=31,
                        modulation=ModulationSpec(transition=transition, states=states))


@pytest.mark.parametrize("name", sorted(SHARED_SPECS))
def test_shared_laws_sample_as_per_state_laws(monkeypatch, name):
    # A column whose law is equal in every state is sampled once over the
    # whole stream, and its values are the per-state gather, sample and
    # scatter's bit for bit; every other column still samples per state.
    spec = _shared_spec(name)
    laws = spec.modulation.states
    start, count = -5, 3 * _CHAIN_BLOCK + 20   # blocks -1 .. 2
    states = StationaryPath(spec)._states(start, count)
    calls, samplers = [], {}
    for cls in (Exponential, Deterministic, Uniform, ShiftedExponential):
        samplers[cls] = cls.sample
        monkeypatch.setattr(cls, "sample", lambda self, u: calls.append((self, len(u))) or samplers[type(self)](self, u))
    got = StationaryPath(spec)._generate(start, count)
    want = []
    for c, stream in enumerate((STREAM_TAU, STREAM_SIGMA, sequences.STREAM_PATIENCE)):
        u = stream_uniforms(spec.seed, stream, start, count)
        expected = np.full(count, np.nan)
        for s, law in enumerate(laws):
            expected[states == s] = samplers[type(law[c])](law[c], u[states == s])
        assert got[c].tobytes() == expected.tobytes(), c
        shared = all(law[c] == laws[0][c] for law in laws)
        want += ([(laws[0][c], count)] if shared else
                 [(law[c], int(np.count_nonzero(states == s))) for s, law in enumerate(laws)])
    assert calls == want
    assert any(len({law[c] for law in laws}) == 1 for c in range(3))


@pytest.mark.parametrize("dist", [Exponential(1.7), ShiftedExponential(0.4, 2.5), Uniform(0.3, 2.1)],
                         ids=lambda d: type(d).__name__)
def test_samplers_keep_their_argument_and_the_closed_forms(dist):
    # Each sampler computes in one output array; its argument is left as it
    # was, and the values are the closed forms' bit for bit.
    u = stream_uniforms(5, STREAM_TAU, -100, 10_000)
    u[:3] = np.nextafter(0.0, 1.0), 0.5, np.nextafter(1.0, 0.0)
    before = u.copy()
    got = dist.sample(u)
    assert u.tobytes() == before.tobytes()
    if isinstance(dist, Exponential):
        want = -np.log1p(-u) / dist.rate
    elif isinstance(dist, ShiftedExponential):
        want = dist.shift - np.log1p(-u) / dist.rate
    else:
        want = dist.low + u * (dist.high - dist.low)
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# The float page memo of StationaryPath.block
# ---------------------------------------------------------------------------

MEMO_SPECS = {
    "iid": iid_spec(13, Exponential(1.3), ShiftedExponential(0.2, 0.8), Uniform(0.0, 2.0)),
    "deterministic": det_spec(4, 2.0, 1.0, 0.5),
    "lattice": random_lattice_spec(np.random.default_rng(17), alpha=0.5),
    "markov_modulated": MM_SPEC,
}
MEMO_LO, MEMO_N = -1000, 2 * _CHAIN_BLOCK + 100


def _bits(blk):
    return [a.tobytes() for a in blk]


def _memo_cover(base):
    """Indices ``[lo, hi)`` of the page cover that ``block(MEMO_LO + base,
    MEMO_N)`` generates: whole pages of ``_CHAIN_BLOCK`` indices."""
    lo = (MEMO_LO + base) // _CHAIN_BLOCK * _CHAIN_BLOCK
    hi = -(-(MEMO_LO + MEMO_N + base) // _CHAIN_BLOCK) * _CHAIN_BLOCK
    return lo, hi


def _memo_windows(base):
    """(start, count) windows that lie inside the memo after
    ``block(MEMO_LO + base, MEMO_N)``, and windows that do not."""
    lo, hi = _memo_cover(base)
    n = hi - lo
    # First index past lo + 10 that starts a chain block.
    seam = -(-(lo + 10) // _CHAIN_BLOCK) * _CHAIN_BLOCK
    inside = [(lo, n), (MEMO_LO + base, MEMO_N), (lo + 17, 100), (lo, 50), (lo + n - 50, 50),
              (seam - 7, 30), (seam - 7, _CHAIN_BLOCK + 14)]
    outside = [(lo - 1, 50), (lo + n - 49, 50), (lo - 1, n + 2), (lo + n + 10, 30),
               (lo - 200, 30)]
    return inside, outside


@pytest.mark.parametrize("base", [0, -3 * _CHAIN_BLOCK + 11])
@pytest.mark.parametrize("kind", sorted(MEMO_SPECS))
def test_block_memo_equals_fresh_blocks(kind, base):
    spec = MEMO_SPECS[kind]
    inside, outside = _memo_windows(base)
    for window, hit in [(w, True) for w in inside] + [(w, False) for w in outside]:
        path = StationaryPath(spec)
        path.block(MEMO_LO + base, MEMO_N)
        memo = path._memo.cover[1]
        got = path.block(*window)
        assert _bits(got) == _bits(StationaryPath(spec).block(*window)), window
        assert np.shares_memory(got.tau, memo.tau) == hit, window
        # A miss replaces the memo with the page cover it generated, which
        # starts at a page boundary.
        first, cover = path._memo.cover
        assert first % _CHAIN_BLOCK == 0 and len(cover.tau) % _CHAIN_BLOCK == 0, window
        assert np.shares_memory(path.block(*window).tau, got.tau), window


@pytest.mark.parametrize("kind", sorted(MEMO_SPECS))
def test_sample_at_inside_and_outside_the_memo(kind):
    spec = MEMO_SPECS[kind]
    path = StationaryPath(spec)
    lo, hi = _memo_cover(0)
    for n in (lo, MEMO_LO, MEMO_LO + 1234, hi - 1, lo - 1, hi):
        path.block(MEMO_LO, MEMO_N)
        memo = path._memo.cover
        got = path.sample_at(n)
        assert np.array(got).tobytes() == np.array(StationaryPath(spec).sample_at(n)).tobytes()
        # A miss generates the one index and leaves the memo as it was.
        assert path._memo.cover is memo


@pytest.mark.parametrize("kind", ["iid", "lattice", "markov_modulated"])
def test_sample_at_equals_a_one_index_block_at_random_indices(kind):
    spec = MEMO_SPECS[kind]
    path = StationaryPath(spec)
    path.block(MEMO_LO - 5, MEMO_N)
    memo = path._memo.cover
    rng = np.random.default_rng(91)
    inside = rng.integers(MEMO_LO - 5, MEMO_LO - 5 + MEMO_N, 20)
    for n in np.concatenate([inside, rng.integers(-10**9, 10**9, 40)]).tolist():
        want = StationaryPath(spec).block(n, 1)
        assert np.array(path.sample_at(n)).tobytes() == np.array([a[0] for a in want]).tobytes(), n
        assert path._memo.cover is memo, n


@pytest.mark.parametrize("kind", sorted(MEMO_SPECS))
def test_block_rejects_a_negative_count_on_a_hit_and_a_miss(kind):
    path = StationaryPath(MEMO_SPECS[kind])
    with pytest.raises(ValueError, match="count must be non-negative"):
        path.block(10, -5)  # a miss: nothing is memoized yet
    path.block(0, 100)
    with pytest.raises(ValueError, match="count must be non-negative"):
        path.block(10, -5)  # starts inside the memo


@pytest.mark.parametrize("kind", sorted(MEMO_SPECS))
def test_blocks_are_read_only(kind):
    path = StationaryPath(MEMO_SPECS[kind])
    for blk in (path.block(0, 100), path.block(10, 20)):  # a generated window, then a view of it
        for a in blk:
            with pytest.raises(ValueError):
                a[0] = 1.0


def test_block_memo_shared_between_threads():
    # Readers of one path race on its memo; a lost race may only cost a regeneration.
    rng = np.random.default_rng(23)
    windows = [(int(a), int(c)) for a, c in zip(rng.integers(-3000, 3000, 48),
                                                 rng.integers(1, 2000, 48))]
    expected = {w: _bits(StationaryPath(MM_SPEC).block(*w)) for w in windows}
    path = StationaryPath(MM_SPEC)

    def read(k):
        return [(w, _bits(path.block(*w))) for w in windows[k::4] * 3]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(read, k) for k in range(4)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert sum(len(r) for r in results) == 3 * len(windows)
    for r in results:
        for w, bits in r:
            assert bits == expected[w], w


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
    assert np.array_equal(_prefix_compose(maps), _sequential_prefix(maps))
    assert np.array_equal(_prefix_compose(maps[::-1]), _sequential_prefix(maps[::-1]))  # strided input


@pytest.mark.parametrize("piece", [1, 2, 7, 64, 1 << 16])
@pytest.mark.parametrize("name", ["random3", "overshoot", "random_mm3"])
def test_look_back_fold_matches_sequential_loop(monkeypatch, name, piece):
    # Odd and even stacks, pieces of one map and pieces that split the range
    # unevenly all give the composition the maps make applied in turn.
    monkeypatch.setattr(sequences, "_PIECE", piece)
    spec = SEAM_SPECS[name]
    for lo, count in ((-3, 1), (0, 2), (17, 3), (-700, 255), (5000, 1000)):
        want = _sequential_prefix(sequences._jump_maps(spec, lo, count))[-1]
        assert np.array_equal(sequences._compose(spec, lo, lo + count), want), (lo, count)


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


def _splitmix_reference(seed, stream, start, count):
    """Uniforms of the pure-Python SplitMix64: the finalizer ``_mix64_int``
    on ``key + n * phi`` (mod 2^64), its top 53 bits centred in (0, 1)."""
    key = sequences._stream_key(seed, stream)
    return np.array([((sequences._mix64_int(key + n * sequences._PHI64) >> 11) + 0.5) * 2.0**-53
                     for n in range(start, start + count)], dtype=np.float64)


@pytest.mark.parametrize("start", [-2**62, -7, 0, 2**62 - 100])
@pytest.mark.parametrize("count", [0, 1, 17, 5000])
def test_stream_uniforms_match_python_splitmix(start, count):
    got = stream_uniforms(2024, STREAM_TAU, start, count)
    assert got.dtype == np.float64 and got.shape == (count,)
    assert got.tobytes() == _splitmix_reference(2024, STREAM_TAU, start, count).tobytes()


def test_stream_uniforms_peak_memory():
    # The finalizer runs in place on one uint64 array plus one scratch array
    # that becomes the output: 16 bytes an index at its peak.
    n = 106_496
    stream_uniforms(3, STREAM_SIGMA, 0, n)
    tracemalloc.start()
    try:
        stream_uniforms(3, STREAM_SIGMA, 12_345, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17 * n, peak / n


def test_stream_uniforms_refuse_non_integral_indices():
    with pytest.raises(TypeError):
        stream_uniforms(1, STREAM_TAU, 0, 2.5)
    with pytest.raises(TypeError):
        stream_uniforms(1, STREAM_TAU, 0.5, 3)
    want = stream_uniforms(1, STREAM_TAU, 4, 3)
    assert stream_uniforms(1, STREAM_TAU, np.int64(4), np.uint16(3)).tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", sorted(MEMO_SPECS))
def test_sample_at_refuses_non_integral_indices(kind):
    path = StationaryPath(MEMO_SPECS[kind])
    with pytest.raises(TypeError):
        path.sample_at(0.5)  # a miss: nothing is memoized yet
    path.block(0, 100)
    with pytest.raises(TypeError):
        path.sample_at(0.5)  # inside the memo
    assert path.sample_at(np.int32(7)) == path.sample_at(7)


@pytest.mark.parametrize("kind", sorted(MEMO_SPECS))
def test_block_refuses_non_integral_indices(kind):
    path = StationaryPath(MEMO_SPECS[kind])
    for start, count in ((0.5, 3), (0, 2.5)):
        with pytest.raises(TypeError):
            path.block(start, count)
    path.block(0, 100)
    for start, count in ((10.0, 3), (10, 3.0)):
        with pytest.raises(TypeError):
            path.block(start, count)  # inside the memo
    assert _bits(path.block(np.int64(10), np.int8(3))) == _bits(path.block(10, 3))


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
    lambda: ShiftedExponential(math.nan, 1.0),
    lambda: LatticeDiscrete(1.0, (1, 2), (math.nan, 1.0)),
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


def test_spec_hash_is_the_fields_hash_and_keeps_equality():
    import os
    import pickle
    import subprocess
    from pathlib import Path

    from impatientq import loynes

    spec = dataclasses.replace(MM_SPEC)
    assert spec is not MM_SPEC and spec == MM_SPEC and hash(spec) == hash(MM_SPEC)
    assert hash(spec) == hash(tuple(getattr(spec, f.name) for f in dataclasses.fields(spec)))
    other = dataclasses.replace(MM_SPEC, seed=MM_SPEC.seed + 1)
    assert other != spec and hash(other) != hash(spec)
    # An equal spec built apart finds the entry cached under the first one.
    loynes._chernoff_constants(MM_SPEC.laws)
    hits = loynes._chernoff_constants.cache_info().hits
    loynes._chernoff_constants(spec.laws)
    assert loynes._chernoff_constants.cache_info().hits == hits + 1
    # String hashes differ between processes: a spec pickled after hashing
    # and reading its laws, loaded under another hash seed, equals and
    # hashes as an equal spec built there does.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONHASHSEED="1",
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    probe = ("import pickle, sys; from support import MM_SPEC; "
             "s = pickle.loads(sys.stdin.buffer.read()); "
             "print(s == MM_SPEC, hash(s) == hash(MM_SPEC), s.laws == MM_SPEC.laws)")
    out = subprocess.run([sys.executable, "-c", probe], input=pickle.dumps(spec), env=env,
                         check=True, capture_output=True).stdout.decode().split()
    assert out == ["True", "True", "True"], out


def test_lattice_deterministic_requires_exact_multiple():
    with pytest.raises(ConfigurationError):
        SequenceSpec(model="lattice", seed=1, alpha=1.0,
                     tau=LatticeDiscrete(1.0, (1, 2), (0.5, 0.5)),
                     sigma=Deterministic(1.5), patience=Deterministic(1.0))
    spec = SequenceSpec(model="lattice", seed=1, alpha=0.5,
                        tau=LatticeDiscrete(0.5, (2,), (1.0,)),
                        sigma=Deterministic(1.5), patience=Deterministic(1.0))
    assert StationaryPath(spec).lattice_block(0, 4).sigma.tolist() == [3, 3, 3, 3]


@pytest.mark.parametrize("dist", [
    Exponential(1.7), Deterministic(1.25), Uniform(0.3, 2.1), ShiftedExponential(0.4, 2.5),
    LatticeDiscrete(0.5, (0, 1, 4), (0.2, 0.5, 0.3)),
], ids=lambda d: type(d).__name__)
def test_log_mgf_matches_quadrature_of_the_sampler(dist):
    # log E e^(theta X) by the midpoint rule over the inverse-CDF sampler
    u = (np.arange(200_000) + 0.5) / 200_000
    x = dist.sample(u)
    for theta in (-2.0, -0.25, 0.5):
        want = math.log(float(np.exp(theta * x).mean()))
        assert dist.log_mgf(theta) == pytest.approx(want, abs=2e-3), theta
    assert dist.log_mgf(0.0) == pytest.approx(0.0)


def test_log_mgf_diverges_past_the_rate_and_stays_finite_for_large_work():
    assert Exponential(0.5).log_mgf(0.5) == math.inf
    assert ShiftedExponential(1.0, 0.5).log_mgf(0.75) == math.inf
    assert Deterministic(math.inf).log_mgf(0.25) == math.inf
    assert Deterministic(math.inf).log_mgf(-0.25) == -math.inf
    # e^4000 overflows a float; its log does not
    assert Deterministic(500.0).log_mgf(8.0) == 4000.0
    assert Uniform(0.0, 500.0).log_mgf(8.0) == pytest.approx(4000.0 - math.log(4000.0))
    assert Uniform(0.0, 500.0).log_mgf(-8.0) == pytest.approx(-math.log(4000.0))
    assert LatticeDiscrete(1.0, (0, 1000), (0.5, 0.5)).log_mgf(8.0) == pytest.approx(8000.0 + math.log(0.5))
