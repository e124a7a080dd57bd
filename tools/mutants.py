"""Mutants of the certificate code that the tests must kill.

Each entry names a file under ``src/impatientq``, an exact text that occurs
once in it, the text that replaces it, and the tests that must then fail,
each one of them. For every mutant the script copies ``src``, ``tests``
and ``pyproject.toml`` to a temporary directory, applies the mutant there
and runs each of its tests in its own pytest process; the working tree is
never edited. A mutant with a ``timeout`` may also be killed by a test that
does not end within it (a chain whose ladder never reaches its start).
First, every named test is run once on an unmutated copy and must pass, so
a kill means the mutant, not a broken test.

    python tools/mutants.py            # every mutant
    python tools/mutants.py NAME ...   # only these

Exit status 0 when every named test kills its mutant, 1 when one does not
or a named test fails on the unmutated copy, 2 when an entry does not
apply or a named test does not run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
COUPLING = "coupling.py"
LOYNES = "loynes.py"
METRICS = "metrics.py"
DES = "des.py"
SEQUENCES = "sequences.py"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    timeout: Optional[float] = None   # seconds; a run still going then counts as killed


MUTANTS = (
    # Reachable sets: every image must lie in the box one index later.
    Mutant("reachable-refusal-dropped", COUPLING,
           "        if above.any():\n",
           "        if False:\n",
           ("tests/test_cli.py::test_cli_hset_nesting_failure_exit_1",)),
    Mutant("reachable-rank-in-own-box", COUPLING,
           "_rank(table, np.repeat(entry[nxt], reps), images.T)\n"
           "                                       + np.repeat(starts[nxt], reps))",
           "_rank(table, np.repeat(entry[lo:hi], reps), images.T)\n"
           "                                       + np.repeat(starts[lo:hi], reps))",
           ("tests/test_coupling.py::test_reachable_profile_against_per_depth_reference",
            "tests/test_acceptance.py::test_criterion_9_lattice_reachable_sets")),
    Mutant("reachable-groups-deepest-first", COUPLING,
           "for lo, hi in reversed(_groups(sizes[:-1], cap)):",
           "for lo, hi in _groups(sizes[:-1], cap):",
           ("tests/test_coupling.py::test_reachable_profile_in_groups_of_boxes",)),
    # Ranks and the risk and box of a certified read.
    Mutant("rank-without-first-term", COUPLING,
           "    rank = table[0].take(first)   # T[0, v_{-1}]: the box size\n",
           "    rank = table[0].take(first) * 0\n",
           ("tests/test_coupling.py::test_rank_tables_rank_every_box_row",
            "tests/test_coupling.py::test_reachable_profile_against_per_depth_reference")),
    Mutant("chernoff-best-gap-state", LOYNES,
           "log_phi = max(tau.log_mgf(-theta) for tau, _, _ in laws)",
           "log_phi = min(tau.log_mgf(-theta) for tau, _, _ in laws)",
           ("tests/test_loynes.py::test_supremum_risk_closed_form",)),
    Mutant("cftp-lattice-box-one-multiple-low", COUPLING,
           "tuple(_multiples(hi, path.spec.alpha).tolist())",
           "tuple((_multiples(hi, path.spec.alpha) - 1).tolist())",
           ("tests/test_coupling.py::test_cftp_lattice_box_holds_the_stationary_state",)),
    # The grid of cftp starts.
    Mutant("cftp-grid-one-early", COUPLING,
           "start = max((at - rung) // rung * rung, at - max_horizon)",
           "start = max((at - rung) // rung * rung - 1, at - max_horizon)",
           ("tests/test_coupling.py::test_cftp_drain_coalesces_immediately",
            "tests/test_coupling.py::test_cftp_ladder_at_zero_is_unchanged")),
    Mutant("cftp-grid-one-late", COUPLING,
           "start = max((at - rung) // rung * rung, at - max_horizon)",
           "start = max((at - rung) // rung * rung + 1, at - max_horizon)",
           ("tests/test_coupling.py::test_cftp_drain_coalesces_immediately",), timeout=60.0),
    # Changes no value, only the driver pages generated; the test counts them.
    Mutant("cftp-box-read-ahead-at-rung", COUPLING,
           "zb = certified_supremum(path, start, servers, horizon)",
           "zb = certified_supremum(path, start, servers, rung)",
           ("tests/test_coupling.py::test_consecutive_cftp_targets_share_driver_generations",)),
    # The memo of cftp boxes and chains: one box per start and server count,
    # one chain per kind from it. A kind must resume its own chain.
    Mutant("cftp-memo-key-without-kind", COUPLING,
           "kept = chains.get(kind)",
           "kept = next(iter(chains.values()), None)",
           ("tests/test_coupling.py::test_cftp_memo_changes_no_result[lattice]",
            "tests/test_coupling.py::test_every_kind_starts_from_one_box_read")),
    # Changes no value, only the box reads: each kind reads its own box.
    Mutant("cftp-box-per-kind", COUPLING,
           "key = (start, servers)",
           "key = (start, servers, kind)",
           ("tests/test_coupling.py::test_every_kind_starts_from_one_box_read",)),
    # The box is [0, Z]: a lower end raised to Z's least coordinate closes
    # chains, the lower envelope's too, above the stationary state.
    Mutant("cftp-box-low-end-raised", COUPLING,
           "reached, lo, hi = start, (0.0,) * servers, zb.values",
           "reached, lo, hi = start, (zb.values[0],) * servers, zb.values",
           ("tests/test_coupling.py::test_lower_envelope_starts_from_the_upper_box[certify]",
            "tests/test_coupling.py::test_cftp_equals_deep_forward_roll[1]")),
    # The stacked sandwich lanes: each recursion forms its own work.
    Mutant("sandwich-lower-lanes-take-the-larger-work", LOYNES,
           "np.minimum(sigma, patience, out=x[1])",
           "np.maximum(sigma, patience, out=x[1])",
           ("tests/test_rolls.py::test_stacked_roll_matches_three_scalar_rolls[2]",)),
    # A lattice path's exact rows: in multiples, not drifting in floats.
    Mutant("sandwich-exact-lane-in-floats-on-lattice", LOYNES,
           "    if path.spec.is_lattice:\n        states = np.empty(",
           "    if False:\n        states = np.empty(",
           ("tests/test_rolls.py::test_named_models_match_oracle[511]",
            "tests/test_rolls.py::test_stacked_roll_matches_three_scalar_rolls[1]",
            "tests/test_metrics.py::test_bound_report_on_a_non_dyadic_lattice[0.2]")),
    # On a lattice path the reported float envelopes are held on their sides
    # of the exact column, and z_top on its side of the upper one.
    Mutant("sandwich-lattice-envelopes-unclipped", METRICS,
           "lower1, upper1 = np.minimum(lower1, w1), np.maximum(upper1, w1)",
           "pass",
           ("tests/test_metrics.py::test_bound_report_on_a_non_dyadic_lattice[0.2]",)),
    Mutant("bound-report-lattice-z-unclipped", METRICS,
           "z_top = np.maximum(z_top, upper1)",
           "pass",
           ("tests/test_metrics.py::test_bound_report_on_a_non_dyadic_lattice[0.2]",)),
    # z_top's lag-1 value is the upper rows' top coordinate, as rolled: not
    # their least one, and not raised to the exact rows first, which moves it
    # at 79 rows of the non-dyadic lattice at S = 2.
    Mutant("z-lag1-from-least-coordinate", METRICS,
           "z_top = upper_states[:, -1]",
           "z_top = upper_states[:, 0]",
           ("tests/test_metrics.py::test_top_supremum_roll_matches_per_index_bound",)),
    Mutant("z-lag1-from-clipped-upper", LOYNES,
           "states[1] = envelope_states(path, at, steps, lower0, \"lower\")\n"
           "        states[2] = envelope_states(path, at, steps, upper0, \"upper\")",
           "np.minimum(envelope_states(path, at, steps, lower0, \"lower\"), states[0], out=states[1])\n"
           "        np.maximum(envelope_states(path, at, steps, upper0, \"upper\"), states[0], out=states[2])",
           ("tests/test_metrics.py::test_top_supremum_roll_matches_per_index_bound",)),
    # The delay line starts from the certified read's own values, not from a
    # clipped maximum of cumulative sums over its window, which rounds
    # differently and fell 4.4e-16 below upper1.
    Mutant("top-series-clipped-cumsum-start", METRICS,
           "    for lag, start in enumerate(zb.values[-2::-1]):\n",
           "    init = path.block(at - zb.horizon, zb.horizon)\n"
           "    terms = (init.sigma + init.patience)[::-1] - np.cumsum(init.tau[::-1])\n"
           "    m0 = [max(float(terms[lag - 1:].max()), 0.0) for lag in range(len(zb.values), 0, -1)]\n"
           "    for lag, start in enumerate(m0[-2::-1]):\n",
           ("tests/test_metrics.py::test_bound_report_samples",
            "tests/test_metrics.py::test_top_supremum_roll_matches_per_index_bound")),
    # Changes no value, only the lane layout the merge reads; the test spies on it.
    Mutant("lane-slots-strided", LOYNES,
           "batch = np.zeros((16, width, k, lanes), dtype=dtype)",
           "batch = np.zeros((16, k, lanes, width), dtype=dtype).transpose(0, 3, 1, 2)",
           ("tests/test_loynes.py::test_lane_rolls_hand_the_merge_contiguous_lanes",)),
    # Change no value, only the traced peaks the tests bound: the lane roll
    # reads its drivers 16 steps at a time, not from a transposed copy of
    # every column, and a cover builds its chain states before it draws any
    # stream (on the dense chain, drawing them first peaks at 2.3 times what
    # the cover keeps).
    Mutant("lane-drivers-copied-whole", LOYNES,
           "heads = [col[:full].reshape(lanes - 1, length).T for col in drivers]",
           "heads = [col[:full].reshape(lanes - 1, length).T.copy() for col in drivers]",
           ("tests/test_metrics.py::test_bound_report_peak_memory",)),
    Mutant("cover-streams-before-states", SEQUENCES,
           "        laws, at = self.spec.laws, None\n"
           "        if self.spec.model == \"markov_modulated\":\n"
           "            states = self._states(start, count)\n"
           "            at = [np.flatnonzero(states == s) for s in range(len(laws))]\n"
           "        cols = []\n"
           "        for c, stream in enumerate((STREAM_TAU, STREAM_SIGMA, STREAM_PATIENCE)):\n"
           "            u = stream_uniforms(self.spec.seed, stream, start, count)\n",
           "        laws, at = self.spec.laws, None\n"
           "        drawn = [stream_uniforms(self.spec.seed, stream, start, count)\n"
           "                 for stream in (STREAM_TAU, STREAM_SIGMA, STREAM_PATIENCE)]\n"
           "        if self.spec.model == \"markov_modulated\":\n"
           "            states = self._states(start, count)\n"
           "            at = [np.flatnonzero(states == s) for s in range(len(laws))]\n"
           "        cols = []\n"
           "        for c, u in enumerate(drawn):\n",
           ("tests/test_sequences.py::test_markov_cover_peak_memory[dense]",)),
    # The exact chain's driver pages: keyed and sliced by index.
    Mutant("page-key-relative-to-cover", LOYNES,
           "page, o = divmod(at, _CHAIN_BLOCK)",
           "page, o = divmod(at - (path._memo.cover or (0,))[0], _CHAIN_BLOCK)",
           ("tests/test_loynes.py::test_exact_lists_after_the_cover_moves[iid]",)),
    Mutant("page-slice-one-late", LOYNES,
           "    return lists, o\n",
           "    return lists, o + 1\n",
           ("tests/test_loynes.py::test_exact_lists_equal_exact_drivers[iid-0]",
            "tests/test_loynes.py::test_exact_lists_equal_exact_drivers[lattice-4097]")),
    # Change no value, only the pages generated and converted: a read of no
    # indices leaves the cover and its page lists as they were.
    Mutant("empty-read-replaces-cover", SEQUENCES,
           "        if count == 0:   # read-only empty arrays; the memo stays as it is\n",
           "        if False:\n",
           ("tests/test_loynes.py::test_a_read_of_no_indices_keeps_the_cover[iid]",)),
    Mutant("empty-window-converts-a-page", LOYNES,
           "if not 0 < steps <= _CHAIN_BLOCK - o:",
           "if not 0 <= steps <= _CHAIN_BLOCK - o:",
           ("tests/test_loynes.py::test_a_read_of_no_indices_keeps_the_cover[lattice]",)),
    # Changes no value, only the merges a closed chain takes; the test counts them.
    Mutant("closed-chain-steps-both-ends", COUPLING,
           "    drivers = iter(range(o, o + steps))\n    if lo != hi:\n",
           "    drivers = iter(range(o, o + steps))\n    if True:\n",
           ("tests/test_coupling.py::test_consecutive_cftp_targets_step_few_merges",)),
    # Change no value, only the bookkeeping of a cftp call; the tests count
    # it: the chain reads its page's lists unsliced, a start met again moves
    # to the end of the memo in place, the result stores its fields in one
    # statement, and a certified read reads its window and the laws'
    # constants once.
    Mutant("exact-lists-slice-the-window", LOYNES,
           "    return lists, o\n",
           "    return tuple(col[o:o + steps] for col in lists), 0\n",
           ("tests/test_loynes.py::test_exact_lists_hand_out_the_page_lists[iid]",)),
    Mutant("stored-chain-kept-again", COUPLING,
           "            path._memo.chains.move_to_end(key)\n",
           "            path._memo.keep_chain(key, entry)\n",
           ("tests/test_coupling.py::test_a_start_met_again_moves_to_the_end_in_place",)),
    Mutant("memo-keep-pops-and-reinserts", SEQUENCES,
           "    entries[key] = value   # a key stored before keeps its place, so it is moved\n"
           "    entries.move_to_end(key)\n",
           "    entries.pop(key, None)\n    entries[key] = value\n",
           ("tests/test_coupling.py::test_a_start_met_again_moves_to_the_end_in_place",)),
    Mutant("cftp-result-setattr-per-field", COUPLING,
           "        d[\"value\"], d[\"coalesced\"], d[\"horizon_used\"], d[\"z_depth\"], d[\"z_risk\"] = \\\n"
           "            value, coalesced, horizon_used, z_depth, z_risk\n",
           "        for name in (\"value\", \"coalesced\", \"horizon_used\", \"z_depth\", \"z_risk\"):\n"
           "            object.__setattr__(self, name, locals()[name])\n",
           ("tests/test_coupling.py::test_a_cftp_result_is_built_in_one_call",)),
    Mutant("box-read-through-supremum-bound", LOYNES,
           "        zb = _supremum_read(path, at, depth, servers, ahead, thetas, log_c)\n",
           "        path.block(at - depth, depth + ahead)\n        zb = supremum_bound(path, at, depth, servers)\n",
           ("tests/test_loynes.py::test_a_certified_read_reads_its_window_once",)),
    # Changes no value, only the driver covers a cross-validation generates.
    Mutant("cross-validate-covers-per-chunk", DES,
           "    path.block(0, max(n_arrivals, 0))   # one cover for the engine's chunks and the recursion; run refuses n < 1\n",
           "",
           ("tests/test_des.py::test_cross_validate_generates_its_drivers_once[lattice]",)),
    # The path's memo serves the spec the path was made with.
    Mutant("path-not-frozen", SEQUENCES,
           "@dataclass(frozen=True)\nclass StationaryPath:",
           "@dataclass\nclass StationaryPath:",
           ("tests/test_sequences.py::test_a_path_refuses_a_new_spec",)),
    # Change no value, only the chain blocks kept and built; the tests count them.
    Mutant("chain-blocks-unbounded", SEQUENCES,
           "        _keep(self.blocks, b, states, _BLOCK_MEMO)\n",
           "        self.blocks[b] = states\n",
           ("tests/test_sequences.py::test_spaced_reads_keep_a_bounded_chain_memo",
            "tests/test_coupling.py::test_eviction_changes_no_result[markov]")),
    Mutant("chain-blocks-below-a-report", SEQUENCES,
           "_BLOCK_MEMO = 256\n",
           "_BLOCK_MEMO = 128\n",
           ("tests/test_sequences.py::test_a_million_sample_report_builds_each_chain_block_once",)),
    # Markov-modulated chain states, one linear pass per run of blocks.
    Mutant("chain-state-not-carried", SEQUENCES,
           "            state = after[a + len(piece)]\n",
           "            pass\n",
           ("tests/test_sequences.py::test_chain_block_matches_sequential_chain[dense-4097]",
            "tests/test_sequences.py::test_states_over_covers_match_sequential_chain[dense-4097]")),
    Mutant("chain-move-held-one-late", SEQUENCES,
           "np.diff(moves, prepend=0, append=n)",
           "np.diff(moves + 1, prepend=0, append=n)",
           ("tests/test_sequences.py::test_markov_modulated_golden_states",
            "tests/test_sequences.py::test_chain_block_matches_sequential_chain[dense-1]")),
    # Only the uniforms outside the stay interval are mapped to cells: its
    # top is each state's own upper end, not the next state's.
    Mutant("stay-interval-top-one-state-late", SEQUENCES,
           "np.diagonal(cum)[:-1].min(initial=np.inf)",
           "np.diagonal(cum, 1).min(initial=np.inf)",
           ("tests/test_sequences.py::test_chain_run_equals_the_full_search_oracle[sticky--3..2]",
            "tests/test_sequences.py::test_stay_interval_holds_exactly_the_identity_cells[sandwich]")),
    # A column is sampled once over the stream only when its law is the same in every state.
    Mutant("shared-law-test-forced-true", SEQUENCES,
           "if at is None or all(law[c] == laws[0][c] for law in laws):",
           "if True:",
           ("tests/test_sequences.py::test_shared_laws_sample_as_per_state_laws[sigma]",
            "tests/test_sequences.py::test_markov_cover_matches_masked_reference[random3]")),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(where: Path, tests, timeout: Optional[float]) -> Optional[int]:
    """The exit status of pytest on ``tests`` in ``where``, or None when it
    did not end within ``timeout`` seconds."""
    # hypothesis' plugin imports hypothesis in every run, about 1.7 s of 2.5;
    # the one @given test still runs without it, and no mutant names it.
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "no:hypothesispytest", *tests]
    env = dict(os.environ, PYTHONPATH=str(where / "src"))   # the copy, not an installed package
    try:
        return subprocess.run(cmd, cwd=where, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return None


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if names and len(chosen) != len(set(names)):
        print(f"unknown mutants: {sorted(set(names) - {m.name for m in MUTANTS})}")
        return 2
    began_all = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        tests = sorted({t for m in chosen for t in m.tests})
        if _pytest(clean, tests, None) != 0:
            print("the named tests fail on the unmutated copy")
            return 1
        survived = 0
        for k, m in enumerate(chosen):
            where = Path(tmp) / f"m{k}"
            _copy(where)
            target = where / "src" / "impatientq" / m.file
            text = target.read_text()
            if text.count(m.old) != 1:
                print(f"{m.name}: the old text occurs {text.count(m.old)} times in {m.file}, not once")
                return 2
            target.write_text(text.replace(m.old, m.new))
            for test in m.tests:
                began = time.perf_counter()
                code = _pytest(where, [test], m.timeout)
                took = time.perf_counter() - began
                if code == 1 or (code is None and m.timeout is not None):
                    verdict = "killed" if code == 1 else "killed (timeout)"
                elif code == 0:
                    verdict, survived = "SURVIVED", survived + 1
                else:
                    print(f"{m.name}: pytest exit {code}; {test} did not run")
                    return 2
                print(f"{m.name}: {verdict} by {test} in {took:.1f} s")
            shutil.rmtree(where)
    print(f"{len(chosen)} mutants, {survived} survived, in {time.perf_counter() - began_all:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
