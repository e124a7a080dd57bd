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
CONFIG = "config.py"
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
           "_rank(table, entry.take(nxt), images.T, out=place)\n"
           "        place += starts.take(nxt)\n",
           "_rank(table, entry.take(nxt - 1), images.T, out=place)\n"
           "        place += starts.take(nxt - 1)\n",
           ("tests/test_coupling.py::test_reachable_profile_against_per_depth_reference",
            "tests/test_acceptance.py::test_criterion_9_lattice_reachable_sets")),
    # The roots are composed after every group, so the group order changes
    # no set; it decides only which of several refusals is named.
    Mutant("reachable-groups-shallowest-first", COUPLING,
           "for lo, hi in _groups(sizes[:-1], cap):",
           "for lo, hi in reversed(_groups(sizes[:-1], cap)):",
           ("tests/test_coupling.py::test_reachable_refusal_names_the_deepest_box_whatever_the_groups",)),
    # Each row's root is ceil(log2(deepest)) pointer-jumping passes away, and
    # depth d's set is the rows whose reach is at least d.
    Mutant("reachable-roots-one-pass-short", COUPLING,
           "spare, span = np.empty_like(root), 1",
           "spare, span = np.empty_like(root), 2",
           ("tests/test_coupling.py::test_reachable_profile_against_per_depth_reference",
            "tests/test_acceptance.py::test_criterion_9_lattice_reachable_sets")),
    Mutant("reachable-reach-strict", COUPLING,
           "np.searchsorted(reach[order], depths)",
           "np.searchsorted(reach[order], depths, side=\"right\")",
           ("tests/test_coupling.py::test_reachable_profile_against_per_depth_reference",
            "tests/test_acceptance.py::test_criterion_9_lattice_reachable_sets")),
    # Ranks and the risk and box of a certified read.
    Mutant("rank-without-first-term", COUPLING,
           "    rank = table[0].take(first, out=out, mode=\"clip\")   # T[0, v_{-1}]: the box size\n",
           "    rank = table[0].take(first, out=out, mode=\"clip\")\n    rank *= 0\n",
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
    # A lattice start is read by rint, not by the floor with a fixed slack,
    # which reads fl(k * alpha) as k - 1 for large k.
    Mutant("exact-start-read-by-floor", LOYNES,
           "k = np.rint(np.nan_to_num(start, nan=0.0, posinf=0.0, neginf=0.0) / alpha).astype(np.int64)",
           "k = np.floor(np.nan_to_num(start, nan=0.0, posinf=0.0, neginf=0.0) / alpha + 1e-9).astype(np.int64)",
           ("tests/test_rolls.py::test_lattice_roll_from_a_large_start_matches_loop",)),
    # The box top and the caps: that floor, corrected upward to the largest
    # k with fl(k * alpha) <= v.
    Mutant("multiples-without-upward-correction", LOYNES,
           "if v.max(initial=0.0) >= 2**22 * alpha:",
           "if False:",
           ("tests/test_rolls.py::test_multiples_of_large_values_are_the_largest_below[0.1]",
            "tests/test_rolls.py::test_lattice_roll_from_a_large_start_matches_loop")),
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
           "z_top = states[2, :, -1]",
           "z_top = states[2, :, 0]",
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
           "        self.lags = list(zb.values[-2::-1])\n",
           "        init = path.block(at - zb.horizon, zb.horizon)\n"
           "        terms = (init.sigma + init.patience)[::-1] - np.cumsum(init.tau[::-1])\n"
           "        m0 = [max(float(terms[lag - 1:].max()), 0.0) for lag in range(len(zb.values), 0, -1)]\n"
           "        self.lags = m0[-2::-1]\n",
           ("tests/test_metrics.py::test_bound_report_samples",
            "tests/test_metrics.py::test_top_supremum_roll_matches_per_index_bound")),
    # A long window rolls in chunks, each from the rows its predecessor
    # rolled at the seam, and the report's statistics take page groups that
    # carry the delay line's lags; the batch counts match batch_means'.
    Mutant("chunk-carry-one-row-late", METRICS,
           "states = sandwich_states(path, lo, hi - lo - (hi == end), *rows)",
           "states = sandwich_states(path, lo, hi - lo + (hi != end), *rows)",
           ("tests/test_metrics.py::test_chunked_and_grouped_reports_equal_one_pass[markov-1]",)),
    Mutant("delay-line-lags-reset-at-chunk-seam", METRICS,
           "        blk = path.block(lo, hi - lo)   # the chunk's drivers, and the roll's inside them\n",
           "        if tally:\n"
           "            tally.lags = list(zb.values[-2::-1])\n"
           "        blk = path.block(lo, hi - lo)   # the chunk's drivers, and the roll's inside them\n",
           ("tests/test_metrics.py::test_chunked_and_grouped_reports_equal_one_pass[float-2]",)),
    Mutant("batch-boundary-one-late", METRICS,
           "ends = [*range(i - i % self.per + self.per, i + m, self.per), i + m]",
           "ends = [*range(i - i % self.per + self.per + 1, i + m, self.per), i + m]",
           ("tests/test_metrics.py::test_chunked_and_grouped_reports_equal_one_pass[float-1]",)),
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
    Mutant("cover-columns-before-states", SEQUENCES,
           "        states = None if all(shared) else self._states(start, count)\n"
           "        cols, size = [np.empty(count) for _ in range(3)], _COVER_GROUP * _CHAIN_BLOCK\n",
           "        cols, size = [np.empty(count) for _ in range(3)], _COVER_GROUP * _CHAIN_BLOCK\n"
           "        states = None if all(shared) else self._states(start, count)\n",
           ("tests/test_sequences.py::test_markov_cover_peak_memory[dense]",)),
    Mutant("cover-drawn-in-one-group", SEQUENCES,
           "_COVER_GROUP * _CHAIN_BLOCK\n",
           "max(count, 1)\n",
           ("tests/test_sequences.py::test_markov_cover_peak_memory[sandwich]",)),
    # Each page group draws its own indices' uniforms.
    Mutant("cover-group-drawn-at-cover-start", SEQUENCES,
           "u = stream_uniforms(self.spec.seed, stream, start + g, m)",
           "u = stream_uniforms(self.spec.seed, stream, start, m)",
           ("tests/test_sequences.py::test_a_cover_is_the_same_across_its_group_seams[iid-1]",)),
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
           "        self.chains[key] = entry   # a key stored before keeps its place, so it is moved\n"
           "        self.chains.move_to_end(key)\n",
           "        self.chains.pop(key, None)\n        self.chains[key] = entry\n",
           ("tests/test_coupling.py::test_a_start_met_again_moves_to_the_end_in_place",)),
    Mutant("cftp-result-setattr-per-field", COUPLING,
           "        d[\"value\"], d[\"coalesced\"], d[\"horizon_used\"], d[\"z_depth\"], d[\"z_risk\"] = \\\n"
           "            value, coalesced, horizon_used, z_depth, z_risk\n",
           "        for name in (\"value\", \"coalesced\", \"horizon_used\", \"z_depth\", \"z_risk\"):\n"
           "            object.__setattr__(self, name, locals()[name])\n",
           ("tests/test_coupling.py::test_a_cftp_result_is_built_in_one_call",)),
    Mutant("box-read-reads-its-window-twice", LOYNES,
           "        zb = _supremum_read(path, at, depth, servers, ahead, thetas, log_c)\n",
           "        path.block(at - depth, depth + ahead)\n"
           "        zb = _supremum_read(path, at, depth, servers, 0, thetas, log_c)\n",
           ("tests/test_loynes.py::test_a_certified_read_reads_its_window_once",)),
    # A certified read is accepted only at risk Z_RISK or below.
    Mutant("certified-read-accepts-a-looser-risk", LOYNES,
           "        if zb.risk <= Z_RISK:\n",
           "        if zb.risk <= 1e6 * Z_RISK:\n",
           ("tests/test_loynes.py::test_a_certified_read_stops_at_the_first_depth_within_z_risk[iid]",
            "tests/test_loynes.py::test_a_certified_read_stops_at_the_first_depth_within_z_risk[markov]",
            "tests/test_loynes.py::test_a_certified_read_stops_at_the_first_depth_within_z_risk[lattice]")),
    # Changes no value, only the driver covers a cross-validation generates:
    # the engine's pages then each generate their own before the recursion's.
    Mutant("cross-validate-covers-per-chunk", DES,
           "    states, accepted = exact_states(path, 0, n_arrivals, (0.0,) * servers)\n"
           "    trace = run(path, servers, n_arrivals)\n",
           "    trace = run(path, servers, n_arrivals)\n"
           "    states, accepted = exact_states(path, 0, n_arrivals, (0.0,) * servers)\n",
           ("tests/test_des.py::test_cross_validate_generates_its_drivers_once[iid]",
            "tests/test_des.py::test_cross_validate_generates_its_drivers_once[lattice]",
            "tests/test_des.py::test_cross_validate_memory_grows_by_cover_states_and_trace_alone[oracle_lattice]",
            "tests/test_des.py::test_cross_validate_memory_grows_by_cover_states_and_trace_alone[oracle_float]")),
    # A lattice run keeps one running clock: its free times and deadlines
    # are not re-expressed at each arrival, and a chunk continues the clock.
    Mutant("des-integer-path-restarts-its-clock", DES,
           "            if running:\n                now = nxt\n",
           "            if False:\n                now = nxt\n",
           ("tests/test_des.py::test_golden_traces[oracle_lattice]",
            "tests/test_des.py::test_golden_traces[zero_mass_services]",
            "tests/test_des.py::test_run_equals_the_recursion_across_engine_chunks[lattice-75]",
            "tests/test_des.py::test_lattice_clock_runs_across_engine_chunk_seams[3]")),
    Mutant("des-integer-clock-reset-at-chunk", DES,
           "            ends = np.cumsum(taus) + now\n",
           "            now = 0\n            ends = np.cumsum(taus) + now\n",
           ("tests/test_des.py::test_golden_traces[oracle_lattice]",
            "tests/test_des.py::test_run_equals_the_recursion_across_engine_chunks[lattice-75]",
            "tests/test_des.py::test_lattice_clock_runs_across_engine_chunk_seams[3]")),
    # A clock that wraps in int64 can end a chunk below the cap.
    Mutant("des-clock-wrap-unchecked", DES,
           "if ends[-1] >= NEVER or ends.min() < now:",
           "if ends[-1] >= NEVER:",
           ("tests/test_des.py::test_lattice_clock_refuses_to_pass_never",)),
    # Changes no value, only the memory a run holds: every page's list of
    # workloads seen stays alive past the run instead of being cleared.
    Mutant("des-pages-kept-alive", DES,
           "        seen.clear()\n",
           "        globals().setdefault(\"kept_pages\", []).append(seen)\n        seen = []\n",
           ("tests/test_des.py::test_run_memory_grows_by_its_output_arrays_alone[oracle_lattice]",
            "tests/test_des.py::test_run_memory_grows_by_its_output_arrays_alone[oracle_float]")),
    # Importing the package maps no OpenSSL; only a parse loads hashlib.
    Mutant("config-hashlib-at-import", CONFIG,
           "import configparser\nimport math\n",
           "import configparser\nimport hashlib\nimport math\n",
           ("tests/test_metrics.py::test_package_import_loads_only_stdlib_and_numpy",)),
    # Nor does a parse: the stamp comes from the built-in SHA-256 module.
    Mutant("config-stamp-through-hashlib", CONFIG,
           "    try:\n        from _sha2 import sha256\n",
           "    try:\n        from hashlib import sha256\n",
           ("tests/test_metrics.py::test_package_import_loads_only_stdlib_and_numpy",)),
    # hashlib stamps the config when no built-in module imports.
    Mutant("config-stamp-without-fallback", CONFIG,
           "            from hashlib import sha256\n",
           "            raise\n",
           ("tests/test_cli.py::test_config_stamp_is_the_sha256_of_its_text[iid-fallback]",)),
    # The path's memo serves the spec the path was made with.
    Mutant("path-not-frozen", SEQUENCES,
           "@dataclass(frozen=True)\nclass StationaryPath:",
           "@dataclass\nclass StationaryPath:",
           ("tests/test_sequences.py::test_a_path_refuses_a_new_spec",)),
    # Markov-modulated chain states: one pass over the pages a read touches,
    # sliced to the read.
    Mutant("chain-states-one-index-late", SEQUENCES,
           "[lo : lo + count]\n",
           "[lo + 1 : lo + 1 + count]\n",
           ("tests/test_sequences.py::test_markov_modulated_golden_states",
            "tests/test_sequences.py::test_states_over_covers_match_sequential_chain[sandwich-256]")),
    # Changes no value, only the pages a pass builds; the test counts them.
    Mutant("chain-pass-one-page-long", SEQUENCES,
           "(start + count - 1) // _CHAIN_BLOCK + 1)",
           "(start + count) // _CHAIN_BLOCK + 1)",
           ("tests/test_sequences.py::test_a_cover_miss_runs_one_chain_pass_over_its_pages",
            "tests/test_sequences.py::test_a_million_sample_report_builds_each_chain_block_once")),
    # The linear pass itself.
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
    # Only the uniforms outside the stay interval (``_chain_tables``' third
    # table) are mapped to cells: its top is each state's own upper end, not
    # the next state's.
    Mutant("stay-interval-top-one-state-late", SEQUENCES,
           "np.diagonal(cum)[:-1].min(initial=np.inf)",
           "np.diagonal(cum, 1).min(initial=np.inf)",
           ("tests/test_sequences.py::test_chain_run_equals_the_full_search_oracle[sticky--3..2]",
            "tests/test_sequences.py::test_stay_interval_holds_exactly_the_identity_cells[sandwich]")),
    # A modulating chain is irreducible when bit_length(m) squarings of its
    # links and stays join every pair; a 6-cycle needs all three.
    Mutant("irreducibility-closure-one-product-short", SEQUENCES,
           "    for _ in range(m.bit_length()):\n",
           "    for _ in range(m.bit_length() - 1):\n",
           ("tests/test_sequences.py::test_modulation_irreducibility_of_named_chains[cycle-6]",)),
    # The loss estimate's interval covers the exact Erlang-A loss at about its
    # nominal rate; an estimate one half-width off covers it about half as often.
    Mutant("loss-estimate-one-half-width-high", METRICS,
           "return ProbabilityEstimate(float(total / n), T_975 * spread / math.sqrt(BATCHES), n)",
           "return ProbabilityEstimate(float(total / n) + T_975 * spread / math.sqrt(BATCHES), "
           "T_975 * spread / math.sqrt(BATCHES), n)",
           ("tests/test_metrics.py::test_bound_report_p_loss_covers_erlang_a",)),
    # A column is sampled once over each page group only when its law is the same in every state.
    Mutant("shared-law-test-forced-true", SEQUENCES,
           "shared = [all(law[c] == laws[0][c] for law in laws) for c in range(3)]",
           "shared = [True] * 3",
           ("tests/test_sequences.py::test_shared_laws_sample_as_per_state_laws[sigma]",
            "tests/test_sequences.py::test_markov_cover_matches_masked_reference[random3]")),
    # Z1 is the rolled upper estimate's top coordinate; at S = 1 it is also
    # the least, so only the configs with S >= 2 can kill this.
    Mutant("renovate-z1-least-coordinate", COUPLING,
           "states[:, -1] == 0.0",
           "states[:, 0] == 0.0",
           tuple(f"tests/test_coupling.py::test_renovation_scan_condition_frequencies[{name}]"
                 for name in ("mm2-d1", "bursty", "lattice", "certify", "iid-1", "iid-2",
                              "mm-0", "mm-1", "lattice-0", "lattice-1"))),
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
