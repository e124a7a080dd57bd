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
           "tuple(int(math.floor(v / path.spec.alpha + 1e-9)) for v in hi)",
           "tuple(int(math.floor(v / path.spec.alpha + 1e-9)) - 1 for v in hi)",
           ("tests/test_coupling.py::test_cftp_lattice_box_holds_the_stationary_state",)),
    # The grid of cftp starts, on absolute indices.
    Mutant("cftp-grid-relative-index", COUPLING,
           "start = max((at + path.offset - rung) // rung * rung - path.offset, at - max_horizon)",
           "start = max((at - rung) // rung * rung, at - max_horizon)",
           ("tests/test_coupling.py::test_cftp_on_a_shifted_path",)),
    Mutant("cftp-grid-one-early", COUPLING,
           "start = max((at + path.offset - rung) // rung * rung - path.offset, at - max_horizon)",
           "start = max((at + path.offset - rung) // rung * rung - path.offset - 1, at - max_horizon)",
           ("tests/test_coupling.py::test_cftp_drain_coalesces_immediately",
            "tests/test_coupling.py::test_cftp_ladder_at_zero_is_unchanged")),
    Mutant("cftp-grid-one-late", COUPLING,
           "start = max((at + path.offset - rung) // rung * rung - path.offset, at - max_horizon)",
           "start = max((at + path.offset - rung) // rung * rung - path.offset + 1, at - max_horizon)",
           ("tests/test_coupling.py::test_cftp_drain_coalesces_immediately",), timeout=60.0),
    # Changes no value, only the driver pages generated; the test counts them.
    Mutant("cftp-box-read-ahead-at-rung", COUPLING,
           'zb = certified_supremum(path, start, "upper" if kind == "exact" else kind, servers, horizon)',
           'zb = certified_supremum(path, start, "upper" if kind == "exact" else kind, servers, rung)',
           ("tests/test_coupling.py::test_consecutive_cftp_targets_share_driver_generations",)),
    # The memo of cftp boxes and chains.
    Mutant("cftp-memo-key-without-kind", COUPLING,
           "key = (start + path.offset, servers, kind)",
           "key = (start + path.offset, servers)",
           ("tests/test_coupling.py::test_cftp_memo_changes_no_result[lattice]",
            "tests/test_coupling.py::test_exact_and_upper_chains_share_one_box_read")),
    Mutant("cftp-lower-shares-upper-box", COUPLING,
           'twin = {"exact": "upper", "upper": "exact"}.get(kind)',
           'twin = {"exact": "upper", "upper": "exact", "lower": "upper"}.get(kind)',
           ("tests/test_coupling.py::test_cftp_memo_changes_no_result[iid]",
            "tests/test_coupling.py::test_exact_and_upper_chains_share_one_box_read")),
    # The stacked sandwich lanes: each recursion forms its own work.
    Mutant("sandwich-lower-lanes-take-the-larger-work", LOYNES,
           "np.minimum(sigma, patience, out=x[1])",
           "np.maximum(sigma, patience, out=x[1])",
           ("tests/test_rolls.py::test_stacked_roll_matches_three_scalar_rolls[2]",)),
    # Changes no value, only the lane layout the merge reads; the test spies on it.
    Mutant("lane-slots-strided", LOYNES,
           "batch = np.zeros((16, width, k, lanes), dtype=dtype)",
           "batch = np.zeros((16, k, lanes, width), dtype=dtype).transpose(0, 3, 1, 2)",
           ("tests/test_loynes.py::test_lane_rolls_hand_the_merge_contiguous_lanes",)),
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
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(where: Path, tests, timeout: Optional[float]) -> Optional[int]:
    """The exit status of pytest on ``tests`` in ``where``, or None when it
    did not end within ``timeout`` seconds."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests]
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
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
