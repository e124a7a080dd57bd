"""The four benchmark workloads, each a closed loop of checked jobs.

One caller in one process runs a fixed list of jobs back to back; the seed
picks their inputs and the run's length their number. A job is one call into
the public API; ``check`` compares its output with an independent reference
after the job's timer has stopped. Every knob the roadmap plans to delete
(``burn_in``, ``warmup``, ``interior_points``, ``initial_horizon``, ``tol``,
``--threads``) is left at its default, so those deletions need no edit here.

The library is always reached through module attributes (``coupling.cftp``,
never a name imported into this module), so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
from pathlib import Path
from typing import NamedTuple

from impatientq import cli, config, coupling, kernel, loynes, metrics, sequences

CONFIGS = Path(__file__).resolve().parent / "configs"


class Checked(NamedTuple):
    items: int        # items the job completed correctly
    ok: bool          # the independent check passed
    detail: str       # what failed: index and both values


class Workload:
    """What the four workloads share: the size of a run's job list."""

    cycle = 1           # job kinds a run cycles through; a run holds whole cycles
    jobs_per_s: float   # jobs per second of job time on a 2-vCPU Xeon at 2.1 GHz

    @classmethod
    def job_count(cls, seconds: float) -> int:
        """Jobs in a run: about ``seconds`` of job time at ``jobs_per_s``, in whole cycles."""
        return max(1, round(seconds * cls.jobs_per_s / cls.cycle)) * cls.cycle


class Sandwich(Workload):
    """``bound_report`` replications on a bursty Markov-modulated queue."""

    name = "sandwich"
    item = "stationary sample index"
    why = ("The main user job, and the only one dominated by long scalar forward rolls "
           "(loynes.envelope_states/exact_states) and large Markov-chain driver blocks.")
    servers = 2
    n_samples = 100_000
    jobs_per_s = 1.4

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.modulation = sequences.ModulationSpec(
            transition=((0.995, 0.005), (0.02, 0.98)),
            states=(
                (sequences.Exponential(1.0), sequences.Exponential(0.6), sequences.Deterministic(1.0)),
                (sequences.Exponential(1.8), sequences.Exponential(0.6), sequences.Uniform(0.0, 2.0)),
            ),
        )

    def spec(self, r: int) -> sequences.SequenceSpec:
        return sequences.SequenceSpec(model="markov_modulated", seed=cli.replication_seed(self.seed, r),
                                      modulation=self.modulation)

    def job(self, k: int):
        return metrics.bound_report(sequences.StationaryPath(self.spec(k)), self.servers, self.n_samples)

    def check(self, k: int, rep) -> Checked:
        flags = {"ordering_ok": rep.ordering_ok, "lower": rep.lower_stabilized,
                 "upper": rep.upper_stabilized, "z": rep.z_stabilized}
        bad = [name for name, value in flags.items() if not value]
        detail = f"replication {k}: false flags {bad}" if bad else ""
        return Checked(self.n_samples if not bad else 0, not bad, detail)

    @staticmethod
    def fingerprint(rep):
        return (rep.p_lower.probability, rep.p_loss.probability, rep.p_upper.probability,
                rep.p_z.probability)


class Oracle(Workload):
    """In-process ``validate`` and ``simulate`` CLI runs on two fixed configs."""

    name = "oracle"
    item = "arrival"
    why = ("Exercises des (both engines), trace CSV writing, config and cli with next to no "
           "loynes or coupling work: the workload for one DES engine without the O(queue) scan.")
    runs = (("validate", "oracle_float.ini"), ("simulate", "oracle_float.ini"),
            ("validate", "oracle_lattice.ini"), ("simulate", "oracle_lattice.ini"))
    cycle = len(runs)
    jobs_per_s = 2.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out = workdir / "oracle"
        self.out.mkdir(parents=True, exist_ok=True)
        self.configs = {name: config.load_config(CONFIGS / name) for _, name in self.runs}

    def _run(self, k: int):
        command, ini = self.runs[k % self.cycle]
        return command, ini, self.seed * 1_000_003 + k // self.cycle

    def job(self, k: int):
        command, ini, seed = self._run(k)
        argv = [command, "--config", str(CONFIGS / ini), "--seed", str(seed), "--out", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, k: int, code: int) -> Checked:
        command, ini, seed = self._run(k)
        n = self.configs[ini].run.n_arrivals
        if code != 0:
            return Checked(0, False, f"job {k}: {command} {ini} seed {seed} exited {code}")
        report = json.loads((self.out / f"{command}.json").read_text())
        if command == "validate":
            ok = report["passed"] and report["n_arrivals"] == n
            detail = f"validate {ini} seed {seed}: {report}"
        else:
            expected = self._recursion_losses(ini, seed)
            with open(self.out / "trace.csv") as fh:
                rows = sum(1 for _ in fh) - 2   # stamp and header lines
            ok = report["losses"] == expected and rows == n
            detail = (f"simulate {ini} seed {seed}: losses {report['losses']} vs recursion "
                      f"{expected}, trace rows {rows} vs {n}")
        return Checked(n if ok else 0, ok, "" if ok else detail)

    def _recursion_losses(self, ini: str, seed: int) -> int:
        """Rejections of the one-step recursion run from empty on the same path."""
        cfg = self.configs[ini]
        spec = dataclasses.replace(cfg.spec, seed=seed)
        path = sequences.StationaryPath(spec)
        n, servers = cfg.run.n_arrivals, cfg.servers
        if spec.is_lattice:
            blk = path.lattice_block(0, n)
            u, lost = (0,) * servers, 0
            for tau, sigma, patience in zip(blk.tau.tolist(), blk.sigma.tolist(), blk.patience.tolist()):
                u, accepted = kernel.advance_lattice(u, tau, sigma, patience, spec.alpha)
                lost += not accepted
            return lost
        _, accepted = loynes.exact_states(path, 0, n, (0.0,) * servers)
        return int((~accepted).sum())

    @staticmethod
    def fingerprint(code):
        return code


class Certify(Workload):
    """``cftp`` at consecutive targets, checked by the stationary identity.

    A job certifies a window of ten consecutive targets. Single-call latency
    is three separate clusters (CFTP horizon 16, 32 or 64), and its median
    sits near the gap between the first two, so it jumped between them from
    one seed to the next; the latency of a window of calls does not.
    """

    name = "certify"
    item = "certified target"
    why = ("Thousands of short backward estimates, tiny driver blocks and 10-row advance_batch "
           "steps: sequences and kernel used the opposite way to sandwich, so per-call overhead shows.")
    servers = 3
    window = 10
    jobs_per_s = 55.0

    def __init__(self, seed: int, workdir: Path):
        self.path = sequences.StationaryPath(sequences.SequenceSpec(
            model="iid", seed=seed, tau=sequences.Exponential(1.0),
            sigma=sequences.Exponential(0.4), patience=sequences.Exponential(0.2)))
        self.reference = None   # (index, W(index))

    def targets(self, k: int) -> range:
        return range(k * self.window + 1, (k + 1) * self.window + 1)

    def job(self, k: int):
        return [coupling.cftp(self.path, self.servers, at=t) for t in self.targets(k)]

    def check(self, k: int, results) -> Checked:
        """``cftp(t)`` must equal ``advance(W(t-1), sample_at(t-1)).next`` bit for bit.

        ``W`` is the exact recursion rolled forward from ``cftp(0)``, so one
        wrong sample fails one target and does not also fail its neighbour.
        """
        if self.reference is None:
            self.reference = (0, coupling.cftp(self.path, self.servers, at=0).value)
        n, w = self.reference
        wrong = []
        for t, res in zip(self.targets(k), results):
            while n < t:
                w = kernel.advance(w, self.path.sample_at(n)).next
                n += 1
            if not (res.coalesced and res.value == w):
                wrong.append(f"target {t}: cftp {res.value} (horizon {res.horizon_used}), identity {w}")
        self.reference = (n, w)
        return Checked(len(results) - len(wrong), not wrong, "; ".join(wrong))

    @staticmethod
    def fingerprint(results):
        return [res.value for res in results]


class Lattice(Workload):
    """Reachable-set profiles plus ``cftp`` on a lattice queue."""

    name = "lattice"
    item = "target"
    why = ("The only workload where coupling set propagation (np.unique, _ordered_box) and int64 "
           "advance_lattice_batch dominate; without it those paths go unmeasured.")
    servers = 3
    spacing = 257
    jobs_per_s = 20.0
    depths = range(0, 31)

    def __init__(self, seed: int, workdir: Path):
        alpha = 0.5
        self.path = sequences.StationaryPath(sequences.SequenceSpec(
            model="lattice", seed=seed, alpha=alpha,
            tau=sequences.LatticeDiscrete(alpha, (1, 2, 3), (0.3, 0.4, 0.3)),
            sigma=sequences.LatticeDiscrete(alpha, (0, 2, 4, 6, 8), (0.2,) * 5),
            patience=sequences.Uniform(0.0, 6.0)))

    def job(self, k: int):
        at = self.spacing * k
        sets = coupling.reachable_profile(self.path, self.servers, self.depths, at=at)
        return sets, coupling.cftp(self.path, self.servers, at=at)

    def check(self, k: int, out) -> Checked:
        sets, res = out
        at = self.spacing * k
        alpha = self.path.spec.alpha
        nested = all(b.points <= a.points for a, b in zip(sets, sets[1:]))
        stabilized = all(s.estimate_stabilized for s in sets)
        final = sets[-1].points
        value = None if res.value is None else tuple(round(v / alpha) for v in res.value)
        inside = res.coalesced and value in final
        ok = nested and stabilized and inside
        shown = sorted(final) if len(final) <= 4 else f"{len(final)} points"
        detail = "" if ok else (f"target {at}: nested={nested} stabilized={stabilized}, cftp multiples "
                                f"{value} (horizon {res.horizon_used}), reachable set {shown}")
        return Checked(int(ok), ok, detail)

    @staticmethod
    def fingerprint(out):
        sets, res = out
        return [len(s) for s in sets], res.value


WORKLOADS = {w.name: w for w in (Sandwich, Oracle, Certify, Lattice)}
