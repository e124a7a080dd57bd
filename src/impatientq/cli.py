"""Batch front-end: config-driven experiments with machine-readable output.

Commands::

    impatientq validate --config cfg.ini [--seed N] [--out DIR]
    impatientq bounds   ...
    impatientq cftp     ...
    impatientq renovate ...
    impatientq hset     ...
    impatientq simulate ...

Every run writes JSON (and CSV where applicable) into the output directory;
each file embeds the sha256 of the config text and the effective seed, and
identical config + seed reproduce byte-identical outputs. Exit codes:
0 pass, 1 check failed, 2 bad config, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from . import coupling, des, metrics
from .config import ExperimentConfig, load_config
from .errors import ConfigurationError, ContractError, ResourceCapError
from .sequences import StationaryPath, _mix64_int


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        handler = _COMMANDS[args.command]
        return handler(cfg, out_dir)
    except ConfigurationError as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"error: resource cap: {exc}", file=sys.stderr)
        return 3
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impatientq",
        description="Stationary-state experiments for the multi-server queue with impatience.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the INI config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=".", help="output directory (default: cwd)")
    return parser


def _write_json(out_dir: Path, cfg: ExperimentConfig, command: str, fields: dict):
    """``<command>.json``: the command, the config's sha256, the seed and the
    server count, with ``fields``."""
    payload = {"command": command, "config_sha256": cfg.sha256, "seed": cfg.spec.seed,
               "servers": cfg.servers, **fields}
    (out_dir / f"{command}.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(out_dir: Path, cfg: ExperimentConfig, name: str, rows, *trace_format):
    """``name``, stamped with the config's sha256 and the seed: ``rows`` is a
    list of CSV rows, header first, or a ``des.Trace`` that ``des.write_trace``
    writes with ``trace_format``."""
    with open(out_dir / name, "w", newline="") as fh:
        fh.write(f"# config_sha256={cfg.sha256} seed={cfg.spec.seed}\n")
        if isinstance(rows, des.Trace):
            des.write_trace(rows, fh, *trace_format)
        else:
            csv.writer(fh, lineterminator="\n").writerows(rows)


def replication_seed(seed: int, r: int) -> int:
    return seed if r == 0 else _mix64_int(seed + 0x9E3779B97F4A7C15 * r)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_validate(cfg: ExperimentConfig, out_dir: Path) -> int:
    path = StationaryPath(cfg.spec)
    report = des.cross_validate(path, cfg.servers, cfg.run.n_arrivals, tol=cfg.run.tol)
    fields = {
        "n_arrivals": report.n_arrivals,
        "tol": report.tol,
        "max_discrepancy": report.max_discrepancy,
        "decisions_agree": report.decisions_agree,
        "passed": report.passed,
    }
    if report.first_divergence is not None:
        idx, seen, state = report.first_divergence
        fields["first_divergence"] = {
            "index": idx,
            "simulated": [float(v) for v in seen],
            "recursion": [float(v) for v in state],
        }
    _write_json(out_dir, cfg, "validate", fields)
    if not report.passed:
        print(f"validate: FAILED (max discrepancy {report.max_discrepancy:.3e}, "
              f"decisions_agree={report.decisions_agree})", file=sys.stderr)
        return 1
    print(f"validate: ok (max discrepancy {report.max_discrepancy:.3e} over "
          f"{report.n_arrivals} arrivals)")
    return 0


def cmd_bounds(cfg: ExperimentConfig, out_dir: Path) -> int:
    results = []
    for r in range(cfg.run.replications):
        spec = dataclasses.replace(cfg.spec, seed=replication_seed(cfg.spec.seed, r))
        rep = metrics.bound_report(
            StationaryPath(spec), cfg.servers, cfg.run.n_samples,
            keep_samples=(r == 0), max_horizon=cfg.run.cftp_max_horizon,
        )
        if r == 0:
            samples = rep.samples
        res = {"replication": r, "seed": spec.seed}
        for name in ("p_lower", "p_loss", "p_upper", "p_z"):
            res[name] = dataclasses.asdict(getattr(rep, name))
        results.append(res)

    _write_json(out_dir, cfg, "bounds", {"n_samples": cfg.run.n_samples, "replications": results})
    # The five float columns, and the loss column as the trace's flag
    _write_csv(out_dir, cfg, "bounds_samples.csv", des.Trace(samples[:, :5], samples[:, 5] != 0.0),
               ("index", "lower1", "W1", "upper1", "z_top", "patience", "loss"), ("0", "1"))

    print(f"bounds: ok over {len(results)} replication(s)")
    return 0


def cmd_cftp(cfg: ExperimentConfig, out_dir: Path) -> int:
    path = StationaryPath(cfg.spec)
    res = coupling.cftp(path, cfg.servers, max_horizon=cfg.run.cftp_max_horizon)
    _write_json(out_dir, cfg, "cftp", dataclasses.asdict(res))
    if res.coalesced:
        print(f"cftp: coalesced at horizon {res.horizon_used} to {res.value}")
        return 0
    print(f"cftp: NOT coalesced within horizon {res.horizon_used}", file=sys.stderr)
    return 1


def cmd_renovate(cfg: ExperimentConfig, out_dir: Path) -> int:
    path = StationaryPath(cfg.spec)
    scan = coupling.detect_renovation(
        path, cfg.servers, (cfg.run.renovation_start, cfg.run.renovation_end))
    _write_json(out_dir, cfg, "renovate", {
        "window": list(scan.window),
        "frequency": scan.frequency,
        "z1_zero": scan.z1_zero,
        "work_le_tau": scan.work_le_tau,
        "sigma_lt_tau": scan.sigma_lt_tau,
        "n_events": len(scan.events),
        "estimate_depth": scan.estimate.horizon_used,
        "z_depth": scan.estimate.z_depth,
        "z_risk": scan.estimate.z_risk,
    })
    header = (["index"] + [f"Y{i + 1}" for i in range(cfg.servers)]
              + [f"tau_sum_{ell}" for ell in range(2, cfg.servers + 1)])
    _write_csv(out_dir, cfg, "renovate.csv", [header] + [
        [ev.index] + [repr(v) for v in ev.y_estimate] + [repr(v) for v in ev.tau_sums] for ev in scan.events])
    print(f"renovate: {len(scan.events)} events in {scan.window}, "
          f"frequency {scan.frequency:.4f}")
    return 0


def cmd_hset(cfg: ExperimentConfig, out_dir: Path) -> int:
    path = StationaryPath(cfg.spec)
    depth = cfg.run.hset_depth or 10 * cfg.servers
    sets = coupling.reachable_profile(path, cfg.servers, range(0, depth + 1),
                                      cap=cfg.run.hset_cap)
    sizes = [len(s) for s in sets]
    _write_json(out_dir, cfg, "hset", {
        "alpha": cfg.spec.alpha,
        "max_depth": depth,
        "sizes": sizes,
        "final_singleton": len(sets[-1]) == 1,
    })
    _write_csv(out_dir, cfg, "hset.csv",
               [["depth", "size", "box_size"]] + [[s.depth, len(s), s.box_size] for s in sets])
    print(f"hset: sizes {sizes}")
    return 0


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path) -> int:
    if cfg.run.n_arrivals < metrics.BATCHES:
        raise ConfigurationError(f"run.n_arrivals must be >= {metrics.BATCHES} (the batch count) for simulate, "
                                 f"got {cfg.run.n_arrivals}")
    path = StationaryPath(cfg.spec)
    trace = des.run(path, cfg.servers, cfg.run.n_arrivals)
    lost = ~trace.served
    est = metrics.loss_probability(lost)
    _write_json(out_dir, cfg, "simulate", {
        "n_arrivals": cfg.run.n_arrivals,
        "losses": int(lost.sum()),
        "loss_probability": est.probability,
        "half_width": est.half_width,
    })
    _write_csv(out_dir, cfg, "trace.csv", trace)
    print(f"simulate: loss probability {est.probability:.6f} ± {est.half_width:.6f} "
          f"over {cfg.run.n_arrivals} arrivals")
    return 0


_COMMANDS = {
    "validate": cmd_validate,
    "bounds": cmd_bounds,
    "cftp": cmd_cftp,
    "renovate": cmd_renovate,
    "hset": cmd_hset,
    "simulate": cmd_simulate,
}


if __name__ == "__main__":
    sys.exit(main())
