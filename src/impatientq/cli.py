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


def _header(cfg: ExperimentConfig, command: str) -> dict:
    return {
        "command": command,
        "config_sha256": cfg.sha256,
        "seed": cfg.spec.seed,
        "servers": cfg.servers,
    }


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _csv_stamp(fh, cfg: ExperimentConfig):
    fh.write(f"# config_sha256={cfg.sha256} seed={cfg.spec.seed}\n")


def replication_seed(seed: int, r: int) -> int:
    return seed if r == 0 else _mix64_int(seed + 0x9E3779B97F4A7C15 * r)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_validate(cfg: ExperimentConfig, out_dir: Path) -> int:
    path = StationaryPath(cfg.spec)
    report = des.cross_validate(path, cfg.servers, cfg.run.n_arrivals, tol=cfg.run.tol)
    payload = _header(cfg, "validate")
    payload.update({
        "n_arrivals": report.n_arrivals,
        "tol": report.tol,
        "max_discrepancy": report.max_discrepancy,
        "decisions_agree": report.decisions_agree,
        "passed": report.passed,
    })
    if report.first_divergence is not None:
        idx, seen, state = report.first_divergence
        payload["first_divergence"] = {
            "index": idx,
            "simulated": [float(v) for v in seen],
            "recursion": [float(v) for v in state],
        }
    _write_json(out_dir / "validate.json", payload)
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
        res = {
            "replication": r,
            "seed": spec.seed,
            "ordering_ok": rep.ordering_ok,
            "stabilized": {
                "lower": rep.lower_stabilized,
                "upper": rep.upper_stabilized,
                "z": rep.z_stabilized,
            },
        }
        for name, est in (("p_lower", rep.p_lower), ("p_loss", rep.p_loss),
                          ("p_upper", rep.p_upper), ("p_z", rep.p_z)):
            res[name] = {"probability": est.probability, "half_width": est.half_width, "n": est.n}
        results.append(res)

    payload = _header(cfg, "bounds")
    payload.update({
        "n_samples": cfg.run.n_samples,
        "replications": results,
        "all_orderings_ok": all(r["ordering_ok"] for r in results),
    })
    _write_json(out_dir / "bounds.json", payload)

    with open(out_dir / "bounds_samples.csv", "w", newline="") as fh:
        _csv_stamp(fh, cfg)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "lower1", "W1", "upper1", "z_top", "patience", "loss"])
        for i, row in enumerate(samples):
            writer.writerow([i] + [repr(float(v)) for v in row[:5]] + [int(row[5])])

    status = "ok" if payload["all_orderings_ok"] else "ORDER VIOLATION"
    print(f"bounds: {status} over {len(results)} replication(s)")
    return 0 if payload["all_orderings_ok"] else 1


def cmd_cftp(cfg: ExperimentConfig, out_dir: Path) -> int:
    path = StationaryPath(cfg.spec)
    res = coupling.cftp(path, cfg.servers, max_horizon=cfg.run.cftp_max_horizon)
    payload = _header(cfg, "cftp")
    payload.update({
        "coalesced": res.coalesced,
        "horizon_used": res.horizon_used,
        "z_depth": res.z_depth,
        "z_risk": res.z_risk,
        "value": list(res.value) if res.value is not None else None,
    })
    _write_json(out_dir / "cftp.json", payload)
    if res.coalesced:
        print(f"cftp: coalesced at horizon {res.horizon_used} to {res.value}")
        return 0
    print(f"cftp: NOT coalesced within horizon {res.horizon_used}", file=sys.stderr)
    return 1


def cmd_renovate(cfg: ExperimentConfig, out_dir: Path) -> int:
    path = StationaryPath(cfg.spec)
    scan = coupling.detect_renovation(
        path, cfg.servers, (cfg.run.renovation_start, cfg.run.renovation_end))
    payload = _header(cfg, "renovate")
    payload.update({
        "window": list(scan.window),
        "frequency": scan.frequency,
        "n_events": len(scan.events),
        "estimate_depth": scan.estimate.horizon_used,
        "estimate_stabilized": scan.estimate.coalesced,
        "z_depth": scan.estimate.z_depth,
        "z_risk": scan.estimate.z_risk,
    })
    _write_json(out_dir / "renovate.json", payload)
    with open(out_dir / "renovate.csv", "w", newline="") as fh:
        _csv_stamp(fh, cfg)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "checked_length"]
                        + [f"Y{i + 1}" for i in range(cfg.servers)]
                        + [f"tau_sum_{ell}" for ell in range(2, cfg.servers + 1)])
        for ev in scan.events:
            writer.writerow([ev.index, ev.checked_length]
                            + [repr(v) for v in ev.y_estimate]
                            + [repr(v) for v in ev.tau_sums])
    print(f"renovate: {len(scan.events)} events in {scan.window}, "
          f"frequency {scan.frequency:.4f}")
    return 0


def cmd_hset(cfg: ExperimentConfig, out_dir: Path) -> int:
    path = StationaryPath(cfg.spec)
    depth = cfg.run.hset_depth or 10 * cfg.servers
    sets = coupling.reachable_profile(path, cfg.servers, range(0, depth + 1),
                                      cap=cfg.run.hset_cap)
    payload = _header(cfg, "hset")
    payload.update({
        "alpha": cfg.spec.alpha,
        "max_depth": depth,
        "sizes": [len(s) for s in sets],
        "all_nested": all(s.nested_in_previous for s in sets),
        "estimate_stabilized": sets[0].estimate_stabilized,
        "final_singleton": len(sets[-1]) == 1,
    })
    _write_json(out_dir / "hset.json", payload)
    with open(out_dir / "hset.csv", "w", newline="") as fh:
        _csv_stamp(fh, cfg)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["depth", "size", "nested_in_previous", "box_size"])
        for s in sets:
            writer.writerow([s.depth, len(s), int(s.nested_in_previous), s.box_size])
    print(f"hset: sizes {payload['sizes']}, nested={payload['all_nested']}")
    return 0 if payload["all_nested"] else 1


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path) -> int:
    path = StationaryPath(cfg.spec)
    trace = des.run(path, cfg.servers, cfg.run.n_arrivals)
    lost = ~trace.served
    est = metrics.loss_probability(lost)
    payload = _header(cfg, "simulate")
    payload.update({
        "n_arrivals": cfg.run.n_arrivals,
        "losses": int(lost.sum()),
        "loss_probability": est.probability,
        "half_width": est.half_width,
    })
    _write_json(out_dir / "simulate.json", payload)
    with open(out_dir / "trace.csv", "w", newline="") as fh:
        _csv_stamp(fh, cfg)
        des.write_trace(trace, fh)
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
