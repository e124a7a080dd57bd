import dataclasses
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from impatientq import cli, coupling, metrics
from impatientq.cli import main, replication_seed
from impatientq.config import load_config, parse_config
from impatientq.errors import ConfigurationError, ContractError
from impatientq.sequences import Deterministic, Exponential, LatticeDiscrete, StationaryPath, Uniform

MM2D_INI = """
[experiment]
servers = 2
seed = 2024

[model]
kind = iid

[tau]
dist = exponential
rate = 1.0

[sigma]
dist = exponential
rate = 0.6

[patience]
dist = deterministic
value = 1.0

[run]
n_arrivals = 5000
n_samples = 5000
renovation_start = 0
renovation_end = 199
"""

LATTICE_INI = """
[experiment]
servers = 2
seed = 7

[model]
kind = lattice
alpha = 1.0

[tau]
dist = lattice
alpha = 1.0
multipliers = 2 3
probs = 0.5 0.5

[sigma]
dist = lattice
alpha = 1.0
multipliers = 1 2
probs = 0.6 0.4

[patience]
dist = uniform
low = 0.0
high = 1.5

[run]
n_arrivals = 2000
hset_depth = 8
"""

MM_INI = """
[experiment]
servers = 2
seed = 11

[model]
kind = markov_modulated

[modulation]
transition = 0.9 0.1 / 0.2 0.8

[state0.tau]
dist = exponential
rate = 1.0

[state0.sigma]
dist = exponential
rate = 1.0

[state0.patience]
dist = deterministic
value = 1.0

[state1.tau]
dist = exponential
rate = 3.0

[state1.sigma]
dist = exponential
rate = 0.5

[state1.patience]
dist = uniform
low = 0.0
high = 2.0

[run]
n_arrivals = 3000
"""


def test_parse_config_iid():
    cfg = parse_config(MM2D_INI)
    assert cfg.servers == 2
    assert cfg.spec.seed == 2024
    assert cfg.spec.tau == Exponential(1.0)
    assert cfg.spec.sigma == Exponential(0.6)
    assert cfg.spec.patience == Deterministic(1.0)
    assert cfg.run.n_arrivals == 5000
    assert len(cfg.sha256) == 64


def test_parse_config_lattice_and_mm():
    lat = parse_config(LATTICE_INI)
    assert lat.spec.is_lattice and lat.spec.alpha == 1.0
    assert lat.spec.tau == LatticeDiscrete(1.0, (2, 3), (0.5, 0.5))
    assert lat.spec.patience == Uniform(0.0, 1.5)
    mm = parse_config(MM_INI)
    assert mm.spec.model == "markov_modulated"
    assert mm.spec.modulation.n_states() == 2


def test_parse_config_seed_override():
    cfg = parse_config(MM2D_INI, seed_override=99)
    assert cfg.spec.seed == 99


def test_parse_config_inf_patience():
    text = MM2D_INI.replace("dist = deterministic\nvalue = 1.0", "dist = deterministic\nvalue = inf")
    cfg = parse_config(text)
    assert cfg.spec.patience.value == math.inf


@pytest.mark.parametrize("mutate", [
    lambda t: t.replace("servers = 2", "servers = 0"),
    lambda t: t.replace("dist = exponential\nrate = 1.0", "dist = exponential\nrate = -1.0", 1),
    lambda t: t.replace("dist = exponential", "dist = mystery", 1),
    lambda t: t.replace("n_arrivals = 5000", "n_arrivals = 0"),
    lambda t: t.replace("n_arrivals = 5000", "frobnicate = 3"),
    lambda t: t.replace("[tau]", "[tau-gone]"),
    lambda t: "not ini at all {{{",
])
def test_parse_config_errors(mutate):
    with pytest.raises(ConfigurationError):
        parse_config(mutate(MM2D_INI))


def test_replication_seed_distinct():
    seeds = {replication_seed(2024, r) for r in range(10)}
    assert len(seeds) == 10
    assert replication_seed(2024, 0) == 2024


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_validate_and_outputs(tmp_path):
    cfg = _write(tmp_path, "cfg.ini", MM2D_INI)
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "validate.json").read_text())
    assert payload["passed"] is True
    assert payload["max_discrepancy"] <= 1e-9
    assert payload["config_sha256"] == load_config(cfg).sha256
    assert payload["seed"] == 2024


def test_cli_bad_config_exit_2(tmp_path):
    cfg = _write(tmp_path, "bad.ini", MM2D_INI.replace("servers = 2", "servers = 0"))
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert main(["validate", "--config", str(tmp_path / "missing.ini"),
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("ini, old, new, key", [
    (LATTICE_INI, "alpha = 1.0\n\n[tau]", "alpha = x\n\n[tau]", "alpha"),
    (MM_INI, "transition = 0.9 0.1", "transition = 0.9 x", "transition"),
    (MM2D_INI, "kind = iid", "kind = iid\nalpha = 1.0", "alpha"),
    (LATTICE_INI, "alpha = 1.0\n\n[tau]", "alpha = nan\n\n[tau]", "alpha"),
    (MM_INI, "transition = 0.9 0.1", "transition = nan 0.1", "transition"),
    (MM2D_INI, "[run]", "[run]\ntol = nan", "run.tol"),
    (MM2D_INI, "[run]", "[run]\ntol = inf", "run.tol"),
], ids=["alpha-not-float", "transition-not-float", "alpha-on-iid", "alpha-nan", "transition-nan", "tol-nan",
        "tol-inf"])
def test_cli_bad_model_key_exit_2(tmp_path, capsys, ini, old, new, key):
    assert old in ini
    cfg = _write(tmp_path, "bad.ini", ini.replace(old, new, 1))
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("ini, old, new, named", [
    (MM2D_INI, "[experiment]", "[experimant]\nservers = 2\n\n[experiment]", "[experimant] servers"),
    (MM2D_INI, "seed = 2024", "seed = 2024\nthreads = 4", "[experiment] threads"),
    (MM2D_INI, "rate = 1.0", "rate = 1.0\nmean = 7", "[tau] mean"),
    (MM_INI, "transition = 0.9 0.1 / 0.2 0.8", "transition = 0.9 0.1 / 0.2 0.8\nrows = 7",
     "[modulation] rows"),
    (MM_INI, "[run]", "[tau]\ndist = exponential\nrate = 1.0\n\n[run]", "[tau] dist"),
    (MM_INI, "[run]", "[state2.tau]\ndist = exponential\nrate = 1.0\n\n[run]", "[state2.tau] dist"),
    (MM2D_INI, "[run]", "[modulation]\ntransition = 0.5 0.5 / 0.5 0.5\n\n[run]",
     "[modulation] transition"),
    (MM2D_INI, "[run]", "[run]\ncftp_interior_points = 8", "[run] cftp_interior_points"),
    (MM2D_INI, "[run]", "[run]\ncftp_initial_horizon = 16", "[run] cftp_initial_horizon"),
    (MM2D_INI, "[run]", "[run]\nz_depth = 4096", "[run] z_depth"),
    (MM2D_INI, "[run]", "[run]\nwarmup = 500", "[run] warmup"),
    (MM_INI, "kind = markov_modulated", "kind = markov_modulated\nburn_in = 2000",
     "[model] burn_in"),
    (MM2D_INI, "kind = iid", "kind = iid\nburn_in = 500", "[model] burn_in"),
    (MM2D_INI, "[run]", "[run]\nbatches = 30", "[run] batches"),
], ids=["misspelled-section", "extra-experiment-key", "key-dist-ignores", "extra-modulation-key",
        "iid-section-under-markov", "state-beyond-chain", "modulation-under-iid",
        "cftp-interior-points", "cftp-initial-horizon", "z-depth", "warmup", "burn_in-on-markov",
        "burn_in-on-iid", "batches"])
def test_cli_key_without_effect_exit_2(tmp_path, capsys, ini, old, new, named):
    assert old in ini
    cfg = _write(tmp_path, "bad.ini", ini.replace(old, new, 1))
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("batches", ["1", "0"])
def test_cli_batches_below_two_exit_2(tmp_path, capsys, batches):
    # The batch count is fixed at metrics.BATCHES; a config that still asks
    # for too few batches is refused as an unread key before any output.
    text = MM2D_INI.replace("n_arrivals = 5000", f"n_arrivals = 2000\nbatches = {batches}")
    cfg = _write(tmp_path, "cfg.ini", text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "[run] batches" in err and "Traceback" not in err
    assert not (out / "simulate.json").exists()


def test_cli_n_samples_below_batches_exit_2(tmp_path, capsys):
    # Fewer samples than batches leave a batch empty; refuse the config
    # before any coupling or roll work rather than fail in batch_means.
    cfg = _write(tmp_path, "cfg.ini", MM2D_INI.replace("n_samples = 5000", "n_samples = 10"))
    out = tmp_path / "out"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "run.n_samples" in err and "30" in err and "Traceback" not in err
    assert not (out / "bounds.json").exists()
    assert not (out / "bounds_samples.csv").exists()


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_cli_threads_flag_refused(tmp_path, capsys, command):
    # Replications run in one process; there is no worker count to set.
    cfg = _write(tmp_path, "cfg.ini", MM2D_INI)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--out", str(tmp_path), "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


PERIODIC_INI = MM_INI.replace("transition = 0.9 0.1 / 0.2 0.8", "transition = 0 1 / 1 0")


@pytest.mark.parametrize("command", ["simulate", "bounds"])
def test_cli_periodic_chain_exit_3(tmp_path, capsys, command):
    # The states of a periodic chain never meet, so no chain block can be
    # read by coupling from the past.
    text = PERIODIC_INI.replace("n_arrivals = 3000", "n_arrivals = 3000\nreplications = 2")
    cfg = _write(tmp_path, "cfg.ini", text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "modulating chain ((0.0, 1.0), (1.0, 0.0)) did not coalesce" in err
    assert "Traceback" not in err


def test_cli_simulate_trace(tmp_path):
    cfg = _write(tmp_path, "cfg.ini", MM2D_INI)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    trace = (out / "trace.csv").read_text().strip().split("\n")
    assert trace[0].startswith("# config_sha256=") and "seed=2024" in trace[0]
    assert trace[1] == "index,W1,W2,served,loss"
    assert len(trace) == 5002
    payload = json.loads((out / "simulate.json").read_text())
    assert payload["losses"] == sum(int(line.split(",")[-1]) for line in trace[2:])


def test_cli_bounds_and_reproducibility(tmp_path):
    cfg = _write(tmp_path, "cfg.ini", MM2D_INI)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["bounds", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["bounds", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "bounds.json").read_bytes() == (out2 / "bounds.json").read_bytes()
    assert (out1 / "bounds_samples.csv").read_bytes() == (out2 / "bounds_samples.csv").read_bytes()
    payload = json.loads((out1 / "bounds.json").read_text())
    assert len(payload["replications"]) == 1
    # the four probabilities in sandwich order, as the indicators of every
    # sample are
    rep = payload["replications"][0]
    probabilities = [rep[name]["probability"] for name in ("p_lower", "p_loss", "p_upper", "p_z")]
    assert probabilities == sorted(probabilities)


GROWTH_INI = """
[experiment]
servers = 1
seed = 1

[model]
kind = deterministic

[tau]
dist = deterministic
value = 1.0

[sigma]
dist = deterministic
value = 2.0

[patience]
dist = deterministic
value = 1.0

[run]
n_samples = 2000
"""


@pytest.mark.parametrize("text, code, named", [
    (GROWTH_INI + "cftp_max_horizon = 4096\n", 1, "cftp did not coalesce at index 0 by horizon 4096"),
    (MM2D_INI.replace("value = 1.0", "value = inf"), 2, "top supremum is not finite"),
], ids=["growth-no-coalescence", "infinite-patience"])
def test_cli_bounds_refuses_without_a_stationary_start(tmp_path, capsys, text, code, named):
    # GROWTH_INI's workload cycles through 1, 2, 1, ... from one start and
    # 2, 1, 2, ... from another, so cftp never coalesces (exit 1); it gives
    # up at the configured cftp_max_horizon. Without impatience the top
    # supremum is infinite and there is no box to couple from (exit 2).
    cfg = _write(tmp_path, "cfg.ini", text)
    out = tmp_path / "out"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    # coupling that did not close by a horizon proves no lack of a start
    assert "no stationary start" not in err
    assert not (out / "bounds.json").exists()


def test_cli_renovate_infinite_patience_exit_2(tmp_path, capsys):
    # Without impatience the upper supremum is infinite: no box to read the
    # upper estimate from, so renovate refuses as a configuration error.
    cfg = _write(tmp_path, "cfg.ini", MM2D_INI.replace("value = 1.0", "value = inf"))
    out = tmp_path / "out"
    assert main(["renovate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "top supremum is not finite" in err and "Traceback" not in err
    assert not (out / "renovate.json").exists()


def test_cli_bounds_refuses_out_of_order_indicators(tmp_path, capsys, monkeypatch):
    # A z_top below upper1 at a sample breaks the pointwise sandwich: exit 1,
    # naming the sample, and no output file. With the upper rows' top
    # coordinate zero, z_top is zero past its first sample.
    sandwich_states = metrics.sandwich_states

    def top_zeroed(*args):
        states = sandwich_states(*args)
        states[2][:, -1] = 0.0
        return states

    monkeypatch.setattr(metrics, "sandwich_states", top_zeroed)
    cfg = _write(tmp_path, "cfg.ini", MM2D_INI)
    out = tmp_path / "out"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "loss indicators out of order at sample" in err and "z_top 0.0" in err
    assert "Traceback" not in err
    assert list(out.iterdir()) == []


def test_cli_bounds_replications(tmp_path):
    text = MM2D_INI.replace("renovation_end = 199", "renovation_end = 199\nreplications = 3")
    cfg = _write(tmp_path, "cfg.ini", text)
    out = tmp_path / "out"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "bounds.json").read_text())
    assert len(payload["replications"]) == 3
    seeds = {r["seed"] for r in payload["replications"]}
    assert len(seeds) == 3
    # Pinned bytes: the replications' estimates and replication 0's samples.
    assert hashlib.sha256((out / "bounds.json").read_bytes()).hexdigest() == (
        "ae1715ddff30ccafb4bb8b7c816c9ff51c7c2442f97e4adcef2185b96e84fc70")
    assert hashlib.sha256((out / "bounds_samples.csv").read_bytes()).hexdigest() == (
        "f62ffd65486cf139ecd855dd871aa825074ea487d3d4b79a771815b6e8fb2e59")


def test_cli_seed_override_changes_output(tmp_path):
    cfg = _write(tmp_path, "cfg.ini", MM2D_INI)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--seed", "31337", "--out", str(out2)]) == 0
    a = json.loads((out1 / "simulate.json").read_text())
    b = json.loads((out2 / "simulate.json").read_text())
    assert a["seed"] == 2024 and b["seed"] == 31337
    assert a["loss_probability"] != b["loss_probability"]


def test_cli_cftp_renovate(tmp_path):
    cfg = _write(tmp_path, "cfg.ini", MM2D_INI)
    out = tmp_path / "out"
    assert main(["cftp", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "cftp.json").read_text())
    assert payload["coalesced"] is True and len(payload["value"]) == 2
    assert main(["renovate", "--config", cfg, "--out", str(out)]) == 0
    scan = json.loads((out / "renovate.json").read_text())
    assert scan["n_events"] >= 1
    # the horizon at which the two rolls met, and the box they started from
    assert scan["estimate_depth"] >= 16
    assert scan["z_depth"] >= 2 and 0.0 <= scan["z_risk"] <= 1e-12
    lines = (out / "renovate.csv").read_text().strip().split("\n")
    assert lines[0].startswith("# config_sha256=")
    assert lines[1] == "index,Y1,Y2,tau_sum_2"
    assert len(lines) == scan["n_events"] + 2
    # each event's witnesses: an empty first coordinate, and the second at
    # most the one gap sum
    for line in lines[2:]:
        _, y1, y2, tau_sum = map(float, line.split(","))
        assert y1 == 0.0 and y2 <= tau_sum


def test_cli_cftp_not_coalesced_exit_1(tmp_path):
    text = """
[experiment]
servers = 1
seed = 5

[model]
kind = deterministic

[tau]
dist = deterministic
value = 1.0

[sigma]
dist = deterministic
value = 1.2

[patience]
dist = deterministic
value = 1.0

[run]
cftp_max_horizon = 64
"""
    cfg = _write(tmp_path, "cfg.ini", text)
    out = tmp_path / "out"
    assert main(["cftp", "--config", cfg, "--out", str(out)]) == 1
    payload = json.loads((out / "cftp.json").read_text())
    assert payload["coalesced"] is False and payload["value"] is None


def test_cli_cftp_max_horizon_below_the_starting_horizon(tmp_path):
    # S = 3 starts at horizon 16; run.cftp_max_horizon = 8 must cap it.
    text = (MM2D_INI.replace("servers = 2", "servers = 3").replace("rate = 0.6", "rate = 0.4")
            .replace("dist = deterministic\nvalue = 1.0", "dist = exponential\nrate = 0.2")
            + "cftp_max_horizon = 8\n")
    cfg = _write(tmp_path, "cfg.ini", text)
    out = tmp_path / "out"
    code = main(["cftp", "--config", cfg, "--out", str(out)])
    payload = json.loads((out / "cftp.json").read_text())
    assert payload["horizon_used"] <= 8
    assert code == (0 if payload["coalesced"] else 1)


def test_cli_hset(tmp_path):
    cfg = _write(tmp_path, "cfg.ini", LATTICE_INI)
    out = tmp_path / "out"
    assert main(["hset", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "hset.json").read_text())
    sizes = payload["sizes"]
    assert len(sizes) == 9
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    lines = (out / "hset.csv").read_text().strip().split("\n")
    assert lines[0].startswith("# config_sha256=")
    assert lines[1] == "depth,size,box_size"
    assert len(lines) == 11
    # the sizes are those of sets each nested in the one before
    sets = coupling.reachable_profile(StationaryPath(load_config(cfg).spec), 2, range(9))
    assert [len(s) for s in sets] == sizes
    assert all(b.points <= a.points for a, b in zip(sets, sets[1:]))


@pytest.mark.parametrize("name, command", [("MM2D_INI", "bounds"), ("MM2D_INI", "renovate"),
                                           ("LATTICE_INI", "hset")])
def test_cli_outputs_carry_no_field_that_cannot_vary(tmp_path, name, command):
    # Out-of-order indicators, an open chain and an image outside the next
    # box are refused before any file is written, so no output reports an
    # ordering, stabilization or nesting flag, nor the renovation check
    # length, which is always servers - 1 and so the number of tau_sum columns.
    cfg = _write(tmp_path, "cfg.ini", globals()[name])
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    for f in sorted(out.iterdir()):
        head = f.read_text() if f.suffix == ".json" else f.read_text().split("\n")[1]
        for deleted in ("ordering", "stabilized", "nested", "checked_length"):
            assert deleted not in head, (f.name, deleted)


# The lattice benchmark model at S = 3, profiled to depth 30.
LATTICE_BENCH_INI = """
[experiment]
servers = 3
seed = 1

[model]
kind = lattice
alpha = 0.5

[tau]
dist = lattice
alpha = 0.5
multipliers = 1 2 3
probs = 0.3 0.4 0.3

[sigma]
dist = lattice
alpha = 0.5
multipliers = 0 2 4 6 8
probs = 0.2 0.2 0.2 0.2 0.2

[patience]
dist = uniform
low = 0.0
high = 6.0

[run]
hset_depth = 30
"""


# The same model at S = 8, profiled to depth 80: the widest rows.
LATTICE_BENCH_S8_INI = LATTICE_BENCH_INI.replace("servers = 3", "servers = 8").replace(
    "hset_depth = 30", "hset_depth = 80")


@pytest.mark.parametrize("text, json_sha, csv_sha", [
    (LATTICE_INI,
     "aa2166150b2a9dc8c654be5897a2f25a4db1aa08b976650fc14dd74f738bced6",
     "ae659597f6c6d49ef3b23c0c89b2c1c89dcaad082b1f3811188bae3752ee6b21"),
    (LATTICE_BENCH_INI,
     "d421f0350eea91196747ad9579017d2b78f9e65bc73d9d5ba9be857c62ecf142",
     "3feb1b45a38d4aad368ba62ba6385a704f9bcaf20001d7677c026cb3badbfe17"),
    (LATTICE_BENCH_S8_INI,
     "09ab871265a6603f6b2604cc24c96046608a05f78c6acf61b9395f099601fb4f",
     "27dc163bb0742328865809cb483004c7ae791498ae6ef578a81358a9969c0436"),
], ids=["lattice-ini", "lattice-bench-S3", "lattice-bench-S8"])
def test_cli_hset_golden(tmp_path, text, json_sha, csv_sha):
    # Pinned outputs: set sizes and box sizes are part of the byte-reproducible contract.
    cfg = _write(tmp_path, "cfg.ini", text)
    out = tmp_path / "out"
    assert main(["hset", "--config", cfg, "--out", str(out)]) == 0
    assert hashlib.sha256((out / "hset.json").read_bytes()).hexdigest() == json_sha
    assert hashlib.sha256((out / "hset.csv").read_bytes()).hexdigest() == csv_sha


def test_cli_hset_unstabilized_estimate_exit_1(tmp_path, monkeypatch, capsys):
    # An upper estimate whose chain did not close may under-estimate the
    # box, so the profile refuses rather than report sets built from it.
    real = coupling.cftp

    def unstabilized(path, servers, at=0, max_horizon=1 << 20, kind="exact"):
        res = real(path, servers, at, max_horizon, kind)
        return dataclasses.replace(res, value=None, coalesced=False) if kind == "upper" else res

    monkeypatch.setattr(coupling, "cftp", unstabilized)
    cfg = _write(tmp_path, "cfg.ini", LATTICE_INI)
    out = tmp_path / "out"
    assert main(["hset", "--config", cfg, "--out", str(out)]) == 1
    assert re.search(r"upper estimate at index -8 did not coalesce by horizon \d+", capsys.readouterr().err)
    assert not (out / "hset.json").exists()


def test_cli_hset_cap_exit_3(tmp_path, capsys):
    # a box over hset_cap is refused before any set is reported, naming the
    # box: its depth and the path index where it starts
    cfg = _write(tmp_path, "cfg.ini", LATTICE_BENCH_INI + "hset_cap = 300\n")
    out = tmp_path / "out"
    assert main(["hset", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "lattice box at depth 30 (index -30) exceeds cap" in err
    assert "cap=300, requested=715" in err
    assert not (out / "hset.json").exists()


def test_cli_hset_nesting_failure_exit_1(tmp_path, monkeypatch, capsys):
    # A rolled estimate lowered at depth 1 shrinks that box to the empty
    # state, so the images of the depth-2 box lie above it. Each image must
    # lie in the box one index later, so the profile refuses, naming the
    # index and the image, and hset exits 1 with that message.
    real = coupling.envelope_states

    def lowered(path, at, steps, u0, kind):
        out = real(path, at, steps, u0, kind).copy()
        out[steps - 1] = 0.0
        return out

    monkeypatch.setattr(coupling, "envelope_states", lowered)
    cfg = _write(tmp_path, "cfg.ini", LATTICE_BENCH_INI)
    spec = load_config(cfg).spec
    message = r"exact image \(0, 0, \d+\) at index -1 lies above the upper estimate's box \(0, 0, 0\) there"
    with pytest.raises(ContractError, match=message):
        coupling.reachable_profile(StationaryPath(spec), 3, range(0, 31))
    out = tmp_path / "out"
    assert main(["hset", "--config", cfg, "--out", str(out)]) == 1
    assert re.search(message, capsys.readouterr().err)
    assert not (out / "hset.json").exists()


def test_cli_hset_on_non_lattice_exit_2(tmp_path):
    cfg = _write(tmp_path, "cfg.ini", MM2D_INI)
    assert main(["hset", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_cli_lattice_validate_exact(tmp_path):
    cfg = _write(tmp_path, "cfg.ini", LATTICE_INI)
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "validate.json").read_text())
    assert payload["max_discrepancy"] == 0.0
    assert payload["passed"] is True


def test_cli_markov_modulated_validate(tmp_path):
    cfg = _write(tmp_path, "cfg.ini", MM_INI)
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0


PINNED = json.loads((Path(__file__).parent / "data" / "cli_outputs.json").read_text())


def _same_up_to_half_widths(got, want, where=""):
    """Equal, except that ``half_width`` values need only agree to 1e-12
    relative: they carry a t quantile, whose last bits depend on how it
    is computed."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            if key == "half_width":
                assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0.0), where
            else:
                _same_up_to_half_widths(got[key], want[key], f"{where}/{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _same_up_to_half_widths(g, w, f"{where}[{i}]")
    else:
        assert got == want, where


@pytest.mark.parametrize("name", ["MM2D_INI", "MM_INI", "LATTICE_INI"])
@pytest.mark.parametrize("command", ["bounds", "simulate"])
def test_cli_outputs_match_pinned(tmp_path, name, command):
    # Outputs pinned when the t quantile came from scipy.stats.t.ppf;
    # the closed-form quantile may move only the half-widths' last bits.
    cfg = _write(tmp_path, "cfg.ini", globals()[name])
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    got = json.loads((out / f"{command}.json").read_text())
    _same_up_to_half_widths(got, PINNED[f"{name}/{command}"])
