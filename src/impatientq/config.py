"""Experiment configuration: a sectioned key-value file.

Schema (INI syntax, parsed with :mod:`configparser`)::

    [experiment]
    servers = 2            ; number of servers, >= 1
    seed = 2024            ; 64-bit integer master seed

    [model]
    kind = iid             ; iid | deterministic | lattice | markov_modulated
    alpha = 1.0            ; lattice kind only: the lattice step

    [tau]                  ; inter-arrival law (iid/deterministic/lattice kinds)
    dist = exponential
    rate = 1.0

    [sigma]                ; service law
    dist = exponential
    rate = 1.0

    [patience]             ; patience law (deterministic "value = inf" disables impatience)
    dist = deterministic
    value = 0.5

    [modulation]           ; markov_modulated kind only
    transition = 0.9 0.1 / 0.2 0.8
    ; plus one dist section per coordinate and state:
    ; [state0.tau], [state0.sigma], [state0.patience], [state1.tau], ...

    [run]                  ; command parameters, all optional
    n_arrivals = 100000    ; simulate: >= 30, the batch count of its interval
    n_samples = 100000     ; >= 30, the fixed batch count of the intervals
    tol = 1e-9             ; > 0 and finite
    cftp_max_horizon = 1048576
    renovation_start = 0
    renovation_end = 9999
    hset_depth = 0               ; 0 means 10 * servers
    hset_cap = 1000000
    replications = 1

Distribution sections: ``dist`` names the law, and each other key is the
field of the same name of that law in ``sequences``: ``exponential`` (rate),
``deterministic`` (value), ``uniform`` (low, high), ``shifted_exponential``
(shift, rate), ``lattice`` (alpha, multipliers, probs, the last two as
space-separated ints and floats). Numbers are read by ``getfloat``, which
reads ``inf``.

Every section and key in the file must be read by the parse: a key that
would take no effect (a misspelled section, a key the chosen ``dist`` or
model kind does not use, ``[tau]`` under ``markov_modulated``, a
``stateN`` section beyond the chain's size) is refused, naming the section
and key. Backward reads take the depth their certificates need, so no key
sets a depth; a ``z_depth`` key is refused like any other unread key, as
is ``batches``: every interval uses 30 batches (``metrics.BATCHES``). Nor
does a key set where ``bounds`` starts the workload or a warm-up for the
modulating chain: both are read by coupling from the past. ``parse_config``
stamps the config with its text's sha256 from the interpreter's built-in
module (``_sha2``, or ``_sha256`` before Python 3.12) in place of
``hashlib``, as ``random`` does for its SHA-512: ``hashlib`` maps OpenSSL,
so no command loads it. It is the fallback only when neither module imports.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

from .errors import ConfigurationError
from .metrics import BATCHES
from .sequences import (
    Deterministic,
    Distribution,
    Exponential,
    LatticeDiscrete,
    ModulationSpec,
    SequenceSpec,
    ShiftedExponential,
    Uniform,
)


@dataclass(frozen=True)
class RunParams:
    n_arrivals: int = 100_000
    n_samples: int = 100_000
    tol: float = 1e-9
    cftp_max_horizon: int = 1 << 20
    renovation_start: int = 0
    renovation_end: int = 9_999
    hset_depth: int = 0
    hset_cap: int = 1_000_000
    replications: int = 1

    def __post_init__(self):
        for name in ("n_arrivals", "n_samples", "cftp_max_horizon", "hset_cap", "replications"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"run.{name} must be >= 1")
        if self.n_samples < BATCHES:
            raise ConfigurationError(f"run.n_samples must be >= {BATCHES} (the batch count), got {self.n_samples}")
        if not 0.0 < self.tol < math.inf:
            raise ConfigurationError(f"run.tol must be positive and finite, got {self.tol}")
        if self.renovation_end < self.renovation_start:
            raise ConfigurationError("run renovation window is empty")
        if self.hset_depth < 0:
            raise ConfigurationError("run.hset_depth must be non-negative")


@dataclass(frozen=True)
class ExperimentConfig:
    servers: int
    spec: SequenceSpec
    run: RunParams
    sha256: str

    def __post_init__(self):
        if self.servers < 1:
            raise ConfigurationError("experiment.servers must be >= 1")


def load_config(path: str | Path, seed_override: Optional[int] = None) -> ExperimentConfig:
    text = Path(path).read_text()
    return parse_config(text, seed_override=seed_override)


class _Reader(configparser.ConfigParser):
    """A parser that records every ``(section, key)`` the parse reads."""

    def __init__(self):
        super().__init__(inline_comment_prefixes=(";", "#"))
        self.read_keys: set[tuple[str, str]] = set()

    def get(self, section, option, **kwargs):
        self.read_keys.add((section, self.optionxform(option)))
        return super().get(section, option, **kwargs)


def parse_config(text: str, seed_override: Optional[int] = None) -> ExperimentConfig:
    cp = _Reader()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"cannot parse config: {exc}") from exc

    try:
        servers = cp.getint("experiment", "servers")
        seed = cp.getint("experiment", "seed")
    except (configparser.Error, ValueError) as exc:
        raise ConfigurationError(f"[experiment] needs integer servers and seed: {exc}") from exc
    if seed_override is not None:
        seed = seed_override

    kind = cp.get("model", "kind", fallback="iid").strip()
    if kind == "markov_modulated":
        spec = SequenceSpec(model=kind, seed=seed, modulation=_parse_modulation(cp))
    else:
        spec = SequenceSpec(
            model=kind,
            seed=seed,
            tau=_parse_dist(cp, "tau"),
            sigma=_parse_dist(cp, "sigma"),
            patience=_parse_dist(cp, "patience"),
            alpha=_number(cp, "model", "alpha", float) if kind == "lattice" else None,
        )

    run_kwargs = {}
    for key in RunParams.__dataclass_fields__:
        value = _number(cp, "run", key, float if key == "tol" else int)
        if value is not None:
            run_kwargs[key] = value

    # A key the parse did not read would take no effect: refuse it.
    for section in cp.sections():
        for key in cp.options(section):
            if (section, key) not in cp.read_keys:
                raise ConfigurationError(f"[{section}] {key} is not read by a {kind!r} config")

    return ExperimentConfig(servers=servers, spec=spec, run=RunParams(**run_kwargs),
                            sha256=_digest(text.encode()))


def _digest(data: bytes) -> str:
    """The hex sha256 of ``data``, from the built-in module (see above)."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def _number(cp: configparser.ConfigParser, section: str, key: str, cast):
    raw = cp.get(section, key, fallback=None)
    if raw is None:
        return None
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigurationError(f"[{section}] {key}: {exc}") from exc


_LAWS = {"exponential": Exponential, "deterministic": Deterministic, "uniform": Uniform,
         "shifted_exponential": ShiftedExponential, "lattice": LatticeDiscrete}


def _parse_dist(cp: configparser.ConfigParser, section: str) -> Distribution:
    if not cp.has_section(section):
        raise ConfigurationError(f"missing [{section}] distribution section")
    kind = cp.get(section, "dist", fallback=None)
    if kind is None:
        raise ConfigurationError(f"[{section}] needs a 'dist' key")
    kind = kind.strip()
    if kind not in _LAWS:
        raise ConfigurationError(f"[{section}] has unknown dist {kind!r}")
    law = _LAWS[kind]
    values = {}
    try:
        for f in fields(law):
            if f.name == "multipliers":
                values[f.name] = tuple(int(v) for v in cp.get(section, f.name).split())
            elif f.name == "probs":
                values[f.name] = tuple(float(v) for v in cp.get(section, f.name).split())
            else:
                values[f.name] = cp.getfloat(section, f.name)
        return law(**values)
    except (configparser.Error, ValueError) as exc:
        raise ConfigurationError(f"[{section}]: {exc}") from exc


def _parse_modulation(cp: configparser.ConfigParser) -> ModulationSpec:
    if not cp.has_section("modulation"):
        raise ConfigurationError("markov_modulated model needs a [modulation] section")
    raw = cp.get("modulation", "transition", fallback=None)
    if raw is None:
        raise ConfigurationError("[modulation] needs a 'transition' key")
    try:
        rows = [tuple(float(v) for v in part.split()) for part in raw.split("/")]
    except ValueError as exc:
        raise ConfigurationError(f"[modulation] transition: {exc}") from exc
    states = []
    for s in range(len(rows)):
        states.append(tuple(_parse_dist(cp, f"state{s}.{name}")
                            for name in ("tau", "sigma", "patience")))
    return ModulationSpec(transition=tuple(rows), states=tuple(states))
