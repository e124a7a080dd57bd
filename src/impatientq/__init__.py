"""Multi-server FCFS queue with impatient customers: stationary-state
construction, bounding recursions, coupling verification, and loss bounds."""

from .errors import ConfigurationError, ContractError, ResourceCapError
from .sequences import (
    Deterministic,
    DriverSample,
    Exponential,
    LatticeDiscrete,
    ModulationSpec,
    SequenceSpec,
    ShiftedExponential,
    StationaryPath,
    Uniform,
)
from .kernel import StepOutcome, advance, advance_lower, advance_upper, ordered
from .loynes import SupremumBound, supremum_bound
from .coupling import (
    CftpResult,
    ReachableSet,
    RenovationEvent,
    RenovationScan,
    cftp,
    coalescence_check,
    detect_renovation,
    reachable_profile,
)
from .des import CrossValidation, Trace, cross_validate, run
from .metrics import (
    BoundReport,
    ConditionReport,
    bound_report,
    erlang_b,
    estimate_conditions,
    loss_probability,
    mm1_wait_tail,
)
from .config import ExperimentConfig, RunParams, load_config, parse_config

__all__ = [
    "ConfigurationError",
    "ContractError",
    "ResourceCapError",
    "Deterministic",
    "DriverSample",
    "Exponential",
    "LatticeDiscrete",
    "ModulationSpec",
    "SequenceSpec",
    "ShiftedExponential",
    "StationaryPath",
    "Uniform",
    "StepOutcome",
    "advance",
    "advance_lower",
    "advance_upper",
    "ordered",
    "ConditionReport",
    "SupremumBound",
    "estimate_conditions",
    "supremum_bound",
    "CftpResult",
    "ReachableSet",
    "RenovationEvent",
    "RenovationScan",
    "cftp",
    "coalescence_check",
    "detect_renovation",
    "reachable_profile",
    "CrossValidation",
    "Trace",
    "cross_validate",
    "run",
    "BoundReport",
    "bound_report",
    "erlang_b",
    "loss_probability",
    "mm1_wait_tail",
    "ExperimentConfig",
    "RunParams",
    "load_config",
    "parse_config",
]
