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
from .kernel import StepOutcome, advance
from .loynes import SupremumBound, certified_supremum
from .coupling import (
    CftpResult,
    ReachableSet,
    RenovationEvent,
    RenovationScan,
    cftp,
    detect_renovation,
    reachable_profile,
)
from .des import CrossValidation, Trace, cross_validate, run
from .metrics import (
    BoundReport,
    bound_report,
    loss_probability,
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
    "SupremumBound",
    "certified_supremum",
    "CftpResult",
    "ReachableSet",
    "RenovationEvent",
    "RenovationScan",
    "cftp",
    "detect_renovation",
    "reachable_profile",
    "CrossValidation",
    "Trace",
    "cross_validate",
    "run",
    "BoundReport",
    "bound_report",
    "loss_probability",
    "ExperimentConfig",
    "RunParams",
    "load_config",
    "parse_config",
]
