"""Deterministic discrete-time simulator of cooperative vehicle platoons.

Every simulated vehicle runs a five-layer control stack (cloud decision,
communication, management, control, physical) with an extendable
two-dimensional (maneuver x role) management framework and fault-tolerant
functionality degradation for V2V and radar failures.
"""

from .core import (
    ControllerKind,
    EventKind,
    FaultKind,
    IllegalTransition,
    ManeuverState,
    MessageKind,
    PlatoonInfo,
    Role,
    RoleCause,
    V2VMessage,
    VehicleState,
    maneuver_transition,
    role_transition,
)
from .engine import RunReport, Simulator, TickError, Trace, first_difference
from .management import (
    StrategyContext,
    StrategyKey,
    StrategyOutput,
    StrategyProgress,
    StrategyRegistry,
)
from .params import Parameters
from .scenario import ScenarioSpec, SpecError, load_scenario
from .strategies import default_registry

__all__ = [
    "ControllerKind",
    "EventKind",
    "FaultKind",
    "IllegalTransition",
    "ManeuverState",
    "MessageKind",
    "Parameters",
    "PlatoonInfo",
    "Role",
    "RoleCause",
    "RunReport",
    "ScenarioSpec",
    "Simulator",
    "SpecError",
    "StrategyContext",
    "StrategyKey",
    "StrategyOutput",
    "StrategyProgress",
    "StrategyRegistry",
    "TickError",
    "Trace",
    "V2VMessage",
    "VehicleState",
    "default_registry",
    "first_difference",
    "load_scenario",
    "maneuver_transition",
    "role_transition",
]

__version__ = "0.1.0"
