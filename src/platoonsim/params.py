"""Run-wide parameter block shared by the management layer and the engine.

Every field is overridable from a scenario file; defaults reproduce the
reference setup (20 m/s highway platoon, 0.05 s tick).
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field
from typing import Any, Callable

from .comms import BusConfig
from .controllers import GainSet, SpacingPolicy, TtcConfig
from .dynamics import DynamicsLimits, LaneGeometry


def _bounded(bound: str) -> Callable[..., Any]:
    """Factory of dataclass fields whose value in a scenario file must be ``bound``."""
    return lambda default=MISSING: field(default=default, metadata={"bound": bound})


positive, non_negative = _bounded("positive"), _bounded("non-negative")


@dataclass(frozen=True)
class Parameters:
    limits: DynamicsLimits = field(default_factory=DynamicsLimits)
    geometry: LaneGeometry = field(default_factory=LaneGeometry)
    bus: BusConfig = field(default_factory=BusConfig)
    spacing: SpacingPolicy = field(default_factory=SpacingPolicy)
    gains: GainSet = field(default_factory=GainSet)
    ttc: TtcConfig = field(default_factory=TtcConfig)

    platoon_speed: float = positive(20.0)          # m/s cruise setpoint for the leader
    radar_max_range: float = positive(200.0)       # m
    vehicle_width: float = positive(2.0)           # m, for collision / lateral overlap
    vehicle_length: float = positive(5.0)          # m
    heartbeat_timeout_s: float = positive(0.5)     # peer-failure detection latency
    join_gap: float = non_negative(30.0)           # m, JoinFlag / evade threshold
    evade_speed: float = non_negative(15.0)        # m/s while opening a join gap
    aeb_middle_wait_speed: float = non_negative(10.0)  # m/s for members ahead of the trigger
    cc_fault_speed_drop: float = non_negative(2.0)     # m/s below speed-at-failure for CC
    takeover_delay_s: float = non_negative(3.0)    # driver reaction after a request
    restart_stagger_s: float = non_negative(1.0)   # per-vehicle restart spacing post-AEB
    join_service_delay_s: float = non_negative(1.0)  # cloud answer delay for JoinRequests
    maneuver_timeout_s: float = positive(60.0)     # liveness bound on any wait state
    obstacle_clear_range: float = non_negative(60.0)  # m, in-lane gap treated as "gone"
    approach_speed_cap: float = non_negative(28.0)  # m/s bound during catch-up phases
    driver_headway: float = non_negative(0.3)      # s, simulated-driver braking floor

    def ticks(self, seconds: float, dt: float) -> int:
        return max(1, round(seconds / dt))
