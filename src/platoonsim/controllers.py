"""Control layer: CC / ACC / CACC / AEB longitudinal controllers and the TTC
trigger predicate. Each controller produces one acceleration command per
tick; clamping to actuation limits happens downstream in the dynamics step.

CACC regulates the radar gap with a variable headway time and adds the
predecessor's broadcast speed and acceleration (relative-speed feedback and
feedforward); ACC is radar-only with the enlarged fixed headway; CC is pure
speed tracking for when no distance data can be trusted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .comms import PeerView, RadarReading
from .core import LongitudinalCommand, LongitudinalMode

if TYPE_CHECKING:
    from .params import Parameters


class InvalidReading(Exception):
    """A gap controller was fed an invalid radar reading."""


class StaleData(Exception):
    """CACC was fed a silent predecessor's view that was not zeroed."""


@dataclass(frozen=True)
class SpacingPolicy:
    """Desired-gap policy: gap(v) = d0 + h * v with a variable headway time
    h in [h_min, h_max] around the baseline."""

    d0: float = 3.0
    h_base: float = 0.5
    h_min: float = 0.25
    h_max: float = 0.75
    headway_slope: float = 0.05  # s^2/m, headway shift per m/s of closing

    def __post_init__(self) -> None:
        if not (self.h_min <= self.h_base <= self.h_max):
            raise ValueError("headway baseline must lie within [h_min, h_max]")

    def variable_headway(self, rel_speed: float) -> float:
        """Headway shrinks when the gap is opening (rel_speed > 0) and grows
        toward h_max when closing, bounded to the policy limits."""
        h = self.h_base - self.headway_slope * rel_speed
        return max(self.h_min, min(self.h_max, h))

    def desired_gap(self, v: float, h: float) -> float:
        return self.d0 + h * v


@dataclass(frozen=True)
class GainSet:
    """PID gains on gap error plus relative-speed and feedforward gains."""

    kp: float = 0.45
    ki: float = 0.02
    kd: float = 0.1
    kv: float = 0.6
    ka: float = 0.3
    windup_limit: float = 2.0  # m/s^2 bound on the integral contribution

    def __post_init__(self) -> None:
        if self.kp <= 0:
            raise ValueError("kp must be positive")


@dataclass(frozen=True)
class TtcConfig:
    ttc_threshold: float = 2.0
    min_gap_trigger: float = 5.0

    def __post_init__(self) -> None:
        if self.ttc_threshold <= 0:
            raise ValueError("ttc_threshold must be positive")


@dataclass
class PidState:
    """Integrator and derivative memory for one gap controller instance."""

    integral: float = 0.0
    prev_error: Optional[float] = None

    def reset(self) -> None:
        self.integral = 0.0
        self.prev_error = None

    def step(self, error: float, dt: float, gains: GainSet) -> float:
        self.integral += error * dt
        # anti-windup: bound the integral so its contribution stays in range
        if gains.ki > 0:
            cap = gains.windup_limit / gains.ki
            self.integral = max(-cap, min(cap, self.integral))
        de = 0.0 if self.prev_error is None else (error - self.prev_error) / dt
        self.prev_error = error
        return gains.kp * error + gains.ki * self.integral + gains.kd * de


def cc(ego_v: float, v_set: float, gains: GainSet) -> float:
    """Cruise control: proportional speed tracking toward ``v_set``."""
    if v_set < 0:
        raise ValueError("v_set must be non-negative")
    return gains.kv * (v_set - ego_v)


def acc(reading: RadarReading, ego_v: float, policy: SpacingPolicy,
        gains: GainSet, pid: PidState, dt: float) -> float:
    """Adaptive cruise control on radar only, at the enlarged headway h_max.

    Used whenever the gap should grow (cut-in response, approach phases,
    V2V-degraded following).
    """
    if not reading.valid:
        raise InvalidReading("ACC needs a valid radar reading")
    error = reading.gap - policy.desired_gap(ego_v, policy.h_max)
    return pid.step(error, dt, gains) + gains.kv * reading.rel_speed


def cacc(reading: RadarReading, peer: PeerView, ego_v: float,
         policy: SpacingPolicy, gains: GainSet, pid: PidState, dt: float) -> float:
    """Cooperative ACC: radar gap with variable headway plus the
    predecessor's broadcast speed (relative-speed term) and acceleration
    (feedforward). A silent predecessor's data is stale, unless zeroed."""
    if not reading.valid:
        raise InvalidReading("CACC needs a valid radar reading")
    if peer.silent and not peer.zeroed:
        raise StaleData(f"predecessor heartbeat {peer.age_ticks} ticks old")
    rel_speed = peer.v - ego_v
    h = policy.variable_headway(rel_speed)
    error = reading.gap - policy.desired_gap(ego_v, h)
    return pid.step(error, dt, gains) + gains.kv * rel_speed + gains.ka * peer.a


def aeb(ego_v: float, d_max: float) -> float:
    """Autonomous emergency braking: full deceleration until standstill."""
    return -d_max if ego_v > 0.0 else 0.0


def cap_speed(a_cmd: float, ego_v: float, v_cap: float, gains: GainSet) -> float:
    """Bound an approach command so sustained closing cannot overspeed past
    ``v_cap``; below the cap the command passes through unchanged."""
    return min(a_cmd, gains.kv * (v_cap - ego_v))


def longitudinal_command(command: LongitudinalCommand, reading: RadarReading,
                         ego_v: float, driver_v_set: float,
                         predecessor: Optional[PeerView], params: Parameters,
                         pid_acc: PidState, pid_cacc: PidState, dt: float) -> float:
    """One tick's acceleration command for the selected longitudinal mode.

    The driver mode tracks its set speed but brakes below the simulated
    driver's floor gap. Gap controllers command nothing on an invalid
    reading. CACC falls back to ACC when the predecessor's view is missing
    or silent but not zeroed. ACC and CACC commands are bounded by the
    approach speed cap.
    """
    gains = params.gains
    mode = command.mode
    if mode is LongitudinalMode.AEB:
        return aeb(ego_v, params.limits.d_max)
    if mode is LongitudinalMode.CC:
        v_set = command.v_set if command.v_set is not None else params.platoon_speed
        return cc(ego_v, v_set, gains)
    if mode is LongitudinalMode.DRIVER:
        v_set = command.v_set if command.v_set is not None else driver_v_set
        base = cc(ego_v, v_set, gains)
        floor = params.spacing.d0 + params.driver_headway * ego_v
        if reading.valid and reading.gap < floor:
            braking = gains.kp * (reading.gap - floor) \
                + gains.kv * min(0.0, reading.rel_speed)
            base = min(base, braking)
        return base
    if not reading.valid:
        return 0.0
    cmd: Optional[float] = None
    if mode is LongitudinalMode.CACC and predecessor is not None:
        try:
            cmd = cacc(reading, predecessor, ego_v, params.spacing, gains, pid_cacc, dt)
        except StaleData:
            pass
    if cmd is None:
        cmd = acc(reading, ego_v, params.spacing, gains, pid_acc, dt)
    return cap_speed(cmd, ego_v, params.approach_speed_cap, gains)


# ---------------------------------------------------------------------------
# TTC trigger
# ---------------------------------------------------------------------------

class TriggerKind(enum.Enum):
    NONE = "None"
    CUT_IN = "CutIn"
    AEB = "AebTrigger"


def ttc_trigger(reading: RadarReading, prev: Optional[RadarReading],
                cfg: TtcConfig) -> TriggerKind:
    """Classify a radar reading against the previous one.

    Fires only when a new in-lane target appeared (different identity,
    closer than what was tracked before). The new target is an emergency
    (AEB) when its time-to-collision gap/closing is at or below the
    threshold or the gap is already below the minimum; otherwise it is a
    negotiation-free cut-in.
    """
    if not reading.valid or reading.target is None:
        return TriggerKind.NONE
    if prev is None:
        return TriggerKind.NONE  # first reading only establishes the baseline
    if reading.target == prev.target:
        return TriggerKind.NONE
    if reading.gap >= prev.gap:
        return TriggerKind.NONE  # the old target left; nothing cut in
    closing = -reading.rel_speed
    if reading.gap <= cfg.min_gap_trigger:
        return TriggerKind.AEB
    if closing > 0.0 and reading.gap / closing <= cfg.ttc_threshold:
        return TriggerKind.AEB
    return TriggerKind.CUT_IN


class TtcMonitor:
    """Per-vehicle stateful wrapper around ttc_trigger.

    The baseline resets on every maneuver entry and exit so expected target
    changes (a joiner inserting ahead, an intruder cutting out) never
    register as fresh obstacles.
    """

    def __init__(self, cfg: TtcConfig) -> None:
        self.cfg = cfg
        self._prev: Optional[RadarReading] = None

    def reset(self) -> None:
        self._prev = None

    def update(self, reading: RadarReading) -> TriggerKind:
        result = ttc_trigger(reading, self._prev, self.cfg)
        self._prev = reading if reading.valid else None
        return result
