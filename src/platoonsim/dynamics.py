"""Physical layer: point-mass longitudinal dynamics, kinematic lane changes
and collision detection. All functions are pure over state snapshots; the
engine steps vehicles one tick at a time in any order.

A :class:`Snapshot` holds one tick's states together with their order by
``(rear, id)``, sorted once on first use; radar and collision detection walk
that order instead of scanning every pair of vehicles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .core import (
    LateralCommand,
    LateralMode,
    VehicleId,
    VehicleState,
)

G = 9.81  # m/s^2


class InvalidLane(Exception):
    """Raised for a lane-change command to an out-of-range or non-adjacent lane."""


@dataclass(frozen=True)
class DynamicsLimits:
    """Actuation bounds. Commands are clamped, never rejected."""

    a_max: float = 0.30 * G
    d_max: float = 1.00 * G

    def __post_init__(self) -> None:
        if self.a_max <= 0 or self.d_max <= 0:
            raise ValueError("acceleration bounds must be positive")

    def clamp(self, a_cmd: float) -> float:
        return max(-self.d_max, min(self.a_max, a_cmd))


@dataclass(frozen=True)
class LaneGeometry:
    lane_count: int = 3
    lane_width: float = 3.5
    lane_change_duration: float = 3.0

    def __post_init__(self) -> None:
        if self.lane_count < 1:
            raise ValueError("lane_count must be at least 1")
        if self.lane_width <= 0 or self.lane_change_duration <= 0:
            raise ValueError("lane_width and lane_change_duration must be positive")

    def center(self, lane: int) -> float:
        return lane * self.lane_width


def lateral_position(state: VehicleState, geom: LaneGeometry) -> float:
    """Absolute lateral position of the vehicle center (m)."""
    return geom.center(state.lane) + state.lateral_offset


def step_longitudinal(state: VehicleState, a_cmd: float, limits: DynamicsLimits,
                      dt: float) -> VehicleState:
    """Advance position and speed by one Euler step of length ``dt``.

    The command is clamped to the actuation bounds. Speed never goes
    negative: if braking would cross zero inside the step, the vehicle
    travels exactly to its stopping point and holds at standstill.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    a = limits.clamp(a_cmd)
    s, v = state.s, state.v
    v_next = v + a * dt
    if v <= 0.0 and a <= 0.0:
        v_next, a = 0.0, 0.0
    elif v_next < 0.0:
        # partial step up to the standstill instant, exact for constant a
        t_stop = v / -a
        s, v_next = s + v * t_stop + 0.5 * a * t_stop * t_stop, 0.0
    else:
        s = s + v * dt + 0.5 * a * dt * dt
    # every branch leaves v_next >= 0, so the constructor's speed check is skipped
    return tuple.__new__(VehicleState, (s, state.lane, v_next, a, state.lateral_offset,
                                        state.length))


def step_lateral(state: VehicleState, lateral_cmd: LateralCommand,
                 geom: LaneGeometry, dt: float) -> VehicleState:
    """Advance the lateral state by one tick.

    LaneCenter decays the in-lane offset linearly back to the lane center.
    LaneChange moves the offset toward the adjacent target lane at
    lane_width / lane_change_duration; on arrival the lane index is updated
    and the offset reset.
    """
    if lateral_cmd.mode is LateralMode.LANE_CENTER:
        off = state.lateral_offset
        if off == 0.0:
            return state
        step = geom.lane_width / geom.lane_change_duration * dt
        off = 0.0 if abs(off) <= step else off - step if off > 0 else off + step
        return VehicleState(state.s, state.lane, state.v, state.a, off, state.length)

    target = lateral_cmd.target_lane
    assert target is not None
    if target < 0 or target >= geom.lane_count:
        raise InvalidLane(f"lane {target} outside [0, {geom.lane_count})")
    if target == state.lane:
        # change already completed; settle on the center
        return step_lateral(state, LateralCommand(LateralMode.LANE_CENTER), geom, dt)
    if abs(target - state.lane) != 1:
        raise InvalidLane(f"lane {target} not adjacent to lane {state.lane}")

    direction = 1.0 if target > state.lane else -1.0
    off = state.lateral_offset + direction * (geom.lane_width / geom.lane_change_duration) * dt
    if abs(off) >= geom.lane_width:
        return VehicleState(state.s, target, state.v, state.a, 0.0, state.length)
    return VehicleState(state.s, state.lane, state.v, state.a, off, state.length)


class Snapshot(dict[VehicleId, VehicleState]):
    """The states of one tick by vehicle id. :meth:`by_rear` keeps their
    sweep for one lane geometry: the vehicles ordered by ``(rear, id)``,
    their rears alone and their lateral positions. A snapshot must not be
    modified once it has been swept."""

    _sweep: Optional[tuple] = None  # (geometry, sweep)

    @staticmethod
    def by_rear(states: Mapping[VehicleId, VehicleState], geom: LaneGeometry,
                ) -> tuple[list[tuple[float, VehicleId, VehicleState]], list[float], list[float]]:
        """The sweep of ``states``, built once per snapshot and geometry."""
        snap = states if type(states) is Snapshot else Snapshot(states)
        if snap._sweep is None or snap._sweep[0] is not geom:
            # st[0] - st[5] is s - length (the rear); st[1] * lane_width + st[4] is
            # lane * lane_width + lateral_offset (the lateral position)
            order = sorted([(st[0] - st[5], vid, st) for vid, st in snap.items()])
            snap._sweep = (geom, (order, [rear for rear, _, _ in order],
                                  [st[1] * geom.lane_width + st[4] for _, _, st in order]))
        return snap._sweep[1]


def detect_collisions(states: Mapping[VehicleId, VehicleState], geom: LaneGeometry,
                      vehicle_width: float) -> list[tuple[VehicleId, VehicleId]]:
    """Report vehicle pairs whose bodies overlap, as id-sorted (low, high).

    A pair collides when their longitudinal intervals [s - length, s]
    overlap and their lateral overlap exceeds half a vehicle width. The
    sweep walks the ``(rear, id)`` order: from each vehicle it visits the
    later ones in that order only while their rear lies behind its front;
    once one does not, no later one can overlap it. Both predicates are
    symmetric in the pair, so each pair is tested once, with the same
    floats as an all-pairs scan. The result is sorted and has no
    duplicates, so it is deterministic.
    """
    order, rears, lateral = Snapshot.by_rear(states, geom)
    hits: list[tuple[VehicleId, VehicleId]] = []
    for i, (rear_a, a, sa) in enumerate(order):
        for j in range(i + 1, len(order)):
            if rears[j] >= sa.s:
                break  # no longitudinal overlap from here on
            _, b, sb = order[j]
            if rear_a >= sb.s:
                continue
            if abs(lateral[i] - lateral[j]) >= vehicle_width / 2.0:
                continue
            hits.append((a, b) if a < b else (b, a))
    hits.sort()
    return hits


def stopping_distance(v: float, decel: float) -> float:
    """Closed-form distance to standstill under constant deceleration."""
    return v * v / (2.0 * decel)
