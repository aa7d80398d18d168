"""Cloud-based decision layer, reduced to a deterministic scripted driver.

The cloud issues the scenario's leaves at their scripted times, to members
of the leader's platoon only. Scripted joins and answered JoinRequests share
one first-in, first-out queue: a scripted join is filed due at its event
time, a JoinRequest as a tail join due a fixed service delay after it was
sent, unless its sender is already filed or in the platoon. The queue's head
is issued once it is due and no join is outstanding, and a join stays
outstanding until its target shows up in the leader's platoon. A due head
whose target is a member by then is dropped, as is one placed before a
non-member. Every drop is reported with its reason. Instructions are
omniscient and lossless: they bypass the V2V fault model entirely.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .core import (
    LANE_CENTER,
    LateralCommand,
    LateralMode,
    ManeuverState,
    MessageKind,
    PlatoonInfo,
    V2VMessage,
    VehicleId,
    VehicleState,
)
from .management import ActiveInstruction
from .params import Parameters
from .scenario import (
    CutInEvent,
    FaultEvent,
    JoinEvent,
    LeaveEvent,
    ScenarioSpec,
)


@dataclass
class CloudOutput:
    instructions: list[ActiveInstruction] = field(default_factory=list)
    spawns: list[CutInEvent] = field(default_factory=list)
    faults: list[FaultEvent] = field(default_factory=list)
    drops: list[tuple[VehicleId, str]] = field(default_factory=list)  # (target, why)


class Cloud:
    """Scripted instruction issuer plus JoinRequest service."""

    def __init__(self, spec: ScenarioSpec, params: Parameters, dt: float) -> None:
        self.params = params
        self.dt = dt
        self._events = list(spec.events)
        self._next_event = 0
        # filed joins in filing order, each as (due tick, instruction)
        self._joins: deque[tuple[int, ActiveInstruction]] = deque()
        self._outstanding: Optional[VehicleId] = None

    def _file_join(self, due: int, target: VehicleId,
                   before: Optional[VehicleId]) -> None:
        maneuver = ManeuverState.JOIN_TAIL if before is None else ManeuverState.JOIN_MIDDLE
        self._joins.append((due, ActiveInstruction(maneuver=maneuver, target=target,
                                                   before=before)))

    def tick(self, tick: int, uplink: Sequence[V2VMessage],
             leader_platoon: Optional[PlatoonInfo]) -> CloudOutput:
        out = CloudOutput()
        now = tick * self.dt + 1e-9
        members = leader_platoon.id_series if leader_platoon is not None else ()

        # a join closes once its target shows up in the leader's platoon
        if self._outstanding is not None and self._outstanding in members:
            self._outstanding = None

        # file join requests (each answered at most once)
        delay = self.params.ticks(self.params.join_service_delay_s, self.dt)
        for msg in uplink:
            if (msg.kind is MessageKind.JOIN_REQUEST and msg.sender not in members
                    and msg.sender != self._outstanding
                    and all(instr.target != msg.sender for _, instr in self._joins)):
                self._file_join(msg.tick_sent + delay, msg.sender, None)

        # scripted events whose time has come
        while self._next_event < len(self._events) and \
                self._events[self._next_event].t <= now:
            event = self._events[self._next_event]
            self._next_event += 1
            if isinstance(event, JoinEvent):
                self._file_join(tick, event.target, event.before)
            elif isinstance(event, LeaveEvent) and event.target not in members:
                out.drops.append((event.target, "leave dropped: not a platoon member"))
            elif isinstance(event, LeaveEvent):
                at_tail = members[-1] == event.target
                out.instructions.append(ActiveInstruction(
                    maneuver=ManeuverState.LEAVE_TAIL if at_tail else ManeuverState.LEAVE_MIDDLE,
                    target=event.target))
            elif isinstance(event, CutInEvent):
                out.spawns.append(event)
            elif isinstance(event, FaultEvent):
                out.faults.append(event)

        # issue the first filed join once it is due and none is outstanding,
        # dropping those whose target is a member by now or whose place is not
        while self._outstanding is None and self._joins and tick >= self._joins[0][0]:
            _, instr = self._joins.popleft()
            why = ("already a platoon member" if instr.target in members
                   else f"v{instr.before} is not a platoon member"
                   if instr.before is not None and instr.before not in members else None)
            if why is not None:
                out.drops.append((instr.target, f"{instr.maneuver.name} dropped: {why}"))
                continue
            out.instructions.append(instr)
            self._outstanding = instr.target
        return out


# ---------------------------------------------------------------------------
# Scripted cut-in intruder
# ---------------------------------------------------------------------------

class IntruderScript:
    """Open-loop behavior of a cut-in vehicle.

    The intruder spawns in an adjacent lane so that its bumper gap ahead of
    the target equals ``s_offset`` at the moment it crosses the lane
    boundary. A TTC-satisfying intruder then brakes to standstill and holds;
    otherwise it cruises. After ``duration`` seconds in-lane it cuts back
    out, accelerating away.
    """

    WAITING = "waiting"
    ENTERING = "entering"
    HOLDING = "holding"
    EXITING = "exiting"
    GONE = "gone"

    def __init__(self, event: CutInEvent, params: Parameters, dt: float) -> None:
        self.event = event
        self.params = params
        self.dt = dt
        self.phase = self.WAITING
        self.origin_lane = event.lane
        self.platoon_lane: Optional[int] = None
        self.crossed_tick: Optional[int] = None
        self.speed_delta = event.speed_delta if event.speed_delta is not None \
            else (10.0 if event.ttc_satisfying else 0.0)

    def spawn_state(self, target: VehicleState, length: float) -> VehicleState:
        """Initial kinematics at the event time, placed so the gap at lane
        entry matches the scripted offset."""
        if abs(self.origin_lane - target.lane) != 1:
            raise ValueError(
                f"cut-in lane {self.origin_lane} not adjacent to the target's "
                f"lane {target.lane} at spawn time")
        t_cross = self.params.geometry.lane_change_duration / 2.0
        v_i = max(0.0, target.v - self.speed_delta)
        spawn_s = target.s + self.event.s_offset + length + \
            (target.v - v_i) * t_cross
        self.platoon_lane = target.lane
        self.phase = self.ENTERING
        return VehicleState(s=spawn_s, lane=self.origin_lane, v=v_i, length=length)

    def step(self, tick: int, state: VehicleState,
             ) -> tuple[float, LateralCommand]:
        geom = self.params.geometry
        assert self.platoon_lane is not None
        if self.phase == self.ENTERING:
            lateral = LateralCommand(LateralMode.LANE_CHANGE, self.platoon_lane)
            crossed = (state.lane == self.platoon_lane
                       or abs(state.lateral_offset) >= geom.lane_width / 2.0)
            if crossed and self.crossed_tick is None:
                self.crossed_tick = tick
            if state.lane == self.platoon_lane and state.lateral_offset == 0.0:
                self.phase = self.HOLDING
            a_cmd = self._hold_accel(state) if self.crossed_tick is not None else 0.0
            return a_cmd, lateral

        if self.phase == self.HOLDING:
            assert self.crossed_tick is not None
            hold_ticks = self.params.ticks(self.event.duration, self.dt)
            if tick - self.crossed_tick >= hold_ticks:
                self.phase = self.EXITING
                return self.params.limits.a_max, LateralCommand(
                    LateralMode.LANE_CHANGE, self.origin_lane)
            return self._hold_accel(state), LANE_CENTER

        if self.phase == self.EXITING:
            if state.lane == self.origin_lane and state.lateral_offset == 0.0:
                self.phase = self.GONE
                return 0.0, LANE_CENTER
            a_cmd = self.params.limits.a_max if state.v < self.params.approach_speed_cap \
                else 0.0
            return a_cmd, LateralCommand(LateralMode.LANE_CHANGE, self.origin_lane)

        return 0.0, LANE_CENTER

    def _hold_accel(self, state: VehicleState) -> float:
        if self.event.ttc_satisfying and state.v > 0.0:
            return -self.params.limits.d_max
        return 0.0
