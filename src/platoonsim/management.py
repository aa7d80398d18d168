"""Management layer: the (maneuver x role) strategy registry and the
per-vehicle manager that selects maneuvers from triggers and dispatches to
the registered strategy each tick.

Trigger priority is cloud > hardware fault > sensor > peer announce. Only a
hardware fault may preempt a running maneuver; cloud instructions and peer
announces queue until the vehicle is back in Platooning, while sensor events
are re-evaluated fresh each tick and never queued (a stale obstacle event
would misfire after conditions changed). The manager owns the vehicle's TTC
baseline, which it updates every tick and resets whenever a maneuver starts or
completes. It also owns the own faults and silent peers it has reported, so
each one is queued at most once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Collection, Mapping, Optional, Protocol, Sequence

from .comms import PeerView, RadarReading
from .controllers import TriggerKind, TtcMonitor
from .core import (
    CloudInstructionTrigger,
    CompletedTrigger,
    ControllerKind,
    EngineEvent,
    EventKind,
    FaultKind,
    HardwareFaultTrigger,
    IllegalTransition,
    ManeuverState,
    ManeuverTrigger,
    MessageKind,
    ObstacleCutInTrigger,
    ObstacleTtcTrigger,
    PeerAnnounceTrigger,
    PlatoonInfo,
    Role,
    RoleCause,
    V2VMessage,
    VehicleId,
    VehicleState,
    maneuver_transition,
    role_transition,
)
from .params import Parameters


class DuplicateKey(Exception):
    """A strategy is already registered for this (maneuver, role) key."""


class UnknownJoiner(Exception):
    """A JoinFlag arrived from a vehicle the cloud never instructed."""


@dataclass(frozen=True)
class StrategyKey:
    maneuver: ManeuverState
    role: Role


@dataclass(frozen=True)
class ActiveInstruction:
    """Payload of the cloud instruction that launched the active maneuver."""

    maneuver: ManeuverState
    target: VehicleId
    before: Optional[VehicleId] = None  # join-middle: insert ahead of this member


@dataclass
class DriverState:
    """Scripted-driver bookkeeping for a free vehicle: the held speed plus an
    optional staggered restart to platoon speed that also files a join
    request."""

    v_set: float = 0.0
    restart_at: Optional[int] = None


@dataclass
class StrategyContext:
    """Read-only snapshot of everything one vehicle can see this tick, valid
    for one ``step`` call: the engine refills one context per vehicle.

    ``inbox`` holds the non-heartbeat messages delivered to the vehicle this
    tick, in delivery order (read them with :meth:`flags`); heartbeats are
    read through ``peers``, the freshest one from each peer.
    """

    tick: int
    dt: float
    ego_id: VehicleId
    ego: VehicleState
    role: Role
    maneuver: ManeuverState
    reading: RadarReading
    peers: Mapping[VehicleId, PeerView]
    inbox: Sequence[V2VMessage]
    platoon: Optional[PlatoonInfo]
    instruction: Optional[ActiveInstruction]
    params: Parameters
    degradation_enabled: bool = True
    own_faults: frozenset[FaultKind] = frozenset()
    driver: DriverState = field(default_factory=DriverState)

    def flags(self, kind: MessageKind, sender: Optional[VehicleId] = None,
              ) -> list[V2VMessage]:
        return [m for m in self.inbox
                if m.kind is kind and (sender is None or m.sender == sender)]

    def has_flag(self, kind: MessageKind, sender: Optional[VehicleId] = None) -> bool:
        return bool(self.flags(kind, sender))

    def make(self, kind: MessageKind, **payload) -> V2VMessage:
        return V2VMessage(self.ego_id, kind, self.tick, **payload)

    def ticks(self, seconds: float) -> int:
        return self.params.ticks(seconds, self.dt)


@dataclass
class StrategyOutput:
    """What one strategy step decided: a controller selection, outgoing
    messages, an optional platoon update (leader only), an optional role
    change (only together with completion, and only along an edge of the
    role FSM) and notes. A takeover request is a TakeoverRequest message."""

    controller: Optional[ControllerKind] = None  # None holds the previous one
    messages: list[V2VMessage] = field(default_factory=list)
    platoon_update: Optional[PlatoonInfo] = None
    role_change: Optional[Role] = None
    maneuver_done: bool = False
    notes: list[str] = field(default_factory=list)


@dataclass
class StrategyProgress:
    """Resumable wait-state of one maneuver instance; reset on entry."""

    phase: str = "init"
    entered_tick: int = 0
    data: dict = field(default_factory=dict)

    def age(self, tick: int) -> int:
        return tick - self.entered_tick

    def advance(self, phase: str) -> None:
        self.phase = phase


class Strategy(Protocol):
    def step(self, ctx: StrategyContext, progress: StrategyProgress) -> StrategyOutput:
        ...  # pragma: no cover


class StrategyRegistry:
    """The extendable two-dimensional strategy table."""

    def __init__(self) -> None:
        self._entries: dict[StrategyKey, Strategy] = {}

    def register(self, key: StrategyKey, strategy: Strategy) -> "StrategyRegistry":
        if key in self._entries:
            raise DuplicateKey(f"strategy already registered for {key}")
        self._entries[key] = strategy
        return self

    def lookup(self, key: StrategyKey) -> Optional[Strategy]:
        return self._entries.get(key)

    def keys(self) -> tuple[StrategyKey, ...]:
        return tuple(self._entries)


_NONE: frozenset = frozenset()  # no new fault, no newly silent peer


def _same(maneuver: ManeuverState, core: ManeuverState) -> bool:
    return maneuver is core or maneuver == core  # identity first: == builds two tuples


def _role_cause(maneuver: ManeuverState, new_role: Role) -> RoleCause:
    if maneuver in (ManeuverState.JOIN_TAIL, ManeuverState.JOIN_MIDDLE):
        return RoleCause.JOIN_COMPLETED
    if maneuver in (ManeuverState.AEB_HEAD, ManeuverState.AEB_MIDDLE):
        return RoleCause.AEB_COMPLETED
    if maneuver in (ManeuverState.LEAVE_TAIL, ManeuverState.LEAVE_MIDDLE):
        return RoleCause.LEAVE_COMPLETED
    if maneuver == ManeuverState.HARDWARE_FAILURES:
        return RoleCause.TAKEOVER_COMPLETED
    # extensions: derive from the direction of the change
    return RoleCause.JOIN_COMPLETED if new_role is Role.FOLLOWER else RoleCause.LEAVE_COMPLETED


class VehicleManager:
    """One management instance per vehicle. Owns the vehicle's maneuver and
    role state, trigger queues, and strategy dispatch; all cross-vehicle
    interaction goes through the bus."""

    def __init__(self, vid: VehicleId, role: Role, registry: StrategyRegistry,
                 params: Parameters, dt: float) -> None:
        self.vid = vid
        self.role = role
        self.member = role.is_member()  # kept with the role; read every tick
        self.registry = registry
        self.params = params
        self.dt = dt
        self.maneuver = ManeuverState.PLATOONING
        self.progress = StrategyProgress()
        self.active_instruction: Optional[ActiveInstruction] = None
        self._pending_instructions: deque[ActiveInstruction] = deque()
        self._pending_announces: deque[tuple[VehicleId, ManeuverState]] = deque()
        self._pending_faults: deque[tuple[FaultKind, VehicleId]] = deque()
        self.monitor = TtcMonitor(params.ttc)
        self._latched_own: set[FaultKind] = set()
        self._latched_silent: set[VehicleId] = set()
        self._timeout_ticks = params.ticks(params.maneuver_timeout_s, dt)
        # the last hit by (maneuver, role): the registry never replaces an entry
        self._strategy_key: Optional[tuple[ManeuverState, Role]] = None
        self._strategy: Optional[Strategy] = None

    # -- trigger handling ---------------------------------------------------

    def _takes_part(self, instr: ActiveInstruction) -> bool:
        """Members always take part; a free vehicle only as the target."""
        return self.role is not Role.FREE_VEHICLE or instr.target == self.vid

    def offer_instruction(self, instr: ActiveInstruction) -> bool:
        """Queue a cloud instruction the vehicle takes part in."""
        if not self._takes_part(instr):
            return False
        self._pending_instructions.append(instr)
        return True

    def _queue_announces(self, ctx: StrategyContext) -> None:
        for msg in ctx.flags(MessageKind.MANEUVER_ANNOUNCE):
            if msg.maneuver is not None and msg.maneuver != self.maneuver:
                self._pending_announces.append((msg.sender, msg.maneuver))

    def _queue_faults(self, ctx: StrategyContext, new_own: Collection[FaultKind],
                      new_silent: Collection[VehicleId]) -> None:
        """Queue new faults in a fixed order, whatever order they come in;
        they stay queued until consumed so a same-tick cloud instruction
        cannot swallow a failure."""
        if self.role is Role.FOLLOWER:
            # the leader is driver-operated and never degrades itself
            for kind in sorted(new_own, key=lambda k: k.value):
                self._pending_faults.append((kind, self.vid))
        for msg in ctx.flags(MessageKind.FAULT_FLAG):
            if msg.fault is not None:
                self._pending_faults.append((msg.fault, msg.sender))
        for peer in sorted(new_silent):
            self._pending_faults.append((FaultKind.V2V_FAIL, peer))

    def _fault_trigger(self) -> Optional[tuple[HardwareFaultTrigger, dict]]:
        while self._pending_faults:
            kind, faulty = self._pending_faults.popleft()
            if _same(self.maneuver, ManeuverState.HARDWARE_FAILURES):
                continue  # already handling a failure; drop the duplicate
            return HardwareFaultTrigger(kind), {"faulty": faulty}
        return None

    def _select_trigger(self, ttc_result: TriggerKind, in_platooning: bool,
                        ) -> Optional[tuple[ManeuverTrigger, dict]]:
        while in_platooning and self._pending_instructions:
            instr = self._pending_instructions.popleft()
            if self._takes_part(instr):  # else the vehicle turned free since it was queued
                return CloudInstructionTrigger(instr.maneuver), {"instruction": instr}
        if self._pending_faults:
            fault = self._fault_trigger()
            if fault is not None:
                return fault
        if in_platooning and self.member:
            if ttc_result is TriggerKind.AEB:
                return ObstacleTtcTrigger(at_head=self.role is Role.LEADER), {"detector": self.vid}
            if ttc_result is TriggerKind.CUT_IN:
                return ObstacleCutInTrigger(), {"detector": self.vid}
        if in_platooning and self._pending_announces:
            sender, maneuver = self._pending_announces.popleft()
            return PeerAnnounceTrigger(maneuver), {"detector": sender}
        return None

    # -- tick ---------------------------------------------------------------

    def _event(self, tick: int, kind: EventKind, subject: object) -> EngineEvent:
        return EngineEvent(tick, tick * self.dt, self.vid, kind, subject)

    def tick(self, ctx: StrategyContext, silent: frozenset[VehicleId] = _NONE,
             ) -> tuple[StrategyOutput, list[EngineEvent]]:
        """One management step. ``silent`` holds every peer the engine's
        detector finds silent this tick; the own faults are ``ctx.own_faults``."""
        events: list[EngineEvent] = []
        ttc_result = self.monitor.update(ctx.reading)
        new_own = new_silent = _NONE
        if ctx.own_faults or silent:
            # latched even when not queued: a fault seen while free never
            # becomes a trigger after the vehicle joins
            new_own = ctx.own_faults - self._latched_own
            self._latched_own |= new_own
            new_silent = silent - self._latched_silent
            self._latched_silent |= new_silent
        if ctx.inbox and self.member:
            self._queue_announces(ctx)
        if (ctx.inbox or new_own or new_silent) and ctx.degradation_enabled and self.member:
            self._queue_faults(ctx, new_own, new_silent)

        entry_messages: list[V2VMessage] = []
        platooning = _same(self.maneuver, ManeuverState.PLATOONING)
        selected = self._select_trigger(ttc_result, platooning)
        if selected is not None:
            platooning = False  # no trigger starts Platooning
            trigger, data = selected
            self.maneuver = maneuver_transition(self.maneuver, trigger)
            self.progress = StrategyProgress(entered_tick=ctx.tick, data=dict(data))
            self.active_instruction = data.get("instruction")
            self.monitor.reset()
            events.append(self._event(ctx.tick, EventKind.MANEUVER_START, self.maneuver))
            if isinstance(trigger, HardwareFaultTrigger):
                # only an own fault names this vehicle: no FaultFlag or silent peer does
                if data["faulty"] == self.vid:
                    entry_messages.append(ctx.make(MessageKind.FAULT_FLAG, fault=trigger.kind))
            elif isinstance(trigger, (ObstacleTtcTrigger, ObstacleCutInTrigger)):
                # only sensor-detected maneuvers need broadcasting: cloud
                # instructions already reach every vehicle and fault entries
                # are carried by FaultFlag
                entry_messages.append(ctx.make(MessageKind.MANEUVER_ANNOUNCE,
                                               maneuver=self.maneuver))

        ctx.role = self.role
        ctx.maneuver = self.maneuver
        ctx.instruction = self.active_instruction

        key = (self.maneuver, self.role)
        strategy = self._strategy if key == self._strategy_key else None
        if strategy is None:
            strategy = self.registry.lookup(StrategyKey(*key))
            if strategy is not None:
                self._strategy_key, self._strategy = key, strategy
        if strategy is None:
            output = StrategyOutput()  # hold the previous controller
            events.append(self._event(ctx.tick, EventKind.NO_STRATEGY, StrategyKey(*key)))
        else:
            output = strategy.step(ctx, self.progress)

        if entry_messages:
            output.messages = entry_messages + output.messages

        if output.role_change is not None and not output.maneuver_done:
            raise IllegalTransition("role change is only allowed with maneuver completion")

        # liveness bound: abort any maneuver stuck past the timeout
        if (not platooning and not output.maneuver_done
                and self.progress.age(ctx.tick) > self._timeout_ticks):
            output.maneuver_done = True
            output.role_change = None
            events.append(self._event(ctx.tick, EventKind.MANEUVER_TIMEOUT, self.maneuver))

        if output.role_change is not None and output.role_change != self.role:
            cause = _role_cause(self.maneuver, output.role_change)
            new_role = role_transition(self.role, cause)
            if new_role != output.role_change:
                raise IllegalTransition(f"no role edge from {self.role.value} "
                                        f"to {output.role_change.value}")
            self.role = new_role
            self.member = new_role.is_member()
            events.append(self._event(ctx.tick, EventKind.ROLE_CHANGE, self.role))
        if output.maneuver_done and not _same(self.maneuver, ManeuverState.PLATOONING):
            events.append(self._event(ctx.tick, EventKind.MANEUVER_COMPLETE, self.maneuver))
            self.maneuver = maneuver_transition(self.maneuver, CompletedTrigger())
            self.progress = StrategyProgress(entered_tick=ctx.tick)
            self.active_instruction = None
            self.monitor.reset()

        return output, events
