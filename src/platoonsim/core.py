"""Shared domain types of every layer: vehicle state, roles, maneuvers, messages,
run events (one vocabulary: :class:`EventKind`) and the two selection FSMs.

All types here are immutable values; the transition functions are pure and
total over their trigger vocabulary (every pair either maps to a state or
raises :class:`IllegalTransition`).

:class:`VehicleState` and :class:`V2VMessage`, built for every vehicle every
tick, are NamedTuples rather than frozen dataclasses: they build in about a
third of the time, and no field can be assigned either. They compare as
tuples, so a record equals any tuple with the same values; no code compares
one with a value of another type. The tick builds its per-vehicle records
(the stepped state, the heartbeat, the valid ``RadarReading``, the live
``PeerView``) as ``tuple.__new__(Cls, (every field))``: at under half the
cost of the NamedTuple's Python-level ``__new__``, but filling no defaults.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, ClassVar, NamedTuple, Optional, Union

VehicleId = int


class IllegalTransition(Exception):
    """Raised when a (state, trigger) pair is not an edge of the FSM."""


# ---------------------------------------------------------------------------
# Roles
# ---------------------------------------------------------------------------

class Role(enum.Enum):
    """Platoon role of a vehicle. Exactly one role is active at a time."""

    FREE_VEHICLE = "FreeVehicle"
    LEADER = "Leader"
    FOLLOWER = "Follower"

    def is_member(self) -> bool:
        return self is not Role.FREE_VEHICLE


class RoleCause(enum.Enum):
    """Completed-maneuver outcomes that may change a vehicle's role."""

    JOIN_COMPLETED = "JoinCompleted"
    AEB_COMPLETED = "AebCompleted"
    LEAVE_COMPLETED = "LeaveCompleted"
    TAKEOVER_COMPLETED = "TakeoverCompleted"


_ROLE_EDGES: dict[tuple[Role, RoleCause], Role] = {
    (Role.FREE_VEHICLE, RoleCause.JOIN_COMPLETED): Role.FOLLOWER,
    (Role.FOLLOWER, RoleCause.AEB_COMPLETED): Role.FREE_VEHICLE,
    (Role.FOLLOWER, RoleCause.LEAVE_COMPLETED): Role.FREE_VEHICLE,
    (Role.FOLLOWER, RoleCause.TAKEOVER_COMPLETED): Role.FREE_VEHICLE,
}


def role_transition(current: Role, cause: RoleCause) -> Role:
    """Return the role reached from ``current`` by the completed maneuver.

    Only the solid in-scope edges are implemented; anything else (including
    every leader transition) raises IllegalTransition.
    """
    try:
        return _ROLE_EDGES[(current, cause)]
    except KeyError:
        raise IllegalTransition(f"no role edge for ({current.value}, {cause.value})") from None


# ---------------------------------------------------------------------------
# Maneuvers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False, init=False, slots=True)
class ManeuverState:
    """One maneuver of the two-dimensional (maneuver x role) framework.

    A maneuver is declared once, so it compares and hashes by identity:
    ``ManeuverState(name)``, ``copy``, ``deepcopy`` and ``pickle`` return
    the declared object. ``cause`` names the role edge that completing it
    may take; with None it takes none. Besides the fixed core, :meth:`extension`
    declares new maneuvers without touching this module. A name may not hold
    a comma, a double quote or a line break: no trace.csv cell needs quotes.
    """

    name: str
    cause: Optional[RoleCause]

    _declared: ClassVar[dict[str, ManeuverState]] = {}
    CORE: ClassVar[tuple[ManeuverState, ...]]
    PLATOONING: ClassVar[ManeuverState]
    JOIN_TAIL: ClassVar[ManeuverState]
    JOIN_MIDDLE: ClassVar[ManeuverState]
    LEAVE_TAIL: ClassVar[ManeuverState]
    LEAVE_MIDDLE: ClassVar[ManeuverState]
    AEB_HEAD: ClassVar[ManeuverState]
    AEB_MIDDLE: ClassVar[ManeuverState]
    CUT_IN: ClassVar[ManeuverState]
    HARDWARE_FAILURES: ClassVar[ManeuverState]

    def __new__(cls, name: str) -> ManeuverState:
        if name not in cls._declared:
            raise ValueError(f"no maneuver is declared as {name!r}")
        return cls._declared[name]

    @classmethod
    def _declare(cls, name: str, cause: Optional[RoleCause]) -> ManeuverState:
        if any(c in name for c in ',"\r\n'):
            raise ValueError(f"maneuver name {name!r} holds a comma, a quote or a line break")
        maneuver = object.__new__(cls)
        object.__setattr__(maneuver, "name", name)
        object.__setattr__(maneuver, "cause", cause)
        cls._declared[name] = maneuver
        return maneuver

    @classmethod
    def extension(cls, name: str, cause: Optional[RoleCause] = None) -> ManeuverState:
        """Declare the extension ``name``; again with the same cause, return it."""
        declared = cls._declared.get(name)
        if declared is None:
            return cls._declare(name, cause)
        if not declared.is_extension:
            raise ValueError(f"{name!r} is a core maneuver, not an extension")
        if declared.cause is not cause:
            raise ValueError(f"{name!r} is already declared with cause {declared.cause}")
        return declared

    @property
    def is_extension(self) -> bool:
        return self not in ManeuverState.CORE

    def __reduce__(self) -> tuple[type, tuple[str]]:
        return ManeuverState, (self.name,)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


for _attr, _name, _cause in (  # class attribute, name, role edge of completion
        ("PLATOONING", "Platooning", None),
        ("JOIN_TAIL", "JoinTail", RoleCause.JOIN_COMPLETED),
        ("JOIN_MIDDLE", "JoinMiddle", RoleCause.JOIN_COMPLETED),
        ("LEAVE_TAIL", "LeaveTail", RoleCause.LEAVE_COMPLETED),
        ("LEAVE_MIDDLE", "LeaveMiddle", RoleCause.LEAVE_COMPLETED),
        ("AEB_HEAD", "AEBHead", RoleCause.AEB_COMPLETED),
        ("AEB_MIDDLE", "AEBMiddle", RoleCause.AEB_COMPLETED),
        ("CUT_IN", "CutIn", None),
        ("HARDWARE_FAILURES", "HardwareFailures", RoleCause.TAKEOVER_COMPLETED)):
    setattr(ManeuverState, _attr, ManeuverState._declare(_name, _cause))
ManeuverState.CORE = tuple(ManeuverState._declared.values())  # no extension is declared yet


# ---------------------------------------------------------------------------
# Maneuver triggers
# ---------------------------------------------------------------------------

class FaultKind(enum.Enum):
    """Permanent hardware failures; faults never clear once injected."""

    RADAR_FAIL = "RadarFail"
    V2V_FAIL = "V2VFail"


@dataclass(frozen=True)
class CloudInstructionTrigger:
    """Cloud layer mandated a maneuver (join/leave or extension)."""

    maneuver: ManeuverState


@dataclass(frozen=True)
class ObstacleTtcTrigger:
    """A new in-lane obstacle met the TTC condition; ``at_head`` when the
    detecting vehicle is the platoon leader."""

    at_head: bool


@dataclass(frozen=True)
class ObstacleCutInTrigger:
    """A new in-lane target appeared without meeting the TTC condition."""


@dataclass(frozen=True)
class HardwareFaultTrigger:
    """A hardware failure was detected (own device, FaultFlag, or a silent
    peer). The only trigger allowed to preempt a running maneuver."""

    kind: FaultKind


@dataclass(frozen=True)
class PeerAnnounceTrigger:
    """Another platoon member broadcast its maneuver selection."""

    maneuver: ManeuverState


@dataclass(frozen=True)
class CompletedTrigger:
    """The active maneuver finished; the vehicle returns to platooning."""


ManeuverTrigger = Union[
    CloudInstructionTrigger,
    ObstacleTtcTrigger,
    ObstacleCutInTrigger,
    HardwareFaultTrigger,
    PeerAnnounceTrigger,
    CompletedTrigger,
]


def _mandated_maneuver(trigger: ManeuverTrigger) -> ManeuverState:
    if isinstance(trigger, CloudInstructionTrigger):
        return trigger.maneuver
    if isinstance(trigger, PeerAnnounceTrigger):
        return trigger.maneuver
    if isinstance(trigger, ObstacleTtcTrigger):
        return ManeuverState.AEB_HEAD if trigger.at_head else ManeuverState.AEB_MIDDLE
    if isinstance(trigger, ObstacleCutInTrigger):
        return ManeuverState.CUT_IN
    raise TypeError(f"not a maneuver-starting trigger: {trigger!r}")


def maneuver_transition(current: ManeuverState, trigger: ManeuverTrigger) -> ManeuverState:
    """Pure maneuver-selection step.

    From Platooning every trigger starts its mandated maneuver; Completed
    returns any active maneuver to Platooning; a running maneuver rejects
    everything else except a hardware fault, which preempts it.
    """
    if isinstance(trigger, CompletedTrigger):
        if current is ManeuverState.PLATOONING:
            raise IllegalTransition("Platooning is not a completable maneuver")
        return ManeuverState.PLATOONING

    if isinstance(trigger, HardwareFaultTrigger):
        return ManeuverState.HARDWARE_FAILURES

    mandated = _mandated_maneuver(trigger)
    if mandated is ManeuverState.PLATOONING:
        raise IllegalTransition("Platooning cannot be mandated by a trigger")
    if current is not ManeuverState.PLATOONING:
        raise IllegalTransition(
            f"maneuver {current.name} is exclusive; {type(trigger).__name__} rejected"
        )
    return mandated


# ---------------------------------------------------------------------------
# Kinematic state and controller selection
# ---------------------------------------------------------------------------

class _VehicleFields(NamedTuple):
    s: float
    lane: int
    v: float
    a: float = 0.0
    lateral_offset: float = 0.0
    length: float = 5.0


class VehicleState(_VehicleFields):
    """Kinematic truth of one vehicle.

    ``s`` is the front-bumper position on a monotone road coordinate (m);
    ``lane`` is a 0-based index (0 = rightmost); ``lateral_offset`` is the
    offset from the current lane center (m, positive toward higher lanes).

    A NamedTuple that compares as the tuple of its fields. The constructor
    rejects a negative speed; ``_replace`` and ``_make`` build the tuple
    without that check, so no code in this package calls them on a
    VehicleState. ``step_longitudinal`` builds its state with
    ``tuple.__new__`` and skips the check too: it holds a stopping vehicle at
    0.0 and otherwise steps to ``v + a * dt >= 0``, so the check cannot fire.
    """

    __slots__ = ()

    def __new__(cls, s: float, lane: int, v: float, a: float = 0.0,
                lateral_offset: float = 0.0, length: float = 5.0) -> "VehicleState":
        if v < 0:
            raise ValueError("speed must be non-negative")
        return tuple.__new__(cls, (s, lane, v, a, lateral_offset, length))

    @property
    def rear(self) -> float:
        return self.s - self.length


class LongitudinalMode(enum.Enum):
    CC = "CC"
    ACC = "ACC"
    CACC = "CACC"
    AEB = "AEB"
    DRIVER = "Driver"


@dataclass(frozen=True)
class LongitudinalCommand:
    mode: LongitudinalMode
    v_set: Optional[float] = None  # used by CC and Driver


class LateralMode(enum.Enum):
    LANE_CENTER = "LaneCenter"
    LANE_CHANGE = "LaneChange"


@dataclass(frozen=True)
class LateralCommand:
    mode: LateralMode
    target_lane: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode is LateralMode.LANE_CHANGE and self.target_lane is None:
            raise ValueError("LaneChange requires a target lane")


LANE_CENTER = LateralCommand(LateralMode.LANE_CENTER)


@dataclass(frozen=True)
class ControllerKind:
    """Controller pair selected by the management layer for one tick."""

    longitudinal: LongitudinalCommand
    lateral: LateralCommand = LANE_CENTER


# ---------------------------------------------------------------------------
# Platoon metadata, V2V messages and run events
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlatoonInfo:
    """Leader-maintained ordered member ids (head = leader); the platoon's
    size is their count.

    The leader's copy is authoritative; every other vehicle copies it from
    the declared leader's latest heartbeat, so theirs may be stale.
    """

    id_series: tuple[VehicleId, ...]

    def __post_init__(self) -> None:
        if len(set(self.id_series)) != len(self.id_series):
            raise ValueError("id_series must not repeat ids")

    def insert_before(self, joiner: VehicleId, member: VehicleId) -> "PlatoonInfo":
        idx = self.id_series.index(member)
        return PlatoonInfo(self.id_series[:idx] + (joiner,) + self.id_series[idx:])

    def append_tail(self, joiner: VehicleId) -> "PlatoonInfo":
        return PlatoonInfo(self.id_series + (joiner,))

    def remove(self, vid: VehicleId) -> "PlatoonInfo":
        return PlatoonInfo(tuple(i for i in self.id_series if i != vid))

    def truncate_from(self, vid: VehicleId) -> "PlatoonInfo":
        """Drop ``vid`` and every member behind it."""
        return PlatoonInfo(self.id_series[:self.id_series.index(vid)])


class MessageKind(enum.Enum):
    """Tagged V2V message vocabulary. The order of the members means
    nothing: the bus delivers in send order, grouped by sender."""

    HEARTBEAT = "Heartbeat"
    JOIN_FLAG = "JoinFlag"
    UPDATE_FLAG = "UpdateFlag"
    EVADE_FLAG = "EvadeFlag"
    SAFE_FLAG = "SafeFlag"
    FAULT_FLAG = "FaultFlag"
    MANEUVER_ANNOUNCE = "ManeuverAnnounce"
    JOIN_REQUEST = "JoinRequest"
    TAKEOVER_REQUEST = "TakeoverRequest"


class V2VMessage(NamedTuple):
    """One broadcast message. Every message carries its sender and send tick;
    payload fields are populated per kind (heartbeats carry kinematics, role
    and the sender's platoon replica; FaultFlag carries the fault kind).
    A NamedTuple: it compares as the tuple of its fields."""

    sender: VehicleId
    kind: MessageKind
    tick_sent: int
    state: Optional[VehicleState] = None
    role: Optional[Role] = None
    platoon: Optional[PlatoonInfo] = None
    fault: Optional[FaultKind] = None
    maneuver: Optional[ManeuverState] = None


def controller_label(kind: ControllerKind) -> str:
    """A selection as trace.csv and events.log show it: mode[@set speed]."""
    lon = kind.longitudinal
    return lon.mode.value if lon.v_set is None else f"{lon.mode.value}@{lon.v_set:.2f}"


class EventKind(enum.Enum):
    """A run event's kind: its events.log word and its subject's renderer."""

    MANEUVER_START = "maneuver_start", attrgetter("name")  # ManeuverState
    MANEUVER_COMPLETE = "maneuver_complete", attrgetter("name")  # ManeuverState
    MANEUVER_TIMEOUT = "maneuver_timeout", attrgetter("name")  # ManeuverState
    ROLE_CHANGE = "role_change", attrgetter("value")  # Role: the new role
    FLAG = "flag", attrgetter("value")  # MessageKind: a sent flag
    FAULT_INJECTED = "fault_injected", attrgetter("value")  # FaultKind
    CONTROLLER = "controller", controller_label  # ControllerKind: the new selection
    PLATOON_UPDATE = "platoon_update", lambda p: f"series={list(p.id_series)}"  # PlatoonInfo
    INSTRUCTION = "instruction", lambda i: f"{i.maneuver.name} target=v{i.target}" + (
        "" if i.before is None else f" before=v{i.before}")  # ActiveInstruction
    CUT_IN_SPAWN = "cut_in_spawn", lambda e: (  # CutInEvent
        f"ahead_of=v{e.target} gap={e.s_offset:.1f}")
    NO_STRATEGY = "no_strategy", lambda key: f"{key.maneuver.name}/{key.role.value}"  # StrategyKey
    COLLISION = "collision", lambda other: f"with=v{other}"  # VehicleId of the other vehicle
    NOTE = "note", str  # a strategy's note text

    def __init__(self, word: str, render: Callable[[Any], str]) -> None:
        self.word = word
        self.render = render

    def __reduce_ex__(self, protocol: object) -> tuple[Callable, tuple[type, str]]:
        # by name: a renderer may be a lambda, which pickle cannot name
        return getattr, (EventKind, self.name)


@dataclass(frozen=True)
class EngineEvent:
    """One line of events.log: ``kind`` happened to ``vehicle`` (or None) at ``tick``,
    about the immutable ``subject``, whose type ``kind`` gives and renders."""

    tick: int
    time: float
    vehicle: Optional[VehicleId]
    kind: EventKind
    subject: Any

    @property
    def detail(self) -> str:
        return self.kind.render(self.subject)

    def line(self) -> str:
        who = f"v{self.vehicle}" if self.vehicle is not None else "-"
        return f"t={self.time:.3f} {who} {self.kind.word} {self.detail}".rstrip()
