"""Scenario files: declarative description of vehicles, scripted events,
faults and parameter overrides, with strict load-time validation.

The on-disk format is JSON, all numbers in SI units. The spec dataclasses
are the schema: one loader reads each section from its dataclass's fields.
A field's type decides the JSON values it takes, its default whether its key
may be omitted, and its metadata a lower bound (``params.positive``) or a
JSON key that differs from its name. Unknown keys anywhere are errors, so a
typo cannot silently change a run, and every error names its JSON path.
Rules across fields live in ``validate`` and the groups' ``__post_init__``.
One rule, ``due``, says when an event fires, so an event after the last tick
is refused, not loaded to never fire. ``ScenarioSpec.tick_count`` is computed
once per spec, on its first read, and every layer reads it from there.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import math
import re
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import AbstractSet, Any, Callable, Mapping, Optional, Union

from .core import FaultKind, Role, VehicleId
from .params import Parameters, non_negative, positive


class SpecError(Exception):
    """A scenario file failed validation."""


def _join_position(value: Any, where: str) -> Optional[VehicleId]:
    """``tail`` joins at the tail (None); ``before:<id>`` ahead of member <id>."""
    match = re.fullmatch(r"tail|before:(\d+)", value, re.ASCII) if type(value) is str else None
    if match is None:
        raise SpecError(f"{where} must be 'tail' or 'before:<id>'")
    return None if match[1] is None else int(match[1])


@dataclass(frozen=True)
class VehicleSpec:
    vid: VehicleId = field(metadata={"key": "id"})
    s: float
    lane: int
    v: float = non_negative()
    role: Role
    length: float = positive(5.0)  # scenario files default to parameters.vehicle_length

    def __post_init__(self) -> None:
        if type(self.lane) is not int:  # the trace writes the lane cell as it is
            raise ValueError(f"lane {self.lane!r} must be an integer")


@dataclass(frozen=True)
class RunSpec:
    dt: float = positive(0.05)
    duration: float = non_negative(30.0)


@dataclass(frozen=True)
class JoinEvent:
    t: float
    target: VehicleId
    before: Optional[VehicleId] = field(  # None joins at the tail
        default=None,
        metadata={"key": "position", "parse": _join_position, "required": True})


@dataclass(frozen=True)
class LeaveEvent:
    t: float
    target: VehicleId


@dataclass(frozen=True)
class CutInEvent:
    t: float
    target: VehicleId      # the intruder cuts in ahead of this vehicle
    lane: int              # lane the intruder starts in (adjacent)
    s_offset: float = non_negative()  # bumper gap ahead of the target at lane entry
    duration: float = positive()      # seconds the intruder stays in-lane after entry
    ttc_satisfying: bool   # True: emergency geometry, intruder brakes to rest
    speed_delta: Optional[float] = non_negative(None)  # m/s slower than the target


@dataclass(frozen=True)
class FaultEvent:
    t: float
    target: VehicleId
    kind: FaultKind = field(metadata={"key": "fault"})


ScenarioEvent = Union[JoinEvent, LeaveEvent, CutInEvent, FaultEvent]
_EVENT_KINDS = {"join": JoinEvent, "leave": LeaveEvent, "cut_in": CutInEvent,
                "fault": FaultEvent}
_MODE = {"section": "modes"}  # ScenarioSpec fields read from "modes"


def due(t: float, tick: int, dt: float) -> bool:
    """Whether ``tick`` has reached time ``t``, up to the rounding of
    ``tick * dt``: the cloud fires an event on the first tick that has."""
    return t <= tick * dt + 1e-9


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    run: RunSpec
    vehicles: tuple[VehicleSpec, ...]
    events: tuple[ScenarioEvent, ...] = ()
    params: Parameters = field(default_factory=Parameters)
    degradation_enabled: bool = field(default=True, metadata=_MODE)
    halt_on_collision: bool = field(default=False, metadata=_MODE)

    @functools.cached_property
    def tick_count(self) -> int:
        ticks = self.run.duration / self.run.dt
        if not math.isfinite(ticks) or abs(ticks - round(ticks)) > 1e-6:
            raise SpecError("run.duration must be a finite integer number of ticks")
        # each ``*_s`` parameter and cut-in duration becomes ticks too (``Parameters.ticks``)
        bad = [f"parameters.{k}" for k, v in vars(self.params).items()
               if k.endswith("_s") and not math.isfinite(v / self.run.dt)]
        bad += [f"events[{i}].duration" for i, e in enumerate(self.events)
                if isinstance(e, CutInEvent) and not math.isfinite(e.duration / self.run.dt)]
        if bad:
            raise SpecError(f"{bad[0]} has no finite tick count at run.dt {self.run.dt}")
        return int(round(ticks))

    def spec_hash(self) -> str:
        """sha256 of the repr: the spec is a frozen tree of numbers, strings,
        enums and tuples, so the repr is deterministic and covers every field."""
        return hashlib.sha256(repr(self).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

_Check = Callable[[Any, str], Any]

_ENUM_NAMES: dict[type, dict[str, enum.Enum]] = {
    Role: {"leader": Role.LEADER, "follower": Role.FOLLOWER, "free": Role.FREE_VEHICLE},
    FaultKind: {"radar": FaultKind.RADAR_FAIL, "v2v": FaultKind.V2V_FAIL},
}
_BOUNDS: dict[str, Callable[[float], bool]] = {
    "positive": lambda x: x > 0, "non-negative": lambda x: x >= 0}


def _finite(value: Any, where: str) -> float:
    """A JSON number that a float holds finitely. A JSON boolean decodes to a
    bool, not an int, so it is no number here."""
    if type(value) is float and math.isfinite(value):
        return value
    if type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    raise SpecError(f"{where} must be a finite number")


def _exact(kind: type, noun: str) -> _Check:
    def check(value: Any, where: str) -> Any:
        if type(value) is kind:
            return value
        raise SpecError(f"{where} must be {noun}")
    return check


_SCALARS: dict[type, _Check] = {
    float: _finite, int: _exact(int, "an integer"),
    bool: _exact(bool, "a boolean"), str: _exact(str, "a string")}


def _checker(hint: Any, meta: Mapping[str, Any]) -> _Check:
    """The check of one field, built once: it takes the JSON value and the
    path naming it, and returns the field value or raises ``SpecError``."""
    if "parse" in meta:
        return meta["parse"]
    args = typing.get_args(hint)
    if typing.get_origin(hint) is Union and type(None) in args:
        (inner_hint,) = [a for a in args if a is not type(None)]
        inner = _checker(inner_hint, meta)
        return lambda value, where: None if value is None else inner(value, where)
    if dataclasses.is_dataclass(hint):
        _schema(hint)
        return lambda value, where: _load(hint, value, where)
    if hint in _ENUM_NAMES:
        names = _ENUM_NAMES[hint]

        def member(value: Any, where: str) -> enum.Enum:
            if type(value) is str and value in names:
                return names[value]
            raise SpecError(f"{where} must be one of {sorted(names)}")
        return member
    check = _SCALARS[hint]
    if "bound" not in meta:
        return check
    bound, within = meta["bound"], _BOUNDS[meta["bound"]]

    def bounded(value: Any, where: str) -> Any:
        value = check(value, where)
        if within(value):
            return value
        raise SpecError(f"{where} must be {bound}")
    return bounded


# per dataclass: JSON key -> (field name, check), and the required JSON keys
_SCHEMAS: dict[type, tuple[dict[str, tuple[str, _Check]], frozenset[str]]] = {}


def _schema(cls: type, section: Optional[str] = None) -> None:
    """Register the fields of ``cls`` that sit in ``section`` of its JSON."""
    hints = typing.get_type_hints(cls)
    fields = {f.metadata.get("key", f.name): f for f in dataclasses.fields(cls)
              if f.metadata.get("section") == section}
    _SCHEMAS[cls] = (
        {key: (f.name, _checker(hints[f.name], f.metadata)) for key, f in fields.items()},
        frozenset(key for key, f in fields.items() if f.metadata.get(
            "required", f.default is f.default_factory is dataclasses.MISSING)))


def _check_keys(raw: Any, keys: AbstractSet[str], required: AbstractSet[str],
                where: str) -> None:
    if not isinstance(raw, dict):
        raise SpecError(f"{where} must be an object")
    if not raw.keys() <= keys:
        raise SpecError(f"unknown key(s) {sorted(raw.keys() - keys)} in {where}")
    if not required <= raw.keys():
        raise SpecError(f"missing key(s) {sorted(required - raw.keys())} in {where}")


def _load(cls: type, raw: Any, where: str, **given: Any) -> Any:
    """Build dataclass ``cls`` from the JSON object ``raw`` at path ``where``.
    ``given`` holds field values for keys that ``raw`` omits, and for fields
    outside the schema (the parts of a ``ScenarioSpec`` not in ``modes``)."""
    fields, required = _SCHEMAS[cls]
    _check_keys(raw, fields.keys(), required, where)
    for key, value in raw.items():
        name, check = fields[key]
        given[name] = check(value, f"{where}.{key}")
    try:
        return cls(**given)
    except ValueError as exc:  # a rule of the dataclass's __post_init__
        raise SpecError(f"invalid {where}: {exc}") from exc


def _load_event(raw: Any, where: str) -> ScenarioEvent:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise SpecError(f"{where} must be an object with a 'kind'")
    kind = raw["kind"]
    cls = _EVENT_KINDS.get(kind) if type(kind) is str else None
    if cls is None:
        raise SpecError(f"{where}.kind {kind!r} is not a known event kind")
    return _load(cls, {k: v for k, v in raw.items() if k != "kind"}, where)


def _array(value: Any, where: str) -> list:
    if type(value) is not list:
        raise SpecError(f"{where} must be an array")
    return value


for _cls in (RunSpec, VehicleSpec, *_EVENT_KINDS.values(), Parameters):
    _schema(_cls)
_schema(ScenarioSpec, section="modes")


def scenario_from_dict(raw: Mapping[str, Any], name: str = "scenario") -> ScenarioSpec:
    _check_keys(raw, {"name", "run", "vehicles", "events", "parameters", "modes"},
                {"vehicles"}, "scenario")
    run = _load(RunSpec, raw.get("run", {}), "run")
    params = _load(Parameters, raw.get("parameters", {}), "parameters")
    vehicles = tuple(
        _load(VehicleSpec, v, f"vehicles[{i}]", length=params.vehicle_length)
        for i, v in enumerate(_array(raw["vehicles"], "vehicles")))
    events = tuple(_load_event(e, f"events[{i}]")
                   for i, e in enumerate(_array(raw.get("events", []), "events")))
    spec = _load(ScenarioSpec, raw.get("modes", {}), "modes",
                 name=_SCALARS[str](raw.get("name", name), "name"), run=run,
                 vehicles=vehicles, events=events, params=params)
    validate(spec)
    return spec


def replace_run(spec: ScenarioSpec, **window: float) -> ScenarioSpec:
    """``spec`` with the ``run`` fields in ``window`` replaced, and with its
    ``run`` bounds and tick counts checked again, but not its events."""
    spec = dataclasses.replace(spec, run=_load(RunSpec, window, "run", **vars(spec.run)))
    spec.tick_count  # a SpecError if the new window has none
    return spec


def bundled_scenario_path(name: str) -> Path:
    """Path of one of the scenarios shipped with the package."""
    root = Path(__file__).parent / "scenarios"
    path = root / f"{name}.scenario"
    if not path.exists():
        known = sorted(p.stem for p in root.glob("*.scenario"))
        raise SpecError(f"no bundled scenario {name!r}; known: {known}")
    return path


def bundled_scenario(name: str) -> "ScenarioSpec":
    return load_scenario(bundled_scenario_path(name))


def load_scenario(path: Union[str, Path]) -> ScenarioSpec:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SpecError(f"cannot read scenario file {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SpecError(f"scenario file {path} is not UTF-8 JSON: {exc}") from exc
    return scenario_from_dict(raw, name=path.stem)


def validate(spec: ScenarioSpec) -> None:
    last_tick = spec.tick_count - 1
    ids = [v.vid for v in spec.vehicles]
    if not ids:
        raise SpecError("scenario declares no vehicles")
    if sorted(ids) != list(range(1, len(ids) + 1)):
        raise SpecError("vehicle ids must be dense 1..N")
    geom = spec.params.geometry
    for i, v in enumerate(spec.vehicles):
        if not (0 <= v.lane < geom.lane_count):
            raise SpecError(f"vehicles[{i}].lane {v.lane} out of range")

    leaders = [v for v in spec.vehicles if v.role is Role.LEADER]
    followers = [v for v in spec.vehicles if v.role is Role.FOLLOWER]
    if len(leaders) > 1:
        raise SpecError("at most one leader may be declared")
    if followers and not leaders:
        raise SpecError("followers require a declared leader")
    if leaders:
        leader = leaders[0]
        for f in followers:
            if f.lane != leader.lane:
                raise SpecError(f"follower {f.vid} must start in the leader's lane")
            if f.s >= leader.s:
                raise SpecError(f"follower {f.vid} must start behind the leader")

    last_t = -float("inf")
    for i, e in enumerate(spec.events):
        where = f"events[{i}]"
        if e.t < last_t:
            raise SpecError("events must be sorted by time")
        last_t = e.t
        if e.t < 0 or e.t > spec.run.duration:
            raise SpecError(f"{where} at t={e.t} outside the run window")
        if not due(e.t, last_tick, spec.run.dt):
            raise SpecError(f"{where} at t={e.t} comes after the last tick of the run")
        referenced = (e.target, e.before) if isinstance(e, JoinEvent) else (e.target,)
        for vid in referenced:
            if vid is not None and vid not in ids:
                raise SpecError(f"{where}: vehicle {vid} not declared")
        # the leader has no role edge into a join or a leave, and a join before
        # its own target or before the leader has no slot: each would hang
        # until maneuver_timeout_s
        if isinstance(e, (JoinEvent, LeaveEvent)) and leaders and e.target == leaders[0].vid:
            verb = "join" if isinstance(e, JoinEvent) else "leave"
            raise SpecError(f"{where}: the declared leader cannot be told to {verb}")
        if isinstance(e, JoinEvent) and e.before == e.target:
            raise SpecError(f"{where}: a vehicle cannot join before itself")
        if isinstance(e, JoinEvent) and leaders and e.before == leaders[0].vid:
            raise SpecError(f"{where}: a vehicle cannot join before the declared leader")
        # a leaver needs a lane to exit to, an intruder one to cut in from
        if isinstance(e, (LeaveEvent, CutInEvent)) and geom.lane_count < 2:
            noun = "leave" if isinstance(e, LeaveEvent) else "cut_in"
            raise SpecError(f"{where}: a {noun} needs a second lane")
        # adjacency to the target is checked at spawn time: the target may
        # have changed lanes by then
        if isinstance(e, CutInEvent) and not (0 <= e.lane < geom.lane_count):
            raise SpecError(f"{where}.lane {e.lane} out of range")

    # bodies in one lane that overlap at t = 0 collide on the first tick. In rear
    # order, a body overlaps an earlier one iff its rear is behind their furthest front
    fronts: dict[int, VehicleSpec] = {}  # per lane, the furthest front so far
    for rear, i, v in sorted((v.s - v.length, i, v) for i, v in enumerate(spec.vehicles)):
        ahead = fronts.setdefault(v.lane, v)
        if ahead is not v and rear < ahead.s:
            raise SpecError(f"vehicles[{i}]: vehicle {v.vid} overlaps vehicle {ahead.vid} "
                            "at the start")
        fronts[v.lane] = v if v.s > ahead.s else ahead


def initial_platoon(spec: ScenarioSpec) -> Optional[tuple[VehicleId, ...]]:
    """Front-to-back id series of the declared platoon, leader first."""
    ordered = sorted((v for v in spec.vehicles if v.role.is_member()), key=lambda v: -v.s)
    if not ordered:
        return None
    if ordered[0].role is not Role.LEADER:
        raise SpecError("the leader must be the frontmost member")
    return tuple(v.vid for v in ordered)
