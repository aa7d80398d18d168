"""Scenario files: declarative description of vehicles, scripted events,
faults and parameter overrides, with strict load-time validation.

The on-disk format is JSON (key-value with nested lists), all numbers in SI
units. Unknown keys anywhere are load-time errors so typos cannot silently
change a run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

from .comms import BusConfig
from .controllers import GainSet, SpacingPolicy, TtcConfig
from .core import FaultKind, Role, VehicleId
from .dynamics import DynamicsLimits, LaneGeometry
from .params import Parameters


class SpecError(Exception):
    """A scenario file failed validation."""


@dataclass(frozen=True)
class VehicleSpec:
    vid: VehicleId
    s: float
    lane: int
    v: float
    role: Role
    length: float = 5.0


@dataclass(frozen=True)
class RunSpec:
    dt: float = 0.05
    duration: float = 30.0


@dataclass(frozen=True)
class JoinEvent:
    t: float
    target: VehicleId
    before: Optional[VehicleId] = None  # None joins at the tail


@dataclass(frozen=True)
class LeaveEvent:
    t: float
    target: VehicleId


@dataclass(frozen=True)
class CutInEvent:
    t: float
    target: VehicleId      # the intruder cuts in ahead of this vehicle
    lane: int              # lane the intruder starts in (adjacent)
    s_offset: float        # bumper gap ahead of the target at lane entry
    duration: float        # seconds the intruder stays in-lane after entry
    ttc_satisfying: bool   # True: emergency geometry, intruder brakes to rest
    speed_delta: Optional[float] = None  # m/s slower than the target


@dataclass(frozen=True)
class FaultEvent:
    t: float
    target: VehicleId
    kind: FaultKind


ScenarioEvent = Union[JoinEvent, LeaveEvent, CutInEvent, FaultEvent]


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    run: RunSpec
    vehicles: tuple[VehicleSpec, ...]
    events: tuple[ScenarioEvent, ...] = ()
    params: Parameters = field(default_factory=Parameters)
    degradation_enabled: bool = True
    halt_on_collision: bool = False

    def tick_count(self) -> int:
        ticks = self.run.duration / self.run.dt
        if abs(ticks - round(ticks)) > 1e-6:
            raise SpecError("duration must be an integer number of ticks")
        return int(round(ticks))

    def vehicle(self, vid: VehicleId) -> VehicleSpec:
        for v in self.vehicles:
            if v.vid == vid:
                return v
        raise SpecError(f"vehicle {vid} not declared")

    def members(self) -> tuple[VehicleSpec, ...]:
        return tuple(v for v in self.vehicles if v.role.is_member())

    def fault_events(self) -> tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if isinstance(e, FaultEvent))

    def spec_hash(self) -> str:
        """sha256 of the repr: the spec is a frozen tree of numbers, strings,
        enums and tuples, so the repr is deterministic and covers every field."""
        return hashlib.sha256(repr(self).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

_ROLES = {"leader": Role.LEADER, "follower": Role.FOLLOWER, "free": Role.FREE_VEHICLE}
_FAULTS = {"radar": FaultKind.RADAR_FAIL, "v2v": FaultKind.V2V_FAIL}

_PARAM_GROUPS = {
    "limits": DynamicsLimits,
    "geometry": LaneGeometry,
    "bus": BusConfig,
    "spacing": SpacingPolicy,
    "gains": GainSet,
    "ttc": TtcConfig,
}
_PARAM_SCALARS = tuple(
    f.name for f in dataclasses.fields(Parameters)
    if f.name not in _PARAM_GROUPS
)
# field types of every parameter dataclass, resolved once
_FIELD_TYPES = {cls: typing.get_type_hints(cls)
                for cls in (*_PARAM_GROUPS.values(), Parameters)}


def _require_keys(obj: Mapping[str, Any], allowed: Sequence[str], where: str,
                  required: Sequence[str] = ()) -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        raise SpecError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise SpecError(f"missing key(s) {missing} in {where}")


def _numeric(value: Any, where: str, integral: bool = False) -> Union[int, float]:
    """``value`` if it is a JSON number that a float holds finitely, or
    with ``integral`` a JSON integer. A JSON boolean decodes to a bool, not
    an int, so it is no number here."""
    if type(value) is int:
        if integral or abs(value) <= sys.float_info.max:
            return value
    elif type(value) is float and not integral and math.isfinite(value):
        return value
    raise SpecError(f"{where} must be {'an integer' if integral else 'a finite number'}")


def _number(obj: Mapping[str, Any], key: str, where: str) -> float:
    return float(_numeric(obj[key], f"{where}.{key}"))


def _check_fields(raw: Mapping[str, Any], cls: type, where: str) -> None:
    """Type-check the numeric fields of dataclass ``cls`` given in ``raw``:
    ``int`` fields take JSON integers, ``float`` fields finite numbers, and
    an ``Optional`` field also takes null."""
    hints = _FIELD_TYPES[cls]
    for key, value in raw.items():
        hint = hints[key]
        if value is None and type(None) in typing.get_args(hint):
            continue
        _numeric(value, f"{where}.{key}", integral=hint is int)


def _boolean(obj: Mapping[str, Any], key: str, where: str,
             default: bool = False) -> bool:
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise SpecError(f"{where}.{key} must be a boolean")
    return value


def _load_event(raw: Mapping[str, Any], index: int) -> ScenarioEvent:
    where = f"events[{index}]"
    if not isinstance(raw, dict) or "kind" not in raw:
        raise SpecError(f"{where} must be an object with a 'kind'")
    kind = raw["kind"]
    t_keys = {"t", "kind", "target"}
    if kind == "join":
        _require_keys(raw, [*t_keys, "position"], where, ["t", "target", "position"])
        pos = raw["position"]
        if pos == "tail":
            before = None
        elif isinstance(pos, str) and pos.startswith("before:"):
            before = int(pos.split(":", 1)[1])
        else:
            raise SpecError(f"{where}.position must be 'tail' or 'before:<id>'")
        return JoinEvent(_number(raw, "t", where), int(raw["target"]), before)
    if kind == "leave":
        _require_keys(raw, list(t_keys), where, ["t", "target"])
        return LeaveEvent(_number(raw, "t", where), int(raw["target"]))
    if kind == "fault":
        _require_keys(raw, [*t_keys, "fault"], where, ["t", "target", "fault"])
        if raw["fault"] not in _FAULTS:
            raise SpecError(f"{where}.fault must be one of {sorted(_FAULTS)}")
        return FaultEvent(_number(raw, "t", where), int(raw["target"]),
                          _FAULTS[raw["fault"]])
    if kind == "cut_in":
        _require_keys(raw, [*t_keys, "lane", "s_offset", "duration",
                            "ttc_satisfying", "speed_delta"], where,
                      ["t", "target", "lane", "s_offset", "duration", "ttc_satisfying"])
        delta = None
        if "speed_delta" in raw:
            delta = _number(raw, "speed_delta", where)
        return CutInEvent(_number(raw, "t", where), int(raw["target"]),
                          int(raw["lane"]), _number(raw, "s_offset", where),
                          _number(raw, "duration", where),
                          _boolean(raw, "ttc_satisfying", where), delta)
    raise SpecError(f"{where}.kind {kind!r} is not a known event kind")


def _load_parameters(raw: Mapping[str, Any]) -> Parameters:
    _require_keys(raw, [*_PARAM_GROUPS, *_PARAM_SCALARS], "parameters")
    groups = {}
    where = "parameters"
    try:
        for name, cls in _PARAM_GROUPS.items():
            if name not in raw:
                continue
            where = f"parameters.{name}"
            group_raw = raw[name]
            if not isinstance(group_raw, dict):
                raise SpecError(f"{where} must be an object")
            allowed = [f.name for f in dataclasses.fields(cls)]
            _require_keys(group_raw, allowed, where)
            _check_fields(group_raw, cls, where)
            groups[name] = cls(**group_raw)
        where = "parameters"
        scalars = {k: raw[k] for k in _PARAM_SCALARS if k in raw}
        _check_fields(scalars, Parameters, where)
        return Parameters(**groups, **scalars)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"invalid {where}: {exc}") from exc


def scenario_from_dict(raw: Mapping[str, Any], name: str = "scenario") -> ScenarioSpec:
    _require_keys(raw, ["name", "run", "vehicles", "events", "parameters", "modes"],
                  "scenario", ["vehicles"])
    name = raw.get("name", name)

    run_raw = raw.get("run", {})
    _require_keys(run_raw, ["dt", "duration"], "run")
    run = RunSpec(**{k: _number(run_raw, k, "run") for k in ("dt", "duration")
                     if k in run_raw})
    if run.dt <= 0:
        raise SpecError("run.dt must be positive")

    params = _load_parameters(raw.get("parameters", {}))

    vehicles = []
    for i, vraw in enumerate(raw["vehicles"]):
        where = f"vehicles[{i}]"
        _require_keys(vraw, ["id", "s", "lane", "v", "role", "length"], where,
                      ["id", "s", "lane", "v", "role"])
        if vraw["role"] not in _ROLES:
            raise SpecError(f"{where}.role must be one of {sorted(_ROLES)}")
        length = (_number(vraw, "length", where) if "length" in vraw
                  else params.vehicle_length)
        if length <= 0:
            raise SpecError(f"{where}.length must be positive")
        vehicles.append(VehicleSpec(
            vid=int(vraw["id"]), s=_number(vraw, "s", where),
            lane=int(vraw["lane"]), v=_number(vraw, "v", where),
            role=_ROLES[vraw["role"]], length=length))

    events = tuple(_load_event(e, i) for i, e in enumerate(raw.get("events", [])))

    modes_raw = raw.get("modes", {})
    _require_keys(modes_raw, ["degradation_enabled", "halt_on_collision"], "modes")

    spec = ScenarioSpec(
        name=name, run=run, vehicles=tuple(vehicles), events=events, params=params,
        degradation_enabled=_boolean(modes_raw, "degradation_enabled", "modes", True),
        halt_on_collision=_boolean(modes_raw, "halt_on_collision", "modes"))
    validate(spec)
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
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise SpecError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"scenario file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SpecError("scenario file must contain a JSON object")
    return scenario_from_dict(raw, name=path.stem)


def validate(spec: ScenarioSpec) -> None:
    spec.tick_count()
    ids = [v.vid for v in spec.vehicles]
    if not ids:
        raise SpecError("scenario declares no vehicles")
    if sorted(ids) != list(range(1, len(ids) + 1)):
        raise SpecError("vehicle ids must be dense 1..N")
    geom = spec.params.geometry
    for v in spec.vehicles:
        if not (0 <= v.lane < geom.lane_count):
            raise SpecError(f"vehicle {v.vid} lane {v.lane} out of range")
        if v.v < 0:
            raise SpecError(f"vehicle {v.vid} speed must be non-negative")

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
    for e in spec.events:
        if e.t < last_t:
            raise SpecError("events must be sorted by time")
        last_t = e.t
        if e.t < 0 or e.t > spec.run.duration:
            raise SpecError(f"event at t={e.t} outside the run window")
        spec.vehicle(e.target)  # UnknownTarget at load time
        if isinstance(e, JoinEvent) and e.before is not None:
            spec.vehicle(e.before)
        if isinstance(e, CutInEvent):
            # adjacency to the target is checked at spawn time: the target
            # may have changed lanes by then
            if not (0 <= e.lane < geom.lane_count):
                raise SpecError(f"cut-in lane {e.lane} out of range")


def initial_platoon(spec: ScenarioSpec) -> Optional[tuple[VehicleId, ...]]:
    """Front-to-back id series of the declared platoon, leader first."""
    members = spec.members()
    if not members:
        return None
    ordered = sorted(members, key=lambda v: -v.s)
    if ordered[0].role is not Role.LEADER:
        raise SpecError("the leader must be the frontmost member")
    return tuple(v.vid for v in ordered)
