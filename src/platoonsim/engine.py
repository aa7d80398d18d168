"""Deterministic tick loop binding all layers.

Per tick, in fixed order: cloud dispatch, sensing snapshot, bus delivery,
management per vehicle by ascending id, controller evaluation, dynamics
step, then collision detection and trace append. Every stage reads only the
pre-tick snapshot, so no vehicle ever observes another vehicle's same-tick
update and two runs of the same scenario produce bit-identical traces.

The runtimes are kept in ascending id order from construction on, so no
stage sorts them. The post-step snapshot, sorted by position for collision
detection, is the next tick's snapshot for radar unless an intruder spawns
(see :class:`~platoonsim.dynamics.Snapshot`).

Each managed vehicle's peer store is opened on the bus at construction,
which makes the managed vehicles exactly the bus's receivers. Delivery
keeps every store up to date (see :meth:`~platoonsim.comms.MessageBus.deliver`),
so the bus stage is one ``deliver`` call. Management reads from the store the
platoon in the declared leader's latest heartbeat, the silent peers and the
predecessor; strategies get only the non-heartbeat messages.
The engine hands each manager the vehicle's active faults and every peer it
detects as silent; the manager decides which of them are new and orders them.

A protocol error a strategy causes inside a tick is raised as a
:class:`TickError` naming the tick, the vehicle and its maneuver.
"""

from __future__ import annotations

import struct
from array import array
from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, compress, count, repeat, zip_longest
from operator import add, eq, is_not, itemgetter
from pathlib import Path
from typing import Callable, Mapping, Optional, Union

from .cloud import Cloud, IntruderScript
from .comms import (
    FaultBoard,
    MessageBus,
    PeerViewStore,
    RadarReading,
    detect_peer_failure,
    radar_sense,
    v2v_payload,
)
from .controllers import PidState, longitudinal_command
from .core import (
    ControllerKind,
    EngineEvent,
    EventKind,
    FaultKind,
    IllegalTransition,
    LongitudinalCommand,
    LongitudinalMode,
    ManeuverState,
    MessageKind,
    PlatoonInfo,
    Role,
    V2VMessage,
    VehicleId,
    VehicleState,
    controller_label,
)
from .dynamics import (
    InvalidLane,
    Snapshot,
    detect_collisions,
    step_lateral,
    step_longitudinal,
)
from .management import (
    DriverState,
    StrategyContext,
    StrategyRegistry,
    UnknownJoiner,
    VehicleManager,
)
from .scenario import CutInEvent, ScenarioSpec, initial_platoon
from .strategies import CACC, CC, DRIVER, default_registry


class SpecHashMismatch(Exception):
    """Two traces from different scenario specs cannot be compared."""


class TickError(Exception):
    """A protocol error raised inside a tick, with the tick, its time, the
    vehicle and its maneuver; the original exception is its ``__cause__``."""

    def __init__(self, tick: int, time: float, vehicle: VehicleId, maneuver: str,
                 error: Exception) -> None:
        super().__init__(f"tick {tick} (t={time:.3f} s), v{vehicle} in {maneuver}: "
                         f"{type(error).__name__}: {error}")
        self.tick = tick
        self.time = time
        self.vehicle = vehicle
        self.maneuver = maneuver


# what a strategy can get wrong; anything else is a fault of the engine
_PROTOCOL_ERRORS = (IllegalTransition, UnknownJoiner, InvalidLane)

_NONE: frozenset = frozenset()  # no fault, no silent peer

# a trace column holds floats if its name, after any "v<id>_", is one of these
_FLOAT_FIELDS = ("time", "s", "v", "a", "gap")


class TraceRows(Sequence):
    """The rows of an engine trace, kept compact: a read-only sequence of
    row tuples.

    Row *i* is tick *i*, so the tick cell is not stored. The float cells of
    all rows sit in one ``array('d')``, so a float column reads back as
    ``float`` whatever was recorded into it; a row's other cells are one
    tuple, the previous row's very object when the two are equal. A store
    equals another store of the same layout whose rows hold the same cells,
    float cells bit for bit.
    """

    def __init__(self, columns: Sequence[str]) -> None:
        """Rows of ``columns``: column 0 is the tick, ``time`` and each
        vehicle's ``s``, ``v``, ``a`` and ``gap`` hold the float cells, and
        every other column holds other cells."""
        width = len(columns)
        is_float = [name.split("_", 1)[-1] in _FLOAT_FIELDS for name in columns]
        float_at = [j for j in range(1, width) if is_float[j]]
        other_at = [j for j in range(1, width) if not is_float[j]]
        # a row is rebuilt as (tick, *floats, *others); this puts it in column order
        source = {0: 0, **{j: 1 + k for k, j in enumerate(float_at)},
                  **{j: 1 + len(float_at) + k for k, j in enumerate(other_at)}}
        self._order = itemgetter(*[source[j] for j in range(width)])
        self._width = width
        self._float_at = tuple(float_at)
        self._nf = len(float_at)
        self._pack = struct.Struct(f"{self._nf}d").pack
        self._floats = array("d")
        self._others: list[tuple] = []
        # a run's line format: this filled with the text of the run's other cells
        self._skeleton = ",".join(self._order(("%%d",) + ("%%.6f",) * self._nf
                                              + ("%s",) * len(other_at))) + "\r\n"

    def record(self, floats: list, others: list) -> None:
        """Append the next tick's row: its float cells and its other cells,
        each in column order."""
        others = tuple(others)
        last = self._others[-1] if self._others else None
        self._floats.frombytes(self._pack(*floats))
        self._others.append(last if others == last else others)

    def _block(self, a: int, b: int) -> Iterator[tuple]:
        """Rows a to b - 1, rebuilt in C."""
        nf = self._nf
        floats = self._floats[a * nf:b * nf]
        return map(self._order, map(add, map(add, zip(range(a, b)), zip(*[iter(floats)] * nf)),
                                    self._others[a:b]))

    def csv_blocks(self) -> Iterator[str]:
        """The rows as CSV lines, one string per block of rows: the tick,
        floats with 6 decimals, other cells as ``str``, CRLF line ends."""
        n, step = len(self._others), _block_rows(self._width)
        for b in range(0, n, step):
            yield "".join(self._lines(b, min(n, b + step)))

    def _lines(self, b: int, c: int) -> Iterator[str]:
        """The CSV lines of rows b to c - 1. A run of rows sharing their other
        cells gets one line format holding their text, ``%`` escaped, and that of
        its float columns byte-equal over it if that pays; rows fill the rest."""
        others, floats, nf = self._others, self._floats, self._nf
        block = others[b:c]
        # a row starts a run unless it holds the previous row's very tuple
        starts = list(compress(count(b), map(is_not, block, chain((None,), block))))
        for a, end in zip(starts, starts[1:] + [c]):
            n, lo, hi = end - a, a * nf, end * nf
            text = tuple(map(str.replace, map(str, others[a]), repeat("%"), repeat("%%")))
            # the columns whose first float cell equals the last, if enough could pay
            same = list(compress(range(nf), map(eq, floats[lo:lo + nf], floats[hi - nf:hi]))
                        ) if n > _BAKE_COST else []
            baked = {j: "%.6f" % floats[lo + j] for j in same if len(same) * n > _BAKE_COST * nf
                     and floats[lo + j:hi:nf].tobytes() == floats[lo + j:lo + j + 1].tobytes() * n}
            if len(baked) * n > _BAKE_COST * nf:
                fmt = ",".join(self._order(("%d", *map(baked.get, range(nf), repeat("%.6f")),
                                            *text))) + "\r\n"
                rows = zip(range(a, end), *[floats[lo + j:hi:nf] for j in range(nf)
                                            if j not in baked])
            else:
                fmt = self._skeleton % text
                rows = zip(range(a, end), *[iter(floats[lo:hi])] * nf)
            yield from map(fmt.__mod__, rows)

    def __len__(self) -> int:
        return len(self._others)

    def __getitem__(self, index):
        rows = range(len(self._others))[index]  # raises IndexError
        if isinstance(index, slice):
            if rows.step == 1:
                return list(self._block(rows.start, rows.stop))
            return [next(self._block(i, i + 1)) for i in rows]
        return next(self._block(rows, rows + 1))

    def __iter__(self) -> Iterator[tuple]:
        n, step = len(self._others), _block_rows(self._width)
        return chain.from_iterable(self._block(a, min(n, a + step)) for a in range(0, n, step))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRows):
            return NotImplemented
        return ((self._width, self._float_at) == (other._width, other._float_at)
                and self._floats.tobytes() == other._floats.tobytes()
                and self._others == other._others)


_DOUBLE = struct.Struct("d").pack


def _bits(row: Sequence) -> tuple:
    """A row as traces compare it: each float cell by its bytes, so -0.0
    differs from 0.0 and a NaN equals itself."""
    return tuple([_DOUBLE(v) if isinstance(v, float) else v for v in row])


# the cells a trace reads or writes at once
_BLOCK_CELLS = 16384
# finding and baking a run's constant float columns costs about this many "%.6f" a column
_BAKE_COST = 8


def _block_rows(width: int) -> int:
    return max(1, _BLOCK_CELLS // max(1, width))


@dataclass
class Trace:
    """A run's trace: its columns and, recorded tick by tick, its rows."""

    spec_hash: str
    columns: tuple[str, ...]
    rows: TraceRows = field(init=False)

    def __post_init__(self) -> None:
        self.rows = TraceRows(self.columns)

    def write_csv(self, path: Union[str, Path]) -> None:
        """Write the header and the rows as ``csv.writer`` would: floats with
        6 decimals, other cells as ``str``, CRLF line ends, in UTF-8, a block
        of about 16,384 cells at a time, run by run within a block, a run's
        constant float columns formatted once if that pays (see
        ``TraceRows._lines``). No cell needs quotes (see ``ManeuverState``)."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(self.columns) + "\r\n")
            fh.writelines(self.rows.csv_blocks())


@dataclass
class RunReport:
    scenario: str
    spec_hash: str
    ticks: int
    sim_duration: float
    collisions: list[tuple[float, VehicleId, VehicleId]] = field(default_factory=list)
    min_gaps: dict[tuple[VehicleId, VehicleId], float] = field(default_factory=dict)
    events: list[EngineEvent] = field(default_factory=list)

    @property
    def completions(self) -> list[tuple[float, VehicleId, ManeuverState]]:
        """(time, vehicle, maneuver) of each ``maneuver_complete`` event."""
        return [(e.time, e.vehicle, e.subject) for e in self.events
                if e.kind is EventKind.MANEUVER_COMPLETE]

    @property
    def takeovers(self) -> list[tuple[float, VehicleId]]:
        """(time, sender) of each TakeoverRequest, read from its ``flag`` event."""
        return [(e.time, e.vehicle) for e in self.events
                if e.kind is EventKind.FLAG and e.subject is MessageKind.TAKEOVER_REQUEST]

    def pair_lines(self, indent: str, gaps_heading: str) -> list[str]:
        """The collision count and each collision, then ``gaps_heading`` and
        each pair's minimum gap: headings at ``indent``, entries 2 deeper."""
        return [f"{indent}collisions: {len(self.collisions)}",
                *(f"{indent}  t={t:.3f} pair=({a},{b})" for t, a, b in self.collisions),
                f"{indent}{gaps_heading}:",
                *(f"{indent}  {front}-{back}: {gap:.3f}"
                  for (front, back), gap in sorted(self.min_gaps.items()))]

    def to_text(self) -> str:
        lines = [
            f"scenario: {self.scenario}",
            f"spec_hash: {self.spec_hash}",
            f"ticks: {self.ticks}",
            f"sim_duration_s: {self.sim_duration:.3f}",
            *self.pair_lines("", "min_gaps"),
            "maneuver_completions:",
        ]
        for t, vid, maneuver in self.completions:
            lines.append(f"  t={t:.3f} v{vid} {maneuver.name}")
        lines.append("takeovers:")
        for t, vid in self.takeovers:
            lines.append(f"  t={t:.3f} v{vid}")
        return "\n".join(lines) + "\n"

    def write_events(self, path: Union[str, Path]) -> None:
        Path(path).write_text("".join(e.line() + "\n" for e in self.events),
                              encoding="utf-8")


# a vehicle's controller until its first selection; scripted vehicles keep it
_UNSELECTED = ControllerKind(LongitudinalCommand(LongitudinalMode.DRIVER))


class _Runtime:
    """Engine-side container for one vehicle."""

    def __init__(self, state: VehicleState, manager: Optional[VehicleManager],
                 peer_store: Optional[PeerViewStore],
                 script: Optional[IntruderScript] = None) -> None:
        self.state = state
        self.manager = manager
        self.script = script
        self.active = script is None
        self.controller = _UNSELECTED
        # the trace's controller cell; a scripted vehicle shows whether it drives
        self.label = "Off" if script is not None else controller_label(_UNSELECTED)
        self.driver = DriverState(v_set=state.v)
        self.peer_store = peer_store
        self.replica: Optional[PlatoonInfo] = None
        self.pid_acc = PidState()
        self.pid_cacc = PidState()
        self.ctx: Optional[StrategyContext] = None  # refilled every tick

    def set_controller(self, kind: ControllerKind) -> bool:
        changed = kind != self.controller
        if kind.longitudinal.mode != self.controller.longitudinal.mode:
            self.pid_acc.reset()
            self.pid_cacc.reset()
        self.controller = kind
        if changed:
            self.label = controller_label(kind)
        return changed


# Called after each recorded tick. It must not modify the runtimes: the
# recorded states are the next tick's snapshot.
Observer = Callable[["Simulator", int], None]


class Simulator:
    """One isolated simulation run of a scenario."""

    def __init__(self, spec: ScenarioSpec,
                 registry: Optional[StrategyRegistry] = None) -> None:
        self.spec = spec
        self.params = spec.params
        self.dt = spec.run.dt
        self.registry = registry if registry is not None else default_registry()
        self.faults = FaultBoard()
        self.bus = MessageBus(self.params.bus,
                              self.params.ticks(self.params.heartbeat_timeout_s, self.dt))
        self.cloud = Cloud(spec, self.params, self.dt)
        self._uplink: list[V2VMessage] = []
        self._collided: set[tuple[VehicleId, VehicleId]] = set()
        # the states the last tick recorded; None until then, or after a spawn
        self._snapshot: Optional[Snapshot] = None

        series = initial_platoon(spec)
        platoon = PlatoonInfo(series) if series else None
        # no role edge leads into or out of Leader: the declared leader leads throughout
        self._leader = series[0] if series else None
        self.runtimes: dict[VehicleId, _Runtime] = {}
        for v in spec.vehicles:
            state = VehicleState(s=v.s, lane=v.lane, v=v.v, length=v.length)
            manager = VehicleManager(v.vid, v.role, self.registry, self.params, self.dt)
            rt = _Runtime(state, manager, self.bus.peer_store(v.vid))
            if v.role.is_member():
                rt.replica = platoon
            rt.set_controller(CC(self.params.platoon_speed) if v.role is Role.LEADER
                              else CACC() if v.role is Role.FOLLOWER else DRIVER(v.v))
            self.runtimes[v.vid] = rt

        first_intruder = max(self.runtimes) + 1
        # the cloud spawns cut-ins in the spec's order: each spawn takes the next id
        self._intruders: deque[VehicleId] = deque()
        for i, event in enumerate(e for e in spec.events if isinstance(e, CutInEvent)):
            vid = first_intruder + i
            script = IntruderScript(event, self.params, self.dt)
            parked = VehicleState(s=-1000.0 - 100.0 * i, lane=0, v=0.0,
                                  length=self.params.vehicle_length)
            self.runtimes[vid] = _Runtime(parked, None, None, script)
            self._intruders.append(vid)
        # every stage and the trace columns walk the runtimes by ascending id
        self.runtimes = dict(sorted(self.runtimes.items()))
        # only scripted vehicles start inactive, so this set never changes
        self._managed = [vid for vid, rt in self.runtimes.items() if rt.manager is not None]

        self.report = RunReport(scenario=spec.name, spec_hash=spec.spec_hash(),
                                ticks=spec.tick_count, sim_duration=spec.run.duration)

    # -- helpers ------------------------------------------------------------

    def _log(self, tick: int, vid: Optional[VehicleId], kind: EventKind, subject: object) -> None:
        self.report.events.append(EngineEvent(tick, tick * self.dt, vid, kind, subject))

    def _tick_error(self, tick: int, vid: VehicleId, error: Exception) -> TickError:
        rt = self.runtimes[vid]
        maneuver = rt.manager.maneuver.name if rt.manager is not None else "-"
        return TickError(tick, tick * self.dt, vid, maneuver, error)

    # -- per-tick stages ----------------------------------------------------

    def _stage_cloud(self, tick: int) -> None:
        platoon = self.runtimes[self._leader].replica if self._leader is not None else None
        out = self.cloud.tick(tick, self._uplink, platoon)
        self._uplink = []
        for fault in out.faults:
            self.faults.inject(fault.target, fault.kind)
            self._log(tick, fault.target, EventKind.FAULT_INJECTED, fault.kind)
        for spawn in out.spawns:
            vid = self._intruders.popleft()
            rt = self.runtimes[vid]
            # the target is a declared vehicle: active, and not moved by this stage
            target_state = self.runtimes[spawn.target].state
            try:
                rt.state = rt.script.spawn_state(target_state, self.params.vehicle_length)
            except ValueError as exc:  # the intruder's lane is not next to the target's
                raise self._tick_error(tick, vid, exc) from exc
            rt.active = True
            rt.label = "Script"
            self._snapshot = None
            self._log(tick, vid, EventKind.CUT_IN_SPAWN, spawn)
        for instr in out.instructions:
            self._log(tick, instr.target, EventKind.INSTRUCTION, instr)
            for vid in self._managed:
                self.runtimes[vid].manager.offer_instruction(instr)
        for target, why in out.drops:
            self._log(tick, target, EventKind.NOTE, why)

    def _stage_sense(self, snapshot: Snapshot, managed: list[VehicleId],
                     ) -> dict[VehicleId, RadarReading]:
        readings: dict[VehicleId, RadarReading] = {}
        for vid in managed:
            reading = radar_sense(vid, snapshot, self.faults,
                                  self.params.geometry, self.params.radar_max_range)
            if not reading.valid and not self.spec.degradation_enabled:
                # without fault detection the corrupted range is consumed as-is
                reading = reading._replace(valid=True)
            readings[vid] = reading
        return readings

    def _stage_bus(self, tick: int) -> Mapping[VehicleId, list[V2VMessage]]:
        """Deliver the due messages, which also brings every peer store up
        to date; returns each managed vehicle's non-heartbeat messages."""
        self.bus.deliver(tick, self.faults)
        return self.bus.flag_inboxes

    def _stage_manage(self, tick: int, snapshot: Snapshot, managed: list[VehicleId],
                      readings: dict[VehicleId, RadarReading],
                      flag_inboxes: Mapping[VehicleId, list[V2VMessage]]) -> None:
        sent: list[V2VMessage] = []
        degradation = self.spec.degradation_enabled
        for vid in managed:
            rt = self.runtimes[vid]
            store = rt.peer_store
            beat = store.raw(self._leader)  # None in the leader's own store
            if beat is not None:
                rt.replica = beat.platoon
            reading = readings[vid]
            assert rt.manager is not None
            own = silent = _NONE
            if degradation:
                own = self.faults.get(vid, _NONE)
                # a vehicle that cannot hear does not blame its peers for the silence
                if (rt.manager.member and rt.replica is not None
                        and (not own or FaultKind.V2V_FAIL not in own)):
                    silent = detect_peer_failure(store, rt.replica.id_series, tick)

            peers = v2v_payload(store, tick, degradation)
            ctx = rt.ctx
            if ctx is None:  # built once; refilled below, and by the manager's tick
                ctx = rt.ctx = StrategyContext(
                    tick, self.dt, vid, snapshot[vid], rt.manager.role, rt.manager.maneuver,
                    reading, peers, (), rt.replica, None, self.params,
                    degradation_enabled=degradation, driver=rt.driver)
            ctx.tick, ctx.ego, ctx.reading, ctx.peers, ctx.inbox = (
                tick, snapshot[vid], reading, peers, flag_inboxes[vid])
            ctx.platoon, ctx.own_faults = rt.replica, own
            try:
                output, events = rt.manager.tick(ctx, silent)
            except _PROTOCOL_ERRORS as exc:
                raise self._tick_error(tick, vid, exc) from exc

            self.report.events.extend(events)
            for note in output.notes:
                self._log(tick, vid, EventKind.NOTE, note)
            if output.platoon_update is not None:
                rt.replica = output.platoon_update
                self._log(tick, vid, EventKind.PLATOON_UPDATE, output.platoon_update)
            for msg in output.messages:
                self.bus.send(msg, self.faults)
                sent.append(msg)
                if msg.kind is not MessageKind.HEARTBEAT:
                    self._log(tick, vid, EventKind.FLAG, msg.kind)
            kind = output.controller
            # a strategy mostly hands back the very selection it made last tick
            if kind is not None and kind is not rt.controller and rt.set_controller(kind):
                self._log(tick, vid, EventKind.CONTROLLER, kind)

            # built without the NamedTuple's Python-level __new__: every field given
            hb = tuple.__new__(V2VMessage, (
                vid, MessageKind.HEARTBEAT, tick, snapshot[vid], rt.manager.role,
                rt.replica if rt.manager.member else None, None, None))
            self.bus.send(hb, self.faults)
        self._uplink = sent

    def _stage_step(self, tick: int, snapshot: Snapshot,
                    readings: dict[VehicleId, RadarReading]) -> Snapshot:
        """Step each active vehicle into its runtime and the returned
        snapshot, the next tick's; a vehicle reads only its own old state."""
        states = Snapshot()
        for vid, rt in self.runtimes.items():
            if not rt.active:
                continue
            if rt.script is not None:
                a_cmd, lateral = rt.script.step(tick, rt.state)
            else:
                lon = rt.controller.longitudinal
                predecessor = None
                if lon.mode is LongitudinalMode.CACC:
                    peer_id = rt.peer_store.preceding_member(rt.state)
                    if peer_id is not None:
                        predecessor = rt.ctx.peers.get(peer_id)
                a_cmd = longitudinal_command(
                    lon, readings[vid], rt.state.v, rt.driver.v_set, predecessor,
                    self.params, rt.pid_acc, rt.pid_cacc, self.dt)
                lateral = rt.controller.lateral
            state = step_longitudinal(snapshot[vid], a_cmd, self.params.limits, self.dt)
            try:
                rt.state = states[vid] = step_lateral(
                    state, lateral, self.params.geometry, self.dt)
            except _PROTOCOL_ERRORS as exc:
                raise self._tick_error(tick, vid, exc) from exc
        return states

    def _stage_record(self, tick: int, states: Snapshot, managed: list[VehicleId],
                      readings: dict[VehicleId, RadarReading], rows: TraceRows) -> bool:
        time_end = (tick + 1) * self.dt
        self._snapshot = states
        hit_pairs = detect_collisions(states, self.params.geometry,
                                      self.params.vehicle_width)
        halt = False
        for pair in hit_pairs:
            if pair not in self._collided:
                self._collided.add(pair)
                self.report.collisions.append((time_end, pair[0], pair[1]))
                self._log(tick, pair[0], EventKind.COLLISION, pair[1])
            if self.spec.halt_on_collision:
                halt = True

        for vid in managed:
            reading = readings[vid]
            if reading.valid and reading.target is not None:
                key = (reading.target, vid)
                prev = self.report.min_gaps.get(key)
                if prev is None or reading.gap < prev:
                    self.report.min_gaps[key] = reading.gap

        floats: list = [time_end]
        others: list = []
        for vid, rt in self.runtimes.items():
            reading = readings.get(vid)
            gap = reading.gap if reading is not None else 0.0
            manager = rt.manager
            if manager is not None:
                maneuver = manager.maneuver.name
                role = manager.role._value_  # the plain attribute behind Enum.value
                psize = (len(rt.replica.id_series)
                         if rt.replica is not None and manager.member else 0)
            else:
                maneuver = role = "-"
                psize = 0
            state = rt.state
            floats += (state.s, state.v, state.a, gap)
            others += (state.lane, rt.label, maneuver, role, psize)
        rows.record(floats, others)
        return halt

    # -- run ----------------------------------------------------------------

    def run(self, observer: Optional[Observer] = None) -> tuple[Trace, RunReport]:
        columns: list[str] = ["tick", "time"]
        for vid in self.runtimes:
            columns.extend(f"v{vid}_{name}" for name in
                           ("s", "lane", "v", "a", "controller", "maneuver",
                            "role", "gap", "psize"))
        trace = Trace(self.report.spec_hash, tuple(columns))

        managed = self._managed
        for tick in range(self.spec.tick_count):
            self._stage_cloud(tick)
            # the cloud stage drops the snapshot when it activates a vehicle
            snapshot = self._snapshot
            if snapshot is None:
                snapshot = Snapshot({vid: rt.state for vid, rt in self.runtimes.items()
                                     if rt.active})
            readings = self._stage_sense(snapshot, managed)
            flag_inboxes = self._stage_bus(tick)
            self._stage_manage(tick, snapshot, managed, readings, flag_inboxes)
            states = self._stage_step(tick, snapshot, readings)
            halt = self._stage_record(tick, states, managed, readings, trace.rows)
            if observer is not None:
                observer(self, tick)
            if halt:
                break

        self.report.ticks = len(trace.rows)
        return trace, self.report


def first_difference(trace_a: Trace, trace_b: Trace,
                     ) -> Optional[tuple[int, Optional[str], object, object]]:
    """The first differing cell of two traces from the same spec, as (row,
    column name, value in a, value in b), or None when they are identical.
    A row only one trace has differs in its first column, the other value
    None; differing columns differ at row 0 under no name, with both column
    tuples as the values. Float cells compare bit for bit: -0.0 differs from
    0.0 and a NaN equals itself. Traces of different specs raise
    SpecHashMismatch."""
    if trace_a.spec_hash != trace_b.spec_hash:
        raise SpecHashMismatch("traces come from different scenario specs")
    if trace_a.columns != trace_b.columns:
        return 0, None, trace_a.columns, trace_b.columns
    if trace_a.rows == trace_b.rows:
        return None
    for i, (ra, rb) in enumerate(zip_longest(trace_a.rows, trace_b.rows)):
        if ra is None or rb is None:  # a row only one trace has
            return (i, trace_a.columns[0], None if ra is None else ra[0],
                    None if rb is None else rb[0])
        ka, kb = _bits(ra), _bits(rb)
        if ka != kb:
            j = next(j for j, (a, b) in enumerate(zip(ka, kb)) if a != b)
            return i, trace_a.columns[j], ra[j], rb[j]
    return None
