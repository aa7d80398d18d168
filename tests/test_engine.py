"""Engine-level tests: determinism, snapshot semantics, protocol liveness
and the cross-layer invariants that only show up in full runs."""

import copy
import csv
import dataclasses
import hashlib
import importlib.util
import inspect
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    BROKEN_STRATEGIES,
    FOLLOWER_PLATOONING,
    count_quiet_scans,
    registry_replacing,
)

from platoonsim import comms, engine, scenario
from platoonsim.core import (
    ControllerKind,
    EventKind,
    FaultKind,
    LongitudinalMode,
    ManeuverState,
    MessageKind,
    PlatoonInfo,
    Role,
)
from platoonsim.engine import (
    Simulator,
    SpecHashMismatch,
    TickError,
    Trace,
    first_difference,
)
from platoonsim.management import ActiveInstruction, StrategyKey, StrategyOutput
from platoonsim.scenario import (
    CutInEvent,
    FaultEvent,
    RunSpec,
    ScenarioSpec,
    VehicleSpec,
    bundled_scenario,
)
from platoonsim.strategies import CACC, CC, DRIVER


BENCH_DIR = Path(__file__).resolve().parent.parent / "platoonbench"
GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text())


def load_bench_tracer():
    """The benchmark's tracer module, loaded from its file as it stands."""
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH_DIR / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def platoon_spec(name="five", duration=30.0, events=(), spacing=18.0, count=5, **modes):
    vehicles = tuple(
        VehicleSpec(vid=i, s=500.0 - spacing * (i - 1), lane=1, v=20.0,
                    role=Role.LEADER if i == 1 else Role.FOLLOWER)
        for i in range(1, count + 1))
    return ScenarioSpec(name=name, run=RunSpec(dt=0.05, duration=duration),
                        vehicles=vehicles, events=tuple(events), **modes)


def recorded_again(trace, change=None, drop_last=False):
    """A trace of ``trace``'s spec and columns whose rows are ``trace``'s
    recorded again, with ``change``, a (row, column name, value) triple, put
    in, or without the last row. A float cell reads back as ``float`` and
    no other cell of an engine trace is one, so each row's type splits it."""
    copy = Trace(trace.spec_hash, trace.columns)
    for i, row in enumerate(trace.rows[:len(trace.rows) - drop_last]):
        if change is not None and change[0] == i:
            row = list(row)
            row[trace.columns.index(change[1])] = change[2]
        cells = row[1:]
        copy.rows.record([v for v in cells if type(v) is float],
                         [v for v in cells if type(v) is not float])
    return copy


class TestDeterminism:
    def test_same_spec_two_runs_bit_identical(self):
        spec = bundled_scenario("v2v_fault")
        trace_a, _ = Simulator(spec).run()
        trace_b, _ = Simulator(spec).run()
        assert first_difference(trace_a, trace_b) is None

    def test_a_deep_copied_simulator_runs_as_the_original(self):
        sim = Simulator(bundled_scenario("integrated"))
        twin = copy.deepcopy(sim)
        trace, report = sim.run()
        twin_trace, twin_report = twin.run()
        assert twin_trace.rows == trace.rows
        assert twin_report.events == report.events

    def test_a_finished_run_round_trips_through_pickle(self):
        sim = Simulator(bundled_scenario("integrated"))
        _, report = sim.run()
        assert any(e.kind is EventKind.INSTRUCTION for e in report.events)
        for loaded in (pickle.loads(pickle.dumps(report)), pickle.loads(pickle.dumps(sim)).report):
            assert loaded.to_text() == report.to_text()
            assert loaded.events == report.events

    def test_declaration_order_does_not_change_the_trace(self):
        spec = platoon_spec(duration=3.0)
        reversed_spec = dataclasses.replace(spec, vehicles=spec.vehicles[::-1])
        trace_a, _ = Simulator(spec).run()
        trace_b, _ = Simulator(reversed_spec).run()
        assert trace_a.columns == trace_b.columns
        assert trace_a.rows == trace_b.rows

    def test_modified_dt_is_a_hash_mismatch(self):
        trace_a, _ = Simulator(platoon_spec(duration=2.0)).run()
        spec_b = dataclasses.replace(platoon_spec(), run=RunSpec(dt=0.025, duration=2.0))
        trace_b, _ = Simulator(spec_b).run()
        with pytest.raises(SpecHashMismatch):
            first_difference(trace_a, trace_b)

    def test_first_difference_names_the_cell_and_both_values(self):
        trace_a, _ = Simulator(platoon_spec(duration=2.0)).run()
        v = trace_a.rows[17][trace_a.columns.index("v3_v")]
        trace_b = recorded_again(trace_a, change=(17, "v3_v", v + 1e-12))
        assert first_difference(trace_a, trace_b) == (17, "v3_v", v, v + 1e-12)
        assert first_difference(trace_a, trace_a) is None
        assert first_difference(trace_a, recorded_again(trace_a)) is None

    def test_first_difference_of_a_missing_row(self):
        trace_a, _ = Simulator(platoon_spec(duration=1.0)).run()
        trace_b = recorded_again(trace_a, drop_last=True)
        last = len(trace_a.rows) - 1
        assert first_difference(trace_a, trace_b) == (last, "tick", last, None)
        assert first_difference(trace_b, trace_a) == (last, "tick", None, last)

    @staticmethod
    def two_row_trace(time_b):
        """A trace of two rows whose second time cell is ``time_b``."""
        trace = Trace("hash", ("tick", "time", "label"))
        trace.rows.record([0.05], ["x"])
        trace.rows.record([time_b], ["x"])
        return trace

    def test_a_trace_holding_nan_equals_itself(self):
        trace = self.two_row_trace(math.nan)
        assert first_difference(trace, trace) is None
        assert trace.rows == trace.rows == self.two_row_trace(math.nan).rows
        assert first_difference(trace, self.two_row_trace(math.nan)) is None

    def test_negative_zero_differs_from_zero(self, tmp_path):
        a, b = self.two_row_trace(-0.0), self.two_row_trace(0.0)
        assert first_difference(a, b) == (1, "time", -0.0, 0.0)
        assert math.copysign(1.0, first_difference(a, b)[2]) == -1.0
        assert a.rows != b.rows and b.rows != a.rows
        a.write_csv(tmp_path / "a.csv")
        b.write_csv(tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()

    def test_csv_bytes_identical(self, tmp_path):
        spec = bundled_scenario("steady")
        for leg in ("a", "b"):
            trace, _ = Simulator(spec).run()
            trace.write_csv(tmp_path / f"{leg}.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestSnapshotSemantics:
    def test_first_tick_reading_is_pre_step_gap(self):
        # radar consumed this tick reflects the tick-start snapshot exactly
        spec = platoon_spec(duration=0.05)
        trace, _ = Simulator(spec).run()
        cols = trace.columns
        assert trace.rows[0][cols.index("v2_gap")] == pytest.approx(13.0)

    def test_leader_state_update_not_visible_same_tick(self):
        spec = platoon_spec(duration=10.0)
        sim = Simulator(spec)
        seen = []

        def observer(s, tick):
            if tick == 0:
                # the trace row stores post-step state, but the recorded gap
                # came from the pre-step snapshot
                seen.append(s.runtimes[2].state.s)

        trace, _ = Simulator(spec).run(observer)
        assert trace.rows[0][trace.columns.index("v2_gap")] == pytest.approx(13.0)


class TestPlatoonConsistency:
    def test_leader_series_matches_true_order_every_tick(self):
        spec = bundled_scenario("join_tail")
        sim = Simulator(spec)
        violations = []

        def observer(s, tick):
            leader = s.runtimes[1]
            if leader.replica is None:
                return
            series = tuple(leader.replica.id_series)
            true_order = tuple(sorted(series, key=lambda v: -s.runtimes[v].state.s))
            if series != true_order:
                violations.append((tick, series, true_order))

        sim.run(observer)
        assert violations == []

    def test_membership_conservation(self):
        spec = bundled_scenario("v2v_fault")
        sim = Simulator(spec)
        bad = []

        def observer(s, tick):
            leader = s.runtimes[1]
            if leader.replica is None:
                return
            series = leader.replica.id_series
            if len(set(series)) != len(series):
                bad.append(tick)

        sim.run(observer)
        assert bad == []


class TestProtocolLiveness:
    def _flag_times(self, report, kind):
        return [(e.tick, e.vehicle) for e in report.events
                if e.kind is EventKind.FLAG and e.detail == kind]

    @pytest.mark.parametrize("name", ["join_tail", "join_middle", "aeb_head"])
    def test_every_join_flag_answered_by_one_update_flag(self, name):
        spec = bundled_scenario(name)
        _, report = Simulator(spec).run()
        joins = self._flag_times(report, "JoinFlag")
        updates = self._flag_times(report, "UpdateFlag")
        assert joins, "scenario must exercise at least one join"
        delay = spec.params.bus.delivery_delay_ticks
        for jt, _ in joins:
            answers = [ut for ut, _ in updates if jt < ut <= jt + delay + 1]
            assert len(answers) == 1

    def test_announce_synchronizes_members_within_delay(self):
        spec = bundled_scenario("cut_in")
        _, report = Simulator(spec).run()
        starts = {e.vehicle: e.tick for e in report.events
                  if e.kind is EventKind.MANEUVER_START and e.detail == "CutIn"}
        first = min(starts.values())
        delay = spec.params.bus.delivery_delay_ticks
        assert set(starts) == {1, 2, 3, 4, 5}
        assert all(t <= first + delay + 1 for t in starts.values())


class TestDegradation:
    def test_controller_switch_latencies(self):
        spec = platoon_spec(duration=30.0,
                            events=[FaultEvent(t=10.0, target=3,
                                               kind=FaultKind.RADAR_FAIL)])
        trace, report = Simulator(spec).run()
        switches = {}
        for e in report.events:
            if e.kind is EventKind.CONTROLLER and e.time >= 10.0 and e.vehicle in (3, 4, 5):
                switches.setdefault(e.vehicle, e)
        assert switches[3].detail.startswith("CC@")
        assert switches[3].time == pytest.approx(10.0)
        # CC at v3's speed when the fault hit, less the drop
        selected = switches[3].subject.longitudinal
        v_at_fault = trace.rows[switches[3].tick - 1][trace.columns.index("v3_v")]
        assert selected.mode is LongitudinalMode.CC
        assert selected.v_set == v_at_fault - spec.params.cc_fault_speed_drop
        delay = spec.params.bus.delivery_delay_ticks * spec.run.dt
        for vid in (4, 5):
            assert switches[vid].detail == "ACC"
            assert switches[vid].time <= 10.0 + delay + spec.run.dt

    def test_takeover_terminality(self):
        spec = bundled_scenario("v2v_fault")
        trace, report = Simulator(spec).run()
        cols = trace.columns
        for t_req, vid in report.takeovers:
            roles = [(row[1], row[cols.index(f"v{vid}_role")]) for row in trace.rows]
            after_free = [r for (t, r) in roles
                          if t > t_req + spec.params.takeover_delay_s + 0.1]
            assert after_free and all(r == "FreeVehicle" for r in after_free)

    def test_aeb_dominance_exact_full_braking(self):
        spec = bundled_scenario("aeb_head")
        trace, _ = Simulator(spec).run()
        cols = trace.columns
        checked = 0
        for row in trace.rows:
            for vid in range(1, 6):
                if row[cols.index(f"v{vid}_controller")] == "AEB" \
                        and row[cols.index(f"v{vid}_v")] > 0.0:
                    assert row[cols.index(f"v{vid}_a")] == -spec.params.limits.d_max
                    checked += 1
        assert checked > 50


class TestStringBehavior:
    def _overshoots(self, v_target):
        # platoon at the 20 m/s equilibrium; the cruise setpoint steps at t=0
        vehicles = tuple(
            VehicleSpec(vid=i, s=500.0 - 18.0 * (i - 1), lane=1, v=20.0,
                        role=Role.LEADER if i == 1 else Role.FOLLOWER)
            for i in range(1, 6))
        from platoonsim.params import Parameters
        spec = ScenarioSpec(name="step", run=RunSpec(dt=0.05, duration=40.0),
                            vehicles=vehicles,
                            params=Parameters(platoon_speed=v_target))
        sim = Simulator(spec)
        overshoot = {i: 0.0 for i in range(2, 6)}

        def observer(s, tick):
            for vid in range(2, 6):
                v = s.runtimes[vid].state.v
                o = v - v_target if v_target > 20.0 else v_target - v
                overshoot[vid] = max(overshoot[vid], o)

        sim.run(observer)
        return overshoot

    @pytest.mark.parametrize("v_target", [22.0, 18.0])
    def test_speed_step_overshoot_does_not_grow_down_the_string(self, v_target):
        overshoot = self._overshoots(v_target)
        for i in range(2, 5):
            assert overshoot[i + 1] <= overshoot[i] + 0.05, overshoot


class TestHaltAndReporting:
    def test_halt_on_collision_stops_early(self):
        spec = platoon_spec(
            duration=40.0,
            events=[FaultEvent(t=10.0, target=3, kind=FaultKind.RADAR_FAIL)],
            degradation_enabled=False, halt_on_collision=True)
        trace, report = Simulator(spec).run()
        assert report.collisions
        assert len(trace.rows) < spec.tick_count
        assert report.collisions[0][0] <= 20.0

    def test_report_text_is_stable(self):
        spec = bundled_scenario("steady")
        _, report_a = Simulator(spec).run()
        _, report_b = Simulator(spec).run()
        assert report_a.to_text() == report_b.to_text()
        assert "collisions: 0" in report_a.to_text()

    @pytest.mark.parametrize("name, completions", [
        ("join_middle", [(13.15, 1, ManeuverState.JOIN_MIDDLE),
                         (13.200000000000001, 2, ManeuverState.JOIN_MIDDLE),
                         (13.200000000000001, 3, ManeuverState.JOIN_MIDDLE),
                         (13.200000000000001, 4, ManeuverState.JOIN_MIDDLE),
                         (13.200000000000001, 5, ManeuverState.JOIN_MIDDLE)]),
        ("v2v_fault", [(23.0, 3, ManeuverState.HARDWARE_FAILURES),
                       (23.5, 4, ManeuverState.HARDWARE_FAILURES),
                       (23.5, 5, ManeuverState.HARDWARE_FAILURES),
                       (23.55, 1, ManeuverState.HARDWARE_FAILURES),
                       (23.6, 2, ManeuverState.HARDWARE_FAILURES)]),
    ])
    def test_completions_list_each_maneuver_complete(self, name, completions):
        _, report = Simulator(bundled_scenario(name)).run()
        assert report.completions == completions  # a maneuver compares by identity

    def test_event_subjects_are_typed_values(self):
        subject_types = {
            EventKind.MANEUVER_START: ManeuverState,
            EventKind.MANEUVER_COMPLETE: ManeuverState,
            EventKind.ROLE_CHANGE: Role, EventKind.FLAG: MessageKind,
            EventKind.FAULT_INJECTED: FaultKind, EventKind.CONTROLLER: ControllerKind,
            EventKind.PLATOON_UPDATE: PlatoonInfo, EventKind.INSTRUCTION: ActiveInstruction,
            EventKind.CUT_IN_SPAWN: CutInEvent, EventKind.COLLISION: int, EventKind.NOTE: str}
        seen = set()
        for name, degradation in [("join_middle", True), ("cut_in", True),
                                  ("radar_fault", True), ("radar_fault", False)]:
            spec = dataclasses.replace(bundled_scenario(name),
                                       degradation_enabled=degradation)
            for e in Simulator(spec).run()[1].events:
                assert isinstance(e.subject, subject_types[e.kind]), e
                seen.add(e.kind)
        assert seen == set(subject_types)

    def test_events_log_round_trip(self, tmp_path):
        spec = bundled_scenario("join_tail")
        _, report = Simulator(spec).run()
        path = tmp_path / "events.log"
        report.write_events(path)
        text = path.read_text()
        assert "JoinFlag" in text and "maneuver_complete" in text


class TestBenchmarkHookPoints:
    """The benchmark's tracer wraps these names where the engine resolves
    them; losing one zeroes its per-layer metrics or breaks the traced
    bus-copy check."""

    def test_engine_resolves_the_wrapped_layer_functions(self):
        for name in ("radar_sense", "v2v_payload", "detect_peer_failure",
                     "detect_collisions", "step_longitudinal", "step_lateral"):
            assert callable(getattr(engine, name)), name

    def test_leading_parameters(self):
        radar = list(inspect.signature(engine.radar_sense).parameters)
        collisions = list(inspect.signature(engine.detect_collisions).parameters)
        assert radar[:2] == ["ego_id", "states"]
        assert collisions[:1] == ["states"]

    def test_the_benchmark_harness_imports_against_src(self):
        # harness.py imports the tracer, whose WRAPPED table reads classes of
        # the program at import: without one, even an untraced run fails
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run([sys.executable, "-c", "import harness"], cwd=BENCH_DIR,
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_wrapped_methods_exist(self):
        assert callable(comms.MessageBus.deliver)
        assert callable(comms.MessageBus.send)
        assert callable(scenario.load_scenario)
        assert callable(scenario.scenario_from_dict)

    def test_load_scenario_resolves_scenario_from_dict_on_the_module(self, monkeypatch):
        calls = []
        original = scenario.scenario_from_dict

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(scenario, "scenario_from_dict", counting)
        spec = scenario.load_scenario(scenario.bundled_scenario_path("steady"))
        assert len(calls) == 1 and spec.name == "steady"

    def test_traced_v2v_fault_matches_golden_and_counts_peer_checks(self, tmp_path):
        # the benchmark runs bundled legs under its tracer and checks the
        # trace digest and the bus copies against platoonbench/golden.json
        with load_bench_tracer().Tracer() as tracer:
            trace, _ = Simulator(bundled_scenario("v2v_fault")).run(tracer.observe)
        trace.write_csv(tmp_path / "trace.csv")
        golden = GOLDEN["v2v_fault"]
        assert hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest() \
            == golden["trace_sha256"]
        summary = tracer.summary()
        assert summary["comms.MessageBus.deliver.copies"] == golden["bus_copies"]
        assert summary["comms.detect_peer_failure.calls"] > 0


    def test_each_hook_is_called_once_per_vehicle_tick(self, monkeypatch):
        # a per-layer metric counts these calls; a leaner tick must not lose any
        calls = {}
        for name in ("radar_sense", "v2v_payload", "step_longitudinal",
                     "step_lateral", "detect_collisions"):
            original = getattr(engine, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(engine, name, counting)
        _, report = Simulator(platoon_spec(count=20, duration=2.0)).run()
        assert report.ticks == 40
        assert calls == {"radar_sense": 800, "v2v_payload": 800, "step_longitudinal": 800,
                         "step_lateral": 800, "detect_collisions": 40}


def records_the_tick_builds(monkeypatch, spec):
    """Every VehicleState, RadarReading, PeerView and V2VMessage one run of
    ``spec`` steps, senses, looks up or sends, by type name; the tick builds
    the hot ones with ``tuple.__new__``, which neither fills defaults nor
    runs the constructor's checks."""
    records = {}

    def keep(record):
        if record is not None:
            records.setdefault(type(record).__name__, []).append(record)

    def keeping(original):
        def kept(*args, **kwargs):
            out = original(*args, **kwargs)
            keep(out)
            return out
        return kept

    def sending(bus, msg, faults, _send=comms.MessageBus.send):
        keep(msg)
        return _send(bus, msg, faults)

    for name in ("radar_sense", "step_longitudinal", "step_lateral"):
        monkeypatch.setattr(engine, name, keeping(getattr(engine, name)))
    monkeypatch.setattr(comms.PeerViews, "get", keeping(comms.PeerViews.get))
    monkeypatch.setattr(comms.MessageBus, "send", sending)
    Simulator(spec).run()
    return records


@pytest.mark.parametrize("name, degradation", [
    ("integrated", True), ("v2v_fault", False), ("radar_fault", True)])
def test_every_record_the_tick_builds_is_whole(monkeypatch, name, degradation):
    spec = dataclasses.replace(bundled_scenario(name), degradation_enabled=degradation)
    records = records_the_tick_builds(monkeypatch, spec)
    assert set(records) == {"VehicleState", "RadarReading", "PeerView", "V2VMessage"}
    for kind in records.values():
        for x in kind:
            assert len(x) == len(type(x)._fields)
            assert x == type(x)(*x)  # a VehicleState's speed check runs here
    assert any(m.kind is MessageKind.HEARTBEAT for m in records["V2VMessage"])
    if name == "v2v_fault":
        assert any(view.zeroed for view in records["PeerView"])
    if name == "radar_fault":
        assert any(not reading.valid for reading in records["RadarReading"])


# Python-level calls per vehicle-tick of a steady 20-vehicle platoon: 59.9
# before the calls that did no work were cut, 45.2 after, 44.2 since delivery
# groups by sender alone, 39.2 since faults and heartbeats are read and built
# without a helper call, 31.2 since the per-tick records are built with
# tuple.__new__ and the sweep reads their fields; the ceiling leaves 2
CALL_CEILING = 33.2


@pytest.mark.skipif(sys.implementation.name != "cpython",
                    reason="counts CPython profiler call events")
def test_python_calls_per_vehicle_tick_stay_within_budget():
    sim = Simulator(platoon_spec(count=20, duration=2.0))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        _, report = sim.run()
    finally:
        sys.setprofile(previous)
    assert report.ticks == 40
    assert calls / (20 * report.ticks) <= CALL_CEILING


class TestSharedHeartbeatTable:
    """Which peer stores read the bus's heartbeat table; the equivalence of
    shared and private stores is in tests/test_heartbeat_table.py."""

    @staticmethod
    def detached(sim):
        return {vid for vid, rt in sim.runtimes.items()
                if rt.manager is not None and rt.peer_store.table is not sim.bus.heartbeats}

    def test_steady_platoon_keeps_every_store_on_the_bus_table(self):
        sim = Simulator(platoon_spec(duration=3.0, count=40))
        seen = []
        sim.run(lambda s, tick: seen.append(self.detached(s)))
        assert len(seen) == 60 and not any(seen)

    def test_only_the_faulty_receiver_detaches(self):
        spec = bundled_scenario("v2v_fault")
        (fault,) = [e for e in spec.events if isinstance(e, FaultEvent)]
        sim = Simulator(spec)
        first = {}

        def observer(s, tick):
            for vid in self.detached(s):
                first.setdefault(vid, tick)

        sim.run(observer)
        # the fault is injected in the cloud stage, before that tick's delivery
        assert first == {fault.target: round(fault.t / spec.run.dt)}

    def test_v2v_fault_views_match_private_stores(self):
        # the faulty receiver's store detaches onto a frozen copy; every
        # store must read as a private one fed its owner's full inboxes
        spec = bundled_scenario("v2v_fault")
        (fault,) = [e for e in spec.events if isinstance(e, FaultEvent)]

        def record(sim, log):
            def observer(s, tick):
                for vid, rt in s.runtimes.items():
                    store = rt.peer_store
                    log.append((tick, vid, dict(rt.ctx.peers.items()),
                                store.preceding_member(rt.state), rt.replica))
            return observer

        shared_run = Simulator(spec)
        private_run = Simulator(spec)
        # one private table per vehicle, fed that vehicle's full inbox
        timeout = private_run.bus.heartbeats.timeout_ticks
        private = {vid: comms.PeerViewStore(vid, comms.HeartbeatTable(timeout))
                   for vid in private_run._managed}
        for vid, store in private.items():
            private_run.runtimes[vid].peer_store = store

        def feeding(tick, faults):
            inboxes = comms.MessageBus.deliver(private_run.bus, tick, faults)
            for vid, inbox in inboxes.items():
                private[vid].table.update(inbox)
            return inboxes

        private_run.bus.deliver = feeding
        shared_log, private_log = [], []
        trace_a, report_a = shared_run.run(record(shared_run, shared_log))
        trace_b, report_b = private_run.run(record(private_run, private_log))
        assert shared_log == private_log
        assert trace_a.rows == trace_b.rows and report_a.events == report_b.events
        assert self.detached(shared_run) == {fault.target}


class TakeoverRequestAtTickForty:
    """Follower v2 sends a TakeoverRequest at tick 40 and does nothing else."""

    def step(self, ctx, progress):
        out = StrategyOutput(controller=CACC())
        if ctx.tick == 40 and ctx.ego_id == 2:
            out.messages.append(ctx.make(MessageKind.TAKEOVER_REQUEST))
        return out


class TestTakeovers:
    def test_report_lists_each_sent_takeover_request(self):
        registry = registry_replacing(FOLLOWER_PLATOONING, TakeoverRequestAtTickForty())
        _, report = Simulator(platoon_spec(duration=5.0), registry).run()
        assert report.takeovers == [(pytest.approx(2.0), 2)]


class TestTickErrors:
    @pytest.mark.parametrize("strategy, cause, text", BROKEN_STRATEGIES)
    def test_protocol_error_names_tick_vehicle_and_maneuver(self, strategy, cause, text):
        registry = registry_replacing(FOLLOWER_PLATOONING, strategy)
        with pytest.raises(TickError) as info:
            Simulator(platoon_spec(duration=5.0), registry).run()
        err = info.value
        assert (err.tick, err.vehicle, err.maneuver) == (40, 2, "Platooning")
        assert err.time == pytest.approx(2.0)
        assert isinstance(err.__cause__, cause)
        assert str(err).startswith("tick 40 (t=2.000 s), v2 in Platooning: ")
        assert text in str(err) and "\n" not in str(err)

    def test_cut_in_from_a_non_adjacent_lane_names_tick_and_intruder(self):
        spec = bundled_scenario("cut_in")
        (cut_in,) = spec.events
        spec = dataclasses.replace(spec, events=(dataclasses.replace(cut_in, lane=1),))
        with pytest.raises(TickError) as info:
            Simulator(spec).run()
        err = info.value
        assert (err.tick, err.vehicle, err.maneuver) == (200, 6, "-")
        assert isinstance(err.__cause__, ValueError)
        assert str(err) == ("tick 200 (t=10.000 s), v6 in -: ValueError: cut-in lane 1 "
                            "not adjacent to the target's lane 1 at spawn time")


class TestBenchmarkDeliveryCount:
    def test_deliver_returns_lists_whose_lengths_sum_to_the_copy_count(self, monkeypatch):
        # the benchmark's tracer counts bus copies as the summed lengths of
        # deliver's values and checks the sum against the golden count
        copies = []
        original = comms.MessageBus.deliver

        def counting(*args, **kwargs):
            inboxes = original(*args, **kwargs)
            assert all(type(box) is list for box in inboxes.values())
            copies.append(sum(map(len, inboxes.values())))
            return inboxes

        monkeypatch.setattr(comms.MessageBus, "deliver", counting)
        Simulator(bundled_scenario("v2v_fault")).run()
        assert sum(copies) == GOLDEN["v2v_fault"]["bus_copies"]


class TestTraceCsv:
    def test_cells_are_formatted(self, tmp_path):
        trace = engine.Trace("hash", ("tick", "time", "v1_s", "v1_maneuver", "v1_gap"))
        trace.rows.record([0.05, 3, 1.0 / 3.0], ["JoinTail"])
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        assert path.read_bytes().splitlines()[1] == b"0,0.050000,3.000000,JoinTail,0.333333"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [list(trace.columns), ["0", "0.050000", "3.000000", "JoinTail", "0.333333"]]


class LeaderSpeedStep:
    """Platooning leader that cruises at 15 m/s, then at 20 m/s from tick 20."""

    def step(self, ctx, progress):
        return StrategyOutput(controller=CC(15.0 if ctx.tick < 20 else 20.0))


class TestTickCaches:
    def test_controller_label_follows_a_set_speed_change(self):
        registry = registry_replacing(
            StrategyKey(ManeuverState.PLATOONING, Role.LEADER), LeaderSpeedStep())
        trace, report = Simulator(platoon_spec(duration=2.0), registry).run()
        labels = [e.detail for e in report.events
                  if e.kind is EventKind.CONTROLLER and e.vehicle == 1]
        assert labels == ["CC@15.00", "CC@20.00"]
        column = trace.columns.index("v1_controller")
        assert [row[column] for row in trace.rows] == ["CC@15.00"] * 20 + ["CC@20.00"] * 20

    def test_steady_selections_run_no_controller_equality(self, monkeypatch):
        calls = []
        original = ControllerKind.__eq__

        def counting(kind, other):
            calls.append(kind)
            return original(kind, other)

        monkeypatch.setattr(ControllerKind, "__eq__", counting)
        after_first_tick = []
        Simulator(platoon_spec(duration=2.0)).run(
            lambda sim, tick: after_first_tick.append(len(calls)) if tick == 0 else None)
        assert len(calls) == after_first_tick[0]

    def test_cc_shares_one_selection_per_set_speed_and_sign(self):
        assert CC(15.0) is CC(15.0)
        assert CC(-0.0) is not CC(0.0)
        assert math.copysign(1.0, CC(-0.0).longitudinal.v_set) == -1.0
        assert math.copysign(1.0, CC(0.0).longitudinal.v_set) == 1.0

    def test_negative_zero_set_speed_keeps_its_label(self):
        class LeaderNegativeZero:
            def step(self, ctx, progress):
                return StrategyOutput(controller=CC(-0.0))

        CC(0.0)  # a cached +0.0 selection must not stand in for -0.0
        registry = registry_replacing(
            StrategyKey(ManeuverState.PLATOONING, Role.LEADER), LeaderNegativeZero())
        trace, _ = Simulator(platoon_spec(duration=0.5), registry).run()
        column = trace.columns.index("v1_controller")
        assert {row[column] for row in trace.rows} == {"CC@-0.00"}

    def test_driver_shares_one_selection_per_set_speed_and_sign(self):
        assert DRIVER(12.5) is DRIVER(12.5)
        assert DRIVER(-0.0) is not DRIVER(0.0)
        assert math.copysign(1.0, DRIVER(-0.0).longitudinal.v_set) == -1.0
        assert DRIVER(12.5) is not CC(12.5)

    @pytest.mark.parametrize("v_set, label", [(0.0, "Driver@0.00"), (-0.0, "Driver@-0.00"),
                                              (12.345, "Driver@12.35")])
    def test_driver_labels_are_unchanged(self, v_set, label):
        class LeaderDriver:
            def step(self, ctx, progress):
                return StrategyOutput(controller=DRIVER(v_set))

        DRIVER(0.0), DRIVER(-0.0)  # a cached selection must not stand in for the other zero
        registry = registry_replacing(
            StrategyKey(ManeuverState.PLATOONING, Role.LEADER), LeaderDriver())
        trace, report = Simulator(platoon_spec(duration=0.5), registry).run()
        column = trace.columns.index("v1_controller")
        assert {row[column] for row in trace.rows} == {label}
        assert [e.detail for e in report.events
                if e.kind is EventKind.CONTROLLER and e.vehicle == 1] == [label]

    def quiet_scans_per_tick(self, monkeypatch, count):
        scans = count_quiet_scans(monkeypatch)
        per_tick = []
        Simulator(platoon_spec(count=count, duration=3.0)).run(
            lambda sim, tick: per_tick.append(len(scans) - sum(per_tick)))
        return per_tick

    def test_quiet_peer_scans_per_tick_do_not_grow_with_the_platoon(self, monkeypatch):
        ten = self.quiet_scans_per_tick(monkeypatch, 10)
        forty = self.quiet_scans_per_tick(monkeypatch, 40)
        assert len(ten) == len(forty) == 60
        # every member holds the leader's replica: one series, one scan a tick
        assert ten == forty == [1] * 60

    @pytest.mark.parametrize("name", ["v2v_fault", "integrated"])
    def test_an_untraced_run_builds_no_full_inbox(self, monkeypatch, name):
        returned, cuts = {}, []  # the full inboxes, kept alive, by id
        deliver, cut = comms.MessageBus.deliver, comms.Inboxes.__getitem__

        def delivering(bus, tick, faults):
            inboxes = deliver(bus, tick, faults)
            returned[id(inboxes)] = inboxes
            return inboxes

        def cutting(inboxes, rid):
            if id(inboxes) in returned:  # not the flag inboxes the engine reads
                cuts.append(rid)
            return cut(inboxes, rid)

        monkeypatch.setattr(comms.MessageBus, "deliver", delivering)
        monkeypatch.setattr(comms.Inboxes, "__getitem__", cutting)
        _, report = Simulator(bundled_scenario(name)).run()
        assert len(returned) == report.ticks
        assert any(e.kind is EventKind.FLAG for e in report.events)  # flags were delivered
        assert cuts == []

    def test_membership_is_not_retested_every_vehicle_tick(self, monkeypatch):
        calls = []
        original = Role.is_member

        def counting(role):
            calls.append(role)
            return original(role)

        monkeypatch.setattr(Role, "is_member", counting)
        spec = bundled_scenario("leave_middle")
        _, report = Simulator(spec).run()
        assert 0 < len(calls) <= len(spec.vehicles) * report.ticks / 100

    def test_intruder_is_in_the_radar_snapshot_on_its_spawn_tick(self, monkeypatch):
        sensed = []
        original = engine.radar_sense

        def recording(ego_id, states, *args, **kwargs):
            sensed[-1] = dict(states)
            return original(ego_id, states, *args, **kwargs)

        monkeypatch.setattr(engine, "radar_sense", recording)
        spec = dataclasses.replace(bundled_scenario("cut_in"), run=RunSpec(0.05, 12.0))
        sim = Simulator(spec)
        sensed.append(None)
        _, report = sim.run(lambda s, tick: sensed.append(None))
        (spawn,) = [e for e in report.events if e.kind is EventKind.CUT_IN_SPAWN]
        states = sensed[spawn.tick]
        assert spawn.vehicle in states
        assert states[spawn.vehicle].lane == spec.events[0].lane
        assert spawn.vehicle not in sensed[spawn.tick - 1]


class TestLeaderV2VFault:
    """A leader that cannot hear must not blame its followers for the silence."""

    @pytest.fixture(scope="class")
    def report(self):
        spec = dataclasses.replace(bundled_scenario("steady"),
                                   events=(FaultEvent(5.0, 1, FaultKind.V2V_FAIL),))
        return Simulator(spec).run()[1]

    def test_leader_handles_at_most_one_failure(self, report):
        starts = [e for e in report.events
                  if e.vehicle == 1 and e.kind is EventKind.MANEUVER_START
                  and e.detail == "HardwareFailures"]
        assert len(starts) <= 1

    def test_no_prune_before_the_first_takeover(self, report):
        first_takeover = min(e.time for e in report.events
                             if e.kind is EventKind.NOTE and e.detail == "driver took over")
        assert first_takeover == pytest.approx(8.5)
        assert not [e for e in report.events if e.kind is EventKind.NOTE
                    and e.detail.startswith("pruned") and e.time < first_takeover]

    def test_every_follower_still_takes_over(self, report):
        taken_over = {e.vehicle for e in report.events
                      if e.kind is EventKind.ROLE_CHANGE and e.detail == "FreeVehicle"}
        assert taken_over == {2, 3, 4, 5}
