"""Scenario file loading, strict validation, and the scripted cloud layer."""

import copy
import dataclasses
import json
import random
import re
from pathlib import Path

import pytest

from platoonsim.cloud import Cloud, IntruderScript
from platoonsim.core import (
    FaultKind,
    ManeuverState,
    MessageKind,
    PlatoonInfo,
    Role,
    V2VMessage,
    VehicleState,
)
from platoonsim.params import Parameters
from platoonsim.scenario import (
    _EVENT_KINDS,
    CutInEvent,
    FaultEvent,
    JoinEvent,
    LeaveEvent,
    RunSpec,
    ScenarioSpec,
    SpecError,
    VehicleSpec,
    bundled_scenario_path,
    initial_platoon,
    load_scenario,
    scenario_from_dict,
)

BASE = {
    "name": "t",
    "run": {"dt": 0.05, "duration": 10.0},
    "vehicles": [
        {"id": 1, "s": 100.0, "lane": 1, "v": 20.0, "role": "leader"},
        {"id": 2, "s": 82.0, "lane": 1, "v": 20.0, "role": "follower"},
    ],
    "events": [],
}


def doc(**overrides):
    out = json.loads(json.dumps(BASE))
    out.update(overrides)
    return out


def vehicle(index, **fields):
    """Overrides replacing the base vehicles, with ``fields`` set on one."""
    vehicles = json.loads(json.dumps(BASE["vehicles"]))
    vehicles[index].update(fields)
    return {"vehicles": vehicles}


def event(**fields):
    """Overrides holding one event, at t = 1 s unless ``fields`` says otherwise."""
    return {"events": [{"t": 1.0, **fields}]}


NAN = float("nan")
INF = float("inf")
ONE_LANE = {"parameters": {"geometry": {"lane_count": 1}},
            "vehicles": [{**v, "lane": 0} for v in BASE["vehicles"]]}
CUT_IN = {"kind": "cut_in", "target": 1, "lane": 0, "s_offset": 8.0, "duration": 5.0,
          "ttc_satisfying": False}


class TestLoading:
    def test_minimal_document_loads(self):
        spec = scenario_from_dict(doc())
        assert spec.tick_count() == 200
        assert spec.vehicles[0].role is Role.LEADER

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(SpecError, match="unknown key"):
            scenario_from_dict(doc(extra=1))

    def test_unknown_vehicle_key_rejected(self):
        bad = doc()
        bad["vehicles"][0]["color"] = "blue"
        with pytest.raises(SpecError, match="unknown key"):
            scenario_from_dict(bad)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(SpecError, match="unknown key"):
            scenario_from_dict(doc(parameters={"not_a_knob": 3}))

    def test_parameter_override_applies(self):
        spec = scenario_from_dict(doc(parameters={
            "gains": {"kp": 0.9}, "platoon_speed": 22.0}))
        assert spec.params.gains.kp == 0.9
        assert spec.params.platoon_speed == 22.0
        assert spec.params.gains.kv == 0.6  # untouched default

    def test_event_parsing(self):
        free = {"id": 3, "s": 60.0, "lane": 0, "v": 20.0, "role": "free"}
        spec = scenario_from_dict(doc(vehicles=BASE["vehicles"] + [free], events=[
            {"t": 1.0, "kind": "join", "target": 2, "position": "tail"},
            {"t": 2.0, "kind": "join", "target": 3, "position": "before:2"},
            {"t": 3.0, "kind": "fault", "target": 2, "fault": "radar"},
            {"t": 4.0, "kind": "leave", "target": 2},
            {"t": 5.0, "kind": "cut_in", "target": 1, "lane": 0, "s_offset": 8.0,
             "duration": 5.0, "ttc_satisfying": False},
        ]))
        join_tail, join_mid, fault, leave, cut = spec.events
        assert isinstance(join_tail, JoinEvent) and join_tail.before is None
        assert isinstance(join_mid, JoinEvent) and join_mid.before == 2
        assert isinstance(fault, FaultEvent) and fault.kind is FaultKind.RADAR_FAIL
        assert isinstance(leave, LeaveEvent)
        assert isinstance(cut, CutInEvent) and cut.speed_delta is None

    def test_missing_file_is_spec_error(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read"):
            load_scenario(tmp_path / "nope.scenario")

    def test_a_file_that_is_not_utf8_is_spec_error(self, tmp_path):
        path = tmp_path / "utf16.scenario"
        path.write_bytes(b"\xff\xfe" + json.dumps(doc()).encode("utf-16-le"))
        with pytest.raises(SpecError, match=r"utf16\.scenario is not UTF-8 JSON: 'utf-8' codec"):
            load_scenario(path)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "t.scenario"
        path.write_text(json.dumps(doc()))
        spec = load_scenario(path)
        assert spec.name == "t"

    def test_spec_hash_stable_and_sensitive(self):
        a = scenario_from_dict(doc())
        b = scenario_from_dict(doc())
        assert a.spec_hash() == b.spec_hash()
        c = scenario_from_dict(doc(run={"dt": 0.025, "duration": 10.0}))
        assert a.spec_hash() != c.spec_hash()
        d = scenario_from_dict(doc(modes={"halt_on_collision": True}))
        assert a.spec_hash() != d.spec_hash()

    def test_seed_is_no_longer_a_run_key(self):
        with pytest.raises(SpecError, match="unknown key"):
            scenario_from_dict(doc(run={"dt": 0.05, "duration": 10.0, "seed": 0}))

    @pytest.mark.parametrize("overrides, where", [
        ({"parameters": {"gains": {"kp": -1}}}, "parameters.gains"),
        ({"parameters": {"limits": {"a_max": 0}}}, "parameters.limits"),
        ({"parameters": {"bus": {"delivery_delay_ticks": -1}}}, "parameters.bus"),
        ({"parameters": {"spacing": {"h_min": 0.9}}}, "parameters.spacing"),
        ({"parameters": {"geometry": {"lane_count": 0}}}, "parameters.geometry"),
        ({"parameters": {"geometry": {"lane_width": 0}}}, "parameters.geometry"),
        ({"parameters": {"geometry": {"lane_change_duration": 0}}}, "parameters.geometry"),
        ({"modes": {"degradation_enabled": "false"}}, "modes.degradation_enabled"),
        ({"modes": {"halt_on_collision": "no"}}, "modes.halt_on_collision"),
        ({"parameters": {"gains": {"ki": "a"}}}, "parameters.gains.ki"),
        ({"parameters": {"geometry": {"lane_count": 2.5}}}, "parameters.geometry.lane_count"),
        (vehicle(0, s=NAN), "vehicles[0].s"),
        (vehicle(1, s=-INF), "vehicles[1].s"),
        (vehicle(1, v=NAN), "vehicles[1].v"),
        (vehicle(1, length=NAN), "vehicles[1].length"),
        (vehicle(1, length=-5), "vehicles[1].length"),
        (vehicle(1, length=0), "vehicles[1].length"),
        ({"run": {"dt": NAN, "duration": 10.0}}, "run.dt"),
        ({"run": {"dt": "0.05", "duration": 10.0}}, "run.dt"),
        ({"run": {"dt": 0.05, "duration": INF}}, "run.duration"),
        ({"run": {"dt": 0.05, "duration": -5.0}}, "run.duration"),
        ({"vehicles": [BASE["vehicles"][0], 5]}, "vehicles[1]"),
        ({"vehicles": 5}, "vehicles"),
        (vehicle(1, lane="1"), "vehicles[1].lane"),
        (vehicle(1, lane=1.9), "vehicles[1].lane"),
        (vehicle(0, id=True), "vehicles[0].id"),
        (vehicle(1, id=2.0), "vehicles[1].id"),
        (vehicle(1, role=["follower"]), "vehicles[1].role"),
        (vehicle(1, v=-1.0), "vehicles[1].v"),
        ({"name": 5}, "name"),
        ({"run": []}, "run"),
        ({"parameters": []}, "parameters"),
        ({"modes": []}, "modes"),
        ({"events": {}}, "events"),
        (event(kind="leave", target="two"), "events[0].target"),
        (event(kind="leave", target=2.7), "events[0].target"),
        (event(kind="leave", target=True), "events[0].target"),
        (event(kind=["leave"], target=2), "events[0].kind"),
        (event(kind="join", target=2, position="before:x"), "events[0].position"),
        (event(kind="fault", target=2, fault=["v2v"]), "events[0].fault"),
        (event(**CUT_IN, speed_delta=-1.0), "events[0].speed_delta"),
        (event(**{**CUT_IN, "duration": -1}), "events[0].duration"),
        (event(**{**CUT_IN, "duration": 0}), "events[0].duration"),
        ({"parameters": {"radar_max_range": -1}}, "parameters.radar_max_range"),
        ({"parameters": {"heartbeat_timeout_s": -1}}, "parameters.heartbeat_timeout_s"),
        ({"parameters": {"vehicle_length": 0}}, "parameters.vehicle_length"),
        ({"parameters": {"join_gap": -0.5}}, "parameters.join_gap"),
        # both would hang in LeaveMiddle / JoinMiddle until the maneuver timeout
        (event(kind="leave", target=1), "events[0]"),
        (event(kind="join", target=2, position="before:2"), "events[0]"),
        # the bus has no radio range: a V2V fault is the one way to stop hearing it
        ({"parameters": {"bus": {"range_m": 100}}}, "parameters.bus"),
        # the leader has no role edge into a join: it would hang until the timeout
        (event(kind="join", target=1, position="tail"), "events[0]"),
        # on one lane a leaver has no lane to exit to, an intruder none to cut in from
        ({**ONE_LANE, **event(kind="leave", target=2)}, "events[0]"),
        ({**ONE_LANE, **event(**CUT_IN)}, "events[0]"),
        # no member is ahead of the leader to open a slot: it would hang too
        (event(kind="join", target=2, position="before:1"), "events[0]"),
        # the bus stage runs before the managers send: a zero delay runs as one
        ({"parameters": {"bus": {"delivery_delay_ticks": 0}}},
         "parameters.bus.delivery_delay_ticks must be positive"),
    ])
    def test_rejected_values_are_spec_errors(self, overrides, where):
        with pytest.raises(SpecError, match=re.escape(where)):
            scenario_from_dict(doc(**overrides))


class TestValidation:
    def test_a_vehicle_spec_built_in_python_refuses_a_float_lane(self):
        with pytest.raises(ValueError, match="lane 1.0 must be an integer"):
            VehicleSpec(vid=1, s=100.0, lane=1.0, v=20.0, role=Role.LEADER)
        # a loaded lane meets the field check first, with its own text
        with pytest.raises(SpecError, match=re.escape("vehicles[1].lane must be an integer")):
            scenario_from_dict(doc(**vehicle(1, lane=1.0)))

    def test_ids_must_be_dense(self):
        bad = doc()
        bad["vehicles"][1]["id"] = 5
        with pytest.raises(SpecError, match="dense"):
            scenario_from_dict(bad)

    def test_unsorted_events_rejected(self):
        with pytest.raises(SpecError, match="sorted"):
            scenario_from_dict(doc(events=[
                {"t": 5.0, "kind": "leave", "target": 2},
                {"t": 1.0, "kind": "leave", "target": 2},
            ]))

    def test_unknown_event_target_rejected_at_load(self):
        with pytest.raises(SpecError, match="not declared"):
            scenario_from_dict(doc(events=[
                {"t": 1.0, "kind": "leave", "target": 7}]))

    def test_follower_must_be_behind_leader(self):
        bad = doc()
        bad["vehicles"][1]["s"] = 150.0
        with pytest.raises(SpecError, match="behind the leader"):
            scenario_from_dict(bad)

    def test_bodies_overlapping_in_one_lane_at_start_rejected(self):
        # 1 m behind the leader's front, the follower's body is inside the leader's
        with pytest.raises(SpecError,
                           match=re.escape("vehicles[0]: vehicle 1 overlaps vehicle 2")):
            scenario_from_dict(doc(**vehicle(1, s=99.0)))
        scenario_from_dict(doc(**vehicle(1, s=95.0)))  # touching bumpers load
        beside = doc()
        beside["vehicles"].append({"id": 3, "s": 99.0, "lane": 0, "v": 20.0, "role": "free"})
        scenario_from_dict(beside)  # and so does a body beside another

    def test_duration_must_be_whole_ticks(self):
        with pytest.raises(SpecError, match="integer number of ticks"):
            scenario_from_dict(doc(run={"dt": 0.3, "duration": 1.0})).tick_count()

    @pytest.mark.parametrize("run", [{"dt": 0.05, "duration": 1e308},
                                     {"dt": 1e-320, "duration": 10.0}],
                             ids=["huge_duration", "tiny_dt"])
    def test_a_tick_count_that_overflows_is_a_spec_error(self, run):
        with pytest.raises(SpecError, match=r"^run\.duration must be a finite integer number"):
            scenario_from_dict(doc(run=run))

    @pytest.mark.parametrize("path", [
        "parameters.heartbeat_timeout_s", "parameters.maneuver_timeout_s",
        "parameters.join_service_delay_s", "parameters.takeover_delay_s",
        "parameters.restart_stagger_s", "events[0].duration"])
    def test_a_duration_with_no_finite_tick_count_is_a_spec_error(self, path):
        raw = doc(parameters={}, **event(**CUT_IN))
        node, key = locate(raw, path)
        node[key] = 1e308  # finite, but 1e308 / 0.05 ticks is not
        with pytest.raises(SpecError, match=rf"^{re.escape(path)} has no finite tick count "
                                            r"at run\.dt 0\.05$"):
            scenario_from_dict(raw)
        node[key] = 1e306
        scenario_from_dict(raw)

    def test_initial_platoon_order_is_front_to_back(self):
        spec = scenario_from_dict(doc())
        assert initial_platoon(spec) == (1, 2)


def full_document():
    """BASE with every key of every section spelled out, at its default where
    it has one; ``parameters`` comes from the dataclass, so a parameter added
    later is covered without editing this document."""
    out = doc(
        run={"dt": 0.05, "duration": 10.0},
        events=[
            {"t": 1.0, "kind": "join", "target": 2, "position": "tail"},
            {"t": 2.0, "kind": "leave", "target": 2},
            {**CUT_IN, "t": 3.0, "speed_delta": 0.0},
            {"t": 4.0, "kind": "fault", "target": 2, "fault": "radar"},
        ],
        parameters=dataclasses.asdict(Parameters()),
        modes={"degradation_enabled": True, "halt_on_collision": False},
    )
    out["vehicles"][1]["length"] = 5.0
    return out


def json_keys(cls, section=None):
    return {f.metadata.get("key", f.name) for f in dataclasses.fields(cls)
            if f.metadata.get("section") == section}


def values(node, path=""):
    """(JSON path, value) of every value below ``node``, paths as SpecErrors
    name them."""
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        child = f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}" if path else key
        yield child, value
        yield from values(value, child)


def locate(raw, path):
    """The container holding the value at JSON ``path``, and its key there."""
    *parents, last = re.findall(r"[^.\[\]]+", path)
    node = raw
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    return node, int(last) if isinstance(node, list) else last


def readme_key_table():
    """Section -> the keys that the README's scenario key table lists for it;
    a row with an empty section cell belongs to the section above."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    start = lines.index("| section | key | type | default | bound |")
    table, section = {}, None
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        section = cells[0].strip("`") or section
        table.setdefault(section, set()).update(re.findall(r"`([^`]+)`", cells[1]))
    return table


def test_readme_key_table_lists_exactly_the_json_keys():
    table = readme_key_table()
    assert table["run"] == json_keys(RunSpec)
    assert table["modes"] == json_keys(ScenarioSpec, "modes")
    defaults = Parameters()
    groups = {key for key in json_keys(Parameters)
              if dataclasses.is_dataclass(getattr(defaults, key))}
    assert table["parameters"] == json_keys(Parameters) - groups
    assert {section for section in table if section.startswith("parameters.")} \
        == {f"parameters.{group}" for group in groups}
    for group in groups:
        assert table[f"parameters.{group}"] == json_keys(type(getattr(defaults, group))), group


class TestSchemaCoverage:
    """Every field of every loaded dataclass takes a well-typed value and
    rejects a wrong-typed one with a SpecError naming its path."""

    def test_full_document_spells_out_every_field(self):
        raw = full_document()
        assert set(raw["run"]) == json_keys(RunSpec)
        assert set(raw["vehicles"][1]) == json_keys(VehicleSpec)
        assert set(raw["modes"]) == json_keys(ScenarioSpec, "modes")
        kinds = {e["kind"]: set(e) - {"kind"} for e in raw["events"]}
        assert kinds == {kind: json_keys(cls) for kind, cls in _EVENT_KINDS.items()}
        assert set(raw["parameters"]) == json_keys(Parameters)
        for group in dataclasses.fields(Parameters):
            value = getattr(Parameters(), group.name)
            if dataclasses.is_dataclass(value):
                assert set(raw["parameters"][group.name]) == json_keys(type(value))

    def test_well_typed_values_load(self):
        spec = scenario_from_dict(full_document())
        assert spec.params == Parameters()
        assert spec.run == RunSpec(dt=0.05, duration=10.0)
        assert spec.vehicles[1].length == 5.0
        assert [type(e) for e in spec.events] == [JoinEvent, LeaveEvent, CutInEvent,
                                                  FaultEvent]
        assert spec.degradation_enabled and not spec.halt_on_collision

    def test_wrong_typed_values_name_their_path(self):
        raw = full_document()
        checked = 0
        for path, value in values(raw):
            if isinstance(value, (dict, list)):
                continue
            wrong = [5 if isinstance(value, str) else "x"]
            if type(value) is int:
                wrong.append(2.5)
            for bad in wrong:
                mutant = copy.deepcopy(raw)
                node, key = locate(mutant, path)
                node[key] = bad
                with pytest.raises(SpecError, match=re.escape(path)):
                    scenario_from_dict(mutant)
                checked += 1
        assert checked > 60


MUTANTS = [None, True, "x", [], {}, -1, 2.5, NAN]
BUNDLED = sorted(p.stem for p in bundled_scenario_path("steady").parent.glob("*.scenario"))


@pytest.mark.parametrize("seed, name", enumerate(BUNDLED))
def test_mutated_bundled_scenarios_load_or_raise_spec_errors(seed, name):
    raw = json.loads(bundled_scenario_path(name).read_text())
    paths = [path for path, _ in values(raw)]
    rng = random.Random(seed)
    for _ in range(100):
        mutant = copy.deepcopy(raw)
        path = rng.choice(paths)
        node, key = locate(mutant, path)
        if rng.random() < 0.2:
            del node[key]
            change = f"del {path}"
        else:
            node[key] = copy.deepcopy(rng.choice(MUTANTS))
            change = f"{path} = {node[key]!r}"
        try:
            assert isinstance(scenario_from_dict(mutant), ScenarioSpec)
        except SpecError:
            pass
        except Exception as exc:  # noqa: BLE001 - any other exception fails the test
            pytest.fail(f"{name}: {change}: {exc!r}")


def test_readme_example_loads():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```json\n(.*?)```", readme, re.DOTALL)
    assert block is not None
    spec = scenario_from_dict(json.loads(block[1]))
    assert spec.events


def five_platoon():
    vehicles = tuple(
        VehicleSpec(vid=i, s=500.0 - 18.0 * (i - 1), lane=1, v=20.0,
                    role=Role.LEADER if i == 1 else Role.FOLLOWER)
        for i in range(1, 6))
    return vehicles


class TestCloud:
    def spec(self, events=()):
        return ScenarioSpec(name="c", run=RunSpec(duration=60.0),
                            vehicles=five_platoon(), events=tuple(events))

    def test_scripted_event_fires_at_its_time(self):
        spec = self.spec([JoinEvent(t=1.0, target=2)])
        cloud = Cloud(spec, spec.params, 0.05)
        platoon = PlatoonInfo((1,))
        assert cloud.tick(19, [], platoon).instructions == []
        out = cloud.tick(20, [], platoon)
        assert len(out.instructions) == 1
        assert out.instructions[0].maneuver == ManeuverState.JOIN_TAIL

    def test_leave_classified_by_tail_position(self):
        spec = self.spec([LeaveEvent(t=0.0, target=5), LeaveEvent(t=1.0, target=3)])
        cloud = Cloud(spec, spec.params, 0.05)
        platoon = PlatoonInfo((1, 2, 3, 4, 5))
        out = cloud.tick(0, [], platoon)
        assert out.instructions[0].maneuver == ManeuverState.LEAVE_TAIL
        out = cloud.tick(20, [], platoon)
        assert out.instructions[0].maneuver == ManeuverState.LEAVE_MIDDLE

    def test_join_request_answered_after_service_delay(self):
        spec = self.spec()
        cloud = Cloud(spec, spec.params, 0.05)
        platoon = PlatoonInfo((1,))
        request = V2VMessage(2, MessageKind.JOIN_REQUEST, tick_sent=100)
        assert cloud.tick(100, [request], platoon).instructions == []
        delay = spec.params.ticks(spec.params.join_service_delay_s, 0.05)
        for tick in range(101, 100 + delay):
            assert cloud.tick(tick, [], platoon).instructions == []
        out = cloud.tick(100 + delay, [], platoon)
        assert [i.target for i in out.instructions] == [2]

    def test_joins_serialized_single_outstanding(self):
        spec = self.spec()
        cloud = Cloud(spec, spec.params, 0.05)
        platoon = PlatoonInfo((1,))
        reqs = [V2VMessage(2, MessageKind.JOIN_REQUEST, 100),
                V2VMessage(3, MessageKind.JOIN_REQUEST, 100)]
        cloud.tick(100, reqs, platoon)
        out = cloud.tick(120, [], platoon)
        assert [i.target for i in out.instructions] == [2]
        # nothing for vehicle 3 until vehicle 2 shows up in the platoon
        assert cloud.tick(200, [], platoon).instructions == []
        joined = PlatoonInfo((1, 2))
        out = cloud.tick(201, [], joined)
        assert [i.target for i in out.instructions] == [3]

    def test_repeated_request_answered_once(self):
        spec = self.spec()
        cloud = Cloud(spec, spec.params, 0.05)
        platoon = PlatoonInfo((1,))
        req = V2VMessage(2, MessageKind.JOIN_REQUEST, 100)
        cloud.tick(100, [req, req], platoon)
        cloud.tick(101, [req], platoon)
        out = cloud.tick(150, [], platoon)
        assert [i.target for i in out.instructions] == [2]
        assert cloud.tick(151, [], platoon).instructions == []

    def test_scripted_join_waits_for_an_answered_request(self):
        spec = self.spec([JoinEvent(t=7.0, target=3)])
        cloud = Cloud(spec, spec.params, 0.05)
        platoon = PlatoonInfo((1,))
        cloud.tick(100, [V2VMessage(2, MessageKind.JOIN_REQUEST, 100)], platoon)
        assert [i.target for i in cloud.tick(120, [], platoon).instructions] == [2]
        # the scripted join falls due while vehicle 2 has not joined yet
        assert cloud.tick(140, [], platoon).instructions == []
        out = cloud.tick(141, [], PlatoonInfo((1, 2)))
        assert [i.target for i in out.instructions] == [3]

    def test_scripted_joins_issued_one_at_a_time(self):
        spec = self.spec([JoinEvent(t=1.0, target=2), JoinEvent(t=2.0, target=3)])
        cloud = Cloud(spec, spec.params, 0.05)
        platoon = PlatoonInfo((1,))
        assert [i.target for i in cloud.tick(20, [], platoon).instructions] == [2]
        assert cloud.tick(40, [], platoon).instructions == []
        out = cloud.tick(41, [], PlatoonInfo((1, 2)))
        assert [i.target for i in out.instructions] == [3]


class TestIntruderScript:
    def test_spawn_geometry_hits_offset_at_lane_entry(self):
        params = Parameters()
        event = CutInEvent(t=0.0, target=1, lane=0, s_offset=18.0, duration=5.0,
                           ttc_satisfying=True)
        script = IntruderScript(event, params, 0.05)
        target = VehicleState(s=500.0, lane=1, v=20.0)
        state = script.spawn_state(target, 5.0)
        # at the boundary-crossing time both have advanced half a lane change
        t_cross = params.geometry.lane_change_duration / 2.0
        gap = (state.s + state.v * t_cross - 5.0) - (target.s + target.v * t_cross)
        assert gap == pytest.approx(18.0)
        assert state.v == pytest.approx(10.0)

    def test_non_adjacent_spawn_rejected(self):
        params = Parameters()
        event = CutInEvent(t=0.0, target=1, lane=0, s_offset=8.0, duration=5.0,
                           ttc_satisfying=False)
        script = IntruderScript(event, params, 0.05)
        with pytest.raises(ValueError, match="not adjacent"):
            script.spawn_state(VehicleState(s=500.0, lane=2, v=20.0), 5.0)

    def test_non_satisfying_intruder_matches_target_speed(self):
        params = Parameters()
        event = CutInEvent(t=0.0, target=2, lane=0, s_offset=8.0, duration=5.0,
                           ttc_satisfying=False)
        script = IntruderScript(event, params, 0.05)
        state = script.spawn_state(VehicleState(s=400.0, lane=1, v=20.0), 5.0)
        assert state.v == 20.0
