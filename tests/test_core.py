"""Core type and FSM tests, including exhaustive closure of both machines."""

import re
from pathlib import Path

import pytest

from platoonsim.comms import PeerView, RadarReading
from platoonsim.core import (
    CloudInstructionTrigger,
    CompletedTrigger,
    ControllerKind,
    EngineEvent,
    EventKind,
    FaultKind,
    HardwareFaultTrigger,
    IllegalTransition,
    LongitudinalCommand,
    LongitudinalMode,
    ManeuverState,
    MessageKind,
    ObstacleCutInTrigger,
    ObstacleTtcTrigger,
    PeerAnnounceTrigger,
    PlatoonInfo,
    Role,
    RoleCause,
    V2VMessage,
    VehicleState,
    controller_label,
    maneuver_transition,
    role_transition,
)
from platoonsim.management import ActiveInstruction, StrategyKey
from platoonsim.scenario import CutInEvent
from platoonsim.strategies import ACC, CC, DRIVER


class TestRoleTransition:
    def test_free_vehicle_joins_as_follower(self):
        assert role_transition(Role.FREE_VEHICLE, RoleCause.JOIN_COMPLETED) == Role.FOLLOWER

    def test_follower_takeover_returns_to_free(self):
        assert role_transition(Role.FOLLOWER, RoleCause.TAKEOVER_COMPLETED) == Role.FREE_VEHICLE

    def test_follower_aeb_and_leave_return_to_free(self):
        assert role_transition(Role.FOLLOWER, RoleCause.AEB_COMPLETED) == Role.FREE_VEHICLE
        assert role_transition(Role.FOLLOWER, RoleCause.LEAVE_COMPLETED) == Role.FREE_VEHICLE

    def test_leader_join_is_illegal(self):
        with pytest.raises(IllegalTransition):
            role_transition(Role.LEADER, RoleCause.JOIN_COMPLETED)

    def test_closure_every_pair_defined_or_illegal(self):
        # the transition relation must never leave a pair unhandled
        legal = 0
        for role in Role:
            for cause in RoleCause:
                try:
                    target = role_transition(role, cause)
                    assert isinstance(target, Role)
                    legal += 1
                except IllegalTransition:
                    pass
        assert legal == 4  # exactly the in-scope solid edges

    # the engine fixes the declared leader at construction on these two
    @pytest.mark.parametrize("role", list(Role))
    @pytest.mark.parametrize("cause", list(RoleCause))
    def test_no_edge_leads_into_leader(self, role, cause):
        try:
            assert role_transition(role, cause) is not Role.LEADER
        except IllegalTransition:
            pass

    @pytest.mark.parametrize("cause", list(RoleCause))
    def test_no_edge_leads_out_of_leader(self, cause):
        with pytest.raises(IllegalTransition):
            role_transition(Role.LEADER, cause)


def _all_triggers():
    return [
        CloudInstructionTrigger(ManeuverState.JOIN_TAIL),
        CloudInstructionTrigger(ManeuverState.JOIN_MIDDLE),
        CloudInstructionTrigger(ManeuverState.LEAVE_TAIL),
        CloudInstructionTrigger(ManeuverState.LEAVE_MIDDLE),
        CloudInstructionTrigger(ManeuverState.extension("Split")),
        ObstacleTtcTrigger(at_head=True),
        ObstacleTtcTrigger(at_head=False),
        ObstacleCutInTrigger(),
        HardwareFaultTrigger(FaultKind.RADAR_FAIL),
        HardwareFaultTrigger(FaultKind.V2V_FAIL),
        PeerAnnounceTrigger(ManeuverState.AEB_HEAD),
        PeerAnnounceTrigger(ManeuverState.CUT_IN),
        CompletedTrigger(),
    ]


def _all_maneuvers():
    return [*ManeuverState.CORE, ManeuverState.extension("Split")]


class TestManeuverTransition:
    def test_platooning_accepts_cloud_instruction(self):
        got = maneuver_transition(ManeuverState.PLATOONING,
                                  CloudInstructionTrigger(ManeuverState.JOIN_TAIL))
        assert got == ManeuverState.JOIN_TAIL

    def test_completed_returns_to_platooning(self):
        assert maneuver_transition(ManeuverState.JOIN_TAIL, CompletedTrigger()) \
            == ManeuverState.PLATOONING

    def test_running_maneuver_rejects_new_instruction(self):
        with pytest.raises(IllegalTransition):
            maneuver_transition(ManeuverState.CUT_IN,
                                CloudInstructionTrigger(ManeuverState.JOIN_TAIL))

    def test_hardware_fault_preempts_any_maneuver(self):
        for state in _all_maneuvers():
            got = maneuver_transition(state, HardwareFaultTrigger(FaultKind.V2V_FAIL))
            assert got == ManeuverState.HARDWARE_FAILURES

    def test_ttc_trigger_maps_to_head_or_middle(self):
        assert maneuver_transition(ManeuverState.PLATOONING, ObstacleTtcTrigger(True)) \
            == ManeuverState.AEB_HEAD
        assert maneuver_transition(ManeuverState.PLATOONING, ObstacleTtcTrigger(False)) \
            == ManeuverState.AEB_MIDDLE

    def test_completed_from_platooning_is_illegal(self):
        with pytest.raises(IllegalTransition):
            maneuver_transition(ManeuverState.PLATOONING, CompletedTrigger())

    def test_closure_exhaustive_enumeration(self):
        # every (state, trigger) pair yields a state or IllegalTransition
        for state in _all_maneuvers():
            for trigger in _all_triggers():
                try:
                    target = maneuver_transition(state, trigger)
                    assert isinstance(target, ManeuverState)
                except IllegalTransition:
                    pass

    def test_non_platooning_rejects_everything_but_fault_and_completed(self):
        busy = [m for m in _all_maneuvers() if m != ManeuverState.PLATOONING]
        for state in busy:
            for trigger in _all_triggers():
                if isinstance(trigger, (HardwareFaultTrigger, CompletedTrigger)):
                    continue
                with pytest.raises(IllegalTransition):
                    maneuver_transition(state, trigger)


# a cell needs quotes in trace.csv when it holds one of these
CSV_SPECIAL = (",", '"', "\r", "\n")


class TestManeuverState:
    def test_core_constants_are_not_extensions(self):
        assert not ManeuverState.PLATOONING.is_extension
        assert not ManeuverState.HARDWARE_FAILURES.is_extension

    def test_extension_maneuver(self):
        split = ManeuverState.extension("Split")
        assert split.is_extension
        assert split is ManeuverState("Split")

    def test_extension_cannot_shadow_core_name(self):
        with pytest.raises(ValueError):
            ManeuverState.extension("Platooning")

    @pytest.mark.parametrize("char", CSV_SPECIAL,
                             ids=["comma", "quote", "carriage_return", "newline"])
    @pytest.mark.parametrize("make", [ManeuverState.extension, ManeuverState],
                             ids=["extension", "constructor"])
    def test_a_name_that_would_need_csv_quotes_is_refused(self, make, char):
        with pytest.raises(ValueError):
            make(f"Split{char}Stub")


def test_no_string_the_engine_writes_to_the_trace_needs_quotes():
    """Every string the engine puts in a trace cell that is not a float:
    roles, core maneuver names, controller labels, and the fixed cells of
    a scripted vehicle."""
    labels = [controller_label(ControllerKind(LongitudinalCommand(mode, v_set)))
              for mode in LongitudinalMode for v_set in (None, 20.0, -0.0, 1e300)]
    cells = [*(role.value for role in Role), *(m.name for m in ManeuverState.CORE), *labels,
             "Off", "Script", "-"]
    assert [cell for cell in cells if any(c in cell for c in CSV_SPECIAL)] == []


class TestPlatoonInfo:
    def test_tail_append(self):
        info = PlatoonInfo((1, 2))
        assert info.append_tail(3) == PlatoonInfo((1, 2, 3))

    def test_insert_before_member(self):
        # joining vehicle slots in ahead of the evading follower
        info = PlatoonInfo((1, 2, 4))
        assert info.insert_before(5, 2) == PlatoonInfo((1, 5, 2, 4))

    def test_insert_positions_match_list_oracle(self):
        base = (1, 2, 3, 4)
        info = PlatoonInfo(base)
        for member in base[1:]:
            expected = list(base)
            expected.insert(expected.index(member), 9)
            assert info.insert_before(9, member).id_series == tuple(expected)

    def test_truncate_from_drops_faulty_and_behind(self):
        info = PlatoonInfo((1, 2, 3, 4, 5))
        assert info.truncate_from(3) == PlatoonInfo((1, 2))
        assert info.truncate_from(5) == PlatoonInfo((1, 2, 3, 4))
        assert info.truncate_from(2) == PlatoonInfo((1,))


class TestMessages:
    def test_vehicle_state_rejects_reverse(self):
        with pytest.raises(ValueError):
            VehicleState(s=0.0, lane=0, v=-1.0)


class TestRecords:
    """The four records built every vehicle-tick are NamedTuples, and no
    field of one can be assigned."""

    @pytest.mark.parametrize("record, name", [
        (VehicleState(s=0.0, lane=0, v=1.0), "v"),
        (V2VMessage(1, MessageKind.HEARTBEAT, 0), "sender"),
        (RadarReading(True, 10.0, 0.0, 2), "gap"),
        (PeerView(0.0, 20.0, 0.0, 5.0, Role.FOLLOWER, None, 0), "age_ticks"),
    ], ids=["VehicleState", "V2VMessage", "RadarReading", "PeerView"])
    def test_a_field_cannot_be_assigned(self, record, name):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)

    def test_radar_replace_changes_only_valid(self):
        reading = RadarReading(False, 200.0, -3.0, 4)._replace(valid=True)
        assert type(reading) is RadarReading
        assert reading == RadarReading(True, 200.0, -3.0, 4)


# events.log must not change: these lines are from bundled runs, except the
# timeout (steady plus a join aimed at the leader, which the loader now
# rejects) and no_strategy (integrated without a (JoinTail, Follower) strategy).
EVENT_LINES = [
    (EngineEvent(100, 5.0, 2, EventKind.INSTRUCTION,
                 ActiveInstruction(ManeuverState.JOIN_TAIL, 2)),
     "t=5.000 v2 instruction JoinTail target=v2"),
    (EngineEvent(1000, 50.0, 5, EventKind.INSTRUCTION,
                 ActiveInstruction(ManeuverState.JOIN_MIDDLE, 5, before=3)),
     "t=50.000 v5 instruction JoinMiddle target=v5 before=v3"),
    (EngineEvent(100, 5.0, 1, EventKind.MANEUVER_START, ManeuverState.JOIN_TAIL),
     "t=5.000 v1 maneuver_start JoinTail"),
    (EngineEvent(157, 157 * 0.05, 1, EventKind.MANEUVER_COMPLETE, ManeuverState.JOIN_TAIL),
     "t=7.850 v1 maneuver_complete JoinTail"),
    (EngineEvent(1301, 1301 * 0.05, 1, EventKind.MANEUVER_TIMEOUT, ManeuverState.JOIN_TAIL),
     "t=65.050 v1 maneuver_timeout JoinTail"),
    (EngineEvent(158, 158 * 0.05, 2, EventKind.ROLE_CHANGE, Role.FOLLOWER),
     "t=7.900 v2 role_change Follower"),
    (EngineEvent(156, 156 * 0.05, 2, EventKind.FLAG, MessageKind.JOIN_FLAG),
     "t=7.800 v2 flag JoinFlag"),
    (EngineEvent(400, 20.0, 3, EventKind.FAULT_INJECTED, FaultKind.RADAR_FAIL),
     "t=20.000 v3 fault_injected RadarFail"),
    (EngineEvent(100, 5.0, 2, EventKind.CONTROLLER, ACC()), "t=5.000 v2 controller ACC"),
    (EngineEvent(1000, 50.0, 3, EventKind.CONTROLLER, CC(15.0)),
     "t=50.000 v3 controller CC@15.00"),
    (EngineEvent(472, 472 * 0.05, 2, EventKind.CONTROLLER, DRIVER(0.0)),
     "t=23.600 v2 controller Driver@0.00"),
    (EngineEvent(157, 157 * 0.05, 1, EventKind.PLATOON_UPDATE, PlatoonInfo((1, 2))),
     "t=7.850 v1 platoon_update series=[1, 2]"),
    (EngineEvent(1400, 70.0, 6, EventKind.CUT_IN_SPAWN,
                 CutInEvent(t=70.0, target=1, lane=0, s_offset=18.0, duration=5.0,
                            ttc_satisfying=True)),
     "t=70.000 v6 cut_in_spawn ahead_of=v1 gap=18.0"),
    (EngineEvent(440, 22.0, 2, EventKind.NO_STRATEGY,
                 StrategyKey(ManeuverState.JOIN_TAIL, Role.FOLLOWER)),
     "t=22.000 v2 no_strategy JoinTail/Follower"),
    (EngineEvent(464, 464 * 0.05, 2, EventKind.COLLISION, 3), "t=23.200 v2 collision with=v3"),
    (EngineEvent(156, 156 * 0.05, 2, EventKind.NOTE, "JoinFlag at gap 29.71"),
     "t=7.800 v2 note JoinFlag at gap 29.71"),
    (EngineEvent(440, 22.0, 2, EventKind.NOTE,
                 "no strategy for (JoinTail, Follower); holding"),
     "t=22.000 v2 note no strategy for (JoinTail, Follower); holding"),
]


@pytest.mark.parametrize("event, line", EVENT_LINES)
def test_each_event_kind_renders_its_subject(event, line):
    assert event.line() == line


def test_the_rendered_lines_cover_every_event_kind():
    assert {event.kind for event, _ in EVENT_LINES} == set(EventKind)


def test_readme_event_table_lists_exactly_the_event_kind_words():
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    start = lines.index("| kind | `subject` | detail |")
    words = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        words += re.findall(r"`([^`]+)`", line.strip("|").split("|")[0])
    assert sorted(words) == sorted(k.word for k in EventKind)


def test_an_event_kind_is_not_its_word():
    """A misspelled comparison cannot pass silently: no member equals a str."""
    assert [k for k in EventKind if k == k.word] == []
    assert len({k.word for k in EventKind}) == len(EventKind)
