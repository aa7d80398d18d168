"""Built-in acceptance suite: one check per acceptance criterion, each run
against the bundled scenarios at its stated tolerance. Used by the `accept`
CLI command and by the test suite.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Optional

from .core import (
    CloudInstructionTrigger,
    CompletedTrigger,
    EventKind,
    FaultKind,
    HardwareFaultTrigger,
    IllegalTransition,
    LongitudinalMode,
    ManeuverState,
    MessageKind,
    ObstacleCutInTrigger,
    ObstacleTtcTrigger,
    PeerAnnounceTrigger,
    Role,
    RoleCause,
    maneuver_transition,
    role_transition,
)
from .dynamics import G
from .engine import RunReport, Simulator, Trace, first_difference
from .management import (
    StrategyContext,
    StrategyKey,
    StrategyOutput,
    StrategyProgress,
    VehicleManager,
)
from .params import Parameters
from .scenario import ScenarioSpec, bundled_scenario
from .strategies import ACC, CC, default_registry


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.criterion:2d} {self.name}: {self.detail}"


def format_table(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    verdict = "all criteria passed" if all(r.passed for r in results) \
        else "ACCEPTANCE FAILED"
    return "\n".join(lines + [verdict])


def _col(trace: Trace, row, name: str):
    return row[trace.columns.index(name)]


def _rows_from(trace: Trace, t0: float):
    return [r for r in trace.rows if r[1] >= t0 - 1e-9]


def _gaps_at_end(trace: Trace, vids) -> list[float]:
    last = trace.rows[-1]
    return [_col(trace, last, f"v{v}_gap") for v in vids]


def _first_controller_switch(report: RunReport, vid: int, after: float):
    for e in report.events:
        if e.kind is EventKind.CONTROLLER and e.vehicle == vid and e.time >= after:
            return e
    return None


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def check_steady(params: Optional[Parameters] = None) -> CheckResult:
    spec = bundled_scenario("steady")
    if params is not None:
        spec = dataclasses.replace(spec, params=params)
    t0 = time.perf_counter()
    trace, report = Simulator(spec).run()
    wall = time.perf_counter() - t0
    gaps = _gaps_at_end(trace, range(2, 6))
    in_band = all(12.0 <= g <= 14.0 for g in gaps)
    passed = in_band and wall < 2.0 and not report.collisions
    return CheckResult(1, "steady platooning",
                       passed,
                       f"gaps at 30s {['%.2f' % g for g in gaps]}, wall {wall:.2f}s")


def check_join_tail() -> CheckResult:
    spec = bundled_scenario("join_tail")
    trace, report = Simulator(spec).run()
    join_flags = [e for e in report.events if e.subject is MessageKind.JOIN_FLAG]
    if not join_flags:
        return CheckResult(2, "join tail", False, "no JoinFlag emitted")
    gap_at_flag = _col(trace, trace.rows[join_flags[0].tick], "v2_gap")
    last = trace.rows[-1]
    ends_follower = _col(trace, last, "v2_role") == "Follower"
    ends_cacc = _col(trace, last, "v2_controller") == "CACC"
    size_grew = (_col(trace, trace.rows[0], "v1_psize") == 1
                 and _col(trace, last, "v1_psize") == 2)
    instruction_t = 2.0
    settled = [r for r in _rows_from(trace, instruction_t + 20.0)]
    gap_settled = all(abs(_col(trace, r, "v2_gap") - 13.0) <= 1.0 for r in settled)
    passed = (gap_at_flag <= 30.0 and ends_follower and ends_cacc and size_grew
              and gap_settled and not report.collisions)
    return CheckResult(2, "join tail", passed,
                       f"JoinFlag at gap {gap_at_flag:.2f} m, settled={gap_settled}")


def check_join_middle() -> CheckResult:
    spec = bundled_scenario("join_middle")
    trace, report = Simulator(spec).run()
    evader = [e for e in report.events if e.kind is EventKind.CONTROLLER and e.vehicle == 3]
    drops = [e for e in evader if e.subject == CC(15.0)]
    resumes = [e for e in evader if e.subject == CC(20.0)]
    evade_flags = [e for e in report.events if e.subject is MessageKind.EVADE_FLAG]
    if not (drops and resumes and evade_flags):
        return CheckResult(3, "join middle", False,
                           "missing evade speed drop / resume / EvadeFlag")
    gap_at_evade = _col(trace, trace.rows[evade_flags[0].tick], "v3_gap")
    same_tick = evade_flags[0].tick == resumes[0].tick
    completed = any(m is ManeuverState.JOIN_MIDDLE for _, _, m in report.completions)
    passed = (29.5 <= gap_at_evade <= 30.5 and same_tick and completed
              and not report.collisions)
    return CheckResult(3, "join middle", passed,
                       f"EvadeFlag at gap {gap_at_evade:.2f} m, "
                       f"speed 15->20 at the flag: {same_tick}")


def check_aeb_head() -> CheckResult:
    spec = bundled_scenario("aeb_head")
    trace, report = Simulator(spec).run()
    aeb_start: dict[int, float] = {}
    stop_at: dict[int, float] = {}
    for row in trace.rows:
        for vid in range(1, 6):
            if _col(trace, row, f"v{vid}_controller") == "AEB":
                aeb_start.setdefault(vid, row[1])
            if vid in aeb_start and vid not in stop_at \
                    and _col(trace, row, f"v{vid}_v") == 0.0:
                stop_at[vid] = row[1]
    if set(stop_at) != {1, 2, 3, 4, 5}:
        return CheckResult(4, "aeb head", False, "not all vehicles reached standstill")
    stop_budget = 20.0 / G + 0.2
    stop_ok = all(stop_at[v] - aeb_start[v] <= stop_budget for v in range(1, 6))
    all_stopped_t = max(stop_at.values())
    row = next(r for r in trace.rows if r[1] >= all_stopped_t)
    gaps = [_col(trace, row, f"v{v}_gap") for v in range(2, 6)]
    gaps_ok = all(g > 10.0 for g in gaps)
    passed = stop_ok and gaps_ok and not report.collisions
    return CheckResult(4, "aeb head", passed,
                       f"stop times ok={stop_ok}, standstill gaps "
                       f"{['%.1f' % g for g in gaps]}, collisions "
                       f"{len(report.collisions)}")


def check_cut_in() -> CheckResult:
    spec = bundled_scenario("cut_in")
    trace, report = Simulator(spec).run()
    starts = {e.vehicle: e.tick for e in report.events
              if e.kind is EventKind.MANEUVER_START and e.subject == ManeuverState.CUT_IN}
    if 2 not in starts:
        return CheckResult(5, "cut in", False, "vehicle 2 never detected the cut-in")
    t_det = starts[2]
    budget = t_det + spec.params.bus.delivery_delay_ticks + 1
    acc_on_time = True
    for vid in range(2, 6):
        sw = _first_controller_switch(report, vid, after=t_det * spec.run.dt - 1e-9)
        acc_on_time &= sw is not None and sw.subject == ACC() and sw.tick <= budget
    done = [t for t, v, m in report.completions if m is ManeuverState.CUT_IN and v == 2]
    if not done:
        return CheckResult(5, "cut in", False, "cut-in never completed")
    probe = next(r for r in trace.rows if r[1] >= done[0] - 2.0)
    grown = all(abs(_col(trace, probe, f"v{v}_gap") - 18.0) <= 1.0
                for v in range(2, 6))
    recovery = next(r for r in trace.rows if r[1] >= done[0] + 30.0)
    recovered = all(abs(_col(trace, recovery, f"v{v}_gap") - 13.0) <= 1.0
                    for v in range(2, 6))
    passed = acc_on_time and grown and recovered and not report.collisions
    return CheckResult(5, "cut in", passed,
                       f"ACC within 1 tick={acc_on_time}, gaps 18±1={grown}, "
                       f"recovered 13±1={recovered}")


def _v2v_pair() -> tuple[RunReport, RunReport, Trace, Trace, ScenarioSpec]:
    spec = bundled_scenario("v2v_fault")
    trace_on, report_on = Simulator(spec).run()
    spec_off = dataclasses.replace(spec, degradation_enabled=False)
    trace_off, report_off = Simulator(spec_off).run()
    return report_on, report_off, trace_on, trace_off, spec


def check_v2v_fault_with_degradation(pair) -> CheckResult:
    report_on, _, trace, _, spec = pair
    dt = spec.run.dt
    deadline = 20.0 + spec.params.heartbeat_timeout_s \
        + spec.params.bus.delivery_delay_ticks * dt
    switch_ok = True
    for vid in (3, 4, 5):
        sw = _first_controller_switch(report_on, vid, after=20.0)
        switch_ok &= sw is not None and sw.subject == ACC() and sw.time <= deadline
    rows_after = _rows_from(trace, 20.0)
    v2_cacc = all(_col(trace, r, "v2_controller") == "CACC" for r in rows_after)
    v2_band = all(abs(_col(trace, r, "v2_gap") - 13.0) <= 1.0 for r in rows_after)
    final_series = _col(trace, trace.rows[-1], "v1_psize") == 2
    pruned = any(e.kind is EventKind.PLATOON_UPDATE and e.subject.id_series == (1, 2)
                 for e in report_on.events)
    passed = (switch_ok and v2_cacc and v2_band and final_series and pruned
              and not report_on.collisions)
    return CheckResult(6, "v2v fault with degradation", passed,
                       f"ACC by {deadline:.2f}s={switch_ok}, v1-v2 steady={v2_band}, "
                       f"series -> [1,2]={pruned}")


def check_v2v_fault_without_degradation(pair) -> CheckResult:
    report_on, report_off, _, trace_off, spec = pair
    dt = spec.run.dt
    substitution = 20.0 + spec.params.heartbeat_timeout_s
    window = [r for r in trace_off.rows if substitution <= r[1] <= substitution + 1.0]
    saturated = any(_col(trace_off, r, "v3_a") <= -spec.params.limits.d_max + 1e-9
                    for r in window)

    def rear_min(report: RunReport) -> float:
        pairs = [(3, 4), (4, 5)]
        return min(report.min_gaps.get(p, float("inf")) for p in pairs)

    strictly_smaller = rear_min(report_off) < rear_min(report_on)
    passed = saturated and strictly_smaller
    return CheckResult(7, "v2v fault without degradation", passed,
                       f"saturated within 1s={saturated}, min rear gap "
                       f"{rear_min(report_off):.2f} < {rear_min(report_on):.2f}")


def check_radar_fault_with_degradation() -> CheckResult:
    spec = bundled_scenario("radar_fault")
    trace, report = Simulator(spec).run()
    sw3 = _first_controller_switch(report, 3, after=20.0)
    cc_ok = (sw3 is not None and sw3.subject.longitudinal.mode is LongitudinalMode.CC
             and abs(sw3.subject.longitudinal.v_set
                     - (20.0 - spec.params.cc_fault_speed_drop)) <= 0.2)
    acc_ok = all(
        (sw := _first_controller_switch(report, vid, after=20.0)) is not None
        and sw.subject == ACC() for vid in (4, 5))
    window = [r for r in trace.rows if 20.0 <= r[1] <= 30.0]
    slack = 0.01  # one detection-latency tick of closing, in metres

    def non_decreasing(col: str) -> bool:
        series = [_col(trace, r, col) for r in window]
        return all(series[i + 1] >= series[i] - slack for i in range(len(series) - 1))

    monotone = non_decreasing("v3_gap") and non_decreasing("v4_gap")
    passed = cc_ok and acc_ok and monotone and not report.collisions
    return CheckResult(8, "radar fault with degradation", passed,
                       f"CC at v-2={cc_ok}, followers ACC={acc_ok}, "
                       f"gaps monotone={monotone}")


def check_radar_fault_without_degradation() -> CheckResult:
    spec = dataclasses.replace(bundled_scenario("radar_fault"),
                               degradation_enabled=False)
    _, report = Simulator(spec).run()
    hits = [(t, a, b) for t, a, b in report.collisions
            if {a, b} == {2, 3} and t <= 30.0]
    return CheckResult(9, "radar fault without degradation", bool(hits),
                       f"collision(2,3) within 10s of injection: {hits}")


def check_integrated() -> CheckResult:
    spec = bundled_scenario("integrated")
    t0 = time.perf_counter()
    trace, report = Simulator(spec).run()
    wall = time.perf_counter() - t0
    first: dict[ManeuverState, float] = {}  # a maneuver hashes by identity
    for t, _, m in report.completions:
        first.setdefault(m, t)
    M = ManeuverState
    expected = [M.JOIN_TAIL, M.JOIN_MIDDLE, M.AEB_HEAD, M.CUT_IN,
                M.AEB_MIDDLE, M.LEAVE_MIDDLE, M.LEAVE_TAIL]
    have_all = all(m in first for m in expected)
    ordered = have_all and all(first[a] < first[b]
                               for a, b in zip(expected, expected[1:]))
    rejoins_head = have_all and any(
        t > first[M.AEB_HEAD] and m is M.JOIN_TAIL for t, _, m in report.completions)
    rejoins_middle = have_all and any(
        t > first[M.AEB_MIDDLE] and m is M.JOIN_TAIL for t, _, m in report.completions)
    leavers = {v for t, v, m in report.completions
               if m is M.LEAVE_TAIL and any(
                   e.kind is EventKind.ROLE_CHANGE and e.vehicle == v
                   and abs(e.time - t) < 1e-9 for e in report.events)}
    passed = (ordered and rejoins_head and rejoins_middle and leavers == {2, 4, 5}
              and not report.collisions and wall < 10.0)
    return CheckResult(10, "integrated seven-maneuver sequence", passed,
                       f"ordered={ordered}, rejoins={rejoins_head and rejoins_middle}, "
                       f"leavers={sorted(leavers)}, collisions "
                       f"{len(report.collisions)}, wall {wall:.1f}s")


def check_determinism() -> CheckResult:
    details = []
    passed = True
    for name in ("steady", "integrated"):
        spec = bundled_scenario(name)
        trace_a, _ = Simulator(spec).run()
        trace_b, _ = Simulator(spec).run()
        diff = first_difference(trace_a, trace_b)
        passed &= diff is None
        details.append(f"{name}: identical" if diff is None else
                       "{}: diverged at row {}, {}: {!r} vs {!r}".format(name, *diff))
    return CheckResult(11, "determinism", passed, "; ".join(details))


class _SplitStub:
    """Extension strategy compiled against the public registry only."""

    def step(self, ctx: StrategyContext, progress: StrategyProgress) -> StrategyOutput:
        if progress.phase == "init":
            progress.advance("running")
            return StrategyOutput()
        return StrategyOutput(maneuver_done=True)


def check_extendability() -> CheckResult:
    from .comms import RadarReading
    from .core import VehicleState
    from .management import ActiveInstruction, DriverState

    split = ManeuverState.extension("Split-stub")
    registry = default_registry()
    registry.register(StrategyKey(split, Role.FOLLOWER), _SplitStub())
    params = Parameters()
    manager = VehicleManager(2, Role.FOLLOWER, registry, params, 0.05)
    manager.offer_instruction(ActiveInstruction(maneuver=split, target=2))

    def ctx(tick):
        return StrategyContext(
            tick=tick, dt=0.05, ego_id=2,
            ego=VehicleState(s=100.0, lane=1, v=20.0),
            role=Role.FOLLOWER, maneuver=manager.maneuver,
            reading=RadarReading(True, 13.0, 0.0, 1),
            peers={}, inbox=[], platoon=None, instruction=None, params=params,
            driver=DriverState())

    manager.tick(ctx(0))
    activated = manager.maneuver == split
    manager.tick(ctx(1))
    completed = manager.maneuver == ManeuverState.PLATOONING
    passed = activated and completed
    return CheckResult(12, "extendability", passed,
                       f"extension activated={activated}, completed={completed}")


def check_fsm_closure() -> CheckResult:
    maneuvers = [*ManeuverState.CORE, ManeuverState.extension("Split-stub")]
    triggers = [
        CloudInstructionTrigger(ManeuverState.JOIN_TAIL),
        CloudInstructionTrigger(ManeuverState.LEAVE_MIDDLE),
        CloudInstructionTrigger(ManeuverState.extension("Split-stub")),
        ObstacleTtcTrigger(True), ObstacleTtcTrigger(False),
        ObstacleCutInTrigger(),
        HardwareFaultTrigger(FaultKind.RADAR_FAIL),
        HardwareFaultTrigger(FaultKind.V2V_FAIL),
        PeerAnnounceTrigger(ManeuverState.AEB_HEAD),
        CompletedTrigger(),
    ]
    pairs = 0
    for state in maneuvers:
        for trigger in triggers:
            try:
                result = maneuver_transition(state, trigger)
                assert isinstance(result, ManeuverState)
            except IllegalTransition:
                pass
            pairs += 1
    role_pairs = 0
    for role in Role:
        for cause in RoleCause:
            try:
                assert isinstance(role_transition(role, cause), Role)
            except IllegalTransition:
                pass
            role_pairs += 1
    return CheckResult(13, "fsm closure", True,
                       f"{pairs} maneuver and {role_pairs} role pairs total")


def run_all() -> list[CheckResult]:
    pair = _v2v_pair()
    return [
        check_steady(),
        check_join_tail(),
        check_join_middle(),
        check_aeb_head(),
        check_cut_in(),
        check_v2v_fault_with_degradation(pair),
        check_v2v_fault_without_degradation(pair),
        check_radar_fault_with_degradation(),
        check_radar_fault_without_degradation(),
        check_integrated(),
        check_determinism(),
        check_extendability(),
        check_fsm_closure(),
    ]
