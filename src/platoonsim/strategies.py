"""Concrete per-(maneuver, role) management strategies and the default
registry wiring them together.

Each strategy materializes its handshake wait-loops as resumable phases in
the per-vehicle StrategyProgress, so one call per tick advances the protocol
deterministically. Strategy objects themselves are stateless and may be
shared between vehicles and keys.

The protocol steps several strategies take are written once, below the
controller selections: holding until the leader's UpdateFlag
(``_until_update``), the leader's confirmation with UpdateFlag
(``_confirm``), the joiner's switch to follower on UpdateFlag
(``_joined``), opening the gap to ``join_gap`` before the EvadeFlag
(``_open_gap``) and the platoon-order test (``_behind``).
"""

from __future__ import annotations

import functools
import math
from typing import Optional

from .core import (
    ControllerKind,
    FaultKind,
    LANE_CENTER,
    LateralCommand,
    LateralMode,
    LongitudinalCommand,
    LongitudinalMode,
    ManeuverState,
    MessageKind,
    PlatoonInfo,
    Role,
    VehicleId,
)
from .management import (
    StrategyContext,
    StrategyKey,
    StrategyOutput,
    StrategyProgress,
    StrategyRegistry,
    UnknownJoiner,
)


def _ctrl(mode: LongitudinalMode, v_set: Optional[float] = None,
          lateral: LateralCommand = LANE_CENTER) -> ControllerKind:
    return ControllerKind(LongitudinalCommand(mode, v_set), lateral)


# ControllerKind is frozen, so the parameterless selections are shared
_CACC = _ctrl(LongitudinalMode.CACC)
_ACC = _ctrl(LongitudinalMode.ACC)
_AEB = _ctrl(LongitudinalMode.AEB)


def CACC() -> ControllerKind:
    return _CACC


def ACC() -> ControllerKind:
    return _ACC


def CC(v_set: float) -> ControllerKind:
    return _set_speed(LongitudinalMode.CC, v_set, math.copysign(1.0, v_set))


@functools.lru_cache(maxsize=64, typed=True)
def _set_speed(mode: LongitudinalMode, v_set: float, _sign: float) -> ControllerKind:
    # one shared selection per mode and set speed; 0.0 == -0.0, but their labels differ
    return _ctrl(mode, v_set)


def AEB() -> ControllerKind:
    return _AEB


def DRIVER(v_set: float) -> ControllerKind:
    return _set_speed(LongitudinalMode.DRIVER, v_set, math.copysign(1.0, v_set))


def _behind(series: tuple[VehicleId, ...], a: VehicleId, b: Optional[VehicleId]) -> bool:
    """Whether ``a`` drives somewhere behind ``b`` in the platoon order."""
    return a in series and b in series and series.index(a) > series.index(b)


def _until_update(ctx: StrategyContext,
                  controller: Optional[ControllerKind] = None) -> StrategyOutput:
    """Hold ``controller`` (None keeps the current one) until the leader's
    UpdateFlag closes the maneuver."""
    return StrategyOutput(controller=controller,
                          maneuver_done=ctx.has_flag(MessageKind.UPDATE_FLAG))


def _confirm(ctx: StrategyContext, out: StrategyOutput,
             platoon: Optional[PlatoonInfo]) -> StrategyOutput:
    """The leader closes the maneuver: adopt ``platoon`` (None keeps the
    current one) and confirm with UpdateFlag."""
    out.platoon_update = platoon
    out.messages.append(ctx.make(MessageKind.UPDATE_FLAG))
    out.maneuver_done = True
    return out


def _joined(ctx: StrategyContext) -> StrategyOutput:
    """The joiner's last phase: ACC until the leader's UpdateFlag confirms
    membership, then CACC as a follower."""
    if not ctx.has_flag(MessageKind.UPDATE_FLAG):
        return StrategyOutput(controller=ACC())
    return StrategyOutput(controller=CACC(), role_change=Role.FOLLOWER, maneuver_done=True)


def _open_gap(ctx: StrategyContext, progress: StrategyProgress, then: str) -> StrategyOutput:
    """Slow to the evade speed until the radar gap reaches ``join_gap``,
    then raise EvadeFlag and advance to phase ``then``."""
    progress.advance("opening")
    out = StrategyOutput(controller=CC(ctx.params.evade_speed))
    if ctx.reading.valid and ctx.reading.gap >= ctx.params.join_gap:
        out.messages.append(ctx.make(MessageKind.EVADE_FLAG))
        out.notes.append(f"EvadeFlag at gap {ctx.reading.gap:.2f}")
        progress.advance(then)
    return out


def _exit_lane(ctx: StrategyContext) -> int:
    geom = ctx.params.geometry
    lane = ctx.ego.lane
    return lane + 1 if lane + 1 < geom.lane_count else lane - 1


def _lane_change_finished(ctx: StrategyContext, target: int) -> bool:
    return ctx.ego.lane == target and ctx.ego.lateral_offset == 0.0


def _obstacle_cleared(ctx: StrategyContext) -> bool:
    return (not ctx.reading.valid or ctx.reading.target is None
            or ctx.reading.gap > ctx.params.obstacle_clear_range)


class PlatooningLeader:
    """Steady platooning at the configured cruise speed."""

    def step(self, ctx: StrategyContext, progress: StrategyProgress) -> StrategyOutput:
        return StrategyOutput(controller=CC(ctx.params.platoon_speed))


class PlatooningFollower:
    """Steady platooning behind the preceding member under CACC."""

    def step(self, ctx: StrategyContext, progress: StrategyProgress) -> StrategyOutput:
        return StrategyOutput(controller=CACC())


class PlatooningFree:
    """Driver control outside the platoon, including the staggered post-AEB
    restart that files a join request with the cloud."""

    def step(self, ctx: StrategyContext, progress: StrategyProgress) -> StrategyOutput:
        out = StrategyOutput()
        drv = ctx.driver
        if drv.restart_at is not None and ctx.tick >= drv.restart_at:
            drv.v_set = ctx.params.platoon_speed
            out.messages.append(ctx.make(MessageKind.JOIN_REQUEST))
            drv.restart_at = None
            out.notes.append("driver restart")
        out.controller = DRIVER(drv.v_set)
        return out


class JoinTailFree:
    """Joining vehicle side of Join Tail: approach under ACC, raise JoinFlag
    at the gap threshold, switch to CACC as a follower once the leader's
    UpdateFlag confirms membership."""

    def step(self, ctx: StrategyContext, progress: StrategyProgress) -> StrategyOutput:
        if progress.phase == "waiting_update":
            return _joined(ctx)
        progress.advance("approach")
        out = StrategyOutput(controller=ACC())
        if ctx.reading.valid and ctx.reading.gap <= ctx.params.join_gap:
            out.messages.append(ctx.make(MessageKind.JOIN_FLAG))
            out.notes.append(f"JoinFlag at gap {ctx.reading.gap:.2f}")
            progress.advance("waiting_update")
        return out


class JoinLeader:
    """Leader side of both join maneuvers: wait for the instructed vehicle's
    JoinFlag, update size and id series, confirm with UpdateFlag."""

    def step(self, ctx: StrategyContext, progress: StrategyProgress) -> StrategyOutput:
        out = StrategyOutput(controller=CC(ctx.params.platoon_speed))
        instr = ctx.instruction
        assert instr is not None and ctx.platoon is not None
        flags = ctx.flags(MessageKind.JOIN_FLAG)
        if not flags:
            return out
        joiner = flags[0].sender
        if joiner != instr.target:
            raise UnknownJoiner(f"JoinFlag from {joiner}, instructed {instr.target}")
        if instr.before is None:
            return _confirm(ctx, out, ctx.platoon.append_tail(joiner))
        return _confirm(ctx, out, ctx.platoon.insert_before(joiner, instr.before))


class JoinMiddleFree:
    """Joining vehicle side of Join Middle: align with the opening slot from
    the adjacent lane, change lanes on EvadeFlag, then run the JoinFlag /
    UpdateFlag handshake."""

    ALIGN_TOLERANCE = 3.0  # m of longitudinal slack before committing

    def step(self, ctx: StrategyContext, progress: StrategyProgress) -> StrategyOutput:
        instr = ctx.instruction
        assert instr is not None and instr.before is not None
        if ctx.has_flag(MessageKind.EVADE_FLAG):
            progress.data["evade"] = True

        if progress.phase in ("init", "align"):
            progress.advance("align")
            return self._align(ctx, progress)
        if progress.phase == "changing":
            platoon_lane = progress.data["platoon_lane"]
            if _lane_change_finished(ctx, platoon_lane):
                out = StrategyOutput(controller=ACC())
                out.messages.append(ctx.make(MessageKind.JOIN_FLAG))
                out.notes.append("JoinFlag after lane change")
                progress.advance("waiting_update")
                return out
            return StrategyOutput(controller=_ctrl(
                LongitudinalMode.DRIVER, progress.data["slot_speed"],
                LateralCommand(LateralMode.LANE_CHANGE, platoon_lane)))
        return _joined(ctx)  # waiting_update

    def _align(self, ctx: StrategyContext, progress: StrategyProgress) -> StrategyOutput:
        instr = ctx.instruction
        assert instr is not None and instr.before is not None
        evader = ctx.peers.get(instr.before)
        platoon = ctx.platoon
        if evader is None or platoon is None or instr.before not in platoon.id_series:
            return StrategyOutput(controller=DRIVER(ctx.ego.v))
        idx = platoon.id_series.index(instr.before)
        pred_id = platoon.id_series[idx - 1] if idx > 0 else None
        pred = ctx.peers.get(pred_id) if pred_id is not None else None
        if pred is None:
            return StrategyOutput(controller=DRIVER(ctx.ego.v))
        # center the ego body in the opening slot
        slot_front = ((pred.s - pred.length) + evader.s + ctx.ego.length) / 2.0
        v_set = pred.v + 0.3 * (slot_front - ctx.ego.s)
        v_set = max(pred.v - 5.0, min(pred.v + 5.0, max(0.0, v_set)))
        aligned = abs(ctx.ego.s - slot_front) <= self.ALIGN_TOLERANCE
        if progress.data.get("evade") and aligned:
            progress.data["platoon_lane"] = evader.lane
            progress.data["slot_speed"] = pred.v
            progress.advance("changing")
            return StrategyOutput(controller=_ctrl(
                LongitudinalMode.DRIVER, pred.v,
                LateralCommand(LateralMode.LANE_CHANGE, evader.lane)))
        return StrategyOutput(controller=DRIVER(v_set))


class JoinMiddleFollower:
    """Follower side of Join Middle. The member directly behind the join
    slot evades: slow to open the gap, EvadeFlag at the threshold, speed
    back up, and follow the joiner once its JoinFlag is seen. Everyone else
    holds until the leader's UpdateFlag."""

    def step(self, ctx: StrategyContext, progress: StrategyProgress) -> StrategyOutput:
        instr = ctx.instruction
        assert instr is not None
        if instr.before != ctx.ego_id:
            return _until_update(ctx)

        if progress.phase in ("init", "opening"):
            out = _open_gap(ctx, progress, "waiting_join")
            if progress.phase == "waiting_join":  # speed back up once the gap is open
                out.controller = CC(ctx.params.platoon_speed)
            return out
        if progress.phase == "waiting_join":
            out = StrategyOutput(controller=CC(ctx.params.platoon_speed))
            if ctx.has_flag(MessageKind.JOIN_FLAG, sender=instr.target):
                out.controller = CACC()
                progress.advance("waiting_update")
            return out
        return _until_update(ctx, CACC())


class AebHeadLeader:
    """Leader side of AEB Head: full braking while the obstacle remains,
    then SafeFlag, platoon reset to the leader alone, and UpdateFlag."""

    def step(self, ctx: StrategyContext, progress: StrategyProgress) -> StrategyOutput:
        out = StrategyOutput(controller=AEB())
        if _obstacle_cleared(ctx):
            out.messages.append(ctx.make(MessageKind.SAFE_FLAG))
            out.notes.append("obstacle gone; platoon reset")
            return _confirm(ctx, out, PlatoonInfo((ctx.ego_id,)))
        return out


class AebFollower:
    """Follower side of AEB Head and AEB Middle.

    Members at or behind the trigger point brake to standstill, wait for
    SafeFlag, and leave the platoon on UpdateFlag with a staggered driver
    restart; in AEB Middle the detecting vehicle itself monitors the
    obstacle and raises SafeFlag, and members ahead of it slow down to wait.
    """

    def step(self, ctx: StrategyContext, progress: StrategyProgress) -> StrategyOutput:
        series = progress.series
        detector = ctx.ego_id if progress.origin is None else progress.origin
        if ctx.maneuver == ManeuverState.AEB_HEAD:
            group = tuple(series[1:]) if series else (ctx.ego_id,)
        else:
            start = series.index(detector) if detector in series else 0
            group = tuple(series[start:]) if series else (ctx.ego_id,)

        if ctx.ego_id not in group:
            return _until_update(ctx, CC(ctx.params.aeb_middle_wait_speed))

        out = StrategyOutput(controller=AEB())
        if progress.phase in ("init", "braking"):
            progress.advance("braking")
            if ctx.ego.v == 0.0:
                progress.advance("stopped")
        if progress.phase == "stopped":
            out.controller = DRIVER(0.0)
            is_detector = detector == ctx.ego_id and ctx.maneuver == ManeuverState.AEB_MIDDLE
            if is_detector and "safe_tick" not in progress.data and _obstacle_cleared(ctx):
                out.messages.append(ctx.make(MessageKind.SAFE_FLAG))
                progress.data["safe_tick"] = ctx.tick
            if ctx.has_flag(MessageKind.SAFE_FLAG):
                progress.data.setdefault("safe_tick", ctx.tick)
            if ctx.has_flag(MessageKind.UPDATE_FLAG) and "safe_tick" in progress.data:
                rank = group.index(ctx.ego_id)
                stagger = ctx.ticks(ctx.params.restart_stagger_s)
                ctx.driver.v_set = 0.0
                ctx.driver.restart_at = progress.data["safe_tick"] + (rank + 1) * stagger
                out.role_change = Role.FREE_VEHICLE
                out.maneuver_done = True
        return out


class AebMiddleLeader:
    """Leader side of AEB Middle: decelerate and wait for the rear group,
    prune it from the platoon once the detector signals SafeFlag."""

    def step(self, ctx: StrategyContext, progress: StrategyProgress) -> StrategyOutput:
        out = StrategyOutput(controller=CC(ctx.params.aeb_middle_wait_speed))
        assert ctx.platoon is not None
        detector = progress.origin
        if ctx.has_flag(MessageKind.SAFE_FLAG):
            return _confirm(ctx, out, ctx.platoon.truncate_from(detector)
                            if detector in ctx.platoon.id_series else None)
        return out


class CutInMember:
    """Cut In without the TTC condition: the detecting vehicle and everyone
    behind it enlarge their gaps under ACC until the intruder cuts out; the
    detector raises SafeFlag when its tracked return changes back."""

    def step(self, ctx: StrategyContext, progress: StrategyProgress) -> StrategyOutput:
        detector = ctx.ego_id if progress.origin is None else progress.origin
        affected = detector == ctx.ego_id or _behind(progress.series, ctx.ego_id, detector)
        out = StrategyOutput(controller=ACC() if affected else None)
        if detector == ctx.ego_id:
            if "cut_target" not in progress.data and ctx.reading.target is not None:
                progress.data["cut_target"] = ctx.reading.target
            target = progress.data.get("cut_target")
            if target is not None and ctx.reading.target != target:
                out.messages.append(ctx.make(MessageKind.SAFE_FLAG))
                out.maneuver_done = True
                out.notes.append("cut-in vehicle left the lane")
        elif ctx.has_flag(MessageKind.SAFE_FLAG):
            out.maneuver_done = True
        return out


class LeaveFollower:
    """Follower side of Leave Middle and Leave Tail. The instructed leaver
    changes lanes out (after the member behind it opened a 30 m gap, for a
    middle leave) and signals SafeFlag as a free vehicle; the member behind
    slows to open that gap and everyone else holds until UpdateFlag."""

    def step(self, ctx: StrategyContext, progress: StrategyProgress) -> StrategyOutput:
        instr = ctx.instruction
        assert instr is not None
        series = progress.series
        if ctx.ego_id == instr.target:
            return self._leaver(ctx, progress)
        behind_leaver = (ctx.maneuver == ManeuverState.LEAVE_MIDDLE
                         and instr.target in series and ctx.ego_id in series
                         and series.index(ctx.ego_id) == series.index(instr.target) + 1)
        if not behind_leaver:
            return _until_update(ctx)
        if progress.phase in ("init", "opening"):
            return _open_gap(ctx, progress, "waiting_update")
        return _until_update(ctx, CC(ctx.params.evade_speed))

    def _leaver(self, ctx: StrategyContext, progress: StrategyProgress) -> StrategyOutput:
        needs_evade = ctx.maneuver == ManeuverState.LEAVE_MIDDLE
        if progress.phase == "init":
            progress.advance("waiting_evade" if needs_evade else "changing")
            progress.data["exit_lane"] = _exit_lane(ctx)
        if progress.phase == "waiting_evade":
            if ctx.has_flag(MessageKind.EVADE_FLAG):
                progress.advance("changing")
            else:
                return StrategyOutput()
        exit_lane = progress.data["exit_lane"]
        if _lane_change_finished(ctx, exit_lane):
            # fall back at the evade speed so the exit corridor clears for
            # any member leaving after us
            out = StrategyOutput(controller=DRIVER(ctx.params.evade_speed))
            out.messages.append(ctx.make(MessageKind.SAFE_FLAG))
            out.role_change = Role.FREE_VEHICLE
            out.maneuver_done = True
            ctx.driver.v_set = ctx.params.evade_speed
            return out
        return StrategyOutput(controller=_ctrl(
            LongitudinalMode.CC, ctx.params.platoon_speed,
            LateralCommand(LateralMode.LANE_CHANGE, exit_lane)))


class LeaveLeader:
    """Leader side of both leave maneuvers: prune the leaver once it signals
    SafeFlag from outside the lane, then confirm with UpdateFlag."""

    def step(self, ctx: StrategyContext, progress: StrategyProgress) -> StrategyOutput:
        out = StrategyOutput(controller=CC(ctx.params.platoon_speed))
        instr = ctx.instruction
        assert instr is not None and ctx.platoon is not None
        if ctx.has_flag(MessageKind.SAFE_FLAG, sender=instr.target):
            return _confirm(ctx, out, ctx.platoon.remove(instr.target)
                            if instr.target in ctx.platoon.id_series else None)
        return out


class HardwareFailuresFollower:
    """Functionality degradation for a follower.

    Own radar fault: CC slightly below the speed at failure. Own V2V fault
    with a working radar, or any fault on a vehicle ahead of us: ACC to
    enlarge the gap. Vehicles ahead of the faulty one keep CACC. Every
    degraded vehicle requests takeover and becomes a free vehicle once the
    simulated driver takes over.
    """

    def step(self, ctx: StrategyContext, progress: StrategyProgress) -> StrategyOutput:
        degrade: Optional[ControllerKind] = None
        if FaultKind.RADAR_FAIL in ctx.own_faults:
            if "cc_vset" not in progress.data:
                progress.data["cc_vset"] = max(
                    0.0, ctx.ego.v - ctx.params.cc_fault_speed_drop)
            degrade = CC(progress.data["cc_vset"])
        elif (FaultKind.V2V_FAIL in ctx.own_faults
              or _behind(progress.series, ctx.ego_id, progress.origin)):
            degrade = ACC()

        if degrade is None:
            # ahead of the fault: steady platooning is unaffected
            return _until_update(ctx, CACC())

        out = StrategyOutput(controller=degrade)
        if "takeover_at" not in progress.data:
            progress.data["takeover_at"] = ctx.tick + ctx.ticks(ctx.params.takeover_delay_s)
            out.messages.append(ctx.make(MessageKind.TAKEOVER_REQUEST))
            out.notes.append("takeover requested")
        if ctx.tick >= progress.data["takeover_at"]:
            ctx.driver.v_set = ctx.ego.v
            out.controller = DRIVER(ctx.ego.v)
            out.role_change = Role.FREE_VEHICLE
            out.maneuver_done = True
            out.notes.append("driver took over")
        return out


class HardwareFailuresLeader:
    """Leader bookkeeping for hardware failures: once the faulty vehicle and
    everyone behind it have been taken over (their heartbeats either show
    FreeVehicle or have gone silent past the timeout), prune them from the
    platoon and confirm with UpdateFlag. The leader itself never degrades."""

    def step(self, ctx: StrategyContext, progress: StrategyProgress) -> StrategyOutput:
        out = StrategyOutput(controller=CC(ctx.params.platoon_speed))
        assert ctx.platoon is not None
        faulty = progress.origin
        if faulty not in ctx.platoon.id_series:
            out.maneuver_done = True
            return out
        idx = ctx.platoon.id_series.index(faulty)
        prune = ctx.platoon.id_series[idx:]
        for vid in prune:
            view = ctx.peers.get(vid)
            if view is None:
                return out  # nothing heard yet; keep waiting
            taken_over = view.role is Role.FREE_VEHICLE or view.silent
            if not taken_over:
                return out
        out.notes.append(f"pruned {list(prune)} after takeover")
        return _confirm(ctx, out, ctx.platoon.truncate_from(faulty))


class FreeNoAction:
    """Free vehicles take no part in this maneuver."""

    def step(self, ctx: StrategyContext, progress: StrategyProgress) -> StrategyOutput:
        return StrategyOutput(maneuver_done=True)


class HoldUntilUpdate:
    """Uninvolved member: keep the current controller until the leader's
    UpdateFlag closes the maneuver."""

    def step(self, ctx: StrategyContext, progress: StrategyProgress) -> StrategyOutput:
        return _until_update(ctx)


def default_registry() -> StrategyRegistry:
    """Registry of every builtin (maneuver, role) strategy."""
    reg = StrategyRegistry()
    M, R = ManeuverState, Role

    reg.register(StrategyKey(M.PLATOONING, R.LEADER), PlatooningLeader())
    reg.register(StrategyKey(M.PLATOONING, R.FOLLOWER), PlatooningFollower())
    reg.register(StrategyKey(M.PLATOONING, R.FREE_VEHICLE), PlatooningFree())

    join_leader = JoinLeader()
    reg.register(StrategyKey(M.JOIN_TAIL, R.FREE_VEHICLE), JoinTailFree())
    reg.register(StrategyKey(M.JOIN_TAIL, R.LEADER), join_leader)
    reg.register(StrategyKey(M.JOIN_TAIL, R.FOLLOWER), HoldUntilUpdate())
    reg.register(StrategyKey(M.JOIN_MIDDLE, R.FREE_VEHICLE), JoinMiddleFree())
    reg.register(StrategyKey(M.JOIN_MIDDLE, R.LEADER), join_leader)
    reg.register(StrategyKey(M.JOIN_MIDDLE, R.FOLLOWER), JoinMiddleFollower())

    aeb_follower = AebFollower()
    reg.register(StrategyKey(M.AEB_HEAD, R.LEADER), AebHeadLeader())
    reg.register(StrategyKey(M.AEB_HEAD, R.FOLLOWER), aeb_follower)
    reg.register(StrategyKey(M.AEB_HEAD, R.FREE_VEHICLE), FreeNoAction())
    reg.register(StrategyKey(M.AEB_MIDDLE, R.LEADER), AebMiddleLeader())
    reg.register(StrategyKey(M.AEB_MIDDLE, R.FOLLOWER), aeb_follower)
    reg.register(StrategyKey(M.AEB_MIDDLE, R.FREE_VEHICLE), FreeNoAction())

    cut_in = CutInMember()
    reg.register(StrategyKey(M.CUT_IN, R.LEADER), cut_in)
    reg.register(StrategyKey(M.CUT_IN, R.FOLLOWER), cut_in)
    reg.register(StrategyKey(M.CUT_IN, R.FREE_VEHICLE), FreeNoAction())

    leave_leader = LeaveLeader()
    leave_follower = LeaveFollower()
    reg.register(StrategyKey(M.LEAVE_MIDDLE, R.LEADER), leave_leader)
    reg.register(StrategyKey(M.LEAVE_MIDDLE, R.FOLLOWER), leave_follower)
    reg.register(StrategyKey(M.LEAVE_MIDDLE, R.FREE_VEHICLE), FreeNoAction())
    reg.register(StrategyKey(M.LEAVE_TAIL, R.LEADER), leave_leader)
    reg.register(StrategyKey(M.LEAVE_TAIL, R.FOLLOWER), leave_follower)
    reg.register(StrategyKey(M.LEAVE_TAIL, R.FREE_VEHICLE), FreeNoAction())

    reg.register(StrategyKey(M.HARDWARE_FAILURES, R.LEADER), HardwareFailuresLeader())
    reg.register(StrategyKey(M.HARDWARE_FAILURES, R.FOLLOWER), HardwareFailuresFollower())
    return reg
