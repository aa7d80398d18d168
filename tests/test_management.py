"""Management-layer tests: registry semantics, the per-(maneuver, role)
strategies against their handshake contracts, and manager trigger handling
(priority, queueing, preemption)."""

import copy
import itertools
import pickle

import pytest

from conftest import (
    DT,
    PARAMS,
    flag,
    fresh_progress,
    make_ctx,
    make_peer,
    make_reading,
    registry_replacing,
)

from platoonsim.core import (
    EventKind,
    FaultKind,
    IllegalTransition,
    LateralCommand,
    LateralMode,
    LongitudinalCommand,
    LongitudinalMode,
    ManeuverState,
    MessageKind,
    PlatoonInfo,
    Role,
    RoleCause,
)
from platoonsim.controllers import TriggerKind
from platoonsim.management import (
    ActiveInstruction,
    DriverState,
    DuplicateKey,
    StrategyKey,
    StrategyOutput,
    StrategyRegistry,
    UnknownJoiner,
    VehicleManager,
)
from platoonsim.strategies import (
    AebFollower,
    AebHeadLeader,
    AebMiddleLeader,
    CutInMember,
    HardwareFailuresFollower,
    HardwareFailuresLeader,
    JoinLeader,
    JoinMiddleFollower,
    JoinMiddleFree,
    JoinTailFree,
    LeaveFollower,
    LeaveLeader,
    PlatooningFree,
    default_registry,
)


def manager_for(vid=2, role=Role.FOLLOWER):
    return VehicleManager(vid, role, default_registry(), PARAMS, DT)


def kinds(output):
    return [m.kind for m in output.messages]


class TestRegistry:
    def test_register_then_lookup(self):
        reg = StrategyRegistry()
        key = StrategyKey(ManeuverState.JOIN_TAIL, Role.FREE_VEHICLE)
        strategy = JoinTailFree()
        reg.register(key, strategy)
        assert reg.lookup(key) is strategy

    def test_duplicate_key_rejected(self):
        reg = StrategyRegistry()
        key = StrategyKey(ManeuverState.JOIN_TAIL, Role.FREE_VEHICLE)
        reg.register(key, JoinTailFree())
        with pytest.raises(DuplicateKey):
            reg.register(key, JoinTailFree())

    def test_extension_key_registers_without_core_changes(self):
        reg = default_registry()
        key = StrategyKey(ManeuverState.extension("Split"), Role.FOLLOWER)
        sentinel = JoinTailFree()
        reg.register(key, sentinel)
        assert reg.lookup(key) is sentinel

    def test_removing_one_strategy_leaves_others_intact(self):
        full = default_registry()
        for victim in full.keys():
            if victim.maneuver == ManeuverState.PLATOONING:
                continue
            reduced = StrategyRegistry()
            for key in full.keys():
                if key != victim:
                    reduced.register(key, full.lookup(key))
            assert reduced.lookup(victim) is None
            for key in full.keys():
                if key != victim:
                    assert reduced.lookup(key) is full.lookup(key)


class TestPlatooningDispatch:
    def test_follower_gets_cacc_and_no_messages(self):
        out, _ = manager_for().tick(make_ctx())
        assert out.controller.longitudinal.mode is LongitudinalMode.CACC
        assert out.messages == []

    def test_leader_gets_cc_at_platoon_speed(self):
        out, _ = manager_for(1, Role.LEADER).tick(
            make_ctx(ego_id=1, role=Role.LEADER))
        lon = out.controller.longitudinal
        assert lon.mode is LongitudinalMode.CC
        assert lon.v_set == PARAMS.platoon_speed

    def test_free_vehicle_is_driver_controlled(self):
        out, _ = manager_for(9, Role.FREE_VEHICLE).tick(
            make_ctx(ego_id=9, role=Role.FREE_VEHICLE, series=()))
        assert out.controller.longitudinal.mode is LongitudinalMode.DRIVER

    def test_missing_key_holds_and_logs(self):
        mgr = manager_for(9, Role.FREE_VEHICLE)
        mgr.maneuver = ManeuverState.HARDWARE_FAILURES  # unregistered for free
        out, events = mgr.tick(make_ctx(ego_id=9, role=Role.FREE_VEHICLE, series=(),
                                        maneuver=ManeuverState.HARDWARE_FAILURES))
        assert out.controller is None
        assert [(e.kind, e.subject) for e in events] == [
            (EventKind.NO_STRATEGY,
             StrategyKey(ManeuverState.HARDWARE_FAILURES, Role.FREE_VEHICLE))]

    def test_key_registered_after_a_hold_is_dispatched_next_tick(self):
        registry = StrategyRegistry()
        mgr = VehicleManager(9, Role.FREE_VEHICLE, registry, PARAMS, DT)
        ctx = make_ctx(ego_id=9, role=Role.FREE_VEHICLE, series=(), tick=1)
        _, events = mgr.tick(ctx)
        assert [e.kind for e in events] == [EventKind.NO_STRATEGY]
        registry.register(StrategyKey(ManeuverState.PLATOONING, Role.FREE_VEHICLE),
                          PlatooningFree())
        out, events = mgr.tick(
            make_ctx(ego_id=9, role=Role.FREE_VEHICLE, series=(), tick=2))
        assert events == []
        assert out.controller.longitudinal.mode is LongitudinalMode.DRIVER

    def test_each_tick_runs_the_strategy_of_the_current_key(self):
        calls = []

        class Recording:
            def __init__(self, name):
                self.name = name

            def step(self, ctx, progress):
                calls.append(self.name)
                return StrategyOutput(maneuver_done=self.name == "join")

        registry = StrategyRegistry()
        registry.register(StrategyKey(ManeuverState.PLATOONING, Role.FREE_VEHICLE),
                          Recording("platooning"))
        registry.register(StrategyKey(ManeuverState.JOIN_TAIL, Role.FREE_VEHICLE),
                          Recording("join"))
        mgr = VehicleManager(9, Role.FREE_VEHICLE, registry, PARAMS, DT)
        mgr.offer_instruction(ActiveInstruction(ManeuverState.JOIN_TAIL, 9))
        for tick in range(3):
            mgr.tick(make_ctx(ego_id=9, role=Role.FREE_VEHICLE, series=(), tick=tick))
        assert calls == ["join", "platooning", "platooning"]


class TestJoinTailFree:
    def test_far_gap_keeps_approaching_without_flag(self):
        out = JoinTailFree().step(make_ctx(reading=make_reading(gap=45.0)),
                                  fresh_progress())
        assert out.controller.longitudinal.mode is LongitudinalMode.ACC
        assert kinds(out) == []

    def test_join_flag_emitted_once_at_threshold(self):
        strategy = JoinTailFree()
        progress = fresh_progress()
        out = strategy.step(make_ctx(reading=make_reading(gap=29.0)), progress)
        assert kinds(out) == [MessageKind.JOIN_FLAG]
        again = strategy.step(make_ctx(reading=make_reading(gap=28.0)), progress)
        assert kinds(again) == []

    def test_update_flag_completes_as_follower_under_cacc(self):
        strategy = JoinTailFree()
        progress = fresh_progress()
        strategy.step(make_ctx(reading=make_reading(gap=29.0)), progress)
        out = strategy.step(make_ctx(inbox=[flag(MessageKind.UPDATE_FLAG)]), progress)
        assert out.maneuver_done
        assert out.role_change is Role.FOLLOWER
        assert out.controller.longitudinal.mode is LongitudinalMode.CACC


class TestJoinLeader:
    def instruction(self, target=3, before=None):
        maneuver = ManeuverState.JOIN_TAIL if before is None else ManeuverState.JOIN_MIDDLE
        return ActiveInstruction(maneuver, target, before)

    def test_tail_join_updates_size_and_series(self):
        ctx = make_ctx(ego_id=1, role=Role.LEADER, series=(1, 2),
                       instruction=self.instruction(target=3),
                       inbox=[flag(MessageKind.JOIN_FLAG, sender=3)])
        out = JoinLeader().step(ctx, fresh_progress())
        assert out.platoon_update == PlatoonInfo((1, 2, 3))
        assert kinds(out) == [MessageKind.UPDATE_FLAG]
        assert out.maneuver_done

    def test_middle_join_inserts_before_evader(self):
        ctx = make_ctx(ego_id=1, role=Role.LEADER, series=(1, 2, 4),
                       instruction=self.instruction(target=5, before=2),
                       inbox=[flag(MessageKind.JOIN_FLAG, sender=5)])
        out = JoinLeader().step(ctx, fresh_progress())
        assert out.platoon_update.id_series == (1, 5, 2, 4)

    def test_insert_positions_match_list_oracle(self):
        base = (1, 2, 3, 4)
        for before in base[1:]:
            ctx = make_ctx(ego_id=1, role=Role.LEADER, series=base,
                           instruction=self.instruction(target=9, before=before),
                           inbox=[flag(MessageKind.JOIN_FLAG, sender=9)])
            out = JoinLeader().step(ctx, fresh_progress())
            expected = list(base)
            expected.insert(expected.index(before), 9)
            assert out.platoon_update.id_series == tuple(expected)

    def test_unexpected_joiner_rejected(self):
        ctx = make_ctx(ego_id=1, role=Role.LEADER, series=(1, 2),
                       instruction=self.instruction(target=3),
                       inbox=[flag(MessageKind.JOIN_FLAG, sender=4)])
        with pytest.raises(UnknownJoiner):
            JoinLeader().step(ctx, fresh_progress())

    def test_without_flag_keeps_waiting(self):
        ctx = make_ctx(ego_id=1, role=Role.LEADER, series=(1, 2),
                       instruction=self.instruction(target=3))
        out = JoinLeader().step(ctx, fresh_progress())
        assert not out.maneuver_done
        assert out.platoon_update is None


class TestJoinMiddleFree:
    def test_aligned_joiner_changes_lane_on_evade_flag_by_its_platoon_replica(self):
        # the peers hold the evader (v3) and its predecessor (v2) but no leader view:
        # the slot is found in the vehicle's own platoon replica
        peers = {2: make_peer(s=430.0, v=20.0), 3: make_peer(s=400.0, v=15.0)}
        instr = ActiveInstruction(ManeuverState.JOIN_MIDDLE, target=6, before=3)
        ctx = make_ctx(ego_id=6, role=Role.FREE_VEHICLE, maneuver=ManeuverState.JOIN_MIDDLE,
                       ego_s=415.0, ego_lane=2, peers=peers, series=(1, 2, 3, 4),
                       instruction=instr, inbox=[flag(MessageKind.EVADE_FLAG, sender=3)])
        out = JoinMiddleFree().step(ctx, fresh_progress())
        assert out.controller.longitudinal == LongitudinalCommand(LongitudinalMode.DRIVER, 20.0)
        assert out.controller.lateral == LateralCommand(LateralMode.LANE_CHANGE, 1)


class TestJoinMiddleEvader:
    INSTR = ActiveInstruction(ManeuverState.JOIN_MIDDLE, target=5, before=3)

    def ctx(self, **kw):
        defaults = dict(ego_id=3, maneuver=ManeuverState.JOIN_MIDDLE,
                        series=(1, 2, 3, 4), instruction=self.INSTR)
        defaults.update(kw)
        return make_ctx(**defaults)

    def test_entry_slows_to_evade_speed(self):
        out = JoinMiddleFollower().step(self.ctx(), fresh_progress())
        lon = out.controller.longitudinal
        assert (lon.mode, lon.v_set) == (LongitudinalMode.CC, 15.0)

    def test_evade_flag_at_gap_threshold_and_speed_back(self):
        strategy = JoinMiddleFollower()
        progress = fresh_progress()
        strategy.step(self.ctx(), progress)
        out = strategy.step(self.ctx(reading=make_reading(gap=30.1)), progress)
        assert kinds(out) == [MessageKind.EVADE_FLAG]
        assert out.controller.longitudinal.v_set == PARAMS.platoon_speed

    def test_join_flag_switches_to_cacc_then_update_completes(self):
        strategy = JoinMiddleFollower()
        progress = fresh_progress()
        strategy.step(self.ctx(), progress)
        strategy.step(self.ctx(reading=make_reading(gap=30.1)), progress)
        out = strategy.step(self.ctx(inbox=[flag(MessageKind.JOIN_FLAG, sender=5)]),
                            progress)
        assert out.controller.longitudinal.mode is LongitudinalMode.CACC
        out = strategy.step(self.ctx(inbox=[flag(MessageKind.UPDATE_FLAG)]), progress)
        assert out.maneuver_done

    def test_uninvolved_follower_holds_until_update(self):
        ctx = self.ctx(ego_id=4)
        out = JoinMiddleFollower().step(ctx, fresh_progress())
        assert out.controller is None
        out = JoinMiddleFollower().step(
            self.ctx(ego_id=4, inbox=[flag(MessageKind.UPDATE_FLAG)]), fresh_progress())
        assert out.maneuver_done


class TestAebHead:
    def test_leader_brakes_while_obstacle_remains(self):
        ctx = make_ctx(ego_id=1, role=Role.LEADER, maneuver=ManeuverState.AEB_HEAD,
                       reading=make_reading(gap=15.0, target=9))
        out = AebHeadLeader().step(ctx, fresh_progress())
        assert out.controller.longitudinal.mode is LongitudinalMode.AEB
        assert kinds(out) == []

    def test_leader_resets_platoon_when_obstacle_gone(self):
        ctx = make_ctx(ego_id=1, role=Role.LEADER, maneuver=ManeuverState.AEB_HEAD,
                       reading=make_reading(gap=200.0, target=None))
        out = AebHeadLeader().step(ctx, fresh_progress())
        assert out.platoon_update == PlatoonInfo((1,))
        assert kinds(out) == [MessageKind.SAFE_FLAG, MessageKind.UPDATE_FLAG]
        assert out.maneuver_done

    def follower_ctx(self, **kw):
        defaults = dict(ego_id=3, maneuver=ManeuverState.AEB_HEAD,
                        series=(1, 2, 3, 4, 5))
        defaults.update(kw)
        return make_ctx(**defaults)

    def test_follower_brakes_while_moving(self):
        out = AebFollower().step(self.follower_ctx(ego_v=12.0),
                                 fresh_progress(detector=1))
        assert out.controller.longitudinal.mode is LongitudinalMode.AEB

    def test_follower_exits_on_safe_and_update(self):
        progress = fresh_progress(detector=1)
        strategy = AebFollower()
        strategy.step(self.follower_ctx(ego_v=12.0), progress)
        driver = DriverState()
        ctx = self.follower_ctx(
            ego_v=0.0, tick=200, driver=driver,
            inbox=[flag(MessageKind.SAFE_FLAG, sender=1),
                   flag(MessageKind.UPDATE_FLAG, sender=1)])
        out = strategy.step(ctx, progress)
        assert out.maneuver_done
        assert out.role_change is Role.FREE_VEHICLE
        # staggered driver restart was scheduled
        assert driver.restart_at == 200 + 2 * PARAMS.ticks(PARAMS.restart_stagger_s, DT)

    def test_restart_rank_follows_series_position(self):
        driver = DriverState()
        progress = fresh_progress(detector=1)
        strategy = AebFollower()
        ctx = self.follower_ctx(
            ego_id=5, ego_v=0.0, tick=200, driver=driver,
            inbox=[flag(MessageKind.SAFE_FLAG, sender=1),
                   flag(MessageKind.UPDATE_FLAG, sender=1)])
        strategy.step(ctx, progress)
        out = strategy.step(ctx, progress)
        assert driver.restart_at == 200 + 4 * PARAMS.ticks(PARAMS.restart_stagger_s, DT)


class TestAebMiddle:
    def test_vehicle_ahead_of_detector_waits_at_reduced_speed(self):
        ctx = make_ctx(ego_id=2, maneuver=ManeuverState.AEB_MIDDLE,
                       series=(1, 2, 3, 4, 5))
        out = AebFollower().step(ctx, fresh_progress(detector=4))
        lon = out.controller.longitudinal
        assert (lon.mode, lon.v_set) == (LongitudinalMode.CC,
                                         PARAMS.aeb_middle_wait_speed)

    def test_detector_emits_safe_flag_once_obstacle_clears(self):
        strategy = AebFollower()
        progress = fresh_progress(detector=4)
        ctx = make_ctx(ego_id=4, maneuver=ManeuverState.AEB_MIDDLE, ego_v=0.0,
                       series=(1, 2, 3, 4, 5),
                       reading=make_reading(gap=200.0, target=None))
        out = strategy.step(ctx, progress)
        assert MessageKind.SAFE_FLAG in kinds(out)

    def test_leader_prunes_rear_group_on_safe_flag(self):
        ctx = make_ctx(ego_id=1, role=Role.LEADER, maneuver=ManeuverState.AEB_MIDDLE,
                       series=(1, 2, 3, 4, 5),
                       inbox=[flag(MessageKind.SAFE_FLAG, sender=4)])
        out = AebMiddleLeader().step(ctx, fresh_progress(detector=4))
        assert out.platoon_update.id_series == (1, 2, 3)
        assert MessageKind.UPDATE_FLAG in kinds(out)
        assert out.maneuver_done


class TestCutIn:
    def test_affected_followers_switch_to_acc(self):
        ctx = make_ctx(ego_id=3, maneuver=ManeuverState.CUT_IN, series=(1, 2, 3, 4, 5))
        out = CutInMember().step(ctx, fresh_progress(detector=2))
        assert out.controller.longitudinal.mode is LongitudinalMode.ACC

    def test_vehicle_ahead_of_cut_in_holds(self):
        ctx = make_ctx(ego_id=1, role=Role.LEADER, maneuver=ManeuverState.CUT_IN,
                       series=(1, 2, 3, 4, 5))
        out = CutInMember().step(ctx, fresh_progress(detector=2))
        assert out.controller is None

    def test_detector_signals_safe_when_target_changes_back(self):
        strategy = CutInMember()
        progress = fresh_progress(detector=2)
        intruder = make_ctx(ego_id=2, maneuver=ManeuverState.CUT_IN,
                            series=(1, 2, 3, 4, 5),
                            reading=make_reading(gap=6.5, target=9))
        strategy.step(intruder, progress)
        cleared = make_ctx(ego_id=2, maneuver=ManeuverState.CUT_IN,
                           series=(1, 2, 3, 4, 5),
                           reading=make_reading(gap=24.0, target=1))
        out = strategy.step(cleared, progress)
        assert kinds(out) == [MessageKind.SAFE_FLAG]
        assert out.maneuver_done


class TestLeave:
    MIDDLE = ActiveInstruction(ManeuverState.LEAVE_MIDDLE, target=3)
    TAIL = ActiveInstruction(ManeuverState.LEAVE_TAIL, target=5)

    def test_follower_behind_leaver_opens_gap_then_evade_flag(self):
        strategy = LeaveFollower()
        progress = fresh_progress()
        ctx = make_ctx(ego_id=4, maneuver=ManeuverState.LEAVE_MIDDLE,
                       instruction=self.MIDDLE, reading=make_reading(gap=13.0))
        out = strategy.step(ctx, progress)
        assert out.controller.longitudinal.v_set == PARAMS.evade_speed
        ctx2 = make_ctx(ego_id=4, maneuver=ManeuverState.LEAVE_MIDDLE,
                        instruction=self.MIDDLE, reading=make_reading(gap=30.5))
        out2 = strategy.step(ctx2, progress)
        assert kinds(out2) == [MessageKind.EVADE_FLAG]

    def test_leaver_changes_lane_after_evade_and_signals_safe(self):
        strategy = LeaveFollower()
        progress = fresh_progress()
        waiting = make_ctx(ego_id=3, maneuver=ManeuverState.LEAVE_MIDDLE,
                           instruction=self.MIDDLE)
        assert strategy.step(waiting, progress).controller is None
        evade = make_ctx(ego_id=3, maneuver=ManeuverState.LEAVE_MIDDLE,
                         instruction=self.MIDDLE,
                         inbox=[flag(MessageKind.EVADE_FLAG, sender=4)])
        out = strategy.step(evade, progress)
        assert out.controller.lateral.target_lane == 2
        done = make_ctx(ego_id=3, maneuver=ManeuverState.LEAVE_MIDDLE,
                        instruction=self.MIDDLE, ego_lane=2)
        out = strategy.step(done, progress)
        assert kinds(out) == [MessageKind.SAFE_FLAG]
        assert out.role_change is Role.FREE_VEHICLE
        assert out.maneuver_done

    def test_tail_leaver_needs_no_evade(self):
        strategy = LeaveFollower()
        progress = fresh_progress()
        ctx = make_ctx(ego_id=5, maneuver=ManeuverState.LEAVE_TAIL,
                       instruction=self.TAIL)
        out = strategy.step(ctx, progress)
        assert out.controller.lateral.target_lane == 2

    def test_leader_prunes_on_safe_flag_from_leaver(self):
        ctx = make_ctx(ego_id=1, role=Role.LEADER, maneuver=ManeuverState.LEAVE_MIDDLE,
                       instruction=self.MIDDLE,
                       inbox=[flag(MessageKind.SAFE_FLAG, sender=3)])
        out = LeaveLeader().step(ctx, fresh_progress())
        assert out.platoon_update.id_series == (1, 2, 4, 5)
        assert MessageKind.UPDATE_FLAG in kinds(out)


class TestHardwareFailuresFollower:
    def ctx(self, **kw):
        defaults = dict(ego_id=3, maneuver=ManeuverState.HARDWARE_FAILURES,
                        series=(1, 2, 3, 4, 5))
        defaults.update(kw)
        return make_ctx(**defaults)

    def test_own_radar_fault_degrades_to_cc_below_failure_speed(self):
        out = HardwareFailuresFollower().step(
            self.ctx(own_faults={FaultKind.RADAR_FAIL}, ego_v=20.0),
            fresh_progress(faulty=3))
        lon = out.controller.longitudinal
        assert lon.mode is LongitudinalMode.CC
        assert lon.v_set == pytest.approx(18.0)
        assert MessageKind.TAKEOVER_REQUEST in kinds(out)

    def test_own_v2v_fault_with_radar_degrades_to_acc(self):
        out = HardwareFailuresFollower().step(
            self.ctx(own_faults={FaultKind.V2V_FAIL}), fresh_progress(faulty=3))
        assert out.controller.longitudinal.mode is LongitudinalMode.ACC
        assert MessageKind.TAKEOVER_REQUEST in kinds(out)

    def test_behind_faulty_vehicle_degrades_to_acc(self):
        out = HardwareFailuresFollower().step(
            self.ctx(ego_id=4), fresh_progress(faulty=3))
        assert out.controller.longitudinal.mode is LongitudinalMode.ACC
        assert MessageKind.TAKEOVER_REQUEST in kinds(out)

    def test_ahead_of_faulty_vehicle_keeps_cacc(self):
        out = HardwareFailuresFollower().step(
            self.ctx(ego_id=2), fresh_progress(faulty=3))
        assert out.controller.longitudinal.mode is LongitudinalMode.CACC
        assert MessageKind.TAKEOVER_REQUEST not in kinds(out)

    def test_takeover_completes_after_driver_delay(self):
        strategy = HardwareFailuresFollower()
        progress = fresh_progress(tick=100, faulty=3)
        strategy.step(self.ctx(own_faults={FaultKind.V2V_FAIL}, tick=100), progress)
        delay = PARAMS.ticks(PARAMS.takeover_delay_s, DT)
        out = strategy.step(
            self.ctx(own_faults={FaultKind.V2V_FAIL}, tick=100 + delay), progress)
        assert out.maneuver_done
        assert out.role_change is Role.FREE_VEHICLE


class TestHardwareFailuresLeader:
    def views(self, taken_over, silent=()):
        peers = {}
        for vid in (2, 3, 4, 5):
            role = Role.FREE_VEHICLE if vid in taken_over else Role.FOLLOWER
            age = 100 if vid in silent else 1
            peers[vid] = make_peer(role=role, age=age, silent=vid in silent)
        return peers

    def ctx(self, series=(1, 2, 3, 4, 5), **kw):
        defaults = dict(ego_id=1, role=Role.LEADER,
                        maneuver=ManeuverState.HARDWARE_FAILURES, series=series)
        defaults.update(kw)
        return make_ctx(**defaults)

    def test_prunes_faulty_and_everyone_behind(self):
        ctx = self.ctx(peers=self.views(taken_over={4, 5}, silent={3}))
        out = HardwareFailuresLeader().step(ctx, fresh_progress(faulty=3))
        assert out.platoon_update.id_series == (1, 2)
        assert MessageKind.UPDATE_FLAG in kinds(out)
        assert out.maneuver_done

    def test_fault_at_tail_prunes_one(self):
        ctx = self.ctx(peers=self.views(taken_over={5}))
        out = HardwareFailuresLeader().step(ctx, fresh_progress(faulty=5))
        assert out.platoon_update.id_series == (1, 2, 3, 4)

    def test_fault_at_first_follower_prunes_all(self):
        ctx = self.ctx(peers=self.views(taken_over={2, 3, 4, 5}))
        out = HardwareFailuresLeader().step(ctx, fresh_progress(faulty=2))
        assert out.platoon_update.id_series == (1,)

    def test_waits_until_takeovers_complete(self):
        # vehicle 5 still reports Follower with a fresh heartbeat
        ctx = self.ctx(peers=self.views(taken_over={4}, silent={3}))
        out = HardwareFailuresLeader().step(ctx, fresh_progress(faulty=3))
        assert out.platoon_update is None
        assert not out.maneuver_done


class TestManagerTriggers:
    def test_cloud_instruction_starts_maneuver_and_sets_instruction(self):
        mgr = manager_for(2, Role.FREE_VEHICLE)
        instr = ActiveInstruction(ManeuverState.JOIN_TAIL, target=2)
        assert mgr.offer_instruction(instr)
        out, events = mgr.tick(make_ctx(ego_id=2, role=Role.FREE_VEHICLE,
                                        series=(), reading=make_reading(gap=45.0)))
        assert mgr.maneuver == ManeuverState.JOIN_TAIL
        assert mgr.progress.instruction is instr

    def test_maneuver_start_resets_the_ttc_baseline(self):
        mgr, idle = manager_for(), manager_for()
        for m in (mgr, idle):
            m.monitor.update(make_reading(gap=30.0, target=1))
        mgr.offer_instruction(ActiveInstruction(ManeuverState.JOIN_TAIL, target=9))
        mgr.tick(make_ctx())
        idle.tick(make_ctx())
        assert mgr.maneuver == ManeuverState.JOIN_TAIL
        # a new, closer target is a baseline after the reset, a cut-in without it
        closer = make_reading(gap=8.0, target=9)
        assert mgr.monitor.update(closer) is TriggerKind.NONE
        assert idle.monitor.update(closer) is TriggerKind.CUT_IN

    def test_free_vehicle_ignores_instructions_for_others(self):
        mgr = manager_for(9, Role.FREE_VEHICLE)
        assert not mgr.offer_instruction(ActiveInstruction(ManeuverState.JOIN_TAIL, 2))
        mgr.tick(make_ctx(ego_id=9, role=Role.FREE_VEHICLE, series=()))
        assert mgr.maneuver == ManeuverState.PLATOONING

    def test_instruction_queued_while_busy(self):
        mgr = manager_for()
        mgr.offer_instruction(ActiveInstruction(ManeuverState.JOIN_TAIL, target=9))
        mgr.tick(make_ctx())
        assert mgr.maneuver == ManeuverState.JOIN_TAIL
        mgr.offer_instruction(ActiveInstruction(ManeuverState.LEAVE_MIDDLE, target=3))
        mgr.tick(make_ctx(maneuver=ManeuverState.JOIN_TAIL))
        assert mgr.maneuver == ManeuverState.JOIN_TAIL  # still busy, queued
        mgr.tick(make_ctx(maneuver=ManeuverState.JOIN_TAIL,
                          inbox=[flag(MessageKind.UPDATE_FLAG)]))
        assert mgr.maneuver == ManeuverState.PLATOONING
        mgr.tick(make_ctx())
        assert mgr.maneuver == ManeuverState.LEAVE_MIDDLE

    def test_hardware_fault_preempts_running_maneuver(self):
        mgr = manager_for()
        mgr.offer_instruction(ActiveInstruction(ManeuverState.JOIN_TAIL, target=9))
        mgr.tick(make_ctx())
        assert mgr.maneuver == ManeuverState.JOIN_TAIL
        mgr.tick(make_ctx(own_faults={FaultKind.RADAR_FAIL}))
        assert mgr.maneuver == ManeuverState.HARDWARE_FAILURES

    def test_fault_signal_survives_same_tick_cloud_instruction(self):
        mgr = manager_for()
        mgr.offer_instruction(ActiveInstruction(ManeuverState.JOIN_TAIL, target=9))
        mgr.tick(make_ctx(own_faults={FaultKind.RADAR_FAIL}))
        # cloud won the slot this tick; the fault preempts on the next one
        assert mgr.maneuver == ManeuverState.JOIN_TAIL
        mgr.tick(make_ctx(own_faults={FaultKind.RADAR_FAIL},
                          maneuver=ManeuverState.JOIN_TAIL))
        assert mgr.maneuver == ManeuverState.HARDWARE_FAILURES

    def test_sensor_trigger_dropped_while_busy(self):
        mgr = manager_for()
        mgr.offer_instruction(ActiveInstruction(ManeuverState.JOIN_TAIL, target=9))
        mgr.tick(make_ctx())
        mgr.tick(make_ctx(maneuver=ManeuverState.JOIN_TAIL))
        mgr.tick(make_ctx(maneuver=ManeuverState.JOIN_TAIL,
                          reading=make_reading(gap=10.0, target=9)))
        assert mgr.maneuver == ManeuverState.JOIN_TAIL
        mgr.tick(make_ctx(maneuver=ManeuverState.JOIN_TAIL,
                          inbox=[flag(MessageKind.UPDATE_FLAG)]))
        mgr.tick(make_ctx())
        assert mgr.maneuver == ManeuverState.PLATOONING  # event was not replayed

    def test_ttc_trigger_maps_by_role(self):
        leader = manager_for(1, Role.LEADER)
        leader.tick(make_ctx(ego_id=1, role=Role.LEADER))
        leader.tick(make_ctx(ego_id=1, role=Role.LEADER,
                             reading=make_reading(gap=4.0, target=9)))
        assert leader.maneuver == ManeuverState.AEB_HEAD
        follower = manager_for()
        follower.tick(make_ctx())
        follower.tick(make_ctx(reading=make_reading(gap=4.0, target=9)))
        assert follower.maneuver == ManeuverState.AEB_MIDDLE

    def test_timeout_aborts_stuck_maneuver(self):
        mgr = manager_for(2, Role.FREE_VEHICLE)
        mgr.offer_instruction(ActiveInstruction(ManeuverState.JOIN_TAIL, target=2))
        mgr.tick(make_ctx(ego_id=2, role=Role.FREE_VEHICLE, series=(),
                          reading=make_reading(gap=45.0), tick=0))
        timeout_ticks = PARAMS.ticks(PARAMS.maneuver_timeout_s, DT)
        out, events = mgr.tick(
            make_ctx(ego_id=2, role=Role.FREE_VEHICLE, series=(),
                     reading=make_reading(gap=45.0), tick=timeout_ticks + 1))
        assert mgr.maneuver == ManeuverState.PLATOONING
        assert mgr.role is Role.FREE_VEHICLE
        assert any(e.kind is EventKind.MANEUVER_TIMEOUT for e in events)

    def taken_over(self, *queued):
        """Follower 2 after a radar fault and its takeover, with ``queued``
        offered while it was still a member in HardwareFailures."""
        mgr, radar = manager_for(), {FaultKind.RADAR_FAIL}
        mgr.tick(make_ctx(tick=0, own_faults=radar))
        assert mgr.maneuver == ManeuverState.HARDWARE_FAILURES
        for instr in queued:
            assert mgr.offer_instruction(instr)  # a member takes part in any
        takeover = PARAMS.ticks(PARAMS.takeover_delay_s, DT)
        mgr.tick(make_ctx(tick=takeover, own_faults=radar,
                          maneuver=ManeuverState.HARDWARE_FAILURES))
        assert mgr.role is Role.FREE_VEHICLE and mgr.maneuver == ManeuverState.PLATOONING
        _, events = mgr.tick(make_ctx(tick=takeover + 1, role=Role.FREE_VEHICLE, series=(),
                                      own_faults=radar))
        return mgr, events

    def test_free_vehicle_drops_another_vehicles_queued_instruction(self):
        mgr, events = self.taken_over(ActiveInstruction(ManeuverState.JOIN_TAIL, target=9))
        assert mgr.maneuver == ManeuverState.PLATOONING
        assert not [e for e in events if e.kind is EventKind.MANEUVER_START]
        assert mgr.progress.instruction is None

    def test_free_vehicle_starts_its_own_instruction_queued_behind_a_dropped_one(self):
        own = ActiveInstruction(ManeuverState.JOIN_TAIL, target=2)
        mgr, _ = self.taken_over(ActiveInstruction(ManeuverState.LEAVE_TAIL, target=9), own)
        assert mgr.maneuver == ManeuverState.JOIN_TAIL and mgr.progress.instruction is own


JOIN_9 = ActiveInstruction(ManeuverState.JOIN_TAIL, target=9)
ENTRY_FLAGS = (MessageKind.FAULT_FLAG, MessageKind.MANEUVER_ANNOUNCE)
FAULT_FLAG = (MessageKind.FAULT_FLAG, FaultKind.RADAR_FAIL, None)  # (kind, fault, maneuver)


class TestEntryRecord:
    """Each way a maneuver starts, and the instance it starts with: the
    vehicle its trigger names, the cloud instruction, the platoon order at
    entry, and the one message a vehicle sends about its own detection."""

    @pytest.mark.parametrize("offer, ctx_kw, silent, maneuver, origin, entry", [
        pytest.param(JOIN_9, {}, frozenset(), ManeuverState.JOIN_TAIL, None, None,
                     id="cloud instruction"),
        pytest.param(None, dict(own_faults={FaultKind.RADAR_FAIL}), frozenset(),
                     ManeuverState.HARDWARE_FAILURES, 2, FAULT_FLAG, id="own fault"),
        pytest.param(None, dict(inbox=[flag(MessageKind.FAULT_FLAG, sender=3,
                                            fault=FaultKind.V2V_FAIL)]), frozenset(),
                     ManeuverState.HARDWARE_FAILURES, 3, None, id="peer FaultFlag"),
        pytest.param(None, {}, frozenset((4,)), ManeuverState.HARDWARE_FAILURES, 4, None,
                     id="silent peer"),
        pytest.param(None, dict(reading=make_reading(gap=4.0, target=9)), frozenset(),
                     ManeuverState.AEB_MIDDLE, 2,
                     (MessageKind.MANEUVER_ANNOUNCE, None, ManeuverState.AEB_MIDDLE),
                     id="TTC detection"),
        pytest.param(None, dict(reading=make_reading(gap=10.0, target=9)), frozenset(),
                     ManeuverState.CUT_IN, 2,
                     (MessageKind.MANEUVER_ANNOUNCE, None, ManeuverState.CUT_IN),
                     id="cut-in detection"),
        pytest.param(None, dict(inbox=[flag(MessageKind.MANEUVER_ANNOUNCE, sender=4,
                                            maneuver=ManeuverState.AEB_MIDDLE)]),
                     frozenset(), ManeuverState.AEB_MIDDLE, 4, None, id="adopted announce"),
    ])
    def test_entry_records_its_facts_and_broadcasts_only_an_own_detection(
            self, offer, ctx_kw, silent, maneuver, origin, entry):
        mgr = manager_for()
        mgr.tick(make_ctx(tick=99))  # the TTC baseline
        if offer is not None:
            assert mgr.offer_instruction(offer)
        out, events = mgr.tick(make_ctx(**ctx_kw), silent)
        assert [e.subject for e in events if e.kind is EventKind.MANEUVER_START] == [maneuver]
        progress = mgr.progress
        assert (progress.entered_tick, progress.origin, progress.instruction,
                progress.series) == (100, origin, offer, (1, 2, 3, 4, 5))
        sent = [(m.kind, m.fault, m.maneuver) for m in out.messages if m.kind in ENTRY_FLAGS]
        assert sent == ([] if entry is None else [entry])
        if entry is not None:  # ahead of what the strategy sends
            assert out.messages[0].kind is entry[0]


class TestFaultSignalOrder:
    """The manager gets its own faults and the silent peers as sets, and
    queues each new one once: own faults by FaultKind value, then silent
    peers in ascending id."""

    @pytest.mark.parametrize("own", [*itertools.permutations(FaultKind), frozenset(FaultKind)])
    @pytest.mark.parametrize("silent", [*itertools.permutations((5, 3, 4)), frozenset((5, 3, 4))])
    def test_queued_in_a_fixed_order_whatever_the_signal_order(self, own, silent):
        mgr = manager_for()
        mgr._queue_faults(make_ctx(own_faults=own), own, silent)
        by_value = sorted(FaultKind, key=lambda k: k.value)
        assert list(mgr._pending_faults) == (
            [(kind, 2) for kind in by_value]
            + [(FaultKind.V2V_FAIL, peer) for peer in (3, 4, 5)])

    def test_a_fault_handed_over_on_every_tick_is_queued_once(self):
        mgr = manager_for()
        mgr._select_trigger = lambda *_: None  # start nothing: keep what tick queues
        own, silent = frozenset(FaultKind), frozenset((5, 3, 4))
        for tick in (100, 101, 102):
            mgr.tick(make_ctx(tick=tick, own_faults=own), silent)
        by_value = sorted(FaultKind, key=lambda k: k.value)
        assert list(mgr._pending_faults) == (
            [(kind, 2) for kind in by_value]
            + [(FaultKind.V2V_FAIL, peer) for peer in (3, 4, 5)])

    def test_a_fault_seen_while_free_starts_nothing_once_a_member(self):
        mgr = manager_for(2, Role.FREE_VEHICLE)
        radar = {FaultKind.RADAR_FAIL}
        mgr.tick(make_ctx(role=Role.FREE_VEHICLE, series=(), own_faults=radar))
        mgr.role, mgr.member = Role.FOLLOWER, True  # as if it had joined
        mgr.tick(make_ctx(tick=101, own_faults=radar))
        assert mgr.maneuver == ManeuverState.PLATOONING


class TestDriverRestart:
    def test_restart_sets_speed_and_requests_join(self):
        driver = DriverState(v_set=0.0, restart_at=100)
        out = PlatooningFree().step(
            make_ctx(ego_id=3, role=Role.FREE_VEHICLE, series=(), tick=100,
                     driver=driver),
            fresh_progress())
        assert kinds(out) == [MessageKind.JOIN_REQUEST]
        assert out.controller.longitudinal.v_set == PARAMS.platoon_speed
        assert driver.restart_at is None

    def test_before_restart_time_holds_still(self):
        driver = DriverState(v_set=0.0, restart_at=100)
        out = PlatooningFree().step(
            make_ctx(ego_id=3, role=Role.FREE_VEHICLE, series=(), tick=99,
                     driver=driver),
            fresh_progress())
        assert kinds(out) == []
        assert out.controller.longitudinal.v_set == 0.0


class FinishWithRole:
    """An extension strategy that completes on its first step with a role change."""

    def __init__(self, role):
        self.role = role

    def step(self, ctx, progress):
        return StrategyOutput(role_change=self.role, maneuver_done=True)


class TestDeclaredManeuver:
    """One object per maneuver name, carrying the role edge its completion may take."""

    @pytest.mark.parametrize("maneuver", [
        ManeuverState.JOIN_TAIL, ManeuverState.extension("Declared-once")],
        ids=["core", "extension"])
    def test_constructor_copy_and_pickle_return_the_declared_object(self, maneuver):
        assert ManeuverState(maneuver.name) is maneuver
        assert copy.copy(maneuver) is maneuver
        assert copy.deepcopy(maneuver) is maneuver
        assert pickle.loads(pickle.dumps(maneuver)) is maneuver

    def test_core_maneuvers_declare_their_role_edge(self):
        causes = {m.name: m.cause for m in ManeuverState.CORE}
        assert causes == {
            "Platooning": None, "CutIn": None,
            "JoinTail": RoleCause.JOIN_COMPLETED, "JoinMiddle": RoleCause.JOIN_COMPLETED,
            "LeaveTail": RoleCause.LEAVE_COMPLETED, "LeaveMiddle": RoleCause.LEAVE_COMPLETED,
            "AEBHead": RoleCause.AEB_COMPLETED, "AEBMiddle": RoleCause.AEB_COMPLETED,
            "HardwareFailures": RoleCause.TAKEOVER_COMPLETED}

    def test_redeclaring_an_extension_with_its_cause_returns_it(self):
        merge = ManeuverState.extension("Merge-same", RoleCause.JOIN_COMPLETED)
        assert ManeuverState.extension("Merge-same", RoleCause.JOIN_COMPLETED) is merge

    def test_redeclaring_an_extension_with_another_cause_is_refused(self):
        ManeuverState.extension("Merge-other", RoleCause.JOIN_COMPLETED)
        with pytest.raises(ValueError, match="already declared"):
            ManeuverState.extension("Merge-other")
        with pytest.raises(ValueError, match="already declared"):
            ManeuverState.extension("Merge-other", RoleCause.LEAVE_COMPLETED)

    def test_an_undeclared_name_is_refused(self):
        with pytest.raises(ValueError, match="no maneuver is declared"):
            ManeuverState("Never-declared")

    def test_a_maneuver_is_immutable(self):
        with pytest.raises(AttributeError):
            ManeuverState.JOIN_TAIL.cause = None

    def run_extension(self, maneuver, role, new_role):
        registry = default_registry()
        registry.register(StrategyKey(maneuver, role), FinishWithRole(new_role))
        mgr = VehicleManager(9, role, registry, PARAMS, DT)
        mgr.offer_instruction(ActiveInstruction(maneuver, target=9))
        return mgr, mgr.tick(make_ctx(ego_id=9, role=role, series=()))

    def test_an_extension_that_declares_join_turns_a_free_vehicle_into_a_follower(self):
        merge = ManeuverState.extension("Merge-join", RoleCause.JOIN_COMPLETED)
        mgr, (_, events) = self.run_extension(merge, Role.FREE_VEHICLE, Role.FOLLOWER)
        assert (mgr.role, mgr.member, mgr.maneuver) == (
            Role.FOLLOWER, True, ManeuverState.PLATOONING)
        assert [(e.kind, e.subject) for e in events] == [
            (EventKind.MANEUVER_START, merge), (EventKind.ROLE_CHANGE, Role.FOLLOWER),
            (EventKind.MANEUVER_COMPLETE, merge)]

    def test_a_completion_off_its_role_edge_is_refused_in_the_managers_words(self):
        # JoinCompleted leads out of FreeVehicle only: a follower has no edge to take
        registry = registry_replacing(StrategyKey(ManeuverState.JOIN_TAIL, Role.FOLLOWER),
                                      FinishWithRole(Role.FREE_VEHICLE))
        mgr = VehicleManager(2, Role.FOLLOWER, registry, PARAMS, DT)
        mgr.offer_instruction(JOIN_9)
        with pytest.raises(IllegalTransition, match="no role edge from Follower to FreeVehicle"):
            mgr.tick(make_ctx())

    def test_an_extension_without_a_cause_takes_no_role_edge(self):
        merge = ManeuverState.extension("Merge-undeclared")
        with pytest.raises(IllegalTransition, match="no role edge from FreeVehicle to Follower"):
            self.run_extension(merge, Role.FREE_VEHICLE, Role.FOLLOWER)
