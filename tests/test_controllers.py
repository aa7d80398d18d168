"""Controller tests: equilibria, signs, the closed-loop speed-tracking
oracle, anti-windup, AEB timing, the per-mode dispatch and the TTC trigger
classification."""

import math
import random

import pytest

from platoonsim.comms import PeerView, RadarReading
from platoonsim.controllers import (
    GainSet,
    InvalidReading,
    PidState,
    SpacingPolicy,
    StaleData,
    TriggerKind,
    TtcConfig,
    TtcMonitor,
    aeb,
    acc,
    cacc,
    cap_speed,
    cc,
    longitudinal_command,
    ttc_trigger,
)
from platoonsim.core import LongitudinalCommand, LongitudinalMode, Role
from platoonsim.dynamics import G, DynamicsLimits, step_longitudinal, VehicleState
from platoonsim.params import Parameters

POLICY = SpacingPolicy()
GAINS = GainSet()
TTC = TtcConfig()
DT = 0.05


def reading(gap, rel_speed=0.0, valid=True, target=1):
    return RadarReading(valid, gap, rel_speed, target)


def peer(v=20.0, a=0.0, age=1, zeroed=False, s=100.0, silent=False):
    return PeerView(s=s, v=v, a=a, length=5.0, role=Role.FOLLOWER,
                    platoon=None, age_ticks=age, zeroed=zeroed, silent=silent)


class TestCc:
    def test_zero_error_zero_command(self):
        assert cc(20.0, 20.0, GAINS) == 0.0

    def test_sign_of_error(self):
        assert cc(20.0, 18.0, GAINS) < 0.0
        assert cc(16.0, 18.0, GAINS) > 0.0

    def test_step_response_settles_within_ten_seconds(self):
        # scalar closed loop; analytic solution v(t) = vset + (v0-vset) e^(-kv t)
        limits = DynamicsLimits()
        state = VehicleState(s=0.0, lane=0, v=10.0)
        t = 0.0
        settled_at = None
        while t < 15.0:
            state = step_longitudinal(state, cc(state.v, 20.0, GAINS), limits, DT)
            t += DT
            if settled_at is None and abs(state.v - 20.0) <= 0.05 * 20.0:
                settled_at = t
        assert settled_at is not None and settled_at < 10.0
        # compare against the analytic first-order response at that time
        analytic = 20.0 + (10.0 - 20.0) * math.exp(-GAINS.kv * settled_at)
        assert abs(analytic - 20.0) <= 0.05 * 20.0 + 0.5


class TestAcc:
    def test_equilibrium_at_enlarged_policy_gap(self):
        # gap = d0 + h_max v = 3 + 0.75*20 = 18
        assert acc(reading(18.0), 20.0, POLICY, GAINS, PidState(), DT) \
            == pytest.approx(0.0)

    def test_small_gap_commands_deceleration(self):
        assert acc(reading(13.0), 20.0, POLICY, GAINS, PidState(), DT) < 0.0

    def test_large_gap_commands_acceleration(self):
        assert acc(reading(30.0), 20.0, POLICY, GAINS, PidState(), DT) > 0.0

    def test_invalid_reading_rejected(self):
        with pytest.raises(InvalidReading):
            acc(reading(18.0, valid=False), 20.0, POLICY, GAINS, PidState(), DT)

    def test_monotone_in_gap(self):
        cmds = [acc(reading(g), 20.0, POLICY, GAINS, PidState(), DT)
                for g in range(5, 60, 5)]
        assert cmds == sorted(cmds)


class TestCacc:
    def test_equilibrium_at_baseline_headway(self):
        # steady platooning landmark: 3 + 0.5*20 = 13 m at 20 m/s
        cmd = cacc(reading(13.0), peer(v=20.0), 20.0, POLICY, GAINS, PidState(), DT)
        assert cmd == pytest.approx(0.0)

    def test_standstill_equilibrium_at_safe_distance(self):
        cmd = cacc(reading(3.0), peer(v=0.0), 0.0, POLICY, GAINS, PidState(), DT)
        assert cmd == pytest.approx(0.0)

    def test_zeroed_peer_view_commands_hard_braking(self):
        # communicated data all turned to zero at a true 13 m gap
        cmd = cacc(reading(13.0), peer(v=0.0, a=0.0, zeroed=True, s=0.0, silent=True),
                   20.0, POLICY, GAINS, PidState(), DT)
        assert cmd < -G

    def test_stale_peer_rejected(self):
        with pytest.raises(StaleData):
            cacc(reading(13.0), peer(age=11, silent=True), 20.0, POLICY, GAINS, PidState(), DT)

    def test_fresh_peer_accepted_within_timeout(self):
        # the view's age does not matter to CACC, only whether it is silent
        cmd = cacc(reading(13.0), peer(age=10), 20.0, POLICY, GAINS, PidState(), DT)
        assert cmd == pytest.approx(0.0)

    def test_monotone_in_gap(self):
        cmds = [cacc(reading(g), peer(), 20.0, POLICY, GAINS, PidState(), DT)
                for g in range(5, 60, 5)]
        assert cmds == sorted(cmds)

    def test_feedforward_follows_peer_acceleration(self):
        braking = cacc(reading(13.0), peer(a=-2.0), 20.0, POLICY, GAINS, PidState(), DT)
        assert braking == pytest.approx(GAINS.ka * -2.0)


class TestVariableHeadway:
    def test_baseline_at_zero_relative_speed(self):
        assert POLICY.variable_headway(0.0) == 0.5

    def test_closing_grows_headway_to_max(self):
        assert POLICY.variable_headway(-20.0) == POLICY.h_max

    def test_opening_shrinks_headway_to_min(self):
        assert POLICY.variable_headway(20.0) == POLICY.h_min

    def test_slope(self):
        assert POLICY.variable_headway(-2.0) == pytest.approx(0.6)


class TestAntiWindup:
    def test_integral_contribution_bounded_under_any_inputs(self):
        rng = random.Random(11)
        pid = PidState()
        for _ in range(2000):
            pid.step(rng.uniform(-50.0, 50.0), DT, GAINS)
            assert abs(GAINS.ki * pid.integral) <= GAINS.windup_limit + 1e-9


class TestAeb:
    def test_full_deceleration_while_moving(self):
        assert aeb(20.0, G) == pytest.approx(-9.81)

    def test_zero_at_standstill(self):
        assert aeb(0.0, G) == 0.0

    def test_time_to_stop_oracle(self):
        # v / d_max = 20 / 9.81 = 2.04 s
        limits = DynamicsLimits()
        state = VehicleState(s=0.0, lane=0, v=20.0)
        ticks = 0
        while state.v > 0.0:
            state = step_longitudinal(state, aeb(state.v, limits.d_max), limits, DT)
            ticks += 1
        assert ticks * DT == pytest.approx(20.0 / G, abs=DT)


class TestSpeedCap:
    def test_passthrough_below_cap(self):
        assert cap_speed(1.5, 20.0, 25.0, GAINS) == 1.5

    def test_limits_accel_at_cap(self):
        assert cap_speed(2.9, 25.0, 25.0, GAINS) == 0.0


class TestLongitudinalCommand:
    PARAMS = Parameters()

    def command(self, mode, reading_, ego_v=20.0, predecessor=None, v_set=None,
                driver_v_set=20.0, pid_acc=None, pid_cacc=None):
        return longitudinal_command(
            LongitudinalCommand(mode, v_set), reading_, ego_v, driver_v_set,
            predecessor, self.PARAMS, pid_acc or PidState(), pid_cacc or PidState(), DT)

    def acc_fallback(self, reading_, ego_v):
        cmd = acc(reading_, ego_v, POLICY, GAINS, PidState(), DT)
        return cap_speed(cmd, ego_v, self.PARAMS.approach_speed_cap, GAINS)

    @pytest.mark.parametrize("predecessor", [None, peer(age=50, silent=True)],
                             ids=["missing", "stale"])
    @pytest.mark.parametrize("gap, ego_v", [(12.0, 19.0), (80.0, 27.0)],
                             ids=["uncapped", "capped"])
    def test_cacc_falls_back_to_acc(self, predecessor, gap, ego_v):
        r = reading(gap, rel_speed=-1.0)
        pid_cacc = PidState(integral=0.3, prev_error=1.0)
        got = self.command(LongitudinalMode.CACC, r, ego_v, predecessor,
                           pid_cacc=pid_cacc)
        assert got == self.acc_fallback(r, ego_v)
        assert pid_cacc == PidState(integral=0.3, prev_error=1.0)

    @pytest.mark.parametrize("gap, ego_v", [(12.0, 19.0), (80.0, 27.0)],
                             ids=["uncapped", "capped"])
    def test_cacc_with_fresh_predecessor(self, gap, ego_v):
        r, p = reading(gap), peer(v=21.0, a=0.5, age=2)
        got = self.command(LongitudinalMode.CACC, r, ego_v, p)
        cmd = cacc(r, p, ego_v, POLICY, GAINS, PidState(), DT)
        assert got == cap_speed(cmd, ego_v, self.PARAMS.approach_speed_cap, GAINS)

    def test_approach_cap_binds_at_large_gap(self):
        r = reading(80.0)
        uncapped = acc(r, 27.0, POLICY, GAINS, PidState(), DT)
        assert self.command(LongitudinalMode.ACC, r, 27.0) < uncapped

    @pytest.mark.parametrize("mode", [LongitudinalMode.ACC, LongitudinalMode.CACC])
    def test_invalid_reading_commands_nothing(self, mode):
        assert self.command(mode, reading(200.0, valid=False), predecessor=peer()) == 0.0

    def test_driver_floor_brakes_below_floor_gap(self):
        floor = self.PARAMS.spacing.d0 + self.PARAMS.driver_headway * 20.0
        assert self.command(LongitudinalMode.DRIVER, reading(floor + 0.1)) == 0.0
        assert self.command(LongitudinalMode.DRIVER, reading(floor - 1.0)) < 0.0

    def test_cc_without_set_speed_tracks_platoon_speed(self):
        got = self.command(LongitudinalMode.CC, reading(50.0), ego_v=15.0)
        assert got == cc(15.0, self.PARAMS.platoon_speed, GAINS) > 0.0

    def test_aeb_brakes_fully(self):
        assert self.command(LongitudinalMode.AEB, reading(3.0)) == -G


class TestTtcTrigger:
    def test_threshold_boundary_is_aeb(self):
        prev = reading(200.0, target=None)
        new = reading(40.0, rel_speed=-20.0, target=9)
        assert ttc_trigger(new, prev, TTC) == TriggerKind.AEB

    def test_slow_closing_new_target_is_cut_in(self):
        prev = reading(13.0, target=1)
        new = reading(25.0, rel_speed=-2.0, target=9)
        # 25 m at 2 m/s closing is TTC 12.5 s: not an emergency... but the
        # new return is farther than the tracked one, so nothing cut in
        assert ttc_trigger(new, prev, TTC) == TriggerKind.NONE

    def test_cut_in_closer_target_without_ttc(self):
        prev = reading(30.0, target=1)
        new = reading(25.0, rel_speed=-2.0, target=9)
        assert ttc_trigger(new, prev, TTC) == TriggerKind.CUT_IN

    def test_unchanged_target_never_fires(self):
        prev = reading(40.0, target=1)
        new = reading(6.0, rel_speed=-30.0, target=1)
        assert ttc_trigger(new, prev, TTC) == TriggerKind.NONE

    def test_min_gap_branch(self):
        prev = reading(13.0, target=1)
        new = reading(4.5, rel_speed=0.0, target=9)
        assert ttc_trigger(new, prev, TTC) == TriggerKind.AEB

    def test_monitor_first_reading_is_baseline_only(self):
        monitor = TtcMonitor(TTC)
        assert monitor.update(reading(13.0, target=1)) == TriggerKind.NONE
        assert monitor.update(reading(13.0, target=1)) == TriggerKind.NONE

    def test_monitor_reset_rebaselines(self):
        monitor = TtcMonitor(TTC)
        monitor.update(reading(30.0, target=1))
        monitor.reset()
        # target switched while the monitor was re-baselining: no trigger
        assert monitor.update(reading(12.0, target=9)) == TriggerKind.NONE

    def test_monitor_detects_intruder_after_baseline(self):
        monitor = TtcMonitor(TTC)
        monitor.update(reading(13.0, target=1))
        assert monitor.update(reading(8.0, rel_speed=0.0, target=9)) == TriggerKind.CUT_IN
