"""Dynamics tests: integration arithmetic, clamping, the closed-form braking
oracle, lane changes and collision detection."""

import random
import struct

import pytest

from platoonsim.core import LateralCommand, LateralMode, VehicleState
from platoonsim.dynamics import (
    G,
    DynamicsLimits,
    InvalidLane,
    LaneGeometry,
    detect_collisions,
    lateral_position,
    step_longitudinal,
    step_lateral,
    stopping_distance,
)
from platoonsim.params import Parameters

LIMITS = DynamicsLimits()
GEOM = LaneGeometry()
WIDTH = Parameters().vehicle_width
LANE_CENTER = LateralCommand(LateralMode.LANE_CENTER)


def vehicle(s=0.0, lane=0, v=20.0, offset=0.0):
    return VehicleState(s=s, lane=lane, v=v, lateral_offset=offset)


class TestLongitudinal:
    def test_full_brake_step_arithmetic(self):
        out = step_longitudinal(vehicle(v=20.0), -G, LIMITS, dt=0.1)
        assert out.v == pytest.approx(20.0 - 0.981, abs=1e-12)

    def test_speed_floors_at_standstill(self):
        out = step_longitudinal(vehicle(v=0.05), -G, LIMITS, dt=0.1)
        assert out.v == 0.0

    def test_position_never_reverses_on_stop(self):
        start = vehicle(s=100.0, v=0.05)
        out = step_longitudinal(start, -G, LIMITS, dt=0.1)
        assert out.s >= start.s

    def test_stopping_distance_matches_closed_form(self):
        # brake from 20 m/s at 1.00 g; oracle: v^2 / (2 d_max) = 20.39 m
        state = vehicle(s=0.0, v=20.0)
        dt = 0.05
        while state.v > 0.0:
            state = step_longitudinal(state, -G, LIMITS, dt)
        oracle = stopping_distance(20.0, LIMITS.d_max)
        assert oracle == pytest.approx(20.387, abs=0.01)
        assert state.s == pytest.approx(oracle, abs=dt * 20.0)

    def test_command_clamped_to_limits(self):
        up = step_longitudinal(vehicle(v=10.0), 50.0, LIMITS, dt=0.1)
        assert up.a == pytest.approx(LIMITS.a_max)
        down = step_longitudinal(vehicle(v=10.0), -50.0, LIMITS, dt=0.1)
        assert down.a == pytest.approx(-LIMITS.d_max)

    def test_standstill_holds_under_braking(self):
        state = vehicle(s=50.0, v=0.0)
        out = step_longitudinal(state, -G, LIMITS, dt=0.05)
        assert out.s == state.s
        assert out.v == 0.0

    @pytest.mark.parametrize("dt", [0.0, -0.0, -0.05])
    def test_a_step_that_is_not_positive_is_refused(self, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            step_longitudinal(vehicle(v=10.0), 1.0, LIMITS, dt)

    def test_speed_non_negative_under_random_commands(self):
        rng = random.Random(7)
        state = vehicle(v=5.0)
        for _ in range(500):
            state = step_longitudinal(state, rng.uniform(-30.0, 10.0), LIMITS, 0.05)
            assert state.v >= 0.0
            assert abs(state.a) <= max(LIMITS.a_max, LIMITS.d_max) + 1e-12

    def test_step_order_independence(self):
        # each step reads only its own snapshot, so ordering cannot matter
        states = {i: vehicle(s=20.0 * i, v=15.0 + i) for i in range(5)}
        cmds = {i: -2.0 + i for i in range(5)}
        forward = {i: step_longitudinal(states[i], cmds[i], LIMITS, 0.05) for i in range(5)}
        backward = {i: step_longitudinal(states[i], cmds[i], LIMITS, 0.05)
                    for i in reversed(range(5))}
        assert forward == backward


class TestLateral:
    def test_lane_change_midpoint_progress(self):
        state = vehicle(lane=1)
        cmd = LateralCommand(LateralMode.LANE_CHANGE, target_lane=2)
        for _ in range(30):  # 1.5 s at dt=0.05 of a 3 s change
            state = step_lateral(state, cmd, GEOM, 0.05)
        assert state.lateral_offset == pytest.approx(0.5 * GEOM.lane_width)
        assert state.lane == 1

    def test_lane_change_completes_and_resets_offset(self):
        state = vehicle(lane=1)
        cmd = LateralCommand(LateralMode.LANE_CHANGE, target_lane=0)
        for _ in range(61):
            state = step_lateral(state, cmd, GEOM, 0.05)
        assert state.lane == 0
        assert state.lateral_offset == 0.0

    def test_lane_center_is_fixed_point_at_zero(self):
        state = vehicle()
        assert step_lateral(state, LANE_CENTER, GEOM, 0.05) == state

    def test_lane_center_decays_offset(self):
        state = vehicle(offset=1.0)
        out = step_lateral(state, LANE_CENTER, GEOM, 0.05)
        assert 0.0 < out.lateral_offset < 1.0

    def test_non_adjacent_lane_rejected(self):
        with pytest.raises(InvalidLane):
            step_lateral(vehicle(lane=0),
                         LateralCommand(LateralMode.LANE_CHANGE, target_lane=2),
                         GEOM, 0.05)

    def test_out_of_range_lane_rejected(self):
        with pytest.raises(InvalidLane):
            step_lateral(vehicle(lane=2),
                         LateralCommand(LateralMode.LANE_CHANGE, target_lane=3),
                         GEOM, 0.05)


class TestCollisions:
    def test_positive_gap_no_collision(self):
        states = {1: vehicle(s=100.0), 2: vehicle(s=100.0 - 5.0 - 0.5)}
        assert detect_collisions(states, GEOM, WIDTH) == []

    def test_interval_overlap_reports_pair(self):
        states = {1: vehicle(s=100.0), 2: vehicle(s=100.0 - 5.0 + 0.1)}
        assert detect_collisions(states, GEOM, WIDTH) == [(1, 2)]

    def test_adjacent_lane_overlap_is_not_a_collision(self):
        states = {1: vehicle(s=100.0, lane=1), 2: vehicle(s=100.0 - 4.9, lane=0)}
        assert detect_collisions(states, GEOM, WIDTH) == []

    def test_mid_lane_change_collision(self):
        # lateral centers 0.5 m apart -> bodies overlap
        states = {1: vehicle(s=100.0, lane=1),
                  2: vehicle(s=100.0 - 4.9, lane=1, offset=0.5)}
        assert detect_collisions(states, GEOM, WIDTH) == [(1, 2)]

    def test_report_is_deterministic_and_sorted(self):
        states = {3: vehicle(s=100.0), 1: vehicle(s=96.0), 2: vehicle(s=92.0)}
        assert detect_collisions(states, GEOM, WIDTH) == [(1, 2), (1, 3)]

    def test_lateral_position_helper(self):
        assert lateral_position(vehicle(lane=2, offset=-0.5), GEOM) == pytest.approx(6.5)


def replace_longitudinal(state, a_cmd, limits, dt):
    """The ``_replace`` formulation of :func:`step_longitudinal`."""
    a = limits.clamp(a_cmd)
    if state.v <= 0.0 and a <= 0.0:
        return state._replace(v=0.0, a=a if state.v > 0 else 0.0)
    v_next = state.v + a * dt
    if v_next < 0.0:
        t_stop = state.v / -a
        s_next = state.s + state.v * t_stop + 0.5 * a * t_stop * t_stop
        return state._replace(s=s_next, v=0.0, a=a)
    s_next = state.s + state.v * dt + 0.5 * a * dt * dt
    return state._replace(s=s_next, v=v_next, a=a)


def replace_lateral(state, cmd, geom, dt):
    """The ``_replace`` formulation of :func:`step_lateral`."""
    rate = geom.lane_width / geom.lane_change_duration
    if cmd.mode is LateralMode.LANE_CENTER or cmd.target_lane == state.lane:
        off = state.lateral_offset
        if off == 0.0:
            return state
        step = rate * dt
        if abs(off) <= step:
            return state._replace(lateral_offset=0.0)
        return state._replace(
            lateral_offset=off - step if off > 0 else off + step)
    direction = 1.0 if cmd.target_lane > state.lane else -1.0
    off = state.lateral_offset + direction * rate * dt
    if abs(off) >= geom.lane_width:
        return state._replace(lane=cmd.target_lane, lateral_offset=0.0)
    return state._replace(lateral_offset=off)


def fields_of(state):
    return tuple(getattr(state, name) for name in state._fields)


class TestConstructorMatchesReplace:
    """The steps build their states with the constructor; every field must
    equal the ``_replace`` formulation exactly."""

    STATES = [
        VehicleState(s=12.5, lane=1, v=0.0, a=-3.0, lateral_offset=0.7, length=4.2),
        VehicleState(s=-3.25, lane=0, v=0.0, length=16.5),          # standstill
        VehicleState(s=100.0, lane=2, v=0.05, a=-9.81, length=5.0),  # brakes through zero
        VehicleState(s=250.0, lane=1, v=0.3, lateral_offset=-0.04),
        VehicleState(s=400.0, lane=1, v=20.0, a=0.4, lateral_offset=1.75),
        VehicleState(s=401.0, lane=1, v=27.3, lateral_offset=-2.1, length=7.5),
        VehicleState(s=7.0, lane=0, v=13.9, lateral_offset=3.49),    # arrives next step
    ]

    @pytest.mark.parametrize("state", STATES)
    @pytest.mark.parametrize("a_cmd", [-50.0, -G, -0.5, 0.0, 0.25, 1.7, 50.0])
    @pytest.mark.parametrize("dt", [0.01, 0.05, 0.1])
    def test_longitudinal(self, state, a_cmd, dt):
        out = step_longitudinal(state, a_cmd, LIMITS, dt)
        assert fields_of(out) == fields_of(replace_longitudinal(state, a_cmd, LIMITS, dt))

    @pytest.mark.parametrize("state", STATES)
    @pytest.mark.parametrize("target", [None, 0, 1, 2])
    @pytest.mark.parametrize("dt", [0.01, 0.05, 0.1])
    def test_lateral(self, state, target, dt):
        if target is not None and abs(target - state.lane) > 1:
            return
        cmd = (LANE_CENTER if target is None
               else LateralCommand(LateralMode.LANE_CHANGE, target_lane=target))
        out = step_lateral(state, cmd, GEOM, dt)
        assert fields_of(out) == fields_of(replace_lateral(state, cmd, GEOM, dt))

    def test_lane_change_runs_match_to_arrival_and_decay(self):
        # a whole change, arrival included, then a decay from a kicked offset
        new = ref = VehicleState(s=0.0, lane=1, v=20.0, lateral_offset=0.3, length=6.0)
        for cmd in [LateralCommand(LateralMode.LANE_CHANGE, target_lane=2)] * 70 \
                + [LANE_CENTER] * 5:
            new, ref = step_lateral(new, cmd, GEOM, 0.05), replace_lateral(ref, cmd, GEOM, 0.05)
            assert fields_of(new) == fields_of(ref)
        assert new.lane == 2

    def test_negative_speed_still_rejected(self):
        with pytest.raises(ValueError):
            VehicleState(s=0.0, lane=0, v=-1.0)


def bits(state):
    """The fields of a state, each float as its IEEE bytes, so that -0.0 and
    0.0 differ."""
    return tuple(struct.pack("<d", f) if type(f) is float else f for f in state)


class TestLongitudinalAgainstReplace:
    """``step_longitudinal`` builds its state with ``tuple.__new__``, so its
    speed check never runs; on seeded random inputs every field must still be
    the ``_replace`` formulation's, sign of zero included, and the state must
    pass the constructor's check."""

    def test_random_states_and_commands_match_bit_for_bit(self):
        rng = random.Random(28)
        branches = set()
        for _ in range(4000):
            v = rng.choice((0.0, -0.0, 1e-9, rng.uniform(0.0, 0.5), rng.uniform(0.0, 40.0)))
            state = VehicleState(
                s=rng.choice((0.0, -0.0, rng.uniform(-500.0, 5000.0))), lane=rng.randrange(3),
                v=v, a=rng.choice((0.0, -0.0, rng.uniform(-10.0, 3.0))),
                lateral_offset=rng.choice((0.0, -0.0, rng.uniform(-3.4, 3.4))),
                length=rng.choice((4.2, 5.0, 16.5)))
            a_cmd = rng.choice((0.0, -0.0, 50.0, -50.0, 1e300, -1e300, LIMITS.a_max,
                                -LIMITS.d_max, rng.uniform(-12.0, 4.0)))
            dt = rng.choice((0.01, 0.05, 0.1, rng.uniform(1e-4, 0.5)))
            out = step_longitudinal(state, a_cmd, LIMITS, dt)
            assert type(out) is VehicleState
            assert bits(out) == bits(replace_longitudinal(state, a_cmd, LIMITS, dt))
            assert VehicleState(*out) == out  # the skipped speed check holds
            a = LIMITS.clamp(a_cmd)
            branches.add("standstill" if v <= 0.0 and a <= 0.0
                         else "brakes through zero" if v + a * dt < 0.0
                         else "pulls away" if v <= 0.0 else "moves")
        assert branches == {"standstill", "brakes through zero", "pulls away", "moves"}
