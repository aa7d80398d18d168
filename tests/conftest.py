"""Shared builders for strategy and manager tests."""

from typing import Optional

import pytest

from platoonsim.comms import HeartbeatTable, PeerView, PeerViewStore, RadarReading
from platoonsim.core import (
    ControllerKind,
    IllegalTransition,
    LateralCommand,
    LateralMode,
    LongitudinalCommand,
    LongitudinalMode,
    ManeuverState,
    MessageKind,
    PlatoonInfo,
    Role,
    V2VMessage,
    VehicleState,
)
from platoonsim.dynamics import InvalidLane
from platoonsim.management import (
    ActiveInstruction,
    DriverState,
    StrategyContext,
    StrategyKey,
    StrategyOutput,
    StrategyProgress,
    StrategyRegistry,
)
from platoonsim.params import Parameters
from platoonsim.scenario import ScenarioSpec
from platoonsim.strategies import default_registry

PARAMS = Parameters()
DT = 0.05


def make_reading(gap=13.0, rel_speed=0.0, valid=True, target=1):
    return RadarReading(valid, gap, rel_speed, target)


def make_peer(s=400.0, v=20.0, a=0.0, role=Role.FOLLOWER, platoon=None,
              age=1, lane=1, zeroed=False, silent=False):
    return PeerView(s=s, v=v, a=a, length=5.0, role=role, platoon=platoon,
                    age_ticks=age, lane=lane, zeroed=zeroed, silent=silent)


def reference_view(msg, tick, timeout, degradation):
    """The view of one heartbeat, built eagerly: silent once older than
    ``timeout``, and zeroed when silent without degradation."""
    age = tick - msg.tick_sent
    silent = age > timeout
    if silent and not degradation:
        return PeerView(0.0, 0.0, 0.0, msg.state.length, msg.role, msg.platoon, age,
                        msg.state.lane, zeroed=True, silent=True)
    return PeerView(msg.state.s, msg.state.v, msg.state.a, msg.state.length, msg.role,
                    msg.platoon, age, msg.state.lane, silent=silent)


def make_ctx(ego_id=2, role=Role.FOLLOWER, maneuver=ManeuverState.PLATOONING,
             tick=100, ego_s=400.0, ego_v=20.0, ego_lane=1, lateral_offset=0.0,
             reading: Optional[RadarReading] = None, peers=None, inbox=(),
             series=(1, 2, 3, 4, 5), instruction: Optional[ActiveInstruction] = None,
             own_faults=(), driver: Optional[DriverState] = None,
             degradation=True, params: Parameters = PARAMS):
    platoon = PlatoonInfo(tuple(series)) if series else None
    return StrategyContext(
        tick=tick, dt=DT, ego_id=ego_id,
        ego=VehicleState(s=ego_s, lane=ego_lane, v=ego_v,
                         lateral_offset=lateral_offset),
        role=role, maneuver=maneuver,
        reading=reading if reading is not None else make_reading(),
        peers=peers or {}, inbox=list(inbox), platoon=platoon,
        instruction=instruction, params=params, degradation_enabled=degradation,
        own_faults=frozenset(own_faults),
        driver=driver if driver is not None else DriverState(v_set=ego_v))


def flag(kind: MessageKind, sender=1, tick=99, **payload) -> V2VMessage:
    return V2VMessage(sender, kind, tick, **payload)


def heartbeat(sender, tick, state, role, platoon) -> V2VMessage:
    return V2VMessage(sender, MessageKind.HEARTBEAT, tick, state, role, platoon)


def fresh_progress(tick=100, detector=None, faulty=None, series=(1, 2, 3, 4, 5),
                   instruction: Optional[ActiveInstruction] = None) -> StrategyProgress:
    """A maneuver instance entered at ``tick``; its origin is the obstacle's
    ``detector`` or the ``faulty`` vehicle, and ``series`` defaults as in
    :func:`make_ctx`."""
    return StrategyProgress(entered_tick=tick, origin=faulty if detector is None else detector,
                            instruction=instruction, series=tuple(series))


@pytest.fixture
def params():
    return PARAMS


def registry_replacing(key, strategy):
    """The default registry with ``strategy`` under ``key``."""
    default = default_registry()
    registry = StrategyRegistry()
    for k in default.keys():
        registry.register(k, strategy if k == key else default.lookup(k))
    return registry


# Follower strategies that break the protocol at tick 40, listed below with
# the exception each one causes and a piece of its message.

class RoleChangeWithoutCompletion:
    def step(self, ctx, progress):
        out = StrategyOutput(controller=ControllerKind(
            LongitudinalCommand(LongitudinalMode.CACC)))
        if ctx.tick == 40:
            out.role_change = Role.FREE_VEHICLE
        return out


class RoleChangeToLeader:
    def step(self, ctx, progress):
        out = StrategyOutput(controller=ControllerKind(
            LongitudinalCommand(LongitudinalMode.CACC)))
        if ctx.tick == 40:
            out.role_change, out.maneuver_done = Role.LEADER, True
        return out


class LeaveWhilePlatooning:
    def step(self, ctx, progress):
        out = StrategyOutput(controller=ControllerKind(
            LongitudinalCommand(LongitudinalMode.CACC)))
        if ctx.tick == 40:
            out.role_change, out.maneuver_done = Role.FREE_VEHICLE, True
        return out


class LaneChangeToLaneFive:
    def step(self, ctx, progress):
        lateral = (LateralCommand(LateralMode.LANE_CHANGE, 5) if ctx.tick == 40
                   else LateralCommand(LateralMode.LANE_CENTER))
        return StrategyOutput(controller=ControllerKind(
            LongitudinalCommand(LongitudinalMode.CACC), lateral))


FOLLOWER_PLATOONING = StrategyKey(ManeuverState.PLATOONING, Role.FOLLOWER)
BROKEN_STRATEGIES = [
    (RoleChangeWithoutCompletion(), IllegalTransition, "role change is only allowed"),
    (LaneChangeToLaneFive(), InvalidLane, "lane 5 outside [0, 3)"),
    (RoleChangeToLeader(), IllegalTransition, "no role edge from Follower to Leader"),
    (LeaveWhilePlatooning(), IllegalTransition, "no role edge from Follower to FreeVehicle"),
]


def open_store(owner=0):
    """A peer store on a heartbeat table of its own with a 10-tick timeout,
    which the test feeds through ``store.table``; the default owner, 0,
    sends no heartbeat."""
    return PeerViewStore(owner, HeartbeatTable(10))


def count_quiet_scans(monkeypatch):
    """Record the peers of every HeartbeatTable.quiet call that scans them,
    seen as a change of the memo it keeps beside the fresh senders."""
    scans = []
    original = HeartbeatTable.quiet

    def counting(table, peers, tick):
        before = table._fresh
        answer = original(table, peers, tick)
        if table._fresh is not before:
            scans.append(peers)
        return answer

    monkeypatch.setattr(HeartbeatTable, "quiet", counting)
    return scans


def count_tick_counts(monkeypatch):
    """Record the spec of every computation of ``ScenarioSpec.tick_count``;
    a read of a count already computed records nothing."""
    computed = []
    cached = ScenarioSpec.__dict__["tick_count"]
    original = cached.func

    def counting(spec):
        computed.append(spec)
        return original(spec)

    monkeypatch.setattr(cached, "func", counting)
    return computed
