"""Extendability: a new maneuver registers and activates against the public
registry without touching any management-module source."""

import dataclasses

import pytest

from conftest import DT, PARAMS, make_ctx

from platoonsim.engine import Simulator

from platoonsim.core import EventKind, LongitudinalMode, ManeuverState, Role
from platoonsim.management import (
    ActiveInstruction,
    DuplicateKey,
    StrategyKey,
    StrategyOutput,
    StrategyRegistry,
    VehicleManager,
)
from platoonsim.scenario import bundled_scenario
from platoonsim.strategies import CC, default_registry

SPLIT = ManeuverState.extension("Split-stub")


class SplitStub:
    """A tiny external strategy: hold a slower cruise for one tick, done."""

    def step(self, ctx, progress):
        if progress.phase == "init":
            progress.advance("running")
            return StrategyOutput(controller=CC(ctx.params.platoon_speed - 3.0))
        return StrategyOutput(maneuver_done=True)


def test_builtin_registry_has_no_extension_entries():
    registry = default_registry()
    assert all(not key.maneuver.is_extension for key in registry.keys())


def test_extension_registers_and_activates_via_public_api():
    registry = default_registry()
    registry.register(StrategyKey(SPLIT, Role.FOLLOWER), SplitStub())
    manager = VehicleManager(2, Role.FOLLOWER, registry, PARAMS, DT)
    manager.offer_instruction(ActiveInstruction(maneuver=SPLIT, target=2))

    out, _ = manager.tick(make_ctx())
    assert manager.maneuver == SPLIT
    assert out.controller.longitudinal.mode is LongitudinalMode.CC
    assert out.controller.longitudinal.v_set == PARAMS.platoon_speed - 3.0

    manager.tick(make_ctx(maneuver=SPLIT))
    assert manager.maneuver == ManeuverState.PLATOONING


def test_extension_key_cannot_be_registered_twice():
    registry = default_registry()
    registry.register(StrategyKey(SPLIT, Role.FOLLOWER), SplitStub())
    with pytest.raises(DuplicateKey):
        registry.register(StrategyKey(SPLIT, Role.FOLLOWER), SplitStub())


def test_unregistered_extension_role_holds_controller():
    registry = default_registry()
    registry.register(StrategyKey(SPLIT, Role.FOLLOWER), SplitStub())
    manager = VehicleManager(1, Role.LEADER, registry, PARAMS, DT)
    manager.offer_instruction(ActiveInstruction(maneuver=SPLIT, target=1))
    out, events = manager.tick(make_ctx(ego_id=1, role=Role.LEADER))
    # no (Split-stub, Leader) strategy: documented hold-and-log outcome
    assert out.controller is None
    assert any(e.kind is EventKind.NO_STRATEGY for e in events)


class Recording:
    """Wraps a registered strategy and records every context it is given."""

    def __init__(self, inner, log):
        self.inner, self.log = inner, log

    def step(self, ctx, progress):
        fields = {f.name: getattr(ctx, f.name) for f in dataclasses.fields(ctx)}
        fields.update(peers=dict(ctx.peers.items()), inbox=list(ctx.inbox),
                      driver=dataclasses.replace(ctx.driver))
        self.log.append((ctx, fields))
        return self.inner.step(ctx, progress)


def recorded_run(spec, fresh_contexts):
    log = []
    default, registry = default_registry(), StrategyRegistry()
    for key in default.keys():
        registry.register(key, Recording(default.lookup(key), log))

    def drop_contexts(sim, tick):
        for rt in sim.runtimes.values():
            rt.ctx = None

    trace, report = Simulator(spec, registry).run(drop_contexts if fresh_contexts else None)
    return log, trace, report


@pytest.mark.parametrize("name", ["v2v_fault", "integrated"])
def test_the_reused_context_equals_a_fresh_one_on_every_tick(name):
    spec = bundled_scenario(name)
    reused, trace, report = recorded_run(spec, fresh_contexts=False)
    fresh, fresh_trace, fresh_report = recorded_run(spec, fresh_contexts=True)
    assert [fields for _, fields in reused] == [fields for _, fields in fresh]
    assert trace.rows == fresh_trace.rows and report.events == fresh_report.events
    # one context per vehicle, and every strategy step still runs every tick
    contexts = {}
    for ctx, fields in reused:
        assert contexts.setdefault(fields["ego_id"], ctx) is ctx
    holds = sum(e.kind is EventKind.NO_STRATEGY for e in report.events)
    assert len(reused) + holds == report.ticks * len(contexts)
