"""Communication layer tests: bus delivery against a brute-force oracle over
all fault combinations, radar geometry, peer views and failure detection."""

import itertools
import random

import pytest

from conftest import heartbeat, open_store

from platoonsim.comms import (
    BusConfig,
    FaultBoard,
    HeartbeatTable,
    MessageBus,
    detect_peer_failure,
    radar_sense,
    v2v_payload,
)
from platoonsim.core import (
    FaultKind,
    MessageKind,
    PlatoonInfo,
    Role,
    V2VMessage,
    VehicleState,
)
from platoonsim.dynamics import LaneGeometry

GEOM = LaneGeometry()


def msg(sender, kind=MessageKind.JOIN_FLAG, tick=100):
    return V2VMessage(sender, kind, tick)


def bus_with_receivers(receivers, config=BusConfig()):
    """A fresh bus with a peer store opened for each of ``receivers``."""
    bus = MessageBus(config, timeout_ticks=10)
    for rid in receivers:
        bus.peer_store(rid)
    return bus


def bus_deliver(outbox, faults, tick, receivers, config=BusConfig()):
    """Send ``outbox`` (all sent at ``tick``) on a fresh bus and return the
    inboxes of ``receivers`` at tick + delay."""
    bus = bus_with_receivers(receivers, config)
    for m in outbox:
        bus.send(m, faults)
    return bus.deliver(tick + config.delivery_delay_ticks, faults)


class TestBus:
    def test_delay_one_tick(self):
        bus = bus_with_receivers([1, 2, 3], BusConfig(delivery_delay_ticks=1))
        faults = FaultBoard()
        bus.send(msg(1, tick=100), faults)
        assert bus.deliver(100, faults) == {1: [], 2: [], 3: []}
        inboxes = bus.deliver(101, faults)
        assert [m.sender for m in inboxes[2]] == [1]
        assert [m.sender for m in inboxes[3]] == [1]

    def test_no_self_delivery(self):
        faults = FaultBoard()
        inboxes = bus_deliver([msg(1)], faults, 100, [1, 2])
        assert inboxes[1] == []
        assert len(inboxes[2]) == 1

    def test_failed_sender_reaches_nobody(self):
        faults = FaultBoard()
        faults.inject(1, FaultKind.V2V_FAIL)
        inboxes = bus_deliver([msg(1)], faults, 100, [1, 2, 3])
        assert all(box == [] for box in inboxes.values())

    def test_failed_receiver_skipped_others_served(self):
        faults = FaultBoard()
        faults.inject(2, FaultKind.V2V_FAIL)
        inboxes = bus_deliver([msg(1)], faults, 100, [1, 2, 3])
        assert inboxes[2] == []
        assert len(inboxes[3]) == 1

    def test_all_fault_combinations_match_oracle(self):
        # brute-force expected delivery for every V2V fault subset of 3 vehicles
        vehicles = [1, 2, 3]
        for faulty in itertools.chain.from_iterable(
                itertools.combinations(vehicles, k) for k in range(4)):
            faults = FaultBoard()
            for vid in faulty:
                faults.inject(vid, FaultKind.V2V_FAIL)
            outbox = [msg(v) for v in vehicles]
            inboxes = bus_deliver(outbox, faults, 100, vehicles)
            for receiver in vehicles:
                expected = sorted(
                    s for s in vehicles
                    if s != receiver and s not in faulty and receiver not in faulty
                )
                assert [m.sender for m in inboxes[receiver]] == expected

    def test_inbox_groups_senders_ascending_each_in_send_order(self):
        # mixed kinds and send ticks in random send orders: neither sorts
        rng = random.Random(17)
        faults = FaultBoard()
        faults.inject(5, FaultKind.V2V_FAIL)
        for _ in range(8):
            outbox = [V2VMessage(rng.randint(1, 4), rng.choice(list(MessageKind)),
                                 rng.randint(90, 100)) for _ in range(24)]
            inboxes = bus_deliver(outbox, faults, 100, [1, 2, 3, 4, 5])
            for rid in (1, 2, 3, 4):
                assert inboxes[rid] == [m for sender in (1, 2, 3, 4) if sender != rid
                                        for m in outbox if m.sender == sender]
            assert inboxes[5] == []


def states_for_radar():
    return {
        1: VehicleState(s=113.0 + 5.0, lane=1, v=20.0),  # rear bumper 13 m ahead
        2: VehicleState(s=100.0, lane=1, v=20.0),
        3: VehicleState(s=90.0, lane=0, v=20.0),
    }


class TestRadar:
    def test_gap_to_nearest_in_lane_leader(self):
        reading = radar_sense(2, states_for_radar(), FaultBoard(), GEOM)
        assert reading.valid
        assert reading.gap == pytest.approx(13.0)
        assert reading.target == 1
        assert reading.rel_speed == pytest.approx(0.0)

    def test_no_target_reports_max_range(self):
        reading = radar_sense(1, states_for_radar(), FaultBoard(), GEOM)
        assert reading.valid
        assert reading.gap == 200.0
        assert reading.target is None

    def test_adjacent_lane_vehicle_ignored(self):
        states = {1: VehicleState(s=100.0, lane=1, v=20.0),
                  2: VehicleState(s=120.0, lane=0, v=20.0)}
        reading = radar_sense(1, states, FaultBoard(), GEOM)
        assert reading.target is None

    def test_target_crossing_into_lane_becomes_visible(self):
        # lateral center within half a lane width of the ego lane center
        states = {1: VehicleState(s=100.0, lane=1, v=20.0),
                  2: VehicleState(s=120.0, lane=0, v=18.0, lateral_offset=2.0)}
        reading = radar_sense(1, states, FaultBoard(), GEOM)
        assert reading.target == 2
        assert reading.rel_speed == pytest.approx(-2.0)

    def test_radar_fail_reads_very_far(self):
        faults = FaultBoard()
        faults.inject(2, FaultKind.RADAR_FAIL)
        reading = radar_sense(2, states_for_radar(), faults, GEOM)
        assert not reading.valid
        assert reading.gap == 200.0
        assert reading.target is None


def store_with(tick_sent, sender=3, v=20.0, a=0.0):
    store = open_store()
    state = VehicleState(s=50.0, lane=1, v=v, a=a)
    store.table.update([heartbeat(sender, tick_sent, state, Role.FOLLOWER,
                                  PlatoonInfo((sender,)))])
    return store


class TestPeerViews:
    def test_freshest_heartbeat_wins(self):
        store = open_store()
        old = VehicleState(s=10.0, lane=1, v=10.0)
        new = VehicleState(s=11.0, lane=1, v=12.0)
        store.table.update([heartbeat(3, 5, old, Role.FOLLOWER, None)])
        store.table.update([heartbeat(3, 6, new, Role.FOLLOWER, None)])
        views = v2v_payload(store, tick=7, degradation_enabled=True)
        assert views[3].v == 12.0
        assert views[3].age_ticks == 1

    def test_silent_peer_zeroed_without_degradation(self):
        store = store_with(tick_sent=100)
        views = v2v_payload(store, tick=111, degradation_enabled=False)
        assert views[3].zeroed and views[3].silent
        assert views[3].v == 0.0
        assert views[3].a == 0.0
        assert views[3].s == 0.0

    def test_silent_peer_keeps_last_values_with_degradation(self):
        store = store_with(tick_sent=100, v=19.5)
        views = v2v_payload(store, tick=111, degradation_enabled=True)
        assert not views[3].zeroed and views[3].silent
        assert views[3].v == 19.5


class TestPeerViewsGet:
    """``get`` answers as ``__getitem__`` does, with a default for a miss."""

    @pytest.mark.parametrize("degradation", [True, False])
    def test_known_peer_is_the_indexed_view(self, degradation):
        views = v2v_payload(store_with(tick_sent=100), tick=111, degradation_enabled=degradation)
        assert views.get(3) == views[3]
        assert views.get(3, "default") == views[3]
        assert views.get(3).zeroed is not degradation

    def test_unknown_peer_is_the_default(self):
        views = v2v_payload(store_with(tick_sent=100), tick=101, degradation_enabled=True)
        assert views.get(4) is None
        assert views.get(4, "default") == "default"
        with pytest.raises(KeyError):
            views[4]

    def test_owner_is_the_default(self):
        store = open_store(owner=3)
        store.table.update([heartbeat(3, 100, VehicleState(s=50.0, lane=1, v=20.0),
                                      Role.FOLLOWER, None)])
        views = v2v_payload(store, tick=101, degradation_enabled=False)
        assert views.get(3) is None
        assert views.get(3, "default") == "default"
        assert 3 not in views


class TestPeerFailureDetection:
    def store_heard_from_2_at(self, tick_sent):
        store = open_store(owner=1)
        store.table.update([heartbeat(2, tick_sent, VehicleState(s=0.0, lane=0, v=20.0),
                                      Role.FOLLOWER, None)])
        return store

    def test_fresh_peer_not_failed(self):
        store = self.store_heard_from_2_at(7)  # 3 ticks old at tick 10
        assert detect_peer_failure(store, (2,), tick=10) == set()

    def test_aged_peer_failed(self):
        store = self.store_heard_from_2_at(0)
        assert detect_peer_failure(store, (2,), tick=10) == set()
        assert detect_peer_failure(store, (2,), tick=11) == {2}

    def test_never_heard_peer_fails_once_tick_exceeds_timeout(self):
        store = open_store()
        assert detect_peer_failure(store, (4,), tick=10) == set()
        assert detect_peer_failure(store, (4,), tick=11) == {4}

    def test_the_owner_is_never_silent(self):
        store = self.store_heard_from_2_at(0)
        assert detect_peer_failure(store, (1, 2, 3), tick=20) == {2, 3}

    def test_a_timeout_below_one_tick_is_refused(self):
        with pytest.raises(ValueError, match="at least one tick"):
            HeartbeatTable(0)
        with pytest.raises(ValueError, match="at least one tick"):
            MessageBus(BusConfig(), 0)

    def test_heartbeat_liveness_age_bound(self):
        # a peer heard via a delay-1 bus is never older than delay + 1 ticks
        bus = MessageBus(BusConfig(delivery_delay_ticks=1), timeout_ticks=2)
        store = bus.peer_store(1)
        bus.peer_store(2)
        faults = FaultBoard()
        state = VehicleState(s=0.0, lane=0, v=20.0)
        for tick in range(50):
            bus.send(heartbeat(2, tick, state, Role.FOLLOWER, None), faults)
            bus.deliver(tick, faults)
            if tick >= 1:
                assert tick - store.raw(2).tick_sent <= 2
                assert detect_peer_failure(store, (2,), tick) == set()
