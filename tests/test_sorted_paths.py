"""The sorted radar and collision sweeps, the sliced bus delivery and the
lazy peer views against the all-pairs scans they replaced, kept here
verbatim as references, on seeded random worlds."""

import math
import random
import struct

import pytest

from conftest import heartbeat, open_store, reference_view

from platoonsim.comms import (
    BusConfig,
    FaultBoard,
    MessageBus,
    RadarReading,
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
from platoonsim.dynamics import LaneGeometry, Snapshot, detect_collisions, lateral_position

GEOM = LaneGeometry()
WIDTH = 2.0
SEEDS = range(40)


# ---------------------------------------------------------------------------
# References: the full scans, as they were before the sorted paths
# ---------------------------------------------------------------------------

def radar_sense_reference(ego_id, states, faults, geom, max_range=200.0):
    ego = states[ego_id]
    if FaultKind.RADAR_FAIL in faults.get(ego_id, ()):
        return RadarReading(False, max_range, 0.0, None)
    center = geom.center(ego.lane)
    best = None
    for vid, st in states.items():
        if vid == ego_id:
            continue
        if abs(lateral_position(st, geom) - center) > geom.lane_width / 2.0:
            continue
        gap = st.rear - ego.s
        if gap < 0.0 or gap > max_range:
            continue
        if best is None or gap < best[0] or (gap == best[0] and vid < best[1]):
            best = (gap, vid)
    if best is None:
        return RadarReading(True, max_range, 0.0, None)
    gap, vid = best
    return RadarReading(True, gap, states[vid].v - ego.v, vid)


def detect_collisions_reference(states, geom, vehicle_width):
    ids = sorted(states)
    hits = []
    for i, a in enumerate(ids):
        sa = states[a]
        ya = lateral_position(sa, geom)
        for b in ids[i + 1:]:
            sb = states[b]
            if sb.rear >= sa.s or sa.rear >= sb.s:
                continue  # no longitudinal overlap
            if abs(ya - lateral_position(sb, geom)) >= vehicle_width / 2.0:
                continue
            hits.append((a, b))
    return hits


def deliver_reference(bus, tick, faults, receivers):
    due = sorted((m for t, m in bus._in_flight if t <= tick), key=lambda m: m.sender)
    bus._in_flight = [(t, m) for t, m in bus._in_flight if t > tick]
    inboxes = {r: [] for r in receivers}
    for msg in due:
        for rid in inboxes:
            if rid == msg.sender:
                continue  # never self-deliver
            if FaultKind.V2V_FAIL in faults.get(rid, ()):
                continue
            inboxes[rid].append(msg)
    return inboxes


def preceding_member_reference(store, ego):
    best = None
    for peer in sorted(store.table._latest):
        msg = store.table._latest[peer]
        if msg.role is None or not msg.role.is_member():
            continue
        ahead = msg.state.s - ego.s
        if ahead <= 0.0:
            continue
        lane_rank = 0 if msg.state.lane == ego.lane else 1
        if best is None or (lane_rank, ahead) < best[:2]:
            best = (lane_rank, ahead, peer)
    return best[2] if best else None


# ---------------------------------------------------------------------------
# Random worlds
# ---------------------------------------------------------------------------

OFFSETS = (0.0, 0.0, 0.0, 0.5, -0.5, 1.75, -1.75, 2.0, -2.0, 3.0, -3.0)


def random_states(rng, n, span):
    """``n`` vehicles on 3 lanes, some part-way through a lane change, on a
    half-metre grid, so equal rears and gaps of exactly max_range occur."""
    states = {}
    for vid in rng.sample(range(1, 3 * n), n):
        lane = rng.randrange(GEOM.lane_count)
        offset = rng.choice(OFFSETS)
        if lane + math.copysign(1, offset) not in range(GEOM.lane_count):
            offset = -offset
        states[vid] = VehicleState(
            s=rng.randrange(int(2 * span)) / 2.0, lane=lane, v=rng.uniform(0.0, 30.0),
            lateral_offset=offset, length=rng.choice((4.0, 5.0, 5.0, 12.0)))
    return states


def radar_faults(rng, ids):
    faults = FaultBoard()
    for vid in ids:
        if rng.random() < 0.15:
            faults.inject(vid, FaultKind.RADAR_FAIL)
    return faults


class TestRadarAgainstFullScan:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_worlds(self, seed):
        rng = random.Random(seed)
        states = random_states(rng, rng.randrange(2, 40), span=rng.choice((60, 450)))
        faults = radar_faults(rng, states)
        snapshot = Snapshot(states)
        for max_range in (200.0, 20.0):
            for ego in states:
                expected = radar_sense_reference(ego, states, faults, GEOM, max_range)
                assert radar_sense(ego, snapshot, faults, GEOM, max_range) == expected
                assert radar_sense(ego, states, faults, GEOM, max_range) == expected

    def test_gap_exactly_at_max_range_is_seen(self):
        states = {1: VehicleState(s=100.0, lane=1, v=20.0),
                  2: VehicleState(s=305.0, lane=1, v=18.0)}
        reading = radar_sense(1, states, FaultBoard(), GEOM)
        assert reading == radar_sense_reference(1, states, FaultBoard(), GEOM)
        assert (reading.target, reading.gap) == (2, 200.0)

    def test_equal_rears_go_to_the_lower_id(self):
        states = {1: VehicleState(s=100.0, lane=1, v=20.0),
                  7: VehicleState(s=120.0, lane=1, v=19.0),
                  3: VehicleState(s=120.0, lane=1, v=18.0, lateral_offset=1.0),
                  5: VehicleState(s=120.0, lane=0, v=17.0, lateral_offset=1.75)}
        reading = radar_sense(1, states, FaultBoard(), GEOM)
        assert reading == radar_sense_reference(1, states, FaultBoard(), GEOM)
        assert reading.target == 3

    def test_distinct_rears_rounding_to_one_gap_go_to_the_lower_id(self):
        # ego behind the origin: the gap's binade is coarser than the rears',
        # so two adjacent rears can round to the same gap
        ego_s = -300.0
        rear = next(r for r in (300.0 + k / 64 for k in range(64))
                    if math.nextafter(r, math.inf) - ego_s == r - ego_s)
        far_rear = math.nextafter(rear, math.inf)
        assert far_rear > rear and far_rear - ego_s == rear - ego_s
        states = {1: VehicleState(s=ego_s, lane=1, v=20.0),
                  9: VehicleState(s=rear + 5.0, lane=1, v=19.0, length=5.0),
                  4: VehicleState(s=far_rear + 5.0, lane=1, v=18.0, length=5.0)}
        assert states[9].rear == rear and states[4].rear == far_rear
        reading = radar_sense(1, states, FaultBoard(), GEOM, max_range=1000.0)
        assert reading == radar_sense_reference(1, states, FaultBoard(), GEOM, 1000.0)
        assert reading.target == 4


class TestCollisionsAgainstAllPairs:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_worlds(self, seed):
        rng = random.Random(seed)
        states = random_states(rng, rng.randrange(2, 40), span=rng.choice((15, 60, 300)))
        expected = detect_collisions_reference(states, GEOM, WIDTH)
        assert detect_collisions(states, GEOM, WIDTH) == expected
        assert detect_collisions(Snapshot(states), GEOM, WIDTH) == expected

    def test_touching_bumpers_and_nested_bodies(self):
        states = {4: VehicleState(s=100.0, lane=1, v=20.0),
                  2: VehicleState(s=105.0, lane=1, v=20.0),   # rear touches 4's front
                  3: VehicleState(s=110.0, lane=1, v=20.0, length=12.0),
                  1: VehicleState(s=109.0, lane=1, v=20.0, length=2.0)}
        expected = detect_collisions_reference(states, GEOM, WIDTH)
        assert detect_collisions(states, GEOM, WIDTH) == expected == [(1, 3), (2, 3), (3, 4)]


# lane widths whose multiples and half-widths round: 3.7 * 3 and 0.1 * 3 are inexact
GEOMETRIES = (GEOM, LaneGeometry(lane_count=4, lane_width=3.7),
              LaneGeometry(lane_count=5, lane_width=0.1))


def f64(x):
    return struct.pack("<d", x)


def odd_states(rng, geom, n):
    """``n`` vehicles at unrounded positions, some mid-change, some on a
    half-lane edge, with offsets and positions of either zero sign."""
    w = geom.lane_width
    states = {}
    for vid in rng.sample(range(1, 3 * n + 1), n):
        offset = rng.choice((0.0, -0.0, w / 2, -w / 2, math.nextafter(w / 2, 0.0),
                             math.nextafter(-w / 2, 0.0), rng.uniform(-w, w)))
        states[vid] = VehicleState(
            s=rng.choice((0.0, -0.0, rng.uniform(-300.0, 300.0))),
            lane=rng.randrange(geom.lane_count), v=rng.uniform(0.0, 30.0),
            lateral_offset=offset, length=rng.choice((0.0, 4.2, 5.0, rng.uniform(1.0, 20.0))))
    return states


class TestSweepAgainstTheHelpers:
    """The sweep and the radar compute the rear, the lateral position and the
    lane center from the fields inline; each must be the helpers' float bit
    for bit."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rears_and_laterals_are_the_helpers_floats(self, seed):
        rng = random.Random(seed)
        geom = rng.choice(GEOMETRIES)
        states = odd_states(rng, geom, rng.randrange(1, 40))
        order, rears, lateral = Snapshot.by_rear(states, geom)
        expected = sorted((st.rear, vid, st) for vid, st in states.items())
        assert [item[1:] for item in order] == [item[1:] for item in expected]
        assert list(map(f64, rears)) == [f64(st.rear) for _, _, st in order]
        assert list(map(f64, lateral)) == [f64(lateral_position(st, geom)) for _, _, st in order]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_radar_on_lane_edges_matches_the_full_scan(self, seed):
        # the full scan reads the lane center from geom.center, the radar inline
        rng = random.Random(seed)
        geom = rng.choice(GEOMETRIES)
        states = odd_states(rng, geom, rng.randrange(2, 30))
        snapshot = Snapshot(states)
        for ego in states:
            assert radar_sense(ego, snapshot, FaultBoard(), geom, 100.0) \
                == radar_sense_reference(ego, states, FaultBoard(), geom, 100.0)


class TestDeliveryAgainstNestedLoops:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("delay", (0, 1, 2))
    def test_random_traffic(self, seed, delay):
        rng = random.Random(seed)
        ids = list(range(1, rng.randrange(2, 25)))
        config = BusConfig(delivery_delay_ticks=delay)
        bus, reference = MessageBus(config, 10), MessageBus(config, 10)
        receivers = rng.sample(ids, rng.randrange(1, len(ids) + 1))
        for rid in receivers:
            bus.peer_store(rid)
        faults = FaultBoard()
        kinds = list(MessageKind)
        for tick in range(8):
            for vid in ids:
                if rng.random() < 0.05:
                    faults.inject(vid, FaultKind.V2V_FAIL)  # senders and receivers
            for _ in range(rng.randrange(3 * len(ids))):
                msg = V2VMessage(rng.choice(ids), rng.choice(kinds), tick)
                assert bus.send(msg, faults) == reference.send(msg, faults)
            got = bus.deliver(tick, faults)
            expected = deliver_reference(reference, tick, faults, receivers)
            assert list(got) == list(expected)
            assert got == expected
            assert bus._in_flight == reference._in_flight


def random_store(rng, ids, tick):
    store = open_store()
    for _ in range(3):
        inbox = []
        for vid in rng.sample(ids, rng.randrange(len(ids) + 1)):
            state = VehicleState(s=rng.randrange(40) * 5.0, lane=rng.randrange(3),
                                 v=rng.uniform(0.0, 30.0), a=rng.uniform(-2.0, 2.0))
            role = rng.choice(list(Role))
            platoon = PlatoonInfo((vid,)) if role.is_member() else None
            inbox.append(heartbeat(vid, tick - rng.randrange(30), state, role, platoon))
        store.table.update(inbox)
    return store


class TestPeerViewsAgainstEagerBuild:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_stores(self, seed):
        rng = random.Random(seed)
        ids = rng.sample(range(1, 60), rng.randrange(1, 30))
        store = random_store(rng, ids, tick=100)
        for degradation in (True, False):
            views = v2v_payload(store, 100, degradation)
            expected = {peer: reference_view(store.raw(peer), 100, 10, degradation)
                        for peer in sorted(store.table._latest)}
            assert list(views) == list(expected)
            assert len(views) == len(expected)
            assert dict(views.items()) == expected
            assert list(views.values()) == list(expected.values())
        for _ in range(10):
            ego = VehicleState(s=rng.randrange(40) * 5.0, lane=rng.randrange(3), v=20.0)
            assert store.preceding_member(ego) == preceding_member_reference(store, ego)

    def test_a_view_is_silent_as_the_quiet_set_says(self):
        # the one silence rule, read per peer and as a set, on every store above
        seen = set()
        for seed in SEEDS:
            rng = random.Random(seed)
            store = random_store(rng, rng.sample(range(1, 60), rng.randrange(1, 30)), tick=100)
            heard = store.known_peers()
            quiet = store.table.quiet(heard, 100)
            for degradation in (True, False):
                views = v2v_payload(store, 100, degradation)
                for peer in heard:
                    view = views[peer]
                    assert view.silent == (peer in quiet)
                    assert view.zeroed == (view.silent and not degradation)
                    seen.add(view.silent)
        assert seen == {True, False}

    def test_iteration_order_follows_new_senders(self):
        store = open_store()
        state = VehicleState(s=50.0, lane=1, v=20.0)
        store.table.update([heartbeat(vid, 5, state, Role.FOLLOWER, None) for vid in (5, 2, 9)])
        views = v2v_payload(store, 6, True)
        assert list(views) == [2, 5, 9] and len(views) == 3
        store.table.update([heartbeat(1, 6, state, Role.FOLLOWER, None)])
        assert list(v2v_payload(store, 7, True)) == [1, 2, 5, 9]

    def test_unknown_peer(self):
        store = open_store()
        store.table.update([heartbeat(3, 5, VehicleState(s=50.0, lane=1, v=20.0),
                                      Role.FOLLOWER, None)])
        views = v2v_payload(store, 6, True)
        assert views.get(4) is None and 4 not in views and 3 in views
        with pytest.raises(KeyError):
            views[4]

    def test_zeroed_only_without_degradation_past_the_timeout(self):
        store = open_store()
        store.table.update([heartbeat(3, 100, VehicleState(s=50.0, lane=1, v=20.0),
                                      Role.FOLLOWER, None)])
        assert not v2v_payload(store, 110, False)[3].zeroed
        assert v2v_payload(store, 111, False)[3].zeroed
        assert not v2v_payload(store, 111, True)[3].zeroed
        for degradation in (True, False):  # silent in both modes once past the timeout
            assert not v2v_payload(store, 110, degradation)[3].silent
            assert v2v_payload(store, 111, degradation)[3].silent

    def test_preceding_member_tie_break(self):
        ego = VehicleState(s=100.0, lane=1, v=20.0)

        def store_of(*beats):
            store = open_store()
            store.table.update([heartbeat(vid, 5, VehicleState(s=s, lane=lane, v=20.0),
                                          role, None) for vid, s, lane, role in beats])
            return store

        equal = store_of((8, 120.0, 1, Role.FOLLOWER), (4, 120.0, 1, Role.LEADER),
                         (6, 120.0, 1, Role.FOLLOWER))
        assert equal.preceding_member(ego) == 4
        lane_first = store_of((2, 110.0, 0, Role.FOLLOWER), (7, 140.0, 1, Role.FOLLOWER))
        assert lane_first.preceding_member(ego) == 7
        free_skipped = store_of((2, 105.0, 1, Role.FREE_VEHICLE), (3, 130.0, 1, Role.LEADER))
        assert free_skipped.preceding_member(ego) == 3
        for store in (equal, lane_first, free_skipped):
            assert store.preceding_member(ego) == preceding_member_reference(store, ego)
