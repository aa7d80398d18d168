"""The bus's shared heartbeat table against the per-receiver peer stores it
replaced, kept here verbatim as references, on seeded multi-tick worlds.

Every tick, every receiver's store (shared or detached) must agree with a
reference store fed that receiver's full inbox: known peers, every peer
view, the predecessor, the silent peers and the leader replica; and its
flags inbox must be the full inbox without the heartbeats.
"""

import math
import random

import pytest

from conftest import count_quiet_scans, heartbeat, reference_view

from platoonsim.comms import (
    BusConfig,
    FaultBoard,
    HeartbeatTable,
    Inboxes,
    MessageBus,
    PeerViewStore,
    detect_peer_failure,
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

SEEDS = range(40)
TIMEOUT = 3
LANES = 3


# ---------------------------------------------------------------------------
# References: one private store per receiver, as before the shared table
# ---------------------------------------------------------------------------

class ReferenceStore:
    """Per-vehicle registry of the freshest heartbeat from each peer."""

    def __init__(self):
        self._latest = {}

    def update(self, inbox):
        for msg in inbox:
            if msg.kind is not MessageKind.HEARTBEAT:
                continue
            cur = self._latest.get(msg.sender)
            if cur is None or msg.tick_sent >= cur.tick_sent:
                self._latest[msg.sender] = msg

    def preceding_member(self, ego):
        best = None
        for peer, msg in self._latest.items():
            if msg.role is None or msg.role is Role.FREE_VEHICLE:
                continue  # not a platoon member
            state = msg.state
            ahead = state.s - ego.s
            if ahead <= 0.0:
                continue
            key = (0 if state.lane == ego.lane else 1, ahead, peer)
            if best is None or key < best:
                best = key
        return best[2] if best else None

    def age(self, peer, tick):
        msg = self._latest.get(peer)
        return tick if msg is None else tick - msg.tick_sent


def reference_silent(store, vid, series, tick):
    """The old two-step rule: a never-heard peer's age is the tick, a peer is
    silent once its age exceeds the timeout, and the owner is dropped."""
    monitored = [p for p in series if p != vid]
    return {p for p in monitored if store.age(p, tick) > TIMEOUT}


def reference_replica(inbox, replica, replica_tick):
    """The engine's leader-replica loop over one receiver's inbox."""
    for msg in inbox:
        if (msg.kind is MessageKind.HEARTBEAT and msg.role is Role.LEADER
                and msg.platoon is not None and msg.tick_sent > replica_tick):
            replica = msg.platoon
            replica_tick = msg.tick_sent
    return replica, replica_tick


def store_replica(store, leader, replica):
    """The engine's rule: the platoon in the leader's latest heartbeat."""
    beat = store.raw(leader)
    return replica if beat is None else beat.platoon


# ---------------------------------------------------------------------------
# Random worlds
# ---------------------------------------------------------------------------

# seen from EGO_FAR, these two distinct positions are the same distance ahead
EGO_FAR = -300.0
NEAR = next(p for p in (300.0 + k / 64 for k in range(64))
            if math.nextafter(p, math.inf) - EGO_FAR == p - EGO_FAR)
ROUNDS_TO_NEAR = math.nextafter(NEAR, math.inf)


def random_position(rng):
    if rng.random() < 0.15:
        return rng.choice((NEAR, ROUNDS_TO_NEAR))
    return rng.randrange(-40, 80) * 2.5  # a coarse grid: equal positions occur


class World:
    """Vehicles on 3 lanes that send heartbeats and flags each tick."""

    def __init__(self, rng, config):
        self.rng = rng
        self.ids = rng.sample(range(1, 60), rng.randrange(2, 18))
        self.state = {vid: VehicleState(s=random_position(rng), lane=rng.randrange(LANES),
                                        v=rng.uniform(0.0, 30.0))
                      for vid in self.ids}
        self.role = {vid: rng.choice((Role.FOLLOWER, Role.FOLLOWER, Role.FREE_VEHICLE))
                     for vid in self.ids}
        self.leader = rng.choice(self.ids)  # no role edge leads into or out of Leader
        self.role[self.leader] = Role.LEADER
        self.series = self.new_series()
        self.platoons = dict.fromkeys(self.ids)
        self.faults = FaultBoard()
        self.bus = MessageBus(config, TIMEOUT)
        self.stores = {vid: self.bus.peer_store(vid) for vid in self.ids}
        self.refs = {vid: ReferenceStore() for vid in self.ids}
        self.replicas = dict.fromkeys(self.ids)
        self.ref_replicas = {vid: (None, -1) for vid in self.ids}

    def detached(self):
        return {vid for vid, store in self.stores.items()
                if store.table is not self.bus.heartbeats}

    def new_series(self):
        members = [vid for vid in self.ids if self.role[vid].is_member()]
        self.rng.shuffle(members)
        # once every vehicle has turned free, the series is empty
        count = self.rng.randrange(1, len(members) + 1) if members else 0
        return PlatoonInfo(tuple(members[:count]))

    def move(self):
        rng = self.rng
        for vid in self.ids:
            if rng.random() < 0.5:
                self.state[vid] = VehicleState(s=random_position(rng),
                                               lane=rng.randrange(LANES), v=20.0)
            if rng.random() < 0.05 and vid != self.leader:
                self.role[vid] = rng.choice((Role.FOLLOWER, Role.FREE_VEHICLE))
        if rng.random() < 0.3:
            self.series = self.new_series()  # the leader replica changes

    def send(self, tick):
        rng = self.rng
        for vid in self.ids:
            if rng.random() < 0.04:
                self.faults.inject(vid, FaultKind.V2V_FAIL)  # senders and receivers
        outbox = []
        held = dict(self.platoons)  # the platoon each vehicle sent last tick
        for vid in self.ids:
            role = self.role[vid]
            platoon = self.platoons[vid] = self.series if role is Role.LEADER else (
                self.series if role.is_member() and rng.random() < 0.5 else None)
            if rng.random() < 0.9:
                outbox.append(heartbeat(vid, tick, self.state[vid], role, platoon))
            if rng.random() < 0.1:  # a second beat of the same tick: the later wins
                moved = VehicleState(s=random_position(rng), lane=rng.randrange(LANES), v=19.0)
                outbox.append(heartbeat(vid, tick, moved, role, platoon))
            if rng.random() < 0.05 and tick > 0:  # an older beat arriving late,
                # with the platoon its sender held then
                outbox.append(heartbeat(vid, tick - 1, self.state[vid], role, held[vid]))
            if rng.random() < 0.2:
                kind = rng.choice([k for k in MessageKind if k is not MessageKind.HEARTBEAT])
                outbox.append(V2VMessage(vid, kind, tick))
        rng.shuffle(outbox)
        for msg in outbox:
            self.bus.send(msg, self.faults)

    def probes(self, vid):
        """Egos to search ahead of: the vehicle itself, a spot just behind
        its own last heartbeat (so the owner's entry lies ahead), the far
        ego that makes two positions round to one distance, and grid spots."""
        rng = self.rng
        own = self.state[vid]
        yield own
        yield VehicleState(s=own.s - 1.0, lane=own.lane, v=20.0)
        for lane in range(LANES):
            yield VehicleState(s=EGO_FAR, lane=lane, v=20.0)
        for _ in range(3):
            yield VehicleState(s=random_position(rng), lane=rng.randrange(LANES), v=20.0)


def check_receiver(world, vid, tick, inbox):
    store, ref = world.stores[vid], world.refs[vid]
    assert store.known_peers() == tuple(sorted(ref._latest))
    for degradation in (True, False):
        views = v2v_payload(store, tick, degradation)
        expected = {peer: reference_view(ref._latest[peer], tick, TIMEOUT, degradation)
                    for peer in sorted(ref._latest)}
        assert list(views) == list(expected) and len(views) == len(expected)
        assert dict(views.items()) == expected
    for ego in world.probes(vid):
        assert store.preceding_member(ego) == ref.preceding_member(ego)
    for series in (world.series.id_series, tuple(world.ids)):
        silent = detect_peer_failure(store, series, tick)
        assert silent == reference_silent(ref, vid, series, tick)
    assert world.replicas[vid] == world.ref_replicas[vid][0]
    assert world.bus.flag_inboxes[vid] == [
        m for m in inbox if m.kind is not MessageKind.HEARTBEAT]


def run_world(seed, delay, ticks=10):
    rng = random.Random(seed)
    world = World(rng, BusConfig(delivery_delay_ticks=delay))
    detached = set()
    checks = {"shared": 0, "detached": 0, "replica changes": 0}
    for tick in range(ticks):
        world.send(tick)
        inboxes = world.bus.deliver(tick, world.faults)
        assert list(inboxes) == world.ids  # every store owner receives
        for vid in world.ids:
            world.refs[vid].update(inboxes[vid])
            world.ref_replicas[vid] = reference_replica(inboxes[vid], *world.ref_replicas[vid])
            replica = store_replica(world.stores[vid], world.leader, world.replicas[vid])
            checks["replica changes"] += replica is not world.replicas[vid]
            world.replicas[vid] = replica
        for vid in world.ids:
            check_receiver(world, vid, tick, inboxes[vid])
            checks["detached" if vid in world.detached() else "shared"] += 1
        now = world.detached()
        assert detached <= now  # a detached store never comes back
        detached = now
        world.move()
    return checks


class TestSharedTableAgainstPrivateStores:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("delay", (0, 1, 2))
    def test_random_worlds(self, seed, delay):
        run_world(seed, delay)

    def test_worlds_exercise_sharing_and_detaching(self):
        # the seeds above must check both kinds of store, and replicas that
        # change, or the comparison says nothing about one of them
        checks = {"shared": 0, "detached": 0, "replica changes": 0}
        for seed in SEEDS:
            for kind, count in run_world(seed, 1).items():
                checks[kind] += count
        assert checks["shared"] > 500 and checks["detached"] > 500, checks
        assert checks["replica changes"] > 200, checks


class TestDetachRule:
    def beats(self, bus, faults, tick, ids):
        for vid in ids:
            bus.send(heartbeat(vid, tick, VehicleState(s=10.0 * vid, lane=1, v=20.0),
                               Role.FOLLOWER, None), faults)

    def test_full_receivers_share_and_a_faulty_one_detaches(self):
        bus, faults = MessageBus(BusConfig(delivery_delay_ticks=0), TIMEOUT), FaultBoard()
        stores = {vid: bus.peer_store(vid) for vid in (1, 2, 3)}
        self.beats(bus, faults, 0, (1, 2, 3))
        bus.deliver(0, faults)
        assert all(s.table is bus.heartbeats for s in stores.values())
        faults.inject(2, FaultKind.V2V_FAIL)
        self.beats(bus, faults, 1, (1, 2, 3))
        bus.deliver(1, faults)
        assert stores[2].table is not bus.heartbeats
        assert stores[1].table is bus.heartbeats and stores[3].table is bus.heartbeats
        assert stores[2].raw(1).tick_sent == 0  # the copy is the table before tick 1
        assert stores[1].raw(3).tick_sent == 1
        assert stores[2].table.timeout_ticks == TIMEOUT  # the copy keeps the timeout

    def test_faulty_owner_detaches_on_the_first_tick_of_its_fault(self):
        bus, faults = MessageBus(BusConfig(delivery_delay_ticks=0), TIMEOUT), FaultBoard()
        stores = {vid: bus.peer_store(vid) for vid in (1, 2)}
        faults.inject(1, FaultKind.V2V_FAIL)
        assert bus.deliver(0, faults) == {1: [], 2: []}  # nothing was due
        assert stores[1].table is not bus.heartbeats
        assert stores[2].table is bus.heartbeats
        for tick in (1, 2):
            self.beats(bus, faults, tick, (1, 2))  # 1's beats are refused
            assert bus.deliver(tick, faults) == {1: [], 2: []}
        assert stores[1].known_peers() == () and stores[2].known_peers() == ()
        assert sorted(bus.heartbeats._latest) == [2]


def beat(vid, tick):
    return heartbeat(vid, tick, VehicleState(s=10.0 * vid, lane=1, v=20.0),
                     Role.FOLLOWER, None)


class TestQuietPeers:
    @pytest.fixture
    def scans(self, monkeypatch):
        return count_quiet_scans(monkeypatch)

    def table(self):
        table = HeartbeatTable(3)
        table.update([beat(1, 10), beat(2, 4), beat(3, 9)])
        return table

    def test_one_scan_per_tuple_and_tick(self, scans):
        table, series = self.table(), (1, 2, 3, 4)
        first = table.quiet(series, 10)
        assert first == {2, 4}
        assert table.quiet(series, 10) is first
        assert len(scans) == 1
        assert table.quiet(series, 13) == {2, 3, 4}  # a new tick
        assert len(scans) == 2

    def test_a_list_or_another_equal_tuple_is_scanned_afresh(self, scans):
        table, series = self.table(), (1, 2, 3, 4)
        table.quiet(series, 10)
        assert table.quiet(tuple(list(series)), 10) == {2, 4}
        peers = [1, 2]
        assert table.quiet(peers, 10) == {2}
        peers.append(4)  # the same list, now with other peers
        assert table.quiet(peers, 10) == {2, 4}
        assert len(scans) == 4

    def test_an_update_drops_the_answer(self, scans):
        table, series = self.table(), (1, 2, 3, 4)
        assert table.quiet(series, 10) == {2, 4}
        table.update([beat(2, 10)])
        assert table.quiet(series, 10) == {4}
        assert len(scans) == 2

    def test_stores_sharing_a_table_share_the_scan_and_drop_their_owner(self, scans):
        table, series = self.table(), (1, 2, 3, 4)
        stores = {vid: PeerViewStore(vid, table) for vid in series}
        silent = {vid: detect_peer_failure(store, series, 10)
                  for vid, store in stores.items()}
        assert silent == {1: {2, 4}, 2: {4}, 3: {2, 4}, 4: {2}}
        assert len(scans) == 1

    def test_never_heard_counts_as_heard_at_tick_zero(self, scans):
        table, series = self.table(), (1, 2, 3, 4)
        assert table.quiet(series, 3) == set()  # 4 is 3 ticks "old"
        assert table.quiet(series, 4) == {4}
        assert len(scans) == 2  # a tick within the timeout still fills the memo

    @pytest.mark.parametrize("seed", range(20))
    def test_detect_peer_failure_is_the_old_two_step_rule(self, seed):
        rng = random.Random(seed)
        cases = {"within": 0, "past": 0, "silent": 0}
        for _ in range(50):
            timeout = rng.randrange(1, 6)
            tick = rng.randrange(0, 3 * timeout)
            table = HeartbeatTable(timeout)
            senders = rng.sample(range(1, 30), rng.randrange(0, 12))
            table.update(beat(vid, rng.randrange(0, tick + 1)) for vid in senders)
            owner = rng.choice(senders or [7])
            # never-heard peers, and the owner itself, among the peers asked about
            peers = tuple(rng.sample(range(1, 30), rng.randrange(0, 15))) + (owner,)
            store = PeerViewStore(owner, table)
            heard = {p: store.raw(p) for p in peers if p != owner}
            ages = {p: tick if msg is None else tick - msg.tick_sent for p, msg in heard.items()}
            old = sorted(p for p, age in ages.items() if age > timeout)
            new = detect_peer_failure(store, peers, tick)
            assert sorted(new) == old
            cases["within" if tick <= timeout else "past"] += 1
            cases["silent"] += bool(old)
        assert all(cases.values()), cases


class TestLazyInboxes:
    def deliver(self, faulty=()):
        bus, faults = MessageBus(BusConfig(delivery_delay_ticks=0), TIMEOUT), FaultBoard()
        for vid in (3, 1, 2):
            bus.peer_store(vid)
        for vid in faulty:
            faults.inject(vid, FaultKind.V2V_FAIL)
        for vid in (1, 2, 3):
            bus.send(beat(vid, 0), faults)
        bus.send(V2VMessage(2, MessageKind.SAFE_FLAG, 0), faults)
        return bus.deliver(0, faults)

    def test_equal_to_the_dict_of_lists_in_store_order(self):
        inboxes = self.deliver()
        assert list(inboxes) == [3, 1, 2] and len(inboxes) == 3
        assert [(m.sender, m.kind) for m in inboxes[1]] == [
            (2, MessageKind.HEARTBEAT), (2, MessageKind.SAFE_FLAG), (3, MessageKind.HEARTBEAT)]
        assert inboxes == {vid: inboxes[vid] for vid in (3, 1, 2)}
        assert [m.sender for m in inboxes[2]] == [1, 3]
        assert {vid: inboxes[vid] for vid in (3, 1, 2)} == inboxes
        with pytest.raises(KeyError):
            inboxes[4]
        assert inboxes.get(4) is None

    def test_a_deaf_receiver_gets_an_empty_list(self):
        inboxes = self.deliver(faulty=(3,))
        assert inboxes[3] == [] and [m.sender for m in inboxes[1]] == [2, 2]

    def test_a_list_is_cut_only_when_looked_up(self, monkeypatch):
        cuts = []
        original = Inboxes.__getitem__
        monkeypatch.setattr(Inboxes, "__getitem__",
                            lambda self, rid: cuts.append(rid) or original(self, rid))
        inboxes = self.deliver()
        assert cuts == [] and len(inboxes) == 3
        inboxes[2]
        assert cuts == [2]
