"""Communication layer: broadcast V2V bus with fixed per-tick delivery,
single-target radar model, permanent fault injection and peer-failure
detection from heartbeat ages.

No path here scans every pair of vehicles in a tick. Radar bisects the
snapshot's ``(rear, id)`` order, and delivery cuts a receiver's inbox, when
it is read, from one list of due messages grouped by sender. The bus keeps
one heartbeat table, the freshest heartbeat per sender, updated once per
tick; each receiver's peer store is that table minus the receiver's own
entry, so no receiver stores or scans its own copy of the N - 1 heartbeats.
The one way a vehicle stops hearing the bus is its own V2V fault: its store
then keeps a frozen copy of the table as it stood before. The predecessor
search bisects per-lane member orders, and peer views are built on lookup.

A peer is silent once its heartbeat is older than the heartbeat table's
timeout. :meth:`HeartbeatTable.quiet` applies that one rule to a series, as a
set, and a :class:`PeerView` carries it for one peer, as ``silent``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional

from .core import (
    FaultKind,
    MessageKind,
    PlatoonInfo,
    Role,
    V2VMessage,
    VehicleId,
    VehicleState,
)
from .dynamics import LaneGeometry, Snapshot


@dataclass(frozen=True)
class BusConfig:
    """Bus timing. The delay is fixed for a whole run so traces replay
    bit-exactly. A scenario file's delay is positive: the engine delivers
    before its managers send, so a zero delay would run as a delay of one."""

    delivery_delay_ticks: int = field(default=1, metadata={"bound": "positive"})

    def __post_init__(self) -> None:
        if self.delivery_delay_ticks < 0:
            raise ValueError("delivery delay must be non-negative")


class FaultBoard(dict[VehicleId, frozenset[FaultKind]]):
    """Each vehicle's active hardware faults, read as ``faults.get(vid, ())``.
    Faults are permanent: ``inject`` is the only writer and never removes one."""

    def inject(self, vid: VehicleId, kind: FaultKind) -> None:
        self[vid] = self.get(vid, frozenset()) | {kind}


_SENDER = attrgetter("sender")  # delivery groups by this key alone, in C


class MessageBus:
    """Broadcast bus with deterministic delivery.

    The receivers are the owners of the peer stores opened on the bus.
    Messages sent at tick t reach every other receiver's inbox at
    t + delivery_delay. A sender with a V2V fault loses its ability to
    broadcast; a receiver with a V2V fault gets an empty inbox. An inbox
    holds its messages grouped by ascending sender id, each sender's in send
    order, so delivery order is reproducible.

    The bus keeps one :class:`HeartbeatTable` of the freshest delivered
    heartbeat per sender, and opens each receiver's :class:`PeerViewStore`
    on it (see :meth:`peer_store` and :meth:`deliver`).
    """

    def __init__(self, config: BusConfig, timeout_ticks: int) -> None:
        self.config = config
        self._in_flight: list[tuple[int, V2VMessage]] = []
        self.heartbeats = HeartbeatTable(timeout_ticks)
        self._stores: dict[VehicleId, PeerViewStore] = {}
        # the non-heartbeat part of the last delivery's inboxes
        self.flag_inboxes: Mapping[VehicleId, list[V2VMessage]] = {}

    def send(self, msg: V2VMessage, faults: FaultBoard) -> bool:
        """Queue a broadcast; returns False when the sender's V2V is dead."""
        if FaultKind.V2V_FAIL in faults.get(msg.sender, ()):
            return False
        self._in_flight.append((msg.tick_sent + self.config.delivery_delay_ticks, msg))
        return True

    def peer_store(self, owner: VehicleId) -> PeerViewStore:
        """Open the peer store of ``owner`` on the bus's heartbeat table, and
        make ``owner`` a receiver of every later :meth:`deliver`. Open every
        store before the first delivery: a store reads the whole table."""
        store = self._stores[owner] = PeerViewStore(owner, self.heartbeats)
        return store

    def deliver(self, tick: int, faults: FaultBoard) -> Inboxes:
        """Pop all messages due at ``tick`` into the inboxes of the owners of
        the opened peer stores; returns the inboxes, and keeps their
        non-heartbeat part in :attr:`flag_inboxes`. Both are lazy
        :class:`Inboxes`: a receiver's list is cut only when it is read. A
        delivery without flags keeps a plain dict of empty lists instead.

        The due heartbeats then update the bus's heartbeat table once. A
        store shares the table while its owner hears the bus, that is, until
        its owner's V2V fault. On the first tick of the fault the store
        detaches onto a copy of the table as it stood before this tick.
        Faults are permanent, so nothing reaches that copy again.
        """
        # a stable sort: each sender's messages keep their send order
        due = sorted([m for t, m in self._in_flight if t <= tick], key=_SENDER)
        self._in_flight = [(t, m) for t, m in self._in_flight if t > tick]
        hears = {rid: FaultKind.V2V_FAIL not in faults.get(rid, ()) for rid in self._stores}
        flags = [m for m in due if m.kind is not MessageKind.HEARTBEAT]
        self.flag_inboxes = Inboxes(flags, hears) if flags else {rid: [] for rid in hears}
        for rid, store in self._stores.items():
            if not hears[rid] and store.table is self.heartbeats:
                store.table = self.heartbeats.copy()
        self.heartbeats.update(due)
        return Inboxes(due, hears)


class Inboxes(Mapping[VehicleId, list[V2VMessage]]):
    """Read-only mapping from receiver id to its part of one delivery's
    messages, grouped by sender: all but the receiver's own block (never
    self-deliver), cut when looked up; empty for a receiver with a V2V fault."""

    def __init__(self, msgs: list[V2VMessage], hears: dict[VehicleId, bool]) -> None:
        self._msgs = msgs
        self._hears = hears

    def __getitem__(self, rid: VehicleId) -> list[V2VMessage]:
        msgs = self._msgs
        if not (self._hears[rid] and msgs):
            return []
        own = bisect_left(msgs, rid, key=_SENDER)
        others = bisect_right(msgs, rid, own, key=_SENDER)
        return msgs[:own] + msgs[others:]

    def __iter__(self) -> Iterator[VehicleId]:
        return iter(self._hears)

    def __len__(self) -> int:
        return len(self._hears)


# ---------------------------------------------------------------------------
# Radar
# ---------------------------------------------------------------------------

class RadarReading(NamedTuple):
    """Single-target radar return: bumper-to-bumper gap and relative speed to
    the nearest same-lane vehicle ahead. A failed radar reports the fault
    model "very far": valid False with gap pinned at max range. ``target`` is
    the sim-level identity of the tracked return (None when nothing is in
    range). A NamedTuple: it compares as the tuple of its fields."""

    valid: bool
    gap: float
    rel_speed: float
    target: Optional[VehicleId] = None


def radar_sense(ego_id: VehicleId, states: Mapping[VehicleId, VehicleState],
                faults: FaultBoard, geom: LaneGeometry,
                max_range: float = 200.0) -> RadarReading:
    """Sense the nearest in-lane leader vehicle ahead of ``ego_id``.

    A target counts as in-lane when its lateral center lies within half a
    lane width of the ego lane center, so a vehicle crossing into the lane
    becomes visible mid lane-change. The gap is ``rear - ego.s`` and must lie
    in [0, max_range]; the smallest gap wins, and equal gaps go to the lower
    id.

    The search bisects the snapshot's rears in ``(rear, id)`` order to the
    first ``rear >= ego.s`` and walks forward, reading lateral positions
    from the snapshot. Gaps never shrink along the walk, so it stops past
    ``max_range`` or once a gap exceeds the best one found; it walks on
    through equal gaps, because two different rears can round to the same
    gap and the lower id must still win.
    """
    ego = states[ego_id]
    if FaultKind.RADAR_FAIL in faults.get(ego_id, ()):
        return RadarReading(False, max_range, 0.0, None)
    order, rears, lateral = Snapshot.by_rear(states, geom)
    center = ego.lane * geom.lane_width  # geom.center(ego.lane)
    best: Optional[tuple[float, VehicleId, VehicleState]] = None
    for i in range(bisect_left(rears, ego.s), len(order)):
        rear, vid, st = order[i]
        gap = rear - ego.s
        if gap > max_range or (best is not None and gap > best[0]):
            break
        if vid == ego_id:
            continue
        if abs(lateral[i] - center) > geom.lane_width / 2.0:
            continue
        if best is None or gap < best[0] or (gap == best[0] and vid < best[1]):
            best = (gap, vid, st)
    if best is None:
        return tuple.__new__(RadarReading, (True, max_range, 0.0, None))
    gap, vid, st = best
    return tuple.__new__(RadarReading, (True, gap, st.v - ego.v, vid))


# ---------------------------------------------------------------------------
# V2V peer views
# ---------------------------------------------------------------------------

class PeerView(NamedTuple):
    """Latest heartbeat fields for one peer, their age in ticks, and whether
    the peer is silent (older than the table's timeout). ``zeroed`` marks the
    no-degradation substitution of a silent peer. A NamedTuple: it compares
    as the tuple of its fields."""

    s: float
    v: float
    a: float
    length: float
    role: Role
    platoon: Optional[PlatoonInfo]
    age_ticks: int
    lane: int = 0
    zeroed: bool = False
    silent: bool = False


# one lane's platoon members: their positions, and their (s, id) alongside
_LaneOrder = tuple[list[float], list[tuple[float, VehicleId]]]


class HeartbeatTable:
    """The freshest heartbeat from each sender, with the indexes its readers
    need, each built on first use after an update.

    A heartbeat replaces the kept one when its send tick is not older, so of
    two with the same tick the later in delivery order wins. The bus keeps
    one table for every receiver (see :meth:`MessageBus.deliver`). A sender
    whose heartbeat is more than ``timeout_ticks`` old is silent.
    """

    def __init__(self, timeout_ticks: int,
                 latest: Optional[Mapping[VehicleId, V2VMessage]] = None) -> None:
        if timeout_ticks < 1:
            raise ValueError("timeout must be at least one tick")
        self.timeout_ticks = timeout_ticks
        self._latest: dict[VehicleId, V2VMessage] = dict(latest or {})
        self._lanes: Optional[dict[int, _LaneOrder]] = None
        # (tick, fresh senders, the last peers asked about, quiet ones)
        self._fresh: Optional[tuple] = None

    def copy(self) -> "HeartbeatTable":
        return HeartbeatTable(self.timeout_ticks, self._latest)

    def update(self, msgs: Iterable[V2VMessage]) -> None:
        latest = self._latest
        for msg in msgs:
            if msg.kind is not MessageKind.HEARTBEAT:
                continue
            cur = latest.get(msg.sender)
            if cur is None or msg.tick_sent >= cur.tick_sent:
                latest[msg.sender] = msg
        self._lanes = None
        self._fresh = None

    def member_lanes(self) -> dict[int, _LaneOrder]:
        """Per lane, the platoon members' ``(s, id)`` in ascending order and,
        alongside, their positions alone for bisection."""
        if self._lanes is None:
            by_lane: dict[int, list[tuple[float, VehicleId]]] = {}
            for vid, msg in self._latest.items():
                if msg.role is None or msg.role is Role.FREE_VEHICLE:
                    continue  # not a platoon member
                state = msg.state
                assert state is not None
                by_lane.setdefault(state.lane, []).append((state.s, vid))
            self._lanes = {}
            for lane, order in by_lane.items():
                order.sort()
                self._lanes[lane] = ([s for s, _ in order], order)
        return self._lanes

    def quiet(self, peers: Iterable[VehicleId], tick: int) -> frozenset[VehicleId]:
        """Those ``peers`` that are silent at ``tick``; a peer never heard
        from counts as heard at tick 0. Kept beside the fresh senders and
        keyed on the identity of a tuple, so the readers of one replica
        series share one scan."""
        memo = self._fresh
        if memo is None or memo[0] != tick:
            horizon = tick - self.timeout_ticks
            memo = (tick, frozenset([vid for vid, msg in self._latest.items()
                                     if msg.tick_sent >= horizon]), None, None)
        if memo[2] is not peers or type(peers) is not tuple:
            quiet = (frozenset(peers).difference(memo[1]) if tick > self.timeout_ticks
                     else frozenset())
            memo = self._fresh = memo[:2] + (peers, quiet)
        return memo[3]


class PeerViewStore:
    """One vehicle's registry of the freshest heartbeat from each peer: a
    :class:`HeartbeatTable` minus the owner's own entry.

    A store opened by :meth:`MessageBus.peer_store` reads the bus's table
    until its owner's V2V fault, and then a frozen copy of it as it stood
    before the fault. The store only reads the table; the bus feeds it.
    Its silent peers are read with :func:`detect_peer_failure`, as a set.
    """

    def __init__(self, owner: VehicleId, table: HeartbeatTable) -> None:
        self.owner = owner
        self.table = table

    def known_peers(self) -> tuple[VehicleId, ...]:
        """Every peer heard from, ascending."""
        return tuple(p for p in sorted(self.table._latest) if p != self.owner)

    def raw(self, peer: VehicleId) -> Optional[V2VMessage]:
        return None if peer == self.owner else self.table._latest.get(peer)

    def preceding_member(self, ego: VehicleState) -> Optional[VehicleId]:
        """Nearest platoon member ahead of ``ego``, from the freshest
        heartbeats. Same-lane members win over one mid lane-change
        elsewhere; the smallest ``(lane_rank, ahead, peer)`` wins, so equal
        distances go to the lower id."""
        lanes = self.table.member_lanes()
        best = self._nearest_ahead(lanes.get(ego.lane), ego.s)
        if best is None:
            for lane, order in lanes.items():
                if lane != ego.lane:
                    found = self._nearest_ahead(order, ego.s)
                    if found is not None and (best is None or found < best):
                        best = found
        return best[1] if best else None

    def _nearest_ahead(self, order: Optional[_LaneOrder],
                       s: float) -> Optional[tuple[float, VehicleId]]:
        """The smallest ``(ahead, id)`` in one lane's member order, over the
        members other than the owner at a position past ``s``.

        The walk starts at the first position past ``s`` (bisected), where
        ``ahead`` is least, and goes on through equal ``ahead`` values: two
        different positions can round to the same distance, and the lower
        id must still win."""
        if order is None:
            return None
        positions, members = order
        best: Optional[tuple[float, VehicleId]] = None
        for i in range(bisect_right(positions, s), len(members)):
            pos, vid = members[i]
            if vid == self.owner:
                continue
            ahead = pos - s
            if best is not None and ahead > best[0]:
                break
            if best is None or vid < best[1]:
                best = (ahead, vid)
        return best


class PeerViews(Mapping[VehicleId, PeerView]):
    """Read-only mapping from peer id to :class:`PeerView` at one tick.

    A view is built from the store's freshest heartbeat each time it is
    looked up, so a tick pays only for the peers it reads. Iteration is in
    ascending peer id. The mapping reads the store's table live: it is valid
    until the table's next update, which for a store on the bus is the
    next delivery.
    """

    def __init__(self, store: PeerViewStore, tick: int, degradation_enabled: bool) -> None:
        self._store = store
        self._tick = tick
        self._timeout_ticks = store.table.timeout_ticks  # a detached copy keeps it
        self._degradation_enabled = degradation_enabled

    def __getitem__(self, peer: VehicleId) -> PeerView:
        view = self.get(peer)
        if view is None:
            raise KeyError(peer)
        return view

    def get(self, peer: VehicleId, default: Optional[PeerView] = None) -> Optional[PeerView]:
        msg = self._store.raw(peer)
        if msg is None:
            return default
        state = msg.state
        assert state is not None and msg.role is not None
        age = self._tick - msg.tick_sent
        silent = age > self._timeout_ticks
        if silent and not self._degradation_enabled:
            return PeerView(0.0, 0.0, 0.0, state.length, msg.role,
                            msg.platoon, age, state.lane, True, True)
        return tuple.__new__(PeerView, (state.s, state.v, state.a, state.length, msg.role,
                                        msg.platoon, age, state.lane, False, silent))

    def __iter__(self) -> Iterator[VehicleId]:
        return iter(self._store.known_peers())

    def __len__(self) -> int:
        return len(self._store.known_peers())


def v2v_payload(store: PeerViewStore, tick: int,
                degradation_enabled: bool) -> Mapping[VehicleId, PeerView]:
    """Per-peer kinematic view from the freshest heartbeats.

    With degradation enabled a silent peer keeps its last-known values (the
    failure is reported separately through detect_peer_failure). With
    degradation disabled, a silent peer's communicated data turns to all
    zeros, which is the raw failure semantics the degraded controllers are
    protecting against. Views are built on lookup (see :class:`PeerViews`).
    """
    return PeerViews(store, tick, degradation_enabled)


def detect_peer_failure(store: PeerViewStore, peers: Iterable[VehicleId],
                        tick: int) -> frozenset[VehicleId]:
    """Those ``peers``, other than the store's owner, that are silent at
    ``tick`` (see :meth:`HeartbeatTable.quiet`), in no order."""
    quiet = store.table.quiet(peers, tick)
    return quiet.difference((store.owner,)) if store.owner in quiet else quiet
