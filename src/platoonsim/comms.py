"""Communication layer: broadcast V2V bus with fixed per-tick delivery,
single-target radar model, permanent fault injection and peer-failure
detection from heartbeat ages.

No path here scans every pair of vehicles in a tick. Radar bisects the
snapshot's ``(rear, id)`` order, delivery slices one sorted list of due
messages per receiver, and peer views are built only when looked up.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import (
    FaultKind,
    MessageKind,
    PlatoonInfo,
    Role,
    V2VMessage,
    VehicleId,
    VehicleState,
)
from .dynamics import LaneGeometry, Snapshot, lateral_position


@dataclass(frozen=True)
class BusConfig:
    """Bus timing. The delay is fixed for a whole run so traces replay
    bit-exactly; ``range_m`` of None means unlimited reach."""

    delivery_delay_ticks: int = 1
    range_m: Optional[float] = None

    def __post_init__(self) -> None:
        if self.delivery_delay_ticks < 0:
            raise ValueError("delivery delay must be non-negative")


class FaultBoard:
    """Per-vehicle set of active hardware faults. Faults are permanent:
    there is no API to clear one."""

    def __init__(self) -> None:
        self._faults: dict[VehicleId, set[FaultKind]] = {}

    def inject(self, vid: VehicleId, kind: FaultKind) -> None:
        self._faults.setdefault(vid, set()).add(kind)

    def has(self, vid: VehicleId, kind: FaultKind) -> bool:
        return kind in self._faults.get(vid, ())

    def active(self, vid: VehicleId) -> frozenset[FaultKind]:
        return frozenset(self._faults.get(vid, ()))


class MessageBus:
    """Broadcast bus with deterministic delivery.

    Messages sent at tick t reach every other vehicle's inbox at
    t + delivery_delay. A sender with a V2V fault loses its ability to
    broadcast; a receiver with a V2V fault gets an empty inbox. Inboxes are
    sorted by (sender id, message kind, send tick), ties in send order, so
    delivery order is reproducible.
    """

    def __init__(self, config: BusConfig) -> None:
        self.config = config
        self._in_flight: list[tuple[int, V2VMessage]] = []

    def send(self, msg: V2VMessage, faults: FaultBoard) -> bool:
        """Queue a broadcast; returns False when the sender's V2V is dead."""
        if faults.has(msg.sender, FaultKind.V2V_FAIL):
            return False
        self._in_flight.append((msg.tick_sent + self.config.delivery_delay_ticks, msg))
        return True

    def deliver(self, tick: int, faults: FaultBoard, receivers: Iterable[VehicleId],
                positions: Optional[Mapping[VehicleId, float]] = None,
                ) -> dict[VehicleId, list[V2VMessage]]:
        """Pop all messages due at ``tick`` into per-receiver inboxes.

        The due messages are sorted once. Sorted by sender, a receiver's own
        messages form one block, so its inbox is everything before and after
        that block (never self-deliver). ``range_m`` then drops senders
        farther away than the range, when positions are given.
        """
        due = sorted((m for t, m in self._in_flight if t <= tick),
                     key=V2VMessage.sort_key)
        self._in_flight = [(t, m) for t, m in self._in_flight if t > tick]
        senders = [m.sender for m in due]
        range_m = self.config.range_m if positions is not None else None
        inboxes: dict[VehicleId, list[V2VMessage]] = {}
        for rid in receivers:
            if faults.has(rid, FaultKind.V2V_FAIL):
                inboxes[rid] = []
                continue
            inbox = due[:bisect_left(senders, rid)] + due[bisect_right(senders, rid):]
            if range_m is not None:
                inbox = [m for m in inbox if not (
                    m.sender in positions
                    and abs(positions[rid] - positions[m.sender]) > range_m)]
            inboxes[rid] = inbox
        return inboxes


# ---------------------------------------------------------------------------
# Radar
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadarReading:
    """Single-target radar return: bumper-to-bumper gap and relative speed to
    the nearest same-lane vehicle ahead. A failed radar reports the fault
    model "very far": valid False with gap pinned at max range. ``target`` is
    the sim-level identity of the tracked return (None when nothing is in
    range)."""

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

    The search bisects the snapshot's ``(rear, id)`` order to the first
    ``rear >= ego.s`` and walks forward. Gaps never shrink along the walk,
    so it stops past ``max_range`` or once a gap exceeds the best one found;
    it walks on through equal gaps, because two different rears can round
    to the same gap and the lower id must still win.
    """
    ego = states[ego_id]
    if faults.has(ego_id, FaultKind.RADAR_FAIL):
        return RadarReading(False, max_range, 0.0, None)
    order = Snapshot.of(states).by_rear()
    center = geom.center(ego.lane)
    best: Optional[tuple[float, VehicleId, VehicleState]] = None
    for i in range(bisect_left(order, (ego.s,)), len(order)):
        rear, vid, st = order[i]
        gap = rear - ego.s
        if gap > max_range or (best is not None and gap > best[0]):
            break
        if vid == ego_id:
            continue
        if abs(lateral_position(st, geom) - center) > geom.lane_width / 2.0:
            continue
        if best is None or gap < best[0] or (gap == best[0] and vid < best[1]):
            best = (gap, vid, st)
    if best is None:
        return RadarReading(True, max_range, 0.0, None)
    gap, vid, st = best
    return RadarReading(True, gap, st.v - ego.v, vid)


# ---------------------------------------------------------------------------
# V2V peer views
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeerView:
    """Latest heartbeat fields for one peer, plus their age in ticks.
    ``zeroed`` marks the no-degradation failure substitution."""

    s: float
    v: float
    a: float
    length: float
    role: Role
    platoon: Optional[PlatoonInfo]
    age_ticks: int
    lane: int = 0
    zeroed: bool = False


class PeerViewStore:
    """Per-vehicle registry of the freshest heartbeat from each peer."""

    def __init__(self) -> None:
        self._latest: dict[VehicleId, V2VMessage] = {}
        self._known: Optional[tuple[VehicleId, ...]] = ()

    def update(self, inbox: Iterable[V2VMessage]) -> None:
        for msg in inbox:
            if msg.kind is not MessageKind.HEARTBEAT:
                continue
            cur = self._latest.get(msg.sender)
            if cur is None:
                self._known = None  # a new sender: re-sort on next use
            if cur is None or msg.tick_sent >= cur.tick_sent:
                self._latest[msg.sender] = msg

    def known_peers(self) -> tuple[VehicleId, ...]:
        """Every peer heard from, ascending; sorted again only after a new
        sender appears."""
        if self._known is None:
            self._known = tuple(sorted(self._latest))
        return self._known

    def raw(self, peer: VehicleId) -> Optional[V2VMessage]:
        return self._latest.get(peer)

    def preceding_member(self, ego: VehicleState) -> Optional[VehicleId]:
        """Nearest platoon member ahead of ``ego``, from the freshest
        heartbeats. Same-lane members win over one mid lane-change
        elsewhere; the smallest ``(lane_rank, ahead, peer)`` wins, so equal
        distances go to the lower id."""
        best: Optional[tuple[int, float, VehicleId]] = None
        for peer, msg in self._latest.items():
            if msg.role is None or msg.role is Role.FREE_VEHICLE:
                continue  # not a platoon member
            state = msg.state
            assert state is not None
            ahead = state.s - ego.s
            if ahead <= 0.0:
                continue
            key = (0 if state.lane == ego.lane else 1, ahead, peer)
            if best is None or key < best:
                best = key
        return best[2] if best else None

    def age(self, peer: VehicleId, tick: int) -> int:
        """Heartbeat age in ticks; a never-heard peer ages from tick 0."""
        msg = self._latest.get(peer)
        return tick if msg is None else tick - msg.tick_sent

    def ages(self, peers: Iterable[VehicleId], tick: int) -> dict[VehicleId, int]:
        return {p: self.age(p, tick) for p in peers}


class PeerViews(Mapping[VehicleId, PeerView]):
    """Read-only mapping from peer id to :class:`PeerView` at one tick.

    A view is built from the store's freshest heartbeat each time it is
    looked up, so a tick pays only for the peers it reads. Iteration is in
    ascending peer id. The mapping reads the store live: it is valid until
    the store's next ``update``.
    """

    def __init__(self, store: PeerViewStore, tick: int, timeout_ticks: int,
                 degradation_enabled: bool) -> None:
        self._store = store
        self._tick = tick
        self._timeout_ticks = timeout_ticks
        self._degradation_enabled = degradation_enabled

    def __getitem__(self, peer: VehicleId) -> PeerView:
        msg = self._store.raw(peer)
        if msg is None:
            raise KeyError(peer)
        assert msg.state is not None and msg.role is not None
        age = self._tick - msg.tick_sent
        if not self._degradation_enabled and age > self._timeout_ticks:
            return PeerView(0.0, 0.0, 0.0, msg.state.length, msg.role,
                            msg.platoon, age, msg.state.lane, zeroed=True)
        return PeerView(msg.state.s, msg.state.v, msg.state.a,
                        msg.state.length, msg.role, msg.platoon, age,
                        msg.state.lane)

    def __iter__(self) -> Iterator[VehicleId]:
        return iter(self._store.known_peers())

    def __len__(self) -> int:
        return len(self._store.known_peers())


def v2v_payload(store: PeerViewStore, tick: int, timeout_ticks: int,
                degradation_enabled: bool) -> Mapping[VehicleId, PeerView]:
    """Per-peer kinematic view from the freshest heartbeats.

    With degradation enabled a stale peer keeps its last-known values (the
    failure is reported separately through detect_peer_failure). With
    degradation disabled, a heartbeat absent past the timeout turns the
    peer's communicated data to all zeros, which is the raw failure
    semantics the degraded controllers are protecting against. Views are
    built on lookup (see :class:`PeerViews`).
    """
    return PeerViews(store, tick, timeout_ticks, degradation_enabled)


def detect_peer_failure(heartbeat_ages: Mapping[VehicleId, int],
                        timeout_ticks: int) -> list[VehicleId]:
    """Platoon peers whose heartbeat age exceeds the timeout, sorted."""
    if timeout_ticks < 1:
        raise ValueError("timeout must be at least one tick")
    return sorted(p for p, age in heartbeat_ages.items() if age > timeout_ticks)
