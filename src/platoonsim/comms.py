"""Communication layer: broadcast V2V bus with fixed per-tick delivery,
single-target radar model, permanent fault injection and peer-failure
detection from heartbeat ages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .core import (
    FaultKind,
    MessageKind,
    PlatoonInfo,
    Role,
    V2VMessage,
    VehicleId,
    VehicleState,
)
from .dynamics import LaneGeometry, lateral_position


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
    sorted by (sender id, message kind) so delivery order is reproducible.
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
        """Pop all messages due at ``tick`` into per-receiver inboxes."""
        due = sorted((m for t, m in self._in_flight if t <= tick),
                     key=V2VMessage.sort_key)
        self._in_flight = [(t, m) for t, m in self._in_flight if t > tick]
        inboxes: dict[VehicleId, list[V2VMessage]] = {r: [] for r in receivers}
        for msg in due:
            for rid in inboxes:
                if rid == msg.sender:
                    continue  # never self-deliver
                if faults.has(rid, FaultKind.V2V_FAIL):
                    continue
                if (self.config.range_m is not None and positions is not None
                        and msg.sender in positions
                        and abs(positions[rid] - positions[msg.sender]) > self.config.range_m):
                    continue
                inboxes[rid].append(msg)
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
    max_range: float = 200.0
    target: Optional[VehicleId] = None


def radar_sense(ego_id: VehicleId, states: Mapping[VehicleId, VehicleState],
                faults: FaultBoard, geom: LaneGeometry,
                max_range: float = 200.0) -> RadarReading:
    """Sense the nearest in-lane leader vehicle ahead of ``ego_id``.

    A target counts as in-lane when its lateral center lies within half a
    lane width of the ego lane center, so a vehicle crossing into the lane
    becomes visible mid lane-change.
    """
    ego = states[ego_id]
    if faults.has(ego_id, FaultKind.RADAR_FAIL):
        return RadarReading(False, max_range, 0.0, max_range, None)
    center = geom.center(ego.lane)
    best: Optional[tuple[float, VehicleId]] = None
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
        return RadarReading(True, max_range, 0.0, max_range, None)
    gap, vid = best
    return RadarReading(True, gap, states[vid].v - ego.v, max_range, vid)


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

    def update(self, inbox: Iterable[V2VMessage]) -> None:
        for msg in inbox:
            if msg.kind is not MessageKind.HEARTBEAT:
                continue
            cur = self._latest.get(msg.sender)
            if cur is None or msg.tick_sent >= cur.tick_sent:
                self._latest[msg.sender] = msg

    def known_peers(self) -> tuple[VehicleId, ...]:
        return tuple(sorted(self._latest))

    def raw(self, peer: VehicleId) -> Optional[V2VMessage]:
        return self._latest.get(peer)

    def preceding_member(self, ego: VehicleState) -> Optional[VehicleId]:
        """Nearest platoon member ahead of ``ego``, from the freshest
        heartbeats. Same-lane members win over one mid lane-change
        elsewhere."""
        best: Optional[tuple[int, float, VehicleId]] = None
        for peer in self.known_peers():
            msg = self._latest[peer]
            if msg.role is None or not msg.role.is_member():
                continue
            assert msg.state is not None
            ahead = msg.state.s - ego.s
            if ahead <= 0.0:
                continue
            lane_rank = 0 if msg.state.lane == ego.lane else 1
            if best is None or (lane_rank, ahead) < best[:2]:
                best = (lane_rank, ahead, peer)
        return best[2] if best else None

    def age(self, peer: VehicleId, tick: int) -> int:
        """Heartbeat age in ticks; a never-heard peer ages from tick 0."""
        msg = self._latest.get(peer)
        return tick if msg is None else tick - msg.tick_sent

    def ages(self, peers: Iterable[VehicleId], tick: int) -> dict[VehicleId, int]:
        return {p: self.age(p, tick) for p in peers}


def v2v_payload(store: PeerViewStore, tick: int, timeout_ticks: int,
                degradation_enabled: bool) -> dict[VehicleId, PeerView]:
    """Per-peer kinematic view from the freshest heartbeats.

    With degradation enabled a stale peer keeps its last-known values (the
    failure is reported separately through detect_peer_failure). With
    degradation disabled, a heartbeat absent past the timeout turns the
    peer's communicated data to all zeros, which is the raw failure
    semantics the degraded controllers are protecting against.
    """
    views: dict[VehicleId, PeerView] = {}
    for peer in store.known_peers():
        msg = store.raw(peer)
        assert msg is not None and msg.state is not None and msg.role is not None
        age = tick - msg.tick_sent
        if not degradation_enabled and age > timeout_ticks:
            views[peer] = PeerView(0.0, 0.0, 0.0, msg.state.length, msg.role,
                                   msg.platoon, age, msg.state.lane, zeroed=True)
        else:
            views[peer] = PeerView(msg.state.s, msg.state.v, msg.state.a,
                                   msg.state.length, msg.role, msg.platoon, age,
                                   msg.state.lane)
    return views


def detect_peer_failure(heartbeat_ages: Mapping[VehicleId, int],
                        timeout_ticks: int) -> list[VehicleId]:
    """Platoon peers whose heartbeat age exceeds the timeout, sorted."""
    if timeout_ticks < 1:
        raise ValueError("timeout must be at least one tick")
    return sorted(p for p, age in heartbeat_ages.items() if age > timeout_ticks)
