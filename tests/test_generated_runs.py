"""Run-level checks over seeded, generated scenarios.

Each seed builds a scenario document: 2-8 vehicles on 1-3 lanes, a platoon
with a leader and some free vehicles, and joins, leaves, cut-ins and radar
or V2V faults aimed at any vehicle, with degradation on or off. A cut-in
comes from a lane next to its target's declared lane. Such a document may
break a load rule; then it must be a ``SpecError``. A loaded scenario must
run to its end, so a ``TickError`` fails, two runs of it must write the
same bytes, no collision may happen on its first tick, and no vehicle may
start HardwareFailures more often than faults were injected. Six seeds run
for 90 s are pinned to golden digests. On the seeds that inject a fault,
degradation on must collide no more than off in 20 s, but for four named
seeds where it does.

Run as a script,
``PYTHONPATH=src python3 tests/test_generated_runs.py [N] [--duration S]``
prints how seeds ``0..N-1`` (default 400) end when run for S seconds
(default 20): ``SpecError``, full run or ``TickError``, and how many full
runs collide or reach a ``maneuver_timeout``, with degradation on and off,
and how many log a dropped cloud instruction; then the ``SpecError``s by
message, with every number in it (vehicle ids, event indexes) read as N.
With ``--paired`` it runs each loadable seed that injects a fault twice,
with degradation on and off as ``platoon-sim compare`` does, and prints
both runs' collision counts and first-collision times, then how many seeds
collide in each mode and the seeds where degradation on collides more.
"""

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from platoonsim.core import EventKind, ManeuverState, Role
from platoonsim.engine import Simulator, TickError
from platoonsim.scenario import FaultEvent, SpecError, scenario_from_dict

SEEDS = range(60)
DURATION = 20.0
GOLDEN = json.loads(Path(__file__).with_name("golden_generated.json").read_text())


def generate(seed: int) -> dict:
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    lanes = rng.randint(1, 3)
    platoon_lane = rng.randrange(lanes)
    members = rng.randint(1, n)
    vehicles = []
    for vid in range(1, n + 1):
        if vid <= members:
            role = "leader" if vid == 1 else "follower"
            s, lane, v = 400.0 - 18.0 * (vid - 1), platoon_lane, 20.0
        else:
            role = "free"
            s = round(rng.uniform(150.0, 450.0), 1)
            lane, v = rng.randrange(lanes), round(rng.uniform(15.0, 25.0), 1)
        vehicles.append({"id": vid, "s": s, "lane": lane, "v": v, "role": role})
    events = []
    for t in sorted(round(rng.uniform(0.5, DURATION - 2.0), 2)
                    for _ in range(rng.randint(1, 4))):
        kind = rng.choice(["join", "leave", "cut_in", "fault"])
        event = {"t": t, "kind": kind, "target": rng.randint(1, n)}
        if kind == "join":
            event["position"] = rng.choice(["tail", f"before:{rng.randint(1, n)}"])
        elif kind == "cut_in":
            lane, target_lane = rng.randrange(lanes), vehicles[event["target"] - 1]["lane"]
            if abs(lane - target_lane) != 1:  # an intruder comes from a next lane
                lane = target_lane + 1 if target_lane + 1 < lanes else target_lane - 1
            event.update(lane=lane, s_offset=round(rng.uniform(5.0, 25.0), 1),
                         duration=round(rng.uniform(1.0, 6.0), 1),
                         ttc_satisfying=rng.random() < 0.5)
        elif kind == "fault":
            event["fault"] = rng.choice(["radar", "v2v"])
        events.append(event)
    return {"name": f"generated_{seed}", "run": {"dt": 0.05, "duration": DURATION},
            "vehicles": vehicles, "events": events,
            "parameters": {"geometry": {"lane_count": lanes}},
            "modes": {"degradation_enabled": rng.random() < 0.5}}


def generated_spec(seed: int, duration: float = DURATION):
    """The scenario of ``seed``, run for ``duration`` seconds; its events
    stay where ``generate`` put them."""
    return scenario_from_dict(dict(generate(seed), run={"dt": 0.05, "duration": duration}))


def overlapping_spec(seed: int, vid: int, duration: float = DURATION):
    """The scenario of ``seed``, whose free vehicle ``vid`` starts inside
    another one. The loader refuses that overlap, so it loads with ``vid``
    moved clear and then puts it back: the run is the one a regression
    below was found on, with its collision on the first tick."""
    doc = dict(generate(seed), run={"dt": 0.05, "duration": duration})
    s = doc["vehicles"][vid - 1]["s"]
    doc["vehicles"] = [dict(v, s=-1000.0) if v["id"] == vid else v for v in doc["vehicles"]]
    spec = scenario_from_dict(doc)
    return dataclasses.replace(spec, vehicles=tuple(
        dataclasses.replace(v, s=s) if v.vid == vid else v for v in spec.vehicles))


def outputs(spec, out):
    """The bytes of trace.csv and events.log, and the run's report."""
    trace, report = Simulator(spec).run()
    out.mkdir()
    trace.write_csv(out / "trace.csv")
    report.write_events(out / "events.log")
    return (out / "trace.csv").read_bytes(), (out / "events.log").read_bytes(), report


def overstarted_failures(report) -> list:
    """The HardwareFailures starts that leave their vehicle with more starts
    than faults injected so far."""
    injected, starts, over = 0, Counter(), []
    for e in report.events:
        injected += e.kind is EventKind.FAULT_INJECTED
        if e.kind is EventKind.MANEUVER_START and e.subject == ManeuverState.HARDWARE_FAILURES:
            starts[e.vehicle] += 1
            if starts[e.vehicle] > injected:
                over.append(e.line())
    return over


@pytest.mark.parametrize("seed", SEEDS)
def test_a_generated_scenario_loads_runs_and_repeats(seed, tmp_path):
    try:
        spec = generated_spec(seed)
    except SpecError:
        return
    trace, events, report = outputs(spec, tmp_path / "a")
    assert (trace, events) == outputs(spec, tmp_path / "b")[:2]
    assert [e.line() for e in report.events if e.kind is EventKind.COLLISION and e.tick == 0] == []
    assert overstarted_failures(report) == []
    # no role edge leads into or out of Leader: the declared leader leads throughout
    (leader,) = [v.vid for v in spec.vehicles if v.role is Role.LEADER]
    header, *rows = csv.reader(io.StringIO(trace.decode()))
    roles = [j for j, name in enumerate(header) if name.endswith("_role")]
    for row in rows:
        assert [header[j] for j in roles if row[j] == Role.LEADER.value] == [f"v{leader}_role"]


# 9, 73 and 311 log the cloud's three drop notes; 35 (degradation on)
# collides, preempts a maneuver with HardwareFailures and takes over; 318
# and 1 reach a maneuver_timeout with degradation on and off
@pytest.mark.parametrize("seed", list(GOLDEN))
def test_a_generated_run_matches_its_golden_digests(seed, tmp_path):
    trace, events, _ = outputs(generated_spec(int(seed), 90.0), tmp_path / "out")
    assert {"trace_sha256": hashlib.sha256(trace).hexdigest(),
            "events_sha256": hashlib.sha256(events).hexdigest()} == GOLDEN[seed]


@pytest.mark.parametrize("seed", [327, 329])
def test_a_vehicle_freed_by_a_takeover_drops_another_vehicles_instruction(seed):
    # a follower took over while another vehicle's JoinTail instruction was
    # queued, started it as a free vehicle, and the leader stopped the run
    # with UnknownJoiner on its JoinFlag
    spec = overlapping_spec(seed, 8) if seed == 329 else generated_spec(seed)
    _, report = Simulator(spec).run()
    assert report.ticks == round(DURATION / 0.05)


@pytest.mark.parametrize("seed", [53, 93, 311])
def test_a_join_waits_until_the_last_joiner_is_in_the_platoon(seed):
    # the cloud issued a join while another was outstanding, the second
    # joiner flagged to a vehicle that was not the platoon's tail, and the
    # leader stopped the run with UnknownJoiner on its JoinFlag
    spec = generated_spec(seed) if seed == 311 else overlapping_spec(seed, 6)
    _, report = Simulator(spec).run()
    assert report.ticks == round(DURATION / 0.05)


def test_a_queued_join_whose_target_is_a_member_is_dropped():
    # seed 311 files two joins for v8; the cloud issued the second the tick
    # after v8 joined, and v1, v2 and v8 sat in JoinTail until the timeout
    _, report = Simulator(generated_spec(311, 90.0)).run()
    assert [e.subject.target for e in report.events
            if e.kind is EventKind.INSTRUCTION].count(8) == 1
    assert not [e for e in report.events if e.kind is EventKind.MANEUVER_TIMEOUT]


@pytest.mark.parametrize("seed, note", [
    (9, "t=13.250 v4 note leave dropped: not a platoon member"),
    (73, "t=5.000 v4 note JoinMiddle dropped: v3 is not a platoon member"),
])
def test_an_instruction_the_platoon_cannot_carry_out_is_dropped_with_a_note(seed, note):
    # seed 9 issued LeaveMiddle at free v4 and seed 73 a JoinMiddle before
    # free v3; every member started it and waited for the 60 s timeout
    _, report = Simulator(generated_spec(seed, 90.0)).run()
    assert note in [e.line() for e in report.events]
    assert not [e for e in report.events if e.kind is EventKind.MANEUVER_TIMEOUT]


def breakdown(seeds, duration: float = DURATION) -> Counter:
    """How the generated scenarios of ``seeds``, run for ``duration``
    seconds, end."""
    counts: Counter = Counter()
    for seed in seeds:
        try:
            spec = generated_spec(seed, duration)
        except SpecError as exc:
            counts["SpecError"] += 1
            counts["SpecError: " + re.sub(r"\d+", "N", str(exc))] += 1
            continue
        try:
            _, report = Simulator(spec).run()
        except TickError:
            counts["TickError"] += 1
            continue
        counts["full run"] += 1
        degradation = "on" if spec.degradation_enabled else "off"
        if report.collisions:
            counts[f"collision, degradation {degradation}"] += 1
        if any(e.kind is EventKind.MANEUVER_TIMEOUT for e in report.events):
            counts[f"maneuver_timeout, degradation {degradation}"] += 1
        if any(e.kind is EventKind.NOTE and " dropped: " in e.subject for e in report.events):
            counts["drop note"] += 1
    return counts


def paired(seeds, duration: float = DURATION) -> list:
    """Each loadable scenario of ``seeds`` that injects a fault, run for
    ``duration`` seconds with degradation on and then off: its seed, and
    per run the collision count and the first collision's time (None
    without one)."""
    rows = []
    for seed in seeds:
        try:
            spec = generated_spec(seed, duration)
        except SpecError:
            continue
        if not any(isinstance(e, FaultEvent) for e in spec.events):
            continue
        runs = [Simulator(dataclasses.replace(spec, degradation_enabled=on)).run()[1]
                for on in (True, False)]
        rows.append((seed, *[(len(r.collisions), r.collisions[0][0] if r.collisions else None)
                             for r in runs]))
    return rows


# the seeds of 0-399 where degradation on and off collide differently at 20 s
DEGRADATION_HELPS = [1, 32, 38, 61, 69, 89, 102, 106, 109, 145, 198, 228, 251, 253, 257, 265,
                     327, 372, 380, 398]
DEGRADATION_HURTS = {
    65: "a cut-in hits v4; v5, in HardwareFailures after its radar fault, then hits the "
        "intruder (ROADMAP item 4)",
    130: "not yet traced",
    290: "after v3's V2V fault and two TakeoverRequests, v2 hits v4 and v5 (ROADMAP item 4)",
    307: "not yet traced",
}


@pytest.mark.parametrize("seed", DEGRADATION_HELPS + [
    pytest.param(seed, marks=pytest.mark.xfail(strict=True, reason=reason))
    for seed, reason in DEGRADATION_HURTS.items()])
def test_degradation_on_collides_no_more_than_off(seed):
    """The paper's fault-tolerance claim: the fault-tolerant maneuvers keep
    the platoon at least as safe as running without them."""
    [(_, (on, _), (off, _))] = paired([seed])
    assert on <= off


def print_paired(rows) -> None:
    def run(count, first):
        return f"{count:2d} collision(s), first at " + ("-" if first is None else f"{first:.2f} s")

    for seed, on, off in rows:
        print(f"seed {seed:3d}  on: {run(*on):34s}  off: {run(*off)}")
    better = [seed for seed, on, off in rows if on[0] < off[0]]
    worse = [seed for seed, on, off in rows if on[0] > off[0]]
    print(f"{len(rows)} seeds inject a fault: {sum(on[0] > 0 for _, on, _ in rows)} collide "
          f"with degradation on, {sum(off[0] > 0 for _, _, off in rows)} off; on has fewer "
          f"collisions in {len(better)} seeds and more in {len(worse)}: "
          + (", ".join(map(str, worse)) or "none"))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="How generated runs end.")
    parser.add_argument("n", nargs="?", type=int, default=400, help="seeds 0..N-1")
    parser.add_argument("--duration", type=float, default=DURATION, metavar="S",
                        help=f"run length in seconds (default {DURATION:g})")
    parser.add_argument("--paired", action="store_true",
                        help="run each seed with a fault with degradation on and off")
    args = parser.parse_args()
    if args.paired:
        print_paired(paired(range(args.n), args.duration))
    else:
        counts = breakdown(range(args.n), args.duration)
        for key in ("SpecError", "full run", "TickError",
                    "collision, degradation on", "collision, degradation off",
                    "maneuver_timeout, degradation on", "maneuver_timeout, degradation off",
                    "drop note"):
            print(f"{key}: {counts[key]}")
        print("SpecError by message:")
        for key, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
            if key.startswith("SpecError: "):
                print(f"  {n:4d}  {key.removeprefix('SpecError: ')}")
