"""Golden trace digests: every bundled scenario must reproduce its recorded
trace.csv and events.log bit for bit, plus its tick, collision, completion,
takeover and event counts.

The trace digests live in platoonbench/golden.json, which the benchmark
also checks; this test only reads it. The events.log digests live in
golden_events.json next to this file. A ``.off`` leg is the same scenario
run with degradation disabled.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from platoonsim.engine import Simulator
from platoonsim.scenario import bundled_scenario, bundled_scenario_path

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "platoonbench" / "golden.json").read_text())
LEGS = sorted(name for name in GOLDEN if name != "platoon_n80")
GOLDEN_EVENTS = json.loads(
    (Path(__file__).resolve().parent / "golden_events.json").read_text())


def test_golden_covers_every_bundled_scenario():
    root = bundled_scenario_path("steady").parent
    bundled = {p.stem for p in root.glob("*.scenario")}
    assert {leg.removesuffix(".off") for leg in LEGS} == bundled
    assert sorted(GOLDEN_EVENTS) == LEGS


@pytest.mark.parametrize("leg", LEGS)
def test_bundled_leg_matches_golden(leg, tmp_path):
    name, _, off = leg.partition(".")
    spec = bundled_scenario(name)
    if off:
        spec = dataclasses.replace(spec, degradation_enabled=False)
    trace, report = Simulator(spec).run()
    trace.write_csv(tmp_path / "trace.csv")
    report.write_events(tmp_path / "events.log")
    golden = GOLDEN[leg]
    assert hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest() \
        == golden["trace_sha256"]
    assert hashlib.sha256((tmp_path / "events.log").read_bytes()).hexdigest() \
        == GOLDEN_EVENTS[leg]
    assert report.ticks == golden["ticks"]
    assert len(report.collisions) == golden["collisions"]
    assert len(report.completions) == golden["completions"]
    assert len(report.takeovers) == golden["takeovers"]
    assert len(report.events) == golden["events"]
