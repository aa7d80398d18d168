"""Golden trace digests: every bundled scenario must reproduce its recorded
trace.csv bit for bit, plus its tick, collision, completion, takeover and
event counts.

The digests live in platoonbench/golden.json, which the benchmark also
checks; this test only reads it. A ``.off`` leg is the same scenario run
with degradation disabled.
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


def test_golden_covers_every_bundled_scenario():
    root = bundled_scenario_path("steady").parent
    bundled = {p.stem for p in root.glob("*.scenario")}
    assert {leg.removesuffix(".off") for leg in LEGS} == bundled


@pytest.mark.parametrize("leg", LEGS)
def test_bundled_leg_matches_golden(leg, tmp_path):
    name, _, off = leg.partition(".")
    spec = bundled_scenario(name)
    if off:
        spec = dataclasses.replace(spec, degradation_enabled=False)
    trace, report = Simulator(spec).run()
    trace.write_csv(tmp_path / "trace.csv")
    golden = GOLDEN[leg]
    assert hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest() \
        == golden["trace_sha256"]
    assert report.ticks == golden["ticks"]
    assert len(report.collisions) == golden["collisions"]
    assert len(report.completions) == golden["completions"]
    assert len(report.takeovers) == golden["takeovers"]
    assert len(report.events) == golden["events"]
