"""Self-checks of the benchmark harness.

    python3 -m pytest platoonbench
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from tracer import Tracer  # noqa: E402

from platoonsim import cli, scenario  # noqa: E402

# cut_in drives IntruderScript; v2v_fault.off refuses sends and zeroes views
LEGS = [leg for leg in harness.bundled_legs() if leg.name in ("cut_in", "v2v_fault.off")]


def _traced(legs, out_dir):
    with Tracer() as tracer:
        results = [harness.run_leg(leg, out_dir, tracer) for leg in legs]
    return results, tracer.summary()


def test_platoon_n80_generator_is_seeded(tmp_path):
    spec = scenario.scenario_from_dict(harness.platoon_n80_dict(7))
    assert spec == scenario.scenario_from_dict(harness.platoon_n80_dict(7))
    assert harness.workload_legs("platoon_n80", 7, tmp_path)[0].load() == spec
    assert spec != scenario.scenario_from_dict(harness.platoon_n80_dict(8))
    assert len(spec.vehicles) == harness.N80_VEHICLES
    for front, back in zip(spec.vehicles, spec.vehicles[1:]):
        assert 19.0 <= front.s - back.s <= 21.0
    assert all(19.5 <= v.v <= 20.5 for v in spec.vehicles)


def test_traced_run_gives_the_untraced_digest(tmp_path):
    golden = harness.load_golden()
    untraced = [harness.run_leg(leg, tmp_path / "plain") for leg in LEGS]
    traced, summary = _traced(LEGS, tmp_path / "traced")
    for plain, with_spans in zip(untraced, traced):
        assert plain.error is None and with_spans.error is None
        assert with_spans.stats == golden[plain.name]
        assert plain.stats == {k: v for k, v in golden[plain.name].items()
                               if k != "bus_copies"}
    assert summary["cloud.IntruderScript.step.calls"] > 0
    assert summary["comms.MessageBus.send.refused"] > 0
    assert summary["comms.v2v_payload.zeroed"] > 0


def test_wrapper_passes_exceptions_through_and_counts_stale():
    from platoonsim import comms, controllers, engine
    from platoonsim.core import Role
    reading = comms.RadarReading(True, 20.0, 0.0)
    peer = comms.PeerView(s=0.0, v=20.0, a=0.0, length=5.0, role=Role.FOLLOWER,
                          platoon=None, age_ticks=50)
    policy, gains = controllers.SpacingPolicy(), controllers.GainSet()
    with Tracer() as tracer:
        with pytest.raises(controllers.StaleData):
            engine.cacc(reading, peer, 20.0, policy, gains, controllers.PidState(),
                        0.05, stale_after_ticks=10)
        traced = engine.cacc(reading, peer, 20.0, policy, gains,
                             controllers.PidState(), 0.05)
    assert traced == controllers.cacc(reading, peer, 20.0, policy, gains,
                                      controllers.PidState(), 0.05)
    summary = tracer.summary()
    assert summary["controllers.cacc.calls"] == 2
    assert summary["controllers.cacc.stale"] == 1


def test_traced_counts_repeat_and_account_for_run(tmp_path):
    counts = []
    for i in range(2):
        _, summary = _traced(LEGS, tmp_path / str(i))
        assert summary["trace.unaccounted_ns"] == 0
        counts.append({k: v for k, v in summary.items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert counts[0]["engine.ticks"] == sum(
        harness.load_golden()[leg.name]["ticks"] for leg in LEGS)


def test_tracer_restores_the_program():
    from platoonsim import engine
    before = (engine.radar_sense, engine.Simulator.run, scenario.load_scenario)
    with Tracer():
        assert engine.radar_sense is not before[0]
    assert (engine.radar_sense, engine.Simulator.run, scenario.load_scenario) == before


@pytest.mark.parametrize("leg", harness.bundled_legs(), ids=lambda leg: leg.name)
def test_golden_matches_platoon_sim_run(leg, tmp_path):
    name, _, off = leg.name.partition(".")
    argv = ["run", str(scenario.bundled_scenario_path(name)), "--out", str(tmp_path)]
    cli.main(argv + (["--no-degradation"] if off else []))
    digest = hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()
    assert digest == harness.load_golden()[leg.name]["trace_sha256"]


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "platoonbench", tmp_path / "platoonbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "platoonbench/run.py", "--workload", "integrated",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_golden_mismatch_fails_the_run(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "platoonbench", tmp_path / "platoonbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    golden = harness.load_golden()
    golden["integrated"]["events"] += 1
    (tmp_path / "platoonbench" / "golden.json").write_text(json.dumps(golden))
    proc = subprocess.run(
        [sys.executable, "platoonbench/run.py", "--workload", "integrated",
         "--seed", "0", "--seconds", "0", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "FAILED integrated" in proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"] == 3


def test_platoon_n80_at_another_seed_checks_itself_and_prints_its_digest():
    proc = subprocess.run(
        [sys.executable, "platoonbench/run.py", "--workload", "platoon_n80",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("digest platoon_n80: ")
    assert lines[0] != "digest platoon_n80: " + \
        harness.load_golden()["platoon_n80"]["trace_sha256"]
    result = json.loads(lines[-1])
    assert result["correct"] and result["attempted"] == 3
    assert set(result["metrics"]) == {
        m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def test_traced_run_prints_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, "platoonbench/run.py", "--workload", "integrated",
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] == 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in declared)
