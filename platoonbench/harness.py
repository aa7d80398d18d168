"""Workloads, timed passes and golden-output checks of the platoonsim benchmark.

Each scenario run ("leg") goes through the public API the CLI uses:
``load_scenario`` or ``scenario_from_dict``, ``Simulator(spec).run(observer)``,
then ``Trace.write_csv``, ``RunReport.to_text`` and ``RunReport.write_events``.
A pass runs every leg of a workload once, one simulator at a time.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import random
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Optional, Sequence

from platoonsim import engine, scenario

from tracer import Tracer

GOLDEN_PATH = Path(__file__).with_name("golden.json")
DEFAULT_SEED = 0

N80_VEHICLES = 80
N80_DURATION_S = 5.0  # 100 ticks at the default dt of 0.05 s
# Degradation-off legs mirror `platoon-sim run --no-degradation`.
NO_DEGRADATION = ("v2v_fault", "radar_fault")


@dataclass(frozen=True)
class Leg:
    name: str
    load: Callable[[], scenario.ScenarioSpec]


def platoon_n80_dict(seed: int) -> dict:
    """A steady one-lane platoon of 80 vehicles as a ``scenario_from_dict``
    input. The seed moves each gap by at most 1 m around 20 m and each speed
    by at most 0.5 m/s around 20 m/s: even uncontrolled, no two vehicles
    close more than 5 m in the 5 s run, against at least 14 m of clearance."""
    rng = random.Random(seed)
    vehicles = []
    s = 3000.0
    for i in range(N80_VEHICLES):
        if i:
            s -= 20.0 + round(rng.uniform(-1.0, 1.0), 3)
        vehicles.append({"id": i + 1, "s": round(s, 3), "lane": 1,
                         "v": round(20.0 + rng.uniform(-0.5, 0.5), 3),
                         "role": "leader" if i == 0 else "follower"})
    return {"name": "platoon_n80", "run": {"dt": 0.05, "duration": N80_DURATION_S},
            "vehicles": vehicles}


def _bundled_leg(name: str, degradation: bool = True) -> Leg:
    path = scenario.bundled_scenario_path(name)
    if degradation:
        return Leg(name, lambda: scenario.load_scenario(path))
    return Leg(f"{name}.off", lambda: dataclasses.replace(
        scenario.load_scenario(path), degradation_enabled=False))


def bundled_legs() -> list[Leg]:
    """Every bundled scenario, plus the degradation-off legs."""
    root = scenario.bundled_scenario_path("steady").parent
    legs = []
    for name in sorted(p.stem for p in root.glob("*.scenario")):
        legs.append(_bundled_leg(name))
        if name in NO_DEGRADATION:
            legs.append(_bundled_leg(name, degradation=False))
    return legs


def workload_legs(workload: str, seed: int, input_dir: Path) -> list[Leg]:
    """The legs of a workload. platoon_n80 is written to a scenario file in
    ``input_dir`` and loaded from there, as `platoon-sim run` would."""
    if workload == "platoon_n80":
        input_dir.mkdir(parents=True, exist_ok=True)
        path = input_dir / "platoon_n80.scenario"
        path.write_text(json.dumps(platoon_n80_dict(seed), indent=1))
        return [Leg("platoon_n80", lambda: scenario.load_scenario(path))]
    if workload == "integrated":
        return [_bundled_leg("integrated")]
    if workload == "bundled_suite":
        return [leg for leg in bundled_legs() if leg.name != "integrated"]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("platoon_n80", "integrated", "bundled_suite")


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------

@dataclass
class LegResult:
    name: str
    setup_ns: int = 0
    write_ns: tuple[int, ...] = ()  # the pass's own write, then WRITE_REPS more
    vehicle_ticks: int = 0
    tick_ns: tuple[int, ...] = ()  # tick 0 starts when run() is called
    tail_ns: int = 0  # run() after the observer saw the last tick
    stats: Optional[dict] = None
    error: Optional[str] = None


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# Untraced extra writes of each leg's outputs: a leg's writing is one unit of
# 0.03-0.3 s, and one sample per pass is too few for a steady fastest reading.
WRITE_REPS = 3


def write_outputs(trace: engine.Trace, report: engine.RunReport, out: Path) -> int:
    """Write the three files `platoon-sim run` writes; returns nanoseconds."""
    t0 = perf_counter_ns()
    trace.write_csv(out / "trace.csv")
    (out / "report.txt").write_text(report.to_text())
    report.write_events(out / "events.log")
    return perf_counter_ns() - t0


def run_leg(leg: Leg, out_dir: Path, tracer: Optional[Tracer] = None) -> LegResult:
    """Load, run and write one leg, timing each phase; never raises."""
    result = LegResult(leg.name)
    out = out_dir / leg.name
    out.mkdir(parents=True, exist_ok=True)
    stamps: list[int] = []
    observer = tracer.observe if tracer is not None \
        else (lambda _sim, _tick: stamps.append(perf_counter_ns()))
    copies_before = tracer.counters["comms.MessageBus.deliver.copies"] if tracer else 0
    try:
        t0 = perf_counter_ns()
        spec = leg.load()
        sim = engine.Simulator(spec)
        t1 = perf_counter_ns()
        trace, report = sim.run(observer)
        t2 = perf_counter_ns()
        result.write_ns = tuple(write_outputs(trace, report, out) for _ in
                                range(1 if tracer is not None else 1 + WRITE_REPS))
    except Exception as exc:  # a failed leg is counted, not fatal
        traceback.print_exc()
        result.error = f"{type(exc).__name__}: {exc}"
        return result
    result.setup_ns = t1 - t0
    result.vehicle_ticks = len(spec.vehicles) * report.ticks
    result.tick_ns = tuple(b - a for a, b in zip([t1] + stamps, stamps))
    result.tail_ns = t2 - (stamps[-1] if stamps else t1)
    result.stats = {
        "trace_sha256": sha256_file(out / "trace.csv"),
        "ticks": report.ticks,
        "collisions": len(report.collisions),
        "completions": len(report.completions),
        "takeovers": len(report.takeovers),
        "events": len(report.events),
    }
    if tracer is not None:
        result.stats["bus_copies"] = \
            tracer.counters["comms.MessageBus.deliver.copies"] - copies_before
    return result


def setup_once(leg: Leg) -> int:
    """Nanoseconds to load a leg's scenario and build its simulator."""
    t0 = perf_counter_ns()
    engine.Simulator(leg.load())
    return perf_counter_ns() - t0


def run_pass(legs: list[Leg], out_dir: Path,
             tracer: Optional[Tracer] = None) -> list[LegResult]:
    gc.collect()
    return [run_leg(leg, out_dir, tracer) for leg in legs]


# ---------------------------------------------------------------------------
# Golden outputs
# ---------------------------------------------------------------------------

def load_golden() -> dict[str, dict]:
    return json.loads(GOLDEN_PATH.read_text())


def check_leg(result: LegResult, seed: int, golden: dict[str, dict],
              first: dict[str, dict]) -> Optional[str]:
    """Why a leg's run failed, or None. platoon_n80 is pinned at the default
    seed only; at other seeds the run must repeat the first pass's outputs
    and stay collision-free."""
    if result.error is not None:
        return result.error
    stats = result.stats
    if result.name != "platoon_n80" or seed == DEFAULT_SEED:
        expected = golden[result.name]
    else:
        expected = first.setdefault(result.name, stats)
        if stats["collisions"]:
            return f"{stats['collisions']} collision(s) in a collision-free platoon"
    diff = [f"{k}={stats[k]} (expected {expected[k]})"
            for k in stats if k in expected and stats[k] != expected[k]]
    return "; ".join(diff) or None


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

class Envelope:
    """Fastest repetition of each unit of work across the passes of a run.

    A unit is one leg's set-up, one tick index, the rest of ``run()`` after
    the last tick, or one leg's writing. Each does the same work on every
    pass (the golden check pins the outputs), while the host's speed swings
    by up to 70% for periods longer than a run; the fastest repetition of
    each unit is the reading of the program's own cost that the host
    disturbs least. Timings are sums of these readings.
    """

    def __init__(self) -> None:
        self.units: dict[tuple[str, str], list[int]] = {}

    def add(self, leg: str, phase: str, values: Sequence[int]) -> None:
        best = self.units.get((leg, phase))
        if best is None or len(best) != len(values):
            # a leg whose tick count changed fails its golden check anyway
            self.units[(leg, phase)] = list(values)
        else:
            self.units[(leg, phase)] = list(map(min, best, values))

    def add_pass(self, results: list[LegResult]) -> None:
        for r in results:
            if r.stats is None:
                continue
            self.add(r.name, "setup", [r.setup_ns])
            self.add(r.name, "ticks", r.tick_ns)
            self.add(r.name, "tail", [r.tail_ns])
            for ns in r.write_ns:
                self.add(r.name, "write", [ns])

    def total(self, *phases: str) -> int:
        return sum(sum(v) for (_, phase), v in self.units.items() if phase in phases)

    def ticks(self) -> list[int]:
        return [t for (_, phase), v in self.units.items() if phase == "ticks" for t in v]


# platoon_n80 runs 100 ticks, so p90 is the highest percentile with ten ticks
# beyond it on every workload.
TAIL_PERCENTILE = 90.0


def tick_tail_ns(env: Envelope) -> int:
    """Nearest-rank TAIL_PERCENTILE of the fastest reading of every tick."""
    ticks = sorted(env.ticks())
    return ticks[max(0, math.ceil(TAIL_PERCENTILE / 100.0 * len(ticks)) - 1)]
