"""Memory an engine trace holds, and what writing it adds.

A trace keeps its float cells in one array and shares a row's other cells
with the previous row when they are equal, so a steady platoon's trace
costs a few bytes per cell; the guards below hold that figure and the
peak of ``Trace.write_csv``, which reads the rows in blocks.

Run as a script,
``PYTHONPATH=src python3 tests/test_trace_memory.py [N ...] [--duration S]``
prints, for a steady one-lane platoon of each N vehicles (default 10 40 160)
run for S seconds (default 10), the trace's rows and cells, the memory that
dropping the trace frees (MB) and that per cell, under ``tracemalloc``.
"""

import argparse
import gc
import sys
import tracemalloc
from pathlib import Path

from platoonsim.core import Role
from platoonsim.engine import Simulator
from platoonsim.scenario import RunSpec, ScenarioSpec, VehicleSpec, scenario_from_dict

BENCH = Path(__file__).resolve().parent.parent / "platoonbench"


def steady_spec(n: int, duration: float) -> ScenarioSpec:
    """A one-lane platoon of ``n`` vehicles 20 m apart at 20 m/s."""
    vehicles = tuple(
        VehicleSpec(vid=i, s=500.0 + 20.0 * (n - i), lane=1, v=20.0,
                    role=Role.LEADER if i == 1 else Role.FOLLOWER)
        for i in range(1, n + 1))
    return ScenarioSpec(name=f"steady_{n}", run=RunSpec(dt=0.05, duration=duration),
                        vehicles=vehicles)


def trace_footprint(spec: ScenarioSpec) -> tuple[int, int, int]:
    """(rows, cells, bytes) of the trace a run of ``spec`` returns, the
    bytes being what ``del trace`` frees under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        trace, _ = Simulator(spec).run()
        rows, cells = len(trace.rows), len(trace.rows) * len(trace.columns)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del trace
        gc.collect()
        return rows, cells, held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_steady_platoon_trace_holds_at_most_6_bytes_per_cell():
    rows, cells, freed = trace_footprint(steady_spec(40, 10.0))
    assert rows == 200 and cells == 200 * (2 + 9 * 40)
    assert freed / cells <= 6.0


def test_writing_the_platoon_n80_trace_peaks_under_1_5_mb(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "harness", raising=False)
    import harness

    spec = scenario_from_dict(harness.platoon_n80_dict(harness.DEFAULT_SEED))
    trace, _ = Simulator(spec).run()
    gc.collect()
    tracemalloc.start()
    try:
        trace.write_csv(tmp_path / "trace.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int, nargs="*", default=[10, 40, 160])
    parser.add_argument("--duration", type=float, default=10.0)
    args = parser.parse_args()
    print(f"{'N':>6} {'rows':>6} {'cells':>11} {'trace MB':>9} {'B/cell':>7}")
    for n in args.n:
        rows, cells, freed = trace_footprint(steady_spec(n, args.duration))
        print(f"{n:>6} {rows:>6} {cells:>11,} {freed / 1e6:>9.2f} {freed / cells:>7.2f}")


if __name__ == "__main__":
    main()
