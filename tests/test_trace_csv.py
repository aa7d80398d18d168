"""trace.csv bytes: ``Trace.write_csv`` writes exactly what the plain
``csv.writer`` version below writes, on the trace of every bundled scenario,
of the benchmark's 80-vehicle platoon and of three pinned generated runs,
whose rows it writes with one line format per run of equal other cells, on
runs that come back, span blocks or end on one, on runs whose constant
float columns are baked into that format, and on synthetic recorded rows;
and ``TraceRows``,
the compact store of a trace, lays itself out by its column names and reads
back the rows recorded into it, every float column as ``float``."""

import csv
import dataclasses
import gc
import math
import sys
import tracemalloc
from pathlib import Path

import pytest

from platoonsim.core import ManeuverState, Role
from platoonsim.engine import Simulator, Trace, TraceRows
from platoonsim.management import ActiveInstruction, StrategyKey, StrategyOutput
from platoonsim.scenario import (
    RunSpec,
    ScenarioSpec,
    VehicleSpec,
    bundled_scenario,
    bundled_scenario_path,
    scenario_from_dict,
)
from platoonsim.strategies import CC, default_registry

BENCH = Path(__file__).resolve().parent.parent / "platoonbench"


def reference_write_csv(trace, path):
    """The writer before per-row format strings, kept as the reference."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(trace.columns)
        writer.writerows([f"{v:.6f}" if isinstance(v, float) else str(v)
                          for v in row] for row in trace.rows)


def assert_same_bytes(trace, tmp_path):
    trace.write_csv(tmp_path / "trace.csv")
    reference_write_csv(trace, tmp_path / "reference.csv")
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


BUNDLED = sorted(p.stem for p in bundled_scenario_path("steady").parent.glob("*.scenario"))


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_trace_matches_reference(name, tmp_path):
    trace, _ = Simulator(bundled_scenario(name)).run()
    assert_same_bytes(trace, tmp_path)


def test_degradation_off_trace_matches_reference(tmp_path):
    spec = dataclasses.replace(bundled_scenario("radar_fault"), degradation_enabled=False)
    trace, _ = Simulator(spec).run()
    assert_same_bytes(trace, tmp_path)


def test_platoon_n80_trace_matches_reference(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "harness", raising=False)
    import harness

    spec = scenario_from_dict(harness.platoon_n80_dict(harness.DEFAULT_SEED))
    trace, _ = Simulator(spec).run()
    assert_same_bytes(trace, tmp_path)


# the generated runs pinned in golden_generated.json whose lane changes,
# faults, collision, timeouts and standstills give runs the bundled ones lack
@pytest.mark.parametrize("seed", [35, 318, 1])
def test_generated_trace_matches_reference(seed, tmp_path):
    from test_generated_runs import generated_spec

    trace, _ = Simulator(generated_spec(seed, 90.0)).run()
    assert_same_bytes(trace, tmp_path)


# time, v1_s and v1_gap hold the float cells; v1_controller is the other cell
COLUMNS = ("tick", "time", "v1_s", "v1_controller", "v1_gap")


def in_columns(tick, floats, others):
    return (tick, floats[0], floats[1], others[0], floats[2])


def recorded_trace(recorded):
    """A trace of COLUMNS holding ``(tick, floats, others)`` records, whose
    ticks count from 0."""
    trace = Trace("hash", COLUMNS)
    for _, floats, others in recorded:
        trace.rows.record(floats, others)
    return trace


def store(recorded):
    return recorded_trace(recorded).rows


PLAIN = (0, [0.05, 400.0, 13.0], ["CC@20.00"])

RECORDS = {
    "int_in_a_float_column_on_some_rows": [
        PLAIN, (1, [0.1, 3, 2.5], ["ACC"]), (2, [0.15, 3.5, 4], ["ACC"]),
        (3, [0.2, 401.0, 13.0], ["ACC"])],
    "empty_string": [(0, [0.05, 3.0, 1.0], [""])],
    "negative_zero": [(0, [-0.0, -0.0, 0.0], ["CC@-0.00"])],
    "nan_and_infinities": [(0, [math.nan, math.inf, -math.inf], ["x"])],
    "huge_float": [(0, [1e300, -1e300, 5e-324], ["x"])],
}


@pytest.mark.parametrize("case", RECORDS)
def test_synthetic_rows_match_reference(case, tmp_path):
    assert_same_bytes(recorded_trace(RECORDS[case]), tmp_path)


def test_all_synthetic_rows_in_one_trace_match_reference(tmp_path):
    assert_same_bytes(recorded_trace([r for case in RECORDS.values() for r in case]), tmp_path)


def test_empty_trace_is_the_header_only(tmp_path):
    trace = Trace("hash", COLUMNS)
    assert_same_bytes(trace, tmp_path)
    assert (tmp_path / "trace.csv").read_bytes() == b"tick,time,v1_s,v1_controller,v1_gap\r\n"


# ---------------------------------------------------------------------------
# TraceRows: the compact store of a trace
# ---------------------------------------------------------------------------

TWO_VEHICLES = ("tick", "time", *(f"v{vid}_{name}" for vid in (1, 2) for name in (
    "s", "lane", "v", "a", "controller", "maneuver", "role", "gap", "psize")))


def test_the_column_names_lay_out_the_store(tmp_path):
    """``time`` and each vehicle's s, v, a and gap read back as ``float``,
    whatever was recorded into them; every other cell reads back as it was
    recorded, in column order."""
    trace = Trace("hash", TWO_VEHICLES)
    floats = [1, 400, 20, 0, 13, 382, 20.0, -0.5, True]
    others = [1, "CC@20.00", "Platooning", "leader", 2, 1, "CACC", "Platooning", "follower", 2]
    trace.rows.record(floats, others)
    row = trace.rows[0]
    float_names = {"time"} | {f"v{vid}_{name}" for vid in (1, 2) for name in "s v a gap".split()}
    assert [name for name, cell in zip(TWO_VEHICLES, row) if type(cell) is float] == [
        name for name in TWO_VEHICLES if name in float_names]
    assert repr(row) == repr((0, 1.0, 400.0, 1, 20.0, 0.0, "CC@20.00", "Platooning", "leader",
                              13.0, 2, 382.0, 1, 20.0, -0.5, "CACC", "Platooning", "follower",
                              1.0, 2))
    assert_same_bytes(trace, tmp_path)


def plain(i):
    return i, [0.05 * (i + 1), 400.0 + i / 3.0, 13.0 - i], ["CC@20.00" if i % 7 else "ACC"]


def test_a_free_vehicle_at_standstill_writes_its_int_position_as_a_float(tmp_path):
    vehicles = (VehicleSpec(vid=1, s=400.0, lane=1, v=20.0, role=Role.LEADER),
                VehicleSpec(vid=2, s=100, lane=0, v=0, role=Role.FREE_VEHICLE))
    spec = ScenarioSpec(name="parked", run=RunSpec(dt=0.05, duration=1.0), vehicles=vehicles)
    trace, _ = Simulator(spec).run()
    assert {type(row[trace.columns.index("v2_s")]) for row in trace.rows} == {float}
    assert_same_bytes(trace, tmp_path)
    assert b",100.000000,0," in (tmp_path / "trace.csv").read_bytes()


def test_extreme_floats_round_trip(tmp_path):
    extremes = [-0.0, math.nan, math.inf, -math.inf, 1e300, -1e300, 5e-324]
    recorded = [(i, [x, -x, 0.0], ["x"]) for i, x in enumerate(extremes)]
    trace = recorded_trace(recorded)
    assert [repr(r) for r in trace.rows] == [repr(in_columns(*r)) for r in recorded]
    assert_same_bytes(trace, tmp_path)
    assert b"0,-0.000000,0.000000,x,0.000000" in (tmp_path / "trace.csv").read_bytes()


# more rows than one block of the writer and of iteration
BLOCK_SPANNING = [plain(i) for i in range(7000)]


def test_indexing_and_slicing_match_a_list():
    rows = store(BLOCK_SPANNING)
    expected = [in_columns(*r) for r in BLOCK_SPANNING]
    assert len(rows) == len(expected) and list(rows) == expected
    for i in (0, 1, 3276, 6999, -1, -7000):
        assert rows[i] == expected[i]
    for i in (7000, -7001):
        with pytest.raises(IndexError):
            rows[i]
    for cut in (slice(None), slice(-5, None), slice(3270, 3290), slice(None, None, 3),
                slice(10, 2, -2), slice(None, None, -1), slice(5, 5), slice(9000, None)):
        assert rows[cut] == expected[cut]


def test_a_store_equals_only_a_store_of_its_layout_and_cells():
    rows = store(BLOCK_SPANNING[:50])
    assert rows == store(BLOCK_SPANNING[:50]) and rows != store(BLOCK_SPANNING[:49])
    changed = BLOCK_SPANNING[:49] + [(49, BLOCK_SPANNING[49][1][:2] + [0.0], ["ACC"])]
    assert rows != store(changed) and store(changed) != rows
    assert rows != list(rows) and list(rows) != rows and rows != tuple(rows)
    # v1_gap as an other cell: the same rows in another layout
    other_layout = TraceRows(COLUMNS[:-1] + ("v1_gap_text",))
    for _, floats, others in BLOCK_SPANNING[:50]:
        other_layout.record(floats[:2], others + floats[2:])
    assert list(other_layout) == list(rows)
    assert rows != other_layout and other_layout != rows
    # the same stored cells, v1_gap moved before v1_controller: rows read back differently
    moved = TraceRows(("tick", "time", "v1_s", "v1_gap", "v1_controller"))
    for _, floats, others in BLOCK_SPANNING[:50]:
        moved.record(floats, others)
    assert rows != moved and moved != rows


def test_a_block_spanning_store_writes_like_the_reference(tmp_path):
    assert_same_bytes(recorded_trace(BLOCK_SPANNING), tmp_path)


# ---------------------------------------------------------------------------
# Runs of rows that share their other cells, and the writer's blocks
# ---------------------------------------------------------------------------

SLOW = ManeuverState.extension("Slow%d")


class Slow:
    """Holds a slower cruise until tick 20, then is done."""

    def step(self, ctx, progress):
        if progress.phase == "init":
            progress.advance("running")
        return StrategyOutput(controller=CC(ctx.params.platoon_speed - 2.0),
                              maneuver_done=ctx.tick >= 20)


def test_a_maneuver_name_holding_a_percent_sign_is_written_as_it_is(tmp_path):
    registry = default_registry()
    registry.register(StrategyKey(SLOW, Role.FOLLOWER), Slow())
    sim = Simulator(bundled_scenario("steady"), registry)
    sim.runtimes[2].manager.offer_instruction(ActiveInstruction(maneuver=SLOW, target=2))
    trace, _ = sim.run()
    column = trace.columns.index("v2_maneuver")
    assert {row[column] for row in trace.rows} == {"Slow%d", "Platooning"}
    assert_same_bytes(trace, tmp_path)
    assert b",Slow%d," in (tmp_path / "trace.csv").read_bytes()


BLOCK = 16384 // len(COLUMNS)  # rows in one block of the writer


def runs(*lengths):
    """Records in runs of the given lengths, the other cells alternating
    between two labels, one of them holding ``%`` signs."""
    recorded, tick = [], 0
    for k, length in enumerate(lengths):
        for _ in range(length):
            i, floats, _ = plain(tick)
            recorded.append((i, floats, ["A%s%%" if k % 2 == 0 else "B"]))
            tick += 1
    return recorded


@pytest.mark.parametrize("lengths", [
    (3, 2, 4, 1),                # A, B, A, B: a run's cells come back after another run
    (3 * BLOCK + 17,),           # one run longer than three blocks
    (BLOCK, 5),                  # a run that ends on a block boundary
    (BLOCK - 2, BLOCK + 2, 2 * BLOCK, 1),
    (),
], ids=["alternating", "one_long_run", "run_ends_on_a_block", "runs_across_blocks", "empty"])
def test_runs_and_blocks_write_like_the_reference(lengths, tmp_path):
    recorded = runs(*lengths)
    trace = recorded_trace(recorded)
    assert list(trace.rows) == [in_columns(*r) for r in recorded]
    assert_same_bytes(trace, tmp_path)


def test_no_string_of_the_writer_holds_more_than_a_block_of_rows():
    rows = store(runs(3 * BLOCK + 17, 4, BLOCK))
    assert max(text.count("\r\n") for text in rows.csv_blocks()) == BLOCK
    assert sum(text.count("\r\n") for text in rows.csv_blocks()) == len(rows)


def test_writing_a_run_per_row_holds_about_one_block_of_lines(tmp_path):
    """Other cells that change on every row, as a joiner's ``DRIVER@`` label
    can: the writer still holds one block of lines at a time, not a line
    format per run."""
    label = "DRIVER@" + "x" * 100
    trace = recorded_trace([(i, floats, [f"{label}{i}"])
                            for i, floats, _ in map(plain, range(4 * BLOCK))])
    block_chars = len(next(trace.rows.csv_blocks()))
    gc.collect()
    tracemalloc.start()
    try:
        trace.write_csv(tmp_path / "trace.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * block_chars
    assert_same_bytes(trace, tmp_path)


# ---------------------------------------------------------------------------
# Float columns constant over a run, baked into its line format
# ---------------------------------------------------------------------------

# five float columns, so a run bakes once its constant cells exceed 40
WIDE = ("tick", "time", "v1_s", "v1_v", "v1_a", "v1_controller", "v1_gap")
WIDE_BLOCK = 16384 // len(WIDE)


def wide_trace(*runs):
    """A trace of WIDE: each run is (label, length, cells), ``cells(i)``
    giving v1_s, v1_v, v1_a and v1_gap of row i; ``time`` always varies."""
    trace, i = Trace("hash", WIDE), 0
    for label, length, cells in runs:
        for _ in range(length):
            trace.rows.record([0.05 * (i + 1), *cells(i)], [label])
            i += 1
    return trace


def varying(i):
    return [400.0 + i / 3.0, 20.0 - i / 7.0, 0.1 * (i % 5), 13.0 + i / 11.0]


WIDE_CASES = {
    # v1_v constant, then varying, then constant at another value; in the
    # middle run v1_a is back at its first value on the last row
    "constant_then_varying": [
        ("A", 40, lambda i: [400.0 + i, 20.0, 0.0, 13.0]),
        ("B", 40, lambda i: [450.0, 20.0 + i / 9.0, 0.0 if i in (40, 79) else 0.5, 13.0]),
        ("A", 40, lambda i: [500.0 + i, 17.5, 0.0, 12.0])],
    # v1_s is -0.0 then 0.0: equal, not byte-equal; v1_v a NaN throughout
    "negative_zero_then_zero_and_nan": [
        ("A", 40, lambda i: [-0.0 if i < 20 else 0.0, math.nan, 1.5, 2.0])],
    "infinities": [("A", 40, lambda i: [math.inf, -math.inf, 0.1 * i, math.inf])],
    # every float column but time constant, the gap a negative zero
    "standstill": [("A", 3, varying), ("Stop", 40, lambda i: [250.0, 0.0, 0.0, -0.0]),
                   ("A", 3, varying)],
    # a run across the block boundary: long on both sides, then short before it
    "across_a_block": [("A", WIDE_BLOCK - 20, varying),
                       ("B", 60, lambda i: [250.0, 0.0, 0.0, 5.0])],
    "few_rows_before_a_block": [("A", WIDE_BLOCK - 5, varying),
                                ("B", 45, lambda i: [250.0, 0.0, 0.0, 5.0])],
    # runs of one row among constant cells, between runs that bake
    "runs_of_one_row": [("A", 40, lambda i: [250.0, 0.0, 0.0, 5.0]),
                        ("B", 1, lambda i: [250.0, 0.0, 0.0, 5.0]),
                        ("C", 1, lambda i: [250.0, 0.0, 0.0, 5.0]),
                        ("A", 40, lambda i: [250.0, 0.0, 0.0, 5.0])],
}


@pytest.mark.parametrize("case", WIDE_CASES)
def test_constant_float_columns_write_like_the_reference(case, tmp_path):
    assert_same_bytes(wide_trace(*WIDE_CASES[case]), tmp_path)


def test_a_negative_zero_and_a_zero_in_one_run_keep_their_signs(tmp_path):
    trace = wide_trace(*WIDE_CASES["negative_zero_then_zero_and_nan"])
    trace.write_csv(tmp_path / "trace.csv")
    lines = (tmp_path / "trace.csv").read_bytes().splitlines()
    assert lines[1].startswith(b"0,0.050000,-0.000000,nan,1.500000,A,2.000000")
    assert lines[21].startswith(b"20,1.050000,0.000000,nan,1.500000,A,2.000000")


def test_writing_mostly_constant_columns_holds_about_one_block_of_lines(tmp_path):
    """A parked fleet: of 41 float columns only time and one position vary,
    in runs of 500 rows; the writer still holds about one block of lines."""
    columns = ("tick", "time", *(f"v{vid}_{name}" for vid in range(1, 11)
                                 for name in ("s", "v", "a", "controller", "gap")))
    trace = Trace("hash", columns)
    for i in range(4 * (16384 // len(columns))):
        trace.rows.record([0.05 * (i + 1), 400.0 + i / 3.0, *[20.0, 0.0, 13.0],
                           *[100.0, 0.0, 0.0, 0.0] * 9], [f"L{i // 500}"] * 10)
    block_chars = len(next(trace.rows.csv_blocks()))
    gc.collect()
    tracemalloc.start()
    try:
        trace.write_csv(tmp_path / "trace.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * block_chars
    assert_same_bytes(trace, tmp_path)
