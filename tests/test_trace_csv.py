"""trace.csv bytes: ``Trace.write_csv`` writes exactly what the plain
``csv.writer`` version below writes, on the trace of every bundled scenario
and of the benchmark's 80-vehicle platoon, and on rows built to reach each
branch of its per-row format strings."""

import csv
import dataclasses
import math
import sys
from pathlib import Path

import pytest

from platoonsim.engine import Simulator, Trace
from platoonsim.scenario import bundled_scenario, bundled_scenario_path, scenario_from_dict

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


class Tagged(float):
    """A float whose formatting is its own: only the reference path keeps it."""

    def __format__(self, spec):
        return "tagged"


class Count(int):
    def __str__(self):
        return "count"


COLUMNS = ("tick", "time", "v1_s", "v1_controller", "v1_gap")
PLAIN = (0, 0.05, 400.0, "CC@20.00", 13.0)

ROWS = {
    "int_in_a_float_column_on_some_rows": [
        PLAIN, (1, 0.1, 3, "ACC", 2.5), (2, 0.15, 3.5, "ACC", 4),
        (3, 0.2, 401.0, "ACC", 13.0)],
    "bool": [PLAIN, (1, True, False, "ACC", 1.0)],
    "none": [PLAIN, (1, 0.1, None, "ACC", None)],
    "comma": [(0, 0.05, 3, "A,B", 1.0 / 3.0)],
    "quote": [(0, 0.05, 3.0, 'say "hi"', 1.0)],
    "carriage_return": [(0, 0.05, 3.0, "a\rb", 1.0)],
    "newline": [(0, 0.05, 3.0, "a\nb", 1.0)],
    "line_break_at_the_end": [(0, 0.05, 3.0, "ab\r\n", 1.0), (1, 0.1, 3.0, "\n", 1.0)],
    "empty_string": [(0, 0.05, 3.0, "", 1.0), ("", ""), ("",)],
    "negative_zero": [(0, -0.0, -0.0, "CC@-0.00", 0.0)],
    "nan_and_infinities": [(0, math.nan, math.inf, "x", -math.inf)],
    "huge_float": [(0, 1e300, -1e300, "x", 5e-324)],
    "float_subclass": [PLAIN, (1, Tagged(0.1), 3.0, "x", Tagged(2.0)), PLAIN],
    "str_and_int_subclasses": [(Count(0), 0.05, 3.0, type("Label", (str,), {})("x"), 1.0)],
    "quoted_row_between_plain_rows": [PLAIN, (1, 0.1, 400.5, "A,B", 13.0), PLAIN],
    "short_and_empty_rows": [(1,), (1.5,), (), PLAIN],
    "list_row": [[0, 0.05, 400.0, "CC@20.00", 13.0]],
}


@pytest.mark.parametrize("case", ROWS)
def test_synthetic_rows_match_reference(case, tmp_path):
    assert_same_bytes(Trace("hash", COLUMNS, list(ROWS[case])), tmp_path)


def test_all_synthetic_rows_in_one_trace_match_reference(tmp_path):
    rows = [row for case in ROWS.values() for row in case]
    assert_same_bytes(Trace("hash", COLUMNS, rows), tmp_path)


def test_empty_trace_is_the_header_only(tmp_path):
    trace = Trace("hash", COLUMNS)
    assert_same_bytes(trace, tmp_path)
    assert (tmp_path / "trace.csv").read_bytes() == b"tick,time,v1_s,v1_controller,v1_gap\r\n"
