"""CLI contract tests: exit codes, output files and flag handling."""

import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from conftest import (
    BROKEN_STRATEGIES,
    FOLLOWER_PLATOONING,
    count_tick_counts,
    registry_replacing,
)

from platoonsim import engine
from platoonsim.cli import main
from platoonsim.scenario import bundled_scenario_path


def scenario(name):
    return str(bundled_scenario_path(name))


class TestRun:
    def test_clean_run_exits_zero_and_writes_outputs(self, tmp_path, capsys):
        code = main(["run", scenario("steady"), "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "trace.csv").exists()
        assert (tmp_path / "report.txt").exists()
        assert (tmp_path / "events.log").exists()
        header = (tmp_path / "trace.csv").read_text().splitlines()[0]
        assert header.startswith("tick,time,v1_s,v1_lane,v1_v,v1_a")

    def test_collision_run_exits_two(self, tmp_path, capsys):
        code = main(["run", scenario("radar_fault"), "--out", str(tmp_path),
                     "--no-degradation"])
        assert code == 2
        assert "collision" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "missing.scenario"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_scenario_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.scenario"
        bad.write_text(json.dumps({"vehicles": [], "surprise": True}))
        code = main(["run", str(bad), "--out", str(tmp_path / "out")])
        assert code == 1

    def test_rejected_parameter_is_a_one_line_error(self, tmp_path, capsys):
        raw = json.loads(bundled_scenario_path("steady").read_text())
        raw["parameters"] = {"gains": {"kp": -1}}
        bad = tmp_path / "bad_gains.scenario"
        bad.write_text(json.dumps(raw))
        code = main(["run", str(bad), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "parameters.gains" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag, value, where", [
        ("--dt", "0", "run.dt"),
        ("--dt", "-0.05", "run.dt"),
        ("--dt", "nan", "run.dt"),
        ("--duration", "-5", "run.duration"),
        ("--duration", "inf", "run.duration"),
        ("--duration", "1e308", "run.duration"),  # too many ticks to count
        ("--dt", "1e-320", "run.duration"),
    ])
    def test_bad_run_window_override_is_a_one_line_error(self, tmp_path, capsys,
                                                         flag, value, where):
        code = main(["run", scenario("steady"), "--out", str(tmp_path), flag, value])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where} ") and err.count("\n") == 1
        assert not (tmp_path / "trace.csv").exists()

    def test_a_scenario_file_with_too_many_ticks_is_a_one_line_error(self, tmp_path, capsys):
        raw = json.loads(bundled_scenario_path("steady").read_text())
        raw["run"]["duration"] = 1e308
        bad = tmp_path / "endless.scenario"
        bad.write_text(json.dumps(raw))
        code = main(["run", str(bad), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: run.duration ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_a_scenario_file_that_is_not_utf8_is_a_one_line_error(self, tmp_path, capsys):
        bad = tmp_path / "utf16.scenario"
        bad.write_bytes(b"\xff\xfe" + bundled_scenario_path("steady").read_bytes().decode()
                        .encode("utf-16-le"))
        code = main(["run", str(bad), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: scenario file ") and "not UTF-8" in err
        assert err.count("\n") == 1

    def test_a_dt_override_that_leaves_a_delay_no_finite_tick_count_is_an_error(
            self, tmp_path, capsys):
        raw = json.loads(bundled_scenario_path("v2v_fault").read_text())
        raw["parameters"] = {"takeover_delay_s": 8e306}  # finite ticks at dt 0.05
        bad = tmp_path / "slow_driver.scenario"
        bad.write_text(json.dumps(raw))
        code = main(["run", str(bad), "--out", str(tmp_path / "out"), "--dt", "0.03125"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == ("error: parameters.takeover_delay_s has no finite tick count "
                       "at run.dt 0.03125\n")
        assert not (tmp_path / "out" / "trace.csv").exists()

    def test_duration_override(self, tmp_path):
        code = main(["run", scenario("steady"), "--out", str(tmp_path),
                     "--duration", "1.0"])
        assert code == 0
        rows = (tmp_path / "trace.csv").read_text().splitlines()
        assert len(rows) == 1 + 20  # header + 1.0 s at dt 0.05

    def test_a_duration_override_checks_the_run_not_the_events(self, tmp_path, capsys):
        # 100 ticks end at t=4.95: the joins from t=5.0 on never fire, where the
        # same duration written in the file refuses the first of them
        code = main(["run", scenario("integrated"), "--out", str(tmp_path / "cli"),
                     "--duration", "5"])
        assert code == 0
        assert capsys.readouterr().out == ("integrated: 100 ticks, 0 collision(s), "
                                           "0 maneuver completion(s)\n")
        assert (tmp_path / "cli" / "events.log").read_text() == ""
        raw = json.loads(bundled_scenario_path("integrated").read_text())
        raw["run"]["duration"] = 5.0
        short = tmp_path / "short.scenario"
        short.write_text(json.dumps(raw))
        assert main(["run", str(short), "--out", str(tmp_path / "file")]) == 1
        assert capsys.readouterr().err == ("error: events[0] at t=5.0 comes after "
                                           "the last tick of the run\n")

    def test_a_run_without_overrides_computes_its_tick_count_once(self, tmp_path, monkeypatch):
        computed = count_tick_counts(monkeypatch)
        assert main(["run", scenario("steady"), "--out", str(tmp_path)]) == 0
        assert len(computed) == 1

    def test_a_run_computes_a_tick_count_at_most_twice(self, tmp_path, monkeypatch):
        computed = count_tick_counts(monkeypatch)
        code = main(["run", scenario("steady"), "--out", str(tmp_path),
                     "--duration", "1.0", "--no-degradation"])
        assert code == 0
        assert len(computed) <= 2

    def test_halt_on_collision_flag(self, tmp_path):
        code = main(["run", scenario("radar_fault"), "--out", str(tmp_path),
                     "--no-degradation", "--halt-on-collision"])
        assert code == 2
        report = (tmp_path / "report.txt").read_text()
        ticks = int(next(l for l in report.splitlines()
                         if l.startswith("ticks:")).split()[1])
        assert ticks < 800  # stopped before the 40 s horizon


class TestCompare:
    def test_fault_scenario_writes_side_by_side_summary(self, tmp_path, capsys):
        code = main(["compare", scenario("v2v_fault"), "--out", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "compare.txt").read_text()
        assert "degradation on:" in text and "degradation off:" in text
        assert (tmp_path / "on" / "trace.csv").exists()
        assert (tmp_path / "off" / "trace.csv").exists()
        on_block, off_block = text.split("degradation off:")
        assert "collisions: 0" in on_block

    def test_radar_fault_reports_off_case_collision(self, tmp_path):
        code = main(["compare", scenario("radar_fault"), "--out", str(tmp_path)])
        assert code == 0
        off_block = (tmp_path / "compare.txt").read_text().split("degradation off:")[1]
        assert "pair=(2,3)" in off_block

    def test_fault_free_scenario_is_an_error(self, tmp_path, capsys):
        code = main(["compare", scenario("steady"), "--out", str(tmp_path)])
        assert code == 1
        assert "fault" in capsys.readouterr().err

    def test_the_off_leg_runs_without_the_on_leg_trace(self, tmp_path, capsys, monkeypatch):
        traces, alive_at_start = [], []
        run = engine.Simulator.run

        def watched_run(sim, observer=None):
            alive_at_start.append([ref() is not None for ref in traces])
            trace, report = run(sim, observer)
            traces.append(weakref.ref(trace))
            return trace, report

        monkeypatch.setattr(engine.Simulator, "run", watched_run)
        assert main(["compare", scenario("v2v_fault"), "--out", str(tmp_path)]) == 0
        assert alive_at_start == [[], [False]]


@pytest.mark.parametrize("strategy, cause, text", BROKEN_STRATEGIES)
@pytest.mark.parametrize("command, name", [("run", "steady"), ("compare", "v2v_fault")])
def test_tick_error_is_a_one_line_error_with_exit_three(
        tmp_path, capsys, monkeypatch, strategy, cause, text, command, name):
    monkeypatch.setattr(engine, "default_registry",
                        lambda: registry_replacing(FOLLOWER_PLATOONING, strategy))
    code = main([command, scenario(name), "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: tick 40 (t=2.000 s), v2 in Platooning: ")
    assert f"{cause.__name__}: " in err and text in err and err.count("\n") == 1


def test_cut_in_from_a_non_adjacent_lane_is_a_one_line_error_with_exit_three(
        tmp_path, capsys):
    raw = json.loads(bundled_scenario_path("cut_in").read_text())
    raw["events"][0]["lane"] = 1  # the target's own lane
    bad = tmp_path / "same_lane.scenario"
    bad.write_text(json.dumps(raw))
    code = main(["run", str(bad), "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: tick 200 (t=10.000 s), v6 in -: ValueError: ")
    assert "not adjacent" in err and err.count("\n") == 1


@pytest.mark.parametrize("command, name, out, named, error", [
    ("run", "steady", "afile", "afile", "File exists"),
    ("run", "steady", "afile/sub", "afile/sub", "Not a directory"),
    ("compare", "v2v_fault", "afile", "afile/on", "Not a directory"),
    ("compare", "v2v_fault", "adir", "adir/on", "File exists"),
])
def test_an_output_path_that_is_a_file_fails_before_simulating(
        tmp_path, capsys, monkeypatch, command, name, out, named, error):
    (tmp_path / "afile").write_text("keep")
    (tmp_path / "adir").mkdir()
    (tmp_path / "adir" / "on").write_text("keep")

    def no_run(*args):
        raise AssertionError("simulated before checking --out")

    monkeypatch.setattr(engine.Simulator, "run", no_run)
    code = main([command, scenario(name), "--out", str(tmp_path / out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert error in err and repr(str(tmp_path / named)) in err
    assert (tmp_path / "afile").read_text() == "keep"
    assert (tmp_path / "adir" / "on").read_text() == "keep"


class TestAccept:
    def test_accept_exit_code_follows_results(self, monkeypatch, capsys):
        from platoonsim import acceptance

        fake_pass = [acceptance.CheckResult(1, "stub", True, "ok")]
        monkeypatch.setattr(acceptance, "run_all", lambda: fake_pass)
        assert main(["accept"]) == 0
        assert "[PASS]" in capsys.readouterr().out

        fake_fail = [acceptance.CheckResult(1, "stub", False, "broken")]
        monkeypatch.setattr(acceptance, "run_all", lambda: fake_fail)
        assert main(["accept"]) == 1
        assert "ACCEPTANCE FAILED" in capsys.readouterr().out


def test_run_and_compare_name_their_encoding(tmp_path):
    """Scenario files and outputs are UTF-8 whatever the locale: under
    ``warn_default_encoding`` no ``EncodingWarning`` is raised."""
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys\n"
        "from platoonsim.cli import main\n"
        "from platoonsim.scenario import bundled_scenario_path, load_scenario\n"
        "path = str(bundled_scenario_path('v2v_fault'))\n"
        "load_scenario(path)\n"
        "assert main(['run', path, '--out', sys.argv[1] + '/run']) == 0\n"
        "assert main(['compare', path, '--out', sys.argv[1] + '/compare']) == 0\n")
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-c", script, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "EncodingWarning" not in proc.stderr
    assert (tmp_path / "run" / "trace.csv").is_file()
    assert (tmp_path / "compare" / "compare.txt").is_file()
