"""Command-line front end: run scenarios, compare degradation on/off, and
execute the built-in acceptance suite.

Exit codes are the only machine contract: 0 for a clean completion, 2 when a
run ends with a collision, 1 for scenario/spec errors or an unusable --out, 3
when a run stops on a protocol error inside a tick.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Optional, Sequence

from .engine import RunReport, Simulator, TickError
from .scenario import FaultEvent, ScenarioSpec, SpecError, load_scenario, replace_run

EXIT_OK = 0
EXIT_SPEC_ERROR = 1
EXIT_COLLISION = 2
EXIT_TICK_ERROR = 3


def _apply_overrides(spec: ScenarioSpec, args: argparse.Namespace) -> ScenarioSpec:
    window = {key: value for key, value in (("dt", args.dt), ("duration", args.duration))
              if value is not None}
    return dataclasses.replace(
        replace_run(spec, **window),
        degradation_enabled=spec.degradation_enabled and not args.no_degradation,
        halt_on_collision=spec.halt_on_collision or args.halt_on_collision)


def _run(spec: ScenarioSpec, out_dir: Path) -> RunReport:
    """Run a scenario and write its trace, report and events; the trace is
    dropped on return, so a second run does not hold it too."""
    trace, report = Simulator(spec).run()
    trace.write_csv(out_dir / "trace.csv")
    (out_dir / "report.txt").write_text(report.to_text(), encoding="utf-8")
    report.write_events(out_dir / "events.log")
    return report


def _error(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_TICK_ERROR if isinstance(exc, TickError) else EXIT_SPEC_ERROR


def cmd_run(args: argparse.Namespace) -> int:
    try:
        spec = _apply_overrides(load_scenario(args.scenario), args)
        Path(args.out).mkdir(parents=True, exist_ok=True)  # a bad --out fails before the run
        report = _run(spec, Path(args.out))
    except (SpecError, TickError, OSError) as exc:
        return _error(exc)
    for t, a, b in report.collisions:
        print(f"collision at t={t:.3f} between v{a} and v{b}", file=sys.stderr)
    print(f"{spec.name}: {report.ticks} ticks, "
          f"{len(report.collisions)} collision(s), "
          f"{len(report.completions)} maneuver completion(s)")
    return EXIT_COLLISION if report.collisions else EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        spec = load_scenario(args.scenario)
        if not any(isinstance(e, FaultEvent) for e in spec.events):
            print("error: compare needs a scenario with at least one fault "
                  "injection", file=sys.stderr)
            return EXIT_SPEC_ERROR
        out_dir = Path(args.out)
        for label in ("on", "off"):  # a bad --out fails before the runs
            (out_dir / label).mkdir(parents=True, exist_ok=True)
        results = {label: _run(dataclasses.replace(spec, degradation_enabled=enabled),
                               out_dir / label)
                   for label, enabled in (("on", True), ("off", False))}
    except (SpecError, TickError, OSError) as exc:
        return _error(exc)

    lines = [f"scenario: {spec.name}", ""]
    for label in ("on", "off"):
        report = results[label]
        lines.append(f"degradation {label}:")
        lines.extend(report.pair_lines("  ", "min gaps"))
        lines.append("")
    text = "\n".join(lines)
    (out_dir / "compare.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    return EXIT_OK


def cmd_accept(_: argparse.Namespace) -> int:
    from .acceptance import format_table, run_all
    results = run_all()
    print(format_table(results))
    return EXIT_OK if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platoon-sim",
        description="Deterministic cooperative-platoon simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("scenario", help="path to a .scenario file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--no-degradation", action="store_true",
                       help="disable fault detection and degradation")
    p_run.add_argument("--dt", type=float, default=None, help="override tick length (s)")
    p_run.add_argument("--duration", type=float, default=None,
                       help="override run duration (s)")
    p_run.add_argument("--halt-on-collision", action="store_true",
                       help="stop the run at the first collision")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare",
                           help="run a fault scenario with degradation on and off")
    p_cmp.add_argument("scenario", help="path to a .scenario file")
    p_cmp.add_argument("--out", required=True, help="output directory")
    p_cmp.set_defaults(func=cmd_compare)

    p_acc = sub.add_parser("accept", help="run the built-in acceptance suite")
    p_acc.set_defaults(func=cmd_accept)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
