"""platoonsim benchmark.

    python3 platoonbench/run.py --workload platoon_n80 --seed 0 --seconds 40 --trace 0

Runs one workload (see BENCHMARK.json) in passes until ``--seconds`` have
been measured, checks every scenario run against the golden outputs in
``golden.json``, and prints each metric with its unit. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones. Each timing adds up
the fastest repetition of every unit of work in the run (see
``harness.Envelope``): one leg's set-up, one tick, one leg's writing. With
``--trace 1`` untraced and traced passes alternate and the metrics are the
per-layer ones from ``tracer.py``, self times again from the fastest
repetition of each span. Outputs, spans and a result file with the per-pass
readings go to ``.bench_out/<workload>/``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result. A failed
scenario run makes it exit with code 1.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from array import array
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_PASSES = 3
# set-up-only repetitions of each leg after each pass: set-up is about 1 ms
SETUP_REPS = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(env, vehicle_ticks: int) -> dict:
    run_ns = env.total("ticks", "tail")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": (env.total("setup", "ticks", "tail", "write") / 1e9, "s"),
        "setup_s": (env.total("setup") / 1e9, "s"),
        "vehicle_ticks_per_s": (vehicle_ticks / max(run_ns, 1) * 1e9, "1/s"),
        "write_s": (env.total("write") / 1e9, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "platoonsim" / "__init__.py").is_file():
        print(f"error: platoonsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    from tracer import Tracer, metric_names

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = OUT / args.workload
    legs = harness.workload_legs(args.workload, args.seed, out_dir)
    golden = harness.load_golden()

    attempted, failures, first = 0, [], {}
    problems = []  # checks of the traced run itself, not of a scenario run

    def checked(results, label):
        nonlocal attempted
        for r in results:
            attempted += 1
            why = harness.check_leg(r, args.seed, golden, first)
            if why is not None:
                failures.append(f"{r.name} ({label} pass): {why}")
                print(f"FAILED {r.name} ({label} pass): {why}", file=sys.stderr)
        return results

    def setup_reps(env):
        for _ in range(SETUP_REPS):
            for leg in legs:
                env.add(leg.name, "setup", [harness.setup_once(leg)])

    env, traced_env = harness.Envelope(), harness.Envelope()
    # per-pass readings; only the first pass's results are kept, so memory
    # does not grow with the number of passes
    first_pass = None
    passes, traced_summaries = 0, []
    per_pass = {"wall_s": [], "write_s": []}
    best_self = span_ids = last_tracer = None
    if not args.trace:
        setup_reps(env)
    start = perf_counter()
    while True:
        began = perf_counter()
        results = checked(harness.run_pass(legs, out_dir), "untraced")
        env.add_pass(results)
        passes += 1
        first_pass = first_pass or results
        per_pass["wall_s"].append(sum(r.setup_ns + sum(r.tick_ns) + r.tail_ns
                                      + r.write_ns[0] for r in results) / 1e9)
        per_pass["write_s"].append(sum(r.write_ns[0] for r in results) / 1e9)
        del results
        if args.trace:
            with Tracer() as tracer:
                results = checked(harness.run_pass(legs, out_dir, tracer), "traced")
            traced_env.add_pass(results)
            summary = tracer.summary()
            if summary.pop("trace.unaccounted_ns") != 0:
                problems.append("layer self times do not add up to Simulator.run")
            traced_summaries.append(summary)
            own = tracer.self_ns()
            if best_self is None:
                best_self, span_ids = own, tracer.name_id
            elif tracer.name_id != span_ids:
                problems.append("traced passes recorded different spans")
            else:
                best_self = array("q", map(min, best_self, own))
            last_tracer = tracer
        else:
            setup_reps(env)
        # stop when half another iteration would overrun --seconds
        now = perf_counter()
        enough = passes >= (1 if args.trace else MIN_PASSES)
        if enough and now - start + (now - began) / 2 >= args.seconds:
            break

    if args.trace:
        counts = [{k: v for k, v in s.items() if not k.endswith("_s")}
                  for s in traced_summaries]
        if any(c != counts[0] for c in counts):
            problems.append("per-layer counts differ between traced passes")
        values = last_tracer.summary(best_self)
        values.pop("trace.unaccounted_ns")
        phases = ("setup", "ticks", "tail", "write")
        values["trace.overhead_s"] = (traced_env.total(*phases)
                                      - env.total(*phases)) / 1e9
        values["engine.tick_ms_tail"] = harness.tick_tail_ns(env) / 1e6
        metrics = {name: (values[name], unit) for name, unit in metric_names()}
        note = f"per-layer self times: fastest of {len(traced_summaries)} traced passes"
        last_tracer.write_spans(out_dir / f"spans-seed{args.seed}.csv.gz")
    else:
        vehicle_ticks = sum(r.vehicle_ticks for r in first_pass)
        metrics = end_to_end(env, vehicle_ticks)
        note = f"fastest of {passes} passes per unit of work"

    for r in first_pass:
        if r.stats is not None:
            print(f"digest {r.name}: {r.stats['trace_sha256']}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"runs_failed: {len(failures)} of {attempted} runs_attempted")
    print(note)
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)

    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, note=note,
                  failures=failures + problems, per_pass=per_pass,
                  digests={r.name: r.stats for r in first_pass if r.stats})
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
