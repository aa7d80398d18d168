"""Rewrite golden.json from the program at hand.

    python3 platoonbench/golden.py

Records, for each bundled leg and for platoon_n80 at the default seed, the
sha256 of trace.csv and the simulated statistics the benchmark checks. Run
it only when a change alters the simulated behaviour on purpose, and say
why in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    from tracer import Tracer

    out_dir = ROOT / ".bench_out" / "golden"
    legs = harness.bundled_legs() + harness.workload_legs(
        "platoon_n80", harness.DEFAULT_SEED, out_dir)
    golden = {}
    for leg in legs:
        with Tracer() as tracer:
            result = harness.run_leg(leg, out_dir, tracer)
        if result.error is not None:
            print(f"error: {leg.name}: {result.error}", file=sys.stderr)
            return 1
        golden[leg.name] = result.stats
        print(leg.name, result.stats)
    harness.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
