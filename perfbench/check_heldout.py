"""Run every workload on a held-out seed and check each result.

Usage, from the root of a checkout::

    python3 perfbench/check_heldout.py --seed 1009 --seconds 3

For each workload, untraced and traced, the run must exit with status
0, report ``"correct": true`` with nothing failed, and emit exactly the
metrics BENCHMARK.json lists.  The seed should be one no tuning run
used.  Exits 1 if any check fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1009)
    parser.add_argument("--seconds", type=float, default=3.0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit status {proc.returncode}: {proc.stderr[-500:]}")
            else:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                units = {name: m["unit"] for name, m in result["metrics"].items()}
                if not result["correct"] or result["failed"]:
                    problems.append(f"{result['failed']} of {result['attempted']} failed")
                if units != expected[trace]:
                    problems.append(f"metrics differ from BENCHMARK.json: {sorted(units)}")
            ok = ok and not problems
            print(f"{workload:12s} trace={trace} seed={args.seed}: "
                  + ("ok" if not problems else "; ".join(problems)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
