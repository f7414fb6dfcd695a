"""The repository benchmark: one workload, one run, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload corpus_cold --seed 11 --seconds 10 --trace 0

``--trace 0`` measures with tracing off and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced operations and
prints the per-layer metrics and the tracing overhead.  Every run checks
the outputs against a reference.  Human-readable lines (provenance,
metrics, the layer table) come first; the last line of standard output
is the JSON result.  Without ``src/repro`` next to this directory the
run exits with status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[len("ref: "):]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus_cold", "serve_warm", "fuzz_round"))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from repro.runtime.interpreter import DEFAULT_BACKEND

    nproc = os.cpu_count() or 1
    # the daemon's load generator: one connection per client thread
    load_threads = workloads.SERVE_CLIENTS if args.workload == "serve_warm" else 1
    if load_threads > nproc:
        print(f"perfbench: {load_threads} load threads exceed nproc={nproc}",
              file=sys.stderr)
        return 1

    outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    unlisted = set(outcome.metrics) - set(names)
    if unlisted:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unlisted)}")
    # a layer the workload does not exercise reads 0
    metrics = {
        name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in names.items()
    }
    error_rate = outcome.failed / outcome.attempted
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "python": platform.python_version(),
        "commit": git_commit(),
        "execution_backend": DEFAULT_BACKEND,
        "runs": outcome.runs,
        "load_threads": load_threads,
    }
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for line in outcome.notes:
        print(line)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate = {error_rate:.6g} ({outcome.failed} failed of {outcome.attempted})")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
