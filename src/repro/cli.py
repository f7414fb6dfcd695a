"""Command-line interface: ``llm4vv``.

Subcommands:

* ``validate <files...>`` — run the validation pipeline on source files;
* ``generate`` — emit a synthetic V&V corpus to a directory;
* ``probe`` — apply negative probing to a saved suite;
* ``experiment <tableN|figN|all>`` — regenerate paper artifacts
  (``--run-dir``/``--resume`` make the run durable: per-cell
  checkpoints plus a progress record that a rerun picks up);
* ``report`` — write EXPERIMENTS.md (paper-vs-measured);
* ``serve`` — run the validation daemon (HTTP, batched admission;
  ``--jobs-dir`` enables the durable job queue);
* ``client`` — validate files against a running daemon;
* ``jobs`` — submit/inspect durable jobs on a running daemon;
* ``cache`` — inspect or purge an on-disk ``--cache-dir``;
* ``fuzz`` — coverage-guided differential fuzzing campaigns
  (``run`` / ``replay`` / ``minimize`` / ``report``); ``run``
  checkpoints every round and ``run --resume DIR`` continues an
  interrupted campaign to a digest-identical manifest;
* ``coverage`` — print the feature-coverage matrix for a suite or
  campaign corpus.

Every command shuts down gracefully: SIGTERM is mapped onto
``KeyboardInterrupt``, which the running loop raises where it stands;
a command's compute pool closes in its ``with`` block (no worker
outlives it), and any configured cache flushes to disk before the
process exits (so an interrupted sweep still warm-starts the next
one).
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
import threading
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    with _graceful_sigterm():
        try:
            return _main(argv)
        except KeyboardInterrupt:
            print("\ninterrupted — state flushed, exiting", file=sys.stderr)
            return 130


@contextlib.contextmanager
def _graceful_sigterm():
    """Map SIGTERM onto KeyboardInterrupt for the duration of a command.

    One code path then covers Ctrl-C and a supervisor's TERM: the loop
    raises, an open compute pool closes in its ``with`` block, each
    command's ``finally`` persists its cache, and the process exits 130
    instead of dying mid-write.
    Signal handlers only work on the main thread; elsewhere (tests
    driving ``main()`` from workers) this is a no-op.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    def _on_term(signum, frame):
        raise KeyboardInterrupt
    previous = signal.signal(signal.SIGTERM, _on_term)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="llm4vv",
        description="LLM-as-a-Judge validation of OpenACC/OpenMP compiler tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cache_flags(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="persist compile/execute/judge results as JSON under DIR "
                 "(warm-starts later runs)",
        )
        sub_parser.add_argument(
            "--no-cache", action="store_true",
            help="disable content-addressed result caching",
        )

    def add_backend_flag(sub_parser: argparse.ArgumentParser) -> None:
        # choices and help derive from the registry so a newly
        # registered backend reaches the CLI without touching this file
        from repro.runtime.interpreter import (
            BACKEND_SUMMARIES,
            DEFAULT_BACKEND,
            EXECUTION_BACKENDS,
        )

        summary = "; ".join(
            f"'{name}' ({BACKEND_SUMMARIES[name]})" for name in EXECUTION_BACKENDS
        )
        sub_parser.add_argument(
            "--backend", choices=EXECUTION_BACKENDS, default=DEFAULT_BACKEND,
            help=f"interpreter execution backend: {summary}",
        )

    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
        return value

    def add_jobs_flag(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--jobs", type=positive_int, default=1, metavar="N",
            help="worker processes for the experiment matrix: fan "
                 "independent (part x flavor) cells over N processes "
                 "sharing compile/execute/judge results via the on-disk cache "
                 "(1 = sequential)",
        )

    p_validate = sub.add_parser("validate", help="validate candidate test files")
    p_validate.add_argument("files", nargs="+", help="source files to validate")
    p_validate.add_argument("--flavor", choices=("acc", "omp"), default="acc")
    p_validate.add_argument("--judge", choices=("direct", "indirect"), default="direct")
    p_validate.add_argument("--no-early-exit", action="store_true")
    p_validate.add_argument(
        "--workers", type=positive_int, default=2,
        help="worker processes; 1 = in-process (the spec pooled verdicts "
             "match); with N >= 2 a run of at least 24 files to compute "
             "validates each file in one of N processes (default 2)",
    )
    p_validate.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write a JSON-lines span log of the run (inspect with "
             "'llm4vv trace summarize|export|gantt FILE')",
    )
    add_cache_flags(p_validate)
    add_backend_flag(p_validate)

    p_generate = sub.add_parser(
        "generate",
        help="generate a synthetic V&V corpus; every file must compile and run"
        " clean, checked in 2 worker processes for 24 files or more",
    )
    p_generate.add_argument("--flavor", choices=("acc", "omp"), default="acc")
    p_generate.add_argument("--count", type=int, default=50)
    p_generate.add_argument("--languages", default="c,cpp")
    p_generate.add_argument("--seed", type=int, default=1234)
    p_generate.add_argument("--out", default="corpus-out")
    add_backend_flag(p_generate)

    p_probe = sub.add_parser("probe", help="negative-probe a saved suite")
    p_probe.add_argument("suite", help="directory produced by 'generate'")
    p_probe.add_argument("--seed", type=int, default=42)
    p_probe.add_argument("--out", default="probed-out")

    p_exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p_exp.add_argument(
        "artifact", nargs="?", default=None,
        help="table1..table9, fig3..fig6, or 'all' "
             "(optional when resuming a --run-dir)",
    )
    p_exp.add_argument("--scale", choices=("paper", "small", "tiny"), default="small")
    p_exp.add_argument("--seed", type=int, default=20240822)
    p_exp.add_argument(
        "--run-dir", default=None, metavar="DIR",
        help="make the run durable: checkpoint each matrix cell under "
             "DIR and record progress + artifact digest there",
    )
    p_exp.add_argument(
        "--resume", default=None, metavar="DIR",
        help="continue an interrupted --run-dir run: reuse its recorded "
             "spec and every checkpointed cell, compute only the rest",
    )
    add_cache_flags(p_exp)
    add_backend_flag(p_exp)
    add_jobs_flag(p_exp)

    p_report = sub.add_parser("report", help="write EXPERIMENTS.md")
    p_report.add_argument("--scale", choices=("paper", "small", "tiny"), default="paper")
    p_report.add_argument("--out", default="EXPERIMENTS.md")
    add_cache_flags(p_report)
    add_backend_flag(p_report)
    add_jobs_flag(p_report)

    p_serve = sub.add_parser(
        "serve", help="run the validation daemon (POST /v1/validate)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8347,
        help="listen port (0 = pick an ephemeral port and print it)",
    )
    p_serve.add_argument(
        "--max-batch", type=positive_int, default=8, metavar="N",
        help="micro-batch size cutoff: a full batch dispatches at once",
    )
    p_serve.add_argument(
        "--max-latency-ms", type=float, default=10.0, metavar="MS",
        help="batch window: a batch takes what is already queued, then "
             "waits up to MS milliseconds for company (0: it dispatches "
             "at once)",
    )
    p_serve.add_argument(
        "--queue-capacity", type=positive_int, default=64, metavar="N",
        help="admission queue bound; beyond it requests get HTTP 429",
    )
    p_serve.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="validation worker processes, opened at start; each "
             "micro-batch runs in one of them (0 = validate in-process, "
             "the default)",
    )
    p_serve.add_argument("--model-seed", type=int, default=20240822)
    p_serve.add_argument(
        "--jobs-dir", default=None, metavar="DIR",
        help="enable the durable job queue (POST /v1/jobs): journal and "
             "work dirs live under DIR and survive daemon restarts",
    )
    p_serve.add_argument(
        "--trace-log", default=None, metavar="FILE",
        help="collect spans for every request/batch/stage and write a "
             "JSON-lines span log to FILE on drain",
    )
    p_serve.add_argument(
        "--verbose", action="store_true", help="log each HTTP request"
    )
    add_cache_flags(p_serve)

    p_client = sub.add_parser(
        "client", help="validate files against a running daemon"
    )
    p_client.add_argument("files", nargs="*", help="source files to validate")
    p_client.add_argument("--host", default="127.0.0.1")
    p_client.add_argument("--port", type=int, default=8347)
    p_client.add_argument("--flavor", choices=("acc", "omp"), default="acc")
    p_client.add_argument("--judge", choices=("direct", "indirect"), default="direct")
    p_client.add_argument("--no-early-exit", action="store_true")
    add_backend_flag(p_client)
    p_client.add_argument(
        "--stats", action="store_true",
        help="print the daemon's /v1/stats after (or instead of) validating",
    )

    p_jobs = sub.add_parser(
        "jobs", help="submit/inspect durable jobs on a running daemon"
    )
    jobs_sub = p_jobs.add_subparsers(dest="jobs_command", required=True)

    def add_jobs_conn(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument("--host", default="127.0.0.1")
        sub_parser.add_argument("--port", type=int, default=8347)

    pj_submit = jobs_sub.add_parser(
        "submit", help="submit a campaign/experiment job from a spec file"
    )
    pj_submit.add_argument(
        "spec",
        help='JSON file: {"kind": "campaign"|"experiment", "spec": {...}}',
    )
    pj_submit.add_argument(
        "--wait", action="store_true",
        help="block until the job reaches done/failed",
    )
    pj_submit.add_argument("--timeout", type=float, default=600.0, metavar="S")
    add_jobs_conn(pj_submit)

    pj_status = jobs_sub.add_parser("status", help="print one job's record")
    pj_status.add_argument("id")
    add_jobs_conn(pj_status)

    pj_list = jobs_sub.add_parser("list", help="list every journaled job")
    add_jobs_conn(pj_list)

    pj_wait = jobs_sub.add_parser(
        "wait", help="poll a job until it is done or failed"
    )
    pj_wait.add_argument("id")
    pj_wait.add_argument("--timeout", type=float, default=600.0, metavar="S")
    add_jobs_conn(pj_wait)

    pj_artifacts = jobs_sub.add_parser(
        "artifacts", help="list what a job has produced so far"
    )
    pj_artifacts.add_argument("id")
    add_jobs_conn(pj_artifacts)

    p_fuzz = sub.add_parser(
        "fuzz", help="coverage-guided differential fuzzing campaigns"
    )
    fuzz_sub = p_fuzz.add_subparsers(dest="fuzz_command", required=True)

    pf_run = fuzz_sub.add_parser("run", help="run a fuzzing campaign")
    pf_run.add_argument("--flavor", choices=("acc", "omp"), default="acc")
    pf_run.add_argument("--seed", type=int, default=1)
    pf_run.add_argument("--rounds", type=positive_int, default=4)
    pf_run.add_argument("--batch", type=positive_int, default=24, metavar="N",
                        help="candidates scheduled per round")
    pf_run.add_argument("--corpus-seeds", type=positive_int, default=12, metavar="N",
                        help="template-rendered seed tests")
    pf_run.add_argument("--languages", default="c,cpp")
    pf_run.add_argument("--step-limit", type=positive_int, default=300_000)
    pf_run.add_argument("--workers", type=positive_int, default=2,
                        help="compute pool worker processes, each running whole "
                             "differential → triage chains (1 runs every chain "
                             "in-process)")
    pf_run.add_argument(
        "--triage", choices=("divergent", "all", "off"), default="divergent",
        help="LLM-judge policy: divergent candidates only (default), "
             "every compiled candidate, or never",
    )
    from repro.runtime.interpreter import EXECUTION_BACKENDS

    pf_run.add_argument(
        "--arms", default=",".join(EXECUTION_BACKENDS), metavar="A,B[,C...]",
        help="comma-separated oracle arms (execution backends to cross-check; "
             f"default: all of {','.join(EXECUTION_BACKENDS)})",
    )
    pf_run.add_argument("--model-seed", type=int, default=20240822)
    pf_run.add_argument("--max-corpus", type=positive_int, default=512, metavar="N",
                        help="corpus size cap (divergent witnesses bypass it; "
                             "drops are counted in the report)")
    pf_run.add_argument("--out", default="fuzz-out", metavar="DIR",
                        help="campaign output dir (manifest + corpus + report)")
    pf_run.add_argument(
        "--checkpoint-every", type=positive_int, default=1, metavar="N",
        help="write the resumable checkpoint after every N rounds "
             "(the final round always checkpoints)",
    )
    pf_run.add_argument(
        "--resume", default=None, metavar="DIR",
        help="continue an interrupted campaign from DIR's checkpoint.json; "
             "config flags are ignored (the checkpoint records them) and "
             "the finished manifest is digest-identical to an "
             "uninterrupted run",
    )
    add_cache_flags(pf_run)

    pf_replay = fuzz_sub.add_parser(
        "replay", help="re-execute a campaign manifest and verify the digest"
    )
    pf_replay.add_argument("manifest", help="campaign.json (or its directory)")
    pf_replay.add_argument("--out", default=None, metavar="DIR",
                           help="also save the replayed campaign to DIR")
    add_cache_flags(pf_replay)

    pf_min = fuzz_sub.add_parser(
        "minimize", help="greedy-minimize a campaign corpus, keeping coverage"
    )
    pf_min.add_argument("campaign", help="campaign output dir")
    pf_min.add_argument("--out", default=None, metavar="DIR",
                        help="write the minimized suite to DIR")

    pf_report = fuzz_sub.add_parser(
        "report", help="print a saved campaign's findings and coverage"
    )
    pf_report.add_argument("campaign", help="campaign output dir")

    p_coverage = sub.add_parser(
        "coverage", help="print the feature-coverage matrix for a suite"
    )
    p_coverage.add_argument(
        "suite", help="a 'generate' suite dir or a fuzz campaign output dir"
    )
    p_coverage.add_argument(
        "--uncovered", action="store_true",
        help="also list each uncovered catalog feature with its description",
    )

    p_trace = sub.add_parser(
        "trace", help="inspect or convert a JSON-lines span log"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)

    pt_summarize = trace_sub.add_parser(
        "summarize", help="per-span-name latency table + request ids"
    )
    pt_summarize.add_argument("log", help="span log written by --trace-out/--trace-log")

    pt_export = trace_sub.add_parser(
        "export", help="convert a span log to Chrome trace-event JSON "
                       "(open in Perfetto / chrome://tracing)"
    )
    pt_export.add_argument("log", help="span log written by --trace-out/--trace-log")
    pt_export.add_argument("--out", default="chrome-trace.json", metavar="FILE")

    pt_gantt = trace_sub.add_parser(
        "gantt", help="text Gantt chart of the pipeline stage spans"
    )
    pt_gantt.add_argument("log", help="span log written by --trace-out/--trace-log")
    pt_gantt.add_argument("--width", type=positive_int, default=60)

    p_cache = sub.add_parser("cache", help="inspect or purge an on-disk cache")
    p_cache.add_argument("action", choices=("stats", "purge"))
    p_cache.add_argument("--cache-dir", required=True, metavar="DIR")
    p_cache.add_argument(
        "--namespace", default=None, metavar="NS",
        help="restrict 'purge' to one namespace (default: all); "
             "validated against the cache bundle's namespaces",
    )

    args = parser.parse_args(argv)
    return _dispatch(args)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "probe":
        return _cmd_probe(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "client":
        return _cmd_client(args)
    if args.command == "jobs":
        return _cmd_jobs(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "coverage":
        return _cmd_coverage(args)
    if args.command == "trace":
        return _cmd_trace(args)
    return 2  # pragma: no cover - argparse enforces choices


def _make_cache(args: argparse.Namespace):
    """Build the PipelineCache an invocation asked for (or None), and
    the registry state :func:`_finish_cache` measures growth from."""
    from repro.obs.metrics import get_metrics

    baseline = get_metrics().export_state()
    if getattr(args, "no_cache", False):
        return None, baseline
    from repro.cache.bundle import PipelineCache

    cache = PipelineCache(cache_dir=getattr(args, "cache_dir", None))
    loaded = cache.load()
    if loaded:
        print(f"cache: warm-started {loaded} entries from {args.cache_dir}")
    return cache, baseline


def _finish_cache(cache, baseline: dict, backend: str | None = None) -> None:
    """Persist (if configured) and summarise cache effectiveness.

    Hits and misses are the ``cache_lookups_total`` growth since
    ``baseline``, so lookups made in experiment shards count.
    ``backend`` names the execution backend the run used; the cache
    itself is backend-agnostic (all backends produce byte-identical
    results), so this is provenance for the operator, not a cache key.
    """
    if cache is None:
        return
    from repro.cache.bundle import lookup_counts
    from repro.obs.metrics import get_metrics

    cache.save()
    lookups = lookup_counts(get_metrics().diff(baseline)[0])
    hits, misses = (sum(n[k] for n in lookups.values()) for k in ("hits", "misses"))
    parts = ", ".join(
        f"{name} {n['hits']}/{n['hits'] + n['misses']}" for name, n in lookups.items()
    )
    line = f"cache: {hits} hits, {misses} misses ({parts})"
    if backend is not None:
        line += f"; backend {backend}"
    print(line)


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.core import TestsuiteValidator
    from repro.obs import trace as obs_trace
    from repro.pipeline.pool import ComputeWorkerCrash

    sources = {}
    for path in args.files:
        sources[Path(path).name] = Path(path).read_text()
    cache, baseline = _make_cache(args)
    tracer = obs_trace.Tracer() if args.trace_out else None
    try:
        validator = TestsuiteValidator(
            flavor=args.flavor,
            judge_kind=args.judge,
            early_exit=not args.no_early_exit,
            workers=args.workers,
            cache=cache,
            execution_backend=args.backend,
        )
        try:
            if tracer is not None:
                with obs_trace.installed(tracer):
                    report = validator.validate_sources(sources)
            else:
                report = validator.validate_sources(sources)
        except ComputeWorkerCrash as exc:
            print(f"validate: {exc}", file=sys.stderr)
            return 3
        for judged in report.files:
            marker = "PASS" if judged.is_valid else "FAIL"
            print(f"[{marker}] {judged.name} ({judged.stage}): {judged.reason}")
        summary = report.summary()
        print(
            f"\n{summary['valid']}/{summary['total']} files judged valid"
            f" (backend {args.backend})"
        )
        return 0 if not report.invalid_files else 1
    finally:
        # also reached on KeyboardInterrupt/SIGTERM: the run raised and
        # its pool (if any) closed, so persist whatever work completed
        _finish_cache(cache, baseline, backend=args.backend)
        if tracer is not None:
            from repro.obs.export import write_span_log

            write_span_log(tracer.spans, args.trace_out)
            print(f"trace: wrote {len(tracer)} span(s) to {args.trace_out}")


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.corpus.generator import CorpusGenerator
    from repro.corpus.suite import TestSuite
    from repro.pipeline.pool import ComputeWorkerCrash

    languages = tuple(args.languages.split(","))
    generator = CorpusGenerator(seed=args.seed, execution_backend=args.backend)
    try:
        files = generator.generate(args.flavor, args.count, languages=languages)
    except ComputeWorkerCrash as exc:
        print(f"generate: {exc}", file=sys.stderr)
        return 3
    suite = TestSuite(f"{args.flavor}-generated", args.flavor, files)
    out = suite.save(args.out)
    print(f"wrote {len(files)} tests to {out}")
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    from repro.corpus.suite import TestSuite
    from repro.probing.prober import NegativeProber

    suite = TestSuite.load(args.suite)
    probed = NegativeProber(seed=args.seed).probe(suite)
    out_suite = TestSuite(probed.name, probed.model, list(probed))
    out = out_suite.save(args.out)
    counts = probed.issue_counts()
    print(f"wrote {len(probed)} probed tests to {out}")
    print("issue counts:", {k: v for k, v in counts.items() if v})
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import ExperimentConfig, Experiments
    from repro.pipeline.pool import ComputeWorkerCrash

    if args.run_dir or args.resume:
        return _cmd_experiment_durable(args)
    if args.artifact is None:
        print("experiment: need an artifact name (or --resume DIR)", file=sys.stderr)
        return 2
    cache, baseline = _make_cache(args)
    try:
        exp = Experiments(
            ExperimentConfig(
                scale=args.scale, seed=args.seed, cache_enabled=cache is not None,
                cache_dir=args.cache_dir, execution_backend=args.backend, jobs=args.jobs,
            ),
            cache=cache,
        )
        names = (
            [f"table{i}" for i in range(1, 10)] + [f"fig{i}" for i in range(3, 7)]
            if args.artifact == "all"
            else [args.artifact]
        )
        for name in names:
            if getattr(exp, name, None) is None:
                print(f"unknown artifact {name!r}", file=sys.stderr)
                return 2
        if args.jobs > 1:
            try:
                exp.prefetch(artifacts=names)
            except ComputeWorkerCrash as exc:
                print(f"experiment: {exc}", file=sys.stderr)
                return 3
            _print_shard_summary(exp)
        for name in names:
            print(getattr(exp, name)().text)
            print()
        print(f"experiment: {len(names)} artifact(s), backend {args.backend}")
        return 0
    finally:
        _finish_cache(cache, baseline, backend=args.backend)


def _cmd_experiment_durable(args: argparse.Namespace) -> int:
    """The ``--run-dir``/``--resume`` path: checkpointed artifact runs."""
    from repro.experiments.rundir import (
        ALL_ARTIFACTS,
        ExperimentRunSpec,
        RunDirError,
        load_run_spec,
        run_artifacts,
    )
    from repro.pipeline.pool import ComputeWorkerCrash

    run_dir = args.resume or args.run_dir
    if args.resume:
        try:
            spec = load_run_spec(args.resume)
        except RunDirError as exc:
            print(f"experiment: {exc}", file=sys.stderr)
            return 2
        if spec is None:
            print(f"experiment: no run to resume under {args.resume} "
                  "(missing progress.json)", file=sys.stderr)
            return 2
        print(f"resuming experiment run in {args.resume} "
              f"({len(spec.artifacts)} artifact(s), scale {spec.scale})")
    else:
        if args.artifact is None:
            print("experiment: need an artifact name (or --resume DIR)",
                  file=sys.stderr)
            return 2
        names = (
            list(ALL_ARTIFACTS) if args.artifact == "all" else [args.artifact]
        )
        spec = ExperimentRunSpec(
            scale=args.scale, seed=args.seed, artifacts=tuple(names),
            backend=args.backend, jobs=args.jobs,
        )
    cache, baseline = _make_cache(args)
    try:
        outcome = run_artifacts(spec, run_dir, cache=cache, progress=print)
        for name in spec.artifacts:
            print(outcome.texts[name])
            print()
        print(
            f"experiment: {len(spec.artifacts)} artifact(s) in {outcome.run_dir} "
            f"({outcome.reused_cells} cell(s) reused, "
            f"{outcome.computed_cells} computed; digest {outcome.digest[:16]})"
        )
        return 0
    except ValueError as exc:  # unknown artifact in spec
        print(f"experiment: {exc}", file=sys.stderr)
        return 2
    except ComputeWorkerCrash as exc:
        print(f"experiment: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print(
            f"\nexperiment: interrupted — finished cells are checkpointed; "
            f"rerun with --resume {run_dir}",
            file=sys.stderr,
        )
        raise
    finally:
        _finish_cache(cache, baseline, backend=spec.backend)


def _print_shard_summary(exp) -> None:
    stats = exp.shard_stats
    if stats is None:
        return
    # one consistent snapshot rather than live counter reads
    snap = stats.snapshot()
    cells = ", ".join(f"{name} {seconds:.1f}s" for name, seconds in exp.shard_cells)
    line = f"sharding: {exp.config.jobs} jobs ({cells})"
    if snap["files_total"]:
        busy = sum(stage["busy_seconds"] for stage in snap["stages"].values())
        line += f"; {snap['files_total']} stage items, {busy:.1f}s stage-busy"
    print(line)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments import ExperimentConfig, Experiments
    from repro.experiments.report import write_experiments_md

    cache, baseline = _make_cache(args)
    try:
        exp = Experiments(
            ExperimentConfig(
                scale=args.scale, cache_enabled=cache is not None,
                cache_dir=args.cache_dir, execution_backend=args.backend, jobs=args.jobs,
            ),
            cache=cache,
        )
        path = write_experiments_md(exp, args.out)
        _print_shard_summary(exp)
        print(f"wrote {path} (backend {args.backend})")
        return 0
    finally:
        _finish_cache(cache, baseline, backend=args.backend)


def _bind_server(args: argparse.Namespace, cache):
    from repro.service.server import make_server

    return make_server(
        host=args.host,
        port=args.port,
        cache=cache,
        quiet=not args.verbose,
        model_seed=args.model_seed,
        workers=args.workers,
        max_batch_size=args.max_batch,
        max_latency=args.max_latency_ms / 1000.0,
        queue_capacity=args.queue_capacity,
        jobs_dir=args.jobs_dir,
        trace_log=args.trace_log,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    cache, _ = _make_cache(args)
    try:
        server = _bind_server(args, cache)
    except OSError as exc:
        print(f"serve: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    host, port = server.server_address[:2]
    endpoints = "POST /v1/validate, GET /v1/stats"
    if args.jobs_dir:
        endpoints += f", POST /v1/jobs (journal: {args.jobs_dir})"
    pool = f", workers={args.workers}" if args.workers else ""
    print(
        f"serving on http://{host}:{port} "
        f"(batch<={args.max_batch}, window<={args.max_latency_ms:g}ms, "
        f"queue<={args.queue_capacity}{pool}) — {endpoints}",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        # Ctrl-C or SIGTERM: finish queued requests, flush the cache,
        # then stop the listener — never die mid-batch or mid-write.
        # The drain runs on a helper thread while the listener keeps
        # answering (new POSTs get the documented 503, /healthz shows
        # "draining"); a second interrupt stops the listener at once.
        print("draining...", file=sys.stderr, flush=True)
        drainer = threading.Thread(target=server.drain_and_shutdown, daemon=True)
        drainer.start()
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            server.shutdown()
        drainer.join(timeout=30.0)
    finally:
        server.server_close()
        snap = server.service.batcher.snapshot()
        print(
            f"served {snap['completed']} request(s) in {snap['batches']} "
            f"batch(es), rejected {snap['rejected']}",
            file=sys.stderr,
        )
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    if not args.files and not args.stats:
        print("client: need source files and/or --stats", file=sys.stderr)
        return 2
    try:
        sources = {Path(path).name: Path(path).read_text() for path in args.files}
    except OSError as exc:
        print(f"client: cannot read source file: {exc}", file=sys.stderr)
        return 2
    client = ServiceClient(host=args.host, port=args.port)
    try:
        exit_code = 0
        if args.files:
            response = client.validate(
                sources,
                flavor=args.flavor,
                judge=args.judge,
                early_exit=not args.no_early_exit,
                backend=args.backend,
            )
            for verdict in response["verdicts"]:
                marker = "PASS" if verdict["verdict"] == "valid" else "FAIL"
                print(f"[{marker}] {verdict['name']} ({verdict['stage']}): {verdict['reason']}")
            summary = response["summary"]
            timings = response["timings"]
            print(
                f"\n{summary['valid']}/{summary['total']} files judged valid "
                f"(queued {timings['queued_ms']:.1f}ms, "
                f"pipeline {timings['wall_ms']:.1f}ms, "
                f"batch of {response['batch']['size']})"
            )
            exit_code = 0 if summary["invalid"] == 0 else 1
        if args.stats:
            import json as _json

            print(_json.dumps(client.stats(), indent=2))
        return exit_code
    except ServiceError as exc:
        print(f"client: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"client: cannot reach {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 3


def _cmd_jobs(args: argparse.Namespace) -> int:
    import json as _json

    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(host=args.host, port=args.port)
    try:
        if args.jobs_command == "submit":
            try:
                payload = _json.loads(Path(args.spec).read_text())
            except (OSError, _json.JSONDecodeError) as exc:
                print(f"jobs submit: cannot read spec file: {exc}", file=sys.stderr)
                return 2
            if not isinstance(payload, dict) or "kind" not in payload:
                print('jobs submit: spec file must be {"kind": ..., "spec": {...}}',
                      file=sys.stderr)
                return 2
            record = client.submit_job(payload["kind"], payload.get("spec", {}))
            print(f"submitted {record['id']} ({record['kind']}, "
                  f"state {record['state']})")
            if args.wait:
                record = client.wait_for_job(record["id"], timeout=args.timeout)
                return _print_job_outcome(record)
            return 0
        if args.jobs_command == "status":
            print(_json.dumps(client.job(args.id), indent=2, sort_keys=True))
            return 0
        if args.jobs_command == "list":
            records = client.jobs()
            if not records:
                print("no jobs journaled")
            for record in records:
                result = record.get("result") or {}
                digest = result.get("digest", "")
                suffix = f" digest {digest[:16]}" if digest else ""
                print(f"{record['id']}  {record['state']:12s} "
                      f"{record['kind']}{suffix}")
            return 0
        if args.jobs_command == "wait":
            record = client.wait_for_job(args.id, timeout=args.timeout)
            return _print_job_outcome(record)
        if args.jobs_command == "artifacts":
            artifacts = client.job_artifacts(args.id)
            print(f"{artifacts['id']} ({artifacts['state']}) — {artifacts['dir']}")
            for entry in artifacts["files"]:
                print(f"  {entry['path']} ({entry['bytes']} bytes)")
            if not artifacts["files"]:
                print("  (no artifacts yet)")
            return 0
        return 2  # pragma: no cover - argparse enforces choices
    except TimeoutError as exc:
        print(f"jobs: {exc}", file=sys.stderr)
        return 3
    except ServiceError as exc:
        print(f"jobs: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"jobs: cannot reach {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 3


def _print_job_outcome(record: dict) -> int:
    import json as _json

    print(_json.dumps(record, indent=2, sort_keys=True))
    if record["state"] == "failed":
        print(f"job {record['id']} failed: {record.get('error')}", file=sys.stderr)
        return 1
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    if args.fuzz_command == "run":
        return _cmd_fuzz_run(args)
    if args.fuzz_command == "replay":
        return _cmd_fuzz_replay(args)
    if args.fuzz_command == "minimize":
        return _cmd_fuzz_minimize(args)
    if args.fuzz_command == "report":
        return _cmd_fuzz_report(args)
    return 2  # pragma: no cover - argparse enforces choices


def _cmd_fuzz_run(args: argparse.Namespace) -> int:
    from repro.fuzz.campaign import Campaign
    from repro.fuzz.checkpoint import CheckpointError, load_checkpoint
    from repro.pipeline.pool import ComputeWorkerCrash
    from repro.fuzz.manifest import save_campaign

    resume = None
    if args.resume:
        try:
            resume = load_checkpoint(args.resume)
        except CheckpointError as exc:
            print(f"fuzz run: {exc}", file=sys.stderr)
            return 2
        if resume is None:
            print(f"fuzz run: no checkpoint under {args.resume}", file=sys.stderr)
            return 2
        # the checkpoint is authoritative for both config and output dir
        config = resume.config
        out = args.resume
        print(f"resuming campaign from {args.resume} "
              f"(round {resume.next_round}/{config.rounds})")
    else:
        languages = tuple(
            part.strip() for part in args.languages.split(",") if part.strip()
        )
        unknown = [lang for lang in languages if lang not in ("c", "cpp", "f90")]
        if unknown or not languages:
            print(
                f"fuzz run: unknown languages {unknown or args.languages!r} "
                "(choose from c, cpp, f90)",
                file=sys.stderr,
            )
            return 2
        arms = tuple(part.strip() for part in args.arms.split(",") if part.strip())
        try:
            config = _fuzz_config(args, languages, arms)
        except ValueError as exc:
            print(f"fuzz run: {exc}", file=sys.stderr)
            return 2
        out = args.out
    cache, baseline = _make_cache(args)
    try:
        result = Campaign(config, cache=cache).run(
            progress=print,
            checkpoint_dir=out,
            checkpoint_every=args.checkpoint_every,
            resume=resume,
        )
        save_campaign(result, out)
        print(result.render_report())
        print(f"\nwrote campaign to {out} (digest {result.digest()[:16]}; "
              f"oracle arms {'+'.join(config.arms)})")
        return 1 if result.findings else 0
    except ComputeWorkerCrash as exc:
        print(
            f"fuzz run: {exc}; the last round boundary is checkpointed; "
            f"rerun with --resume {out}",
            file=sys.stderr,
        )
        return 3
    except KeyboardInterrupt:
        print(
            f"\nfuzz run: interrupted — the last round boundary is "
            f"checkpointed; rerun with --resume {out}",
            file=sys.stderr,
        )
        raise
    finally:
        _finish_cache(cache, baseline)


def _fuzz_config(args: argparse.Namespace, languages: tuple, arms: tuple):
    from repro.fuzz.campaign import CampaignConfig

    return CampaignConfig(
        flavor=args.flavor,
        languages=languages,
        seed=args.seed,
        rounds=args.rounds,
        batch_size=args.batch,
        seed_count=args.corpus_seeds,
        step_limit=args.step_limit,
        workers=args.workers,
        triage=args.triage,
        model_seed=args.model_seed,
        max_corpus=args.max_corpus,
        arms=arms,
    )


def _cmd_fuzz_replay(args: argparse.Namespace) -> int:
    from repro.fuzz.manifest import CampaignManifest, ReplayError, replay_manifest, save_campaign

    path = Path(args.manifest)
    if path.is_dir():
        path = path / "campaign.json"
    try:
        manifest = CampaignManifest.load(path)
    except (OSError, ValueError, KeyError, ReplayError) as exc:
        print(f"fuzz replay: cannot load manifest: {exc}", file=sys.stderr)
        return 2
    cache, baseline = _make_cache(args)
    try:
        result, identical = replay_manifest(manifest, cache=cache, progress=print)
        if args.out:
            save_campaign(result, args.out)
            print(f"wrote replayed campaign to {args.out}")
        print(
            f"recorded digest {manifest.digest[:16]}, "
            f"replayed digest {result.digest()[:16]}"
        )
        if identical:
            print("replay: byte-identical")
            return 0
        print("replay: MISMATCH — substrate drifted since the manifest was written",
              file=sys.stderr)
        return 1
    finally:
        _finish_cache(cache, baseline)


def _cmd_fuzz_minimize(args: argparse.Namespace) -> int:
    from repro.corpus.suite import TestSuite
    from repro.fuzz.manifest import load_campaign_dir
    from repro.fuzz.minimize import minimize_corpus

    try:
        manifest, suite = load_campaign_dir(args.campaign)
    except (OSError, ValueError, KeyError) as exc:
        print(f"fuzz minimize: cannot load campaign: {exc}", file=sys.stderr)
        return 2
    by_name = {test.name: test for test in suite}
    entries = [
        (by_name[meta["name"]], tuple(meta["keys"]))
        for meta in manifest.corpus_meta
        if meta["name"] in by_name
    ]
    result = minimize_corpus(entries)
    kept_set = set(result.kept)
    print(
        f"minimized {len(entries)} -> {len(result.kept)} tests "
        f"({result.reduction:.0%} dropped) preserving {result.covered_keys} "
        f"frontier keys"
    )
    for name in result.kept:
        print(f"  keep {name}")
    if args.out:
        minimized = TestSuite(
            f"{suite.name}-min", suite.model,
            [test for test in suite if test.name in kept_set],
        )
        out = minimized.save(args.out)
        print(f"wrote minimized suite to {out}")
    return 0


def _cmd_fuzz_report(args: argparse.Namespace) -> int:
    from repro.fuzz.manifest import load_campaign_dir

    try:
        manifest, suite = load_campaign_dir(args.campaign)
    except (OSError, ValueError, KeyError) as exc:
        print(f"fuzz report: cannot load campaign: {exc}", file=sys.stderr)
        return 2
    report = Path(args.campaign) / "report.txt"
    if report.exists():
        print(report.read_text().rstrip())
    stats = manifest.stats
    print(
        f"\ncorpus {len(suite)} tests; "
        f"{stats.get('discrepancies', 0)} discrepancies, "
        f"{stats.get('accepted', 0)} accepted / {stats.get('applied', 0)} applied; "
        f"digest {manifest.digest[:16]}"
    )
    return 1 if manifest.findings else 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    from repro.corpus.coverage import measure_coverage, uncovered_features
    from repro.corpus.suite import TestSuite

    root = Path(args.suite)
    corpus = root / "corpus"
    try:
        suite = TestSuite.load(corpus if (corpus / "manifest.json").exists() else root)
    except (OSError, ValueError, KeyError) as exc:
        print(f"coverage: cannot load suite from {root}: {exc}", file=sys.stderr)
        return 2
    report = measure_coverage(suite.model, list(suite))
    print(report.render())
    if args.uncovered:
        gaps = uncovered_features(suite.model, list(suite))
        if gaps:
            print("\nuncovered catalog features:")
            for feature in gaps:
                print(f"  {feature.ident:30s} [{feature.category}] {feature.description}")
        else:
            print("\nno uncovered catalog features")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache.bundle import disk_summary, purge_dir

    directory = Path(args.cache_dir)
    if args.action == "stats":
        if not directory.is_dir():
            print(f"cache: no such directory {directory}", file=sys.stderr)
            return 2
        total = 0
        for name, snap in disk_summary(directory).items():
            if snap is None:
                print(f"{name}: no persisted file")
                continue
            state = " (corrupt)" if snap["corrupt"] else ""
            print(f"{name}: {snap['entries']} entries, {snap['bytes']} bytes{state}")
            total += snap["entries"]
        print(f"total: {total} persisted entries in {directory}")
        return 0
    try:
        purged = purge_dir(directory, namespace=args.namespace)
    except ValueError as exc:  # unknown namespace, per the bundle's list
        print(f"cache: {exc}", file=sys.stderr)
        return 2
    scope = args.namespace or "all namespaces"
    if purged:
        print(f"purged {', '.join(purged)} from {directory}")
    else:
        print(f"nothing to purge for {scope} in {directory}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.export import (
        chrome_trace,
        load_span_log,
        render_gantt,
        render_summary,
        summarize_spans,
    )

    try:
        spans = load_span_log(args.log)
    except (OSError, ValueError) as exc:
        print(f"trace: cannot read {args.log}: {exc}", file=sys.stderr)
        return 2
    if not spans:
        print(f"trace: {args.log} holds no spans", file=sys.stderr)
        return 1
    if args.trace_command == "summarize":
        print(render_summary(summarize_spans(spans)))
        return 0
    if args.trace_command == "gantt":
        print(render_gantt(spans, width=args.width))
        return 0
    from repro.core.atomicio import atomic_write_json

    payload = chrome_trace(spans)
    atomic_write_json(Path(args.out), payload, fault_tag="trace-export")
    print(
        f"trace: wrote {len(payload['traceEvents'])} event(s) to {args.out} "
        "(open in Perfetto or chrome://tracing)"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
