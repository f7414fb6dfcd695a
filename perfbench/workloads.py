"""The three workloads: inputs, measurement, and output checks.

Each workload function takes the run's seed, its measuring time and a
``trace`` flag and returns a :class:`Outcome`.  With ``trace=False`` it
measures with tracing off and reports the end-to-end metrics; with
``trace=True`` it alternates untraced and traced operations and reports
the per-layer metrics plus the tracing overhead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import http.client
import json
import os
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: The corpus content is fixed; the seed renames and reorders it.
#: Content seeds change a pass's cost by up to 4x (the three-valued
#: matmul size and which files the prober breaks decide it), which no
#: bound could absorb.
CONTENT_SEED = 11
FILES_PER_FLAVOR = 36
SETUP_REPEATS = 3
SERVE_CLIENTS = 2


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int = 0
    failed: int = 0
    runs: int = 0
    notes: list[str] = field(default_factory=list)


def _median_setup(build, repeats: int = SETUP_REPEATS):
    """Run ``build`` ``repeats`` times; (median seconds, last result)."""
    times, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def _self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _verdict_json(judged) -> str:
    from repro.service.protocol import encode_verdict

    return json.dumps(encode_verdict(judged), sort_keys=True)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def build_corpus(seed: int, flavors=("acc", "omp")) -> dict[str, list]:
    """The probed corpus: 36 files per flavor, renamed and shuffled by ``seed``."""
    from repro.corpus.generator import CorpusGenerator
    from repro.corpus.suite import TestSuite
    from repro.probing.prober import NegativeProber

    rng = random.Random(f"perfbench:{seed}")
    corpus = {}
    for flavor in flavors:
        files = CorpusGenerator(seed=CONTENT_SEED).generate(flavor, FILES_PER_FLAVOR)
        probed = NegativeProber(seed=CONTENT_SEED + 1).probe(
            TestSuite(name=f"{flavor}-corpus", model=flavor, files=files)
        )
        renamed = [dataclasses.replace(f, name=f"s{seed}_{f.name}") for f in probed]
        rng.shuffle(renamed)
        corpus[flavor] = renamed
    return corpus


# ----------------------------------------------------------------------
# corpus_cold
# ----------------------------------------------------------------------


def _validate_corpus(corpus, **validator_args) -> dict[str, str]:
    from repro.core.validator import TestsuiteValidator

    verdicts = {}
    for flavor, files in corpus.items():
        report = TestsuiteValidator(flavor=flavor, **validator_args).validate(files)
        verdicts.update({j.name: _verdict_json(j) for j in report.files})
    return verdicts


def corpus_cold(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.cache.bundle import PipelineCache

    setup_s, corpus = _median_setup(lambda: build_corpus(seed))
    files = sum(len(fs) for fs in corpus.values())
    # reference: a serial, uncached direct run
    reference = _validate_corpus(corpus, workers=1, judge_workers=1)
    out = Outcome(metrics={})

    def one_pass() -> float:
        t0 = time.perf_counter()
        verdicts = _validate_corpus(corpus, cache=PipelineCache())
        wall = time.perf_counter() - t0
        out.attempted += files
        out.failed += sum(1 for name, v in reference.items() if verdicts.get(name) != v)
        out.runs += 1
        return wall

    if not trace:
        walls = _repeat_for(seconds, one_pass)
        out.notes.append("pass ms: " + " ".join(f"{w * 1000.0:.0f}" for w in walls))
        out.metrics = {
            "setup_s": setup_s,
            "throughput_per_s": statistics.median(files / w for w in walls),
            "latency_p50_ms": statistics.median(walls) * 1000.0,
            "peak_rss_mb": _self_peak_rss_mb(),
        }
        return out

    return _trace_pairs(out, seconds, one_pass)


def _trace_pairs(out: Outcome, seconds: float, op, minimum: int = 3) -> Outcome:
    """Alternate untraced and traced calls of ``op``, which returns its wall time.

    The traced call runs with the layers wrapped and a tracer
    installed; its spans give the per-layer metrics, and the paired
    times give the tracing overhead.
    """
    from repro.obs.trace import Tracer

    spans, traced, untraced = [], [], []

    def pair() -> None:
        untraced.append(op())
        tracer = Tracer()
        with layers.instrument(tracer):
            traced.append(op())
        spans.extend(tracer.spans)

    _repeat_for(seconds, pair, minimum)
    out.metrics = layers.layer_metrics(spans, units=len(traced))
    out.metrics["obs.trace_overhead_ratio"], out.metrics["obs.trace_overhead_spread"] = (
        layers.overhead(traced, untraced)
    )
    out.notes += layers.share_table(spans, len(traced), statistics.median(traced))
    return out


def _repeat_for(seconds: float, op, minimum: int = 3) -> list[float]:
    """Call ``op`` until ``seconds`` pass (at least ``minimum`` times)."""
    results = []
    deadline = time.perf_counter() + seconds
    while len(results) < minimum or time.perf_counter() < deadline:
        results.append(op())
    return results


# ----------------------------------------------------------------------
# fuzz_round
# ----------------------------------------------------------------------


def fuzz_config(seed: int, **overrides):
    """Two rounds of 24 over every acc template.

    ``seed_count=48`` seeds the campaign with each of the 48 acc
    template x language pairs once, and the 40k step limit caps the
    matmul programs at a fixed cost; with the defaults (12 seeds, 300k
    steps) a campaign's wall time ranges 4x across seeds.
    """
    from repro.fuzz.campaign import CampaignConfig

    return CampaignConfig(
        seed=seed, rounds=2, batch_size=24, seed_count=48, step_limit=40_000, **overrides
    )


def fuzz_round(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.fuzz.campaign import Campaign

    def serial_reference() -> str:
        result = Campaign(fuzz_config(seed, workers=1, judge_workers=1)).run()
        return result.digest()

    setup_s, reference = _median_setup(serial_reference)
    out = Outcome(metrics={})
    accept = []

    def one_campaign() -> tuple[float, int]:
        t0 = time.perf_counter()
        result = Campaign(fuzz_config(seed)).run()
        wall = time.perf_counter() - t0
        mutated = sum(len(plan) for plan in result.schedule)
        out.attempted += mutated
        if result.digest() != reference:
            out.failed += mutated
        else:
            out.failed += len(result.findings)
        out.runs += 1
        accept.append(layers.ratio(result.stats.accepted, result.stats.applied))
        return wall, mutated

    if not trace:
        runs = _repeat_for(seconds, one_campaign)
        out.notes.append("campaign ms: " + " ".join(f"{w * 1000.0:.0f}" for w, _ in runs))
        out.metrics = {
            "setup_s": setup_s,
            "throughput_per_s": statistics.median(m / w for w, m in runs),
            "latency_p50_ms": statistics.median(w for w, _ in runs) * 1000.0,
            "peak_rss_mb": _self_peak_rss_mb(),
        }
        return out

    _trace_pairs(out, seconds, lambda: one_campaign()[0], minimum=2)
    out.metrics["fuzz.accept_ratio"] = statistics.median(accept)
    return out


# ----------------------------------------------------------------------
# serve_warm
# ----------------------------------------------------------------------


class Daemon:
    """One ``llm4vv serve --workers 2`` subprocess.

    ``trace_log`` starts it through ``daemon.py``, which wraps the layer
    entry points before the CLI runs, and turns on ``--trace-log``.
    """

    def __init__(self, cache_dir: Path, trace_log: Path | None = None):
        self.cache_dir = cache_dir
        self.trace_log = trace_log
        self.stderr_path = cache_dir.with_suffix(".err")
        self.proc = None
        self.port = None

    def start(self, timeout: float = 60.0) -> None:
        from repro.service.client import ServiceClient

        args = ["serve", "--port", "0", "--workers", "2", "--cache-dir", str(self.cache_dir)]
        if self.trace_log is None:
            cmd = [sys.executable, "-m", "repro.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "daemon.py"), *args,
                   "--trace-log", str(self.trace_log)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with open(self.stderr_path, "wb") as err:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err
            )
        deadline = time.monotonic() + timeout
        seen = b""
        while b"serving on http://" not in seen or not seen.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, remaining))
            if not ready or self.proc.poll() is not None:
                raise RuntimeError(f"daemon did not start: {self.stderr_path.read_text()}")
            seen += os.read(self.proc.stdout.fileno(), 1)
        address = seen.decode().split("serving on http://", 1)[1].split(" ", 1)[0]
        self.port = int(address.rsplit(":", 1)[1])
        ServiceClient(port=self.port, max_retries=20, backoff_base=0.02).healthz()

    def metrics_text(self) -> str:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/v1/metrics")
            return conn.getresponse().read().decode()
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """Summed peak RSS (VmHWM) of the daemon and its worker processes."""
        pids = [self.proc.pid]
        for entry in Path("/proc").iterdir():
            if entry.name.isdigit():
                try:
                    stat = (entry / "stat").read_text()
                except OSError:
                    continue
                if int(stat.rsplit(")", 1)[1].split()[1]) == self.proc.pid:
                    pids.append(int(entry.name))
        total_kb = 0
        for pid in pids:
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> None:
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Sample:
    latency: float  # seconds; inf when the request failed
    response: dict | None  # None when the request failed


def closed_loop(port: int, sources, reference: dict[str, str], seconds: float,
                limit: int | None = None) -> tuple[list[Sample], float]:
    """``SERVE_CLIENTS`` threads, each sending its next request when the last returns.

    Clients start at evenly spaced offsets in ``sources`` and cycle
    through it; each stops after ``seconds`` or, given ``limit``, after
    that many requests.  A reply counts only if its verdicts are
    byte-identical to the direct run's (``reference``).  Returns the
    samples and the seconds until the last client finished.
    """
    from repro.service.client import ServiceClient, ServiceError

    samples: list[Sample] = []
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds
    finished = [start]

    def client(offset: int) -> None:
        conn = ServiceClient(port=port, max_retries=0, timeout=30)
        index = offset
        mine = []
        while (len(mine) < limit) if limit is not None else (time.perf_counter() < deadline):
            name, source = sources[index % len(sources)]
            index += 1
            t0 = time.perf_counter()
            try:
                response = conn.validate({name: source})
                verdicts = [json.dumps(v, sort_keys=True) for v in response["verdicts"]]
                ok = verdicts == [reference[name]]
            except (ServiceError, OSError, KeyError):
                response, ok = None, False
            latency = time.perf_counter() - t0
            mine.append(Sample(latency, response) if ok else Sample(float("inf"), None))
        with lock:
            samples.extend(mine)
            finished[0] = max(finished[0], time.perf_counter())

    threads = [
        threading.Thread(target=client, args=(i * len(sources) // SERVE_CLIENTS,))
        for i in range(SERVE_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples, finished[0] - start


def tail_percentile(n: int) -> float:
    """99, or the highest percentile with at least 10 of ``n`` samples beyond it."""
    return min(99.0, max(0.0, 100.0 * (1.0 - 10.0 / n)))


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[round(pct / 100.0 * (len(ordered) - 1))]


class ServeRun:
    """The acc half of the corpus served by warm daemons it starts and stops."""

    def __init__(self, seed: int, work_dir: Path):
        self.corpus = build_corpus(seed, flavors=("acc",))["acc"]
        self.sources = [(f.name, f.source) for f in self.corpus]
        self.work_dir = work_dir
        self.out = Outcome(metrics={})
        self.daemons: list[Daemon] = []
        self.reference: dict[str, str] = {}

    def boot(self, trace_log: Path | None = None) -> Daemon:
        """Cache-fill pass, daemon boot and pool fork, then a warm-up."""
        from repro.cache.bundle import PipelineCache
        from repro.core.validator import TestsuiteValidator

        cache_dir = self.work_dir / f"cache-{len(self.daemons)}"
        cache = PipelineCache(cache_dir=cache_dir)
        report = TestsuiteValidator(flavor="acc", cache=cache).validate(self.corpus)
        cache.save()
        # the fill pass is a direct run: its verdicts are the reference
        self.reference = {j.name: _verdict_json(j) for j in report.files}
        daemon = Daemon(cache_dir, trace_log)
        self.daemons.append(daemon)
        daemon.start()
        # compile results are memory-only per worker: two passes make
        # it likely that both workers hold every file's compile
        self.load(daemon, 0.0, limit=2 * -(-len(self.sources) // SERVE_CLIENTS))
        return daemon

    def load(self, daemon: Daemon, seconds: float, limit: int | None = None):
        samples, elapsed = closed_loop(
            daemon.port, self.sources, self.reference, seconds, limit=limit
        )
        self.out.attempted += len(samples)
        self.out.failed += sum(1 for s in samples if s.response is None)
        return samples, elapsed

    def close(self) -> None:
        for daemon in self.daemons:
            daemon.stop()

    def untraced(self, seconds: float) -> Outcome:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            if self.daemons:
                self.daemons[-1].stop()
            t0 = time.perf_counter()
            daemon = self.boot()
            setup_times.append(time.perf_counter() - t0)
        samples, elapsed = self.load(daemon, seconds)
        latencies = [s.latency for s in samples]
        pct = tail_percentile(len(latencies))
        self.out.runs = len(samples)
        self.out.notes.append(
            f"requests {len(samples)}; p{pct:g} latency "
            f"{percentile(latencies, pct) * 1000.0:.3f} ms"
        )
        self.out.metrics = {
            "setup_s": statistics.median(setup_times),
            "throughput_per_s": sum(1 for s in samples if s.response) / elapsed,
            "latency_p50_ms": statistics.median(latencies) * 1000.0,
            "peak_rss_mb": daemon.peak_rss_mb(),
        }
        return self.out

    def traced(self, seconds: float, pairs: int = 4) -> Outcome:
        """Alternate windows on an untraced and a traced daemon."""
        from repro.obs.export import load_span_log

        plain = self.boot()
        span_log = self.work_dir / "serve-spans.jsonl"
        traced = self.boot(trace_log=span_log)
        before = _cache_lookups(traced.metrics_text())
        window = max(0.5, seconds / (2 * pairs))
        traced_samples, untraced_samples, windows = [], [], []
        p50_traced, p50_untraced = [], []
        for _ in range(pairs):
            samples, _ = self.load(plain, window)
            untraced_samples += samples
            p50_untraced.append(statistics.median(s.latency for s in samples))
            begin = time.time()
            samples, _ = self.load(traced, window)
            windows.append((begin, time.time()))
            traced_samples += samples
            p50_traced.append(statistics.median(s.latency for s in samples))
        after = _cache_lookups(traced.metrics_text())
        traced.stop()  # drains and writes the span log
        self.out.runs = len(traced_samples) + len(untraced_samples)

        spans = [
            s for s in load_span_log(span_log)
            if any(lo <= s["start"] <= hi for lo, hi in windows)
        ]
        ok = [s for s in traced_samples if s.response]
        metrics = layers.layer_metrics(spans, units=len(ok))
        for ns in layers.CACHE_NAMESPACES:
            hits = after.get((ns, "hit"), 0) - before.get((ns, "hit"), 0)
            misses = after.get((ns, "miss"), 0) - before.get((ns, "miss"), 0)
            metrics[f"cache.hit_ratio.{ns}"] = layers.ratio(hits, hits + misses)
        by_id = {s["span_id"]: s for s in spans}
        ipc = [
            by_id[s["parent_id"]]["end"] - by_id[s["parent_id"]]["start"] - (s["end"] - s["start"])
            for s in spans
            if s["name"] == "worker.execute_batch" and s["parent_id"] in by_id
        ]
        handled = [s["end"] - s["start"] for s in spans if s["name"] == "service.request"]
        untraced_latencies = [s.latency for s in untraced_samples]
        tail = tail_percentile(len(untraced_latencies))
        metrics.update({
            "service.batch_wait_ms": statistics.median(
                s.response["timings"]["queued_ms"] for s in ok
            ),
            "service.batch_size": statistics.fmean(s.response["batch"]["size"] for s in ok),
            "service.ipc_ms": statistics.median(ipc) * 1000.0,
            "service.http_ms": (
                statistics.median(s.latency for s in ok) - statistics.median(handled)
            ) * 1000.0,
            "service.pipeline_ms": statistics.median(
                s.response["timings"]["wall_ms"] for s in ok
            ),
            "service.latency_p99_ms": percentile(untraced_latencies, tail) * 1000.0,
        })
        metrics["obs.trace_overhead_ratio"], metrics["obs.trace_overhead_spread"] = (
            layers.overhead(p50_traced, p50_untraced)
        )
        self.out.metrics = metrics
        self.out.notes += layers.share_table(
            spans, len(ok), statistics.median(s.latency for s in ok)
        )
        self.out.notes.append(
            f"untraced requests {len(untraced_samples)}, traced {len(traced_samples)};"
            f" service.latency_p99_ms is p{tail:g} of the untraced requests"
        )
        return self.out


def serve_warm(seed: int, seconds: float, trace: bool) -> Outcome:
    # cache dirs, span logs and daemon stderr live inside the checkout
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as work_dir:
            run = ServeRun(seed, Path(work_dir))
            try:
                return run.traced(seconds) if trace else run.untraced(seconds)
            finally:
                run.close()
    finally:
        with contextlib.suppress(OSError):
            scratch.rmdir()


def _cache_lookups(text: str) -> dict[tuple[str, str], float]:
    """``cache_lookups_total`` by (namespace, result) from /v1/metrics text."""
    counts = {}
    for line in text.splitlines():
        if not line.startswith("cache_lookups_total{"):
            continue
        labels, value = line[len("cache_lookups_total{"):].rsplit("} ", 1)
        parts = dict(
            item.split("=", 1) for item in labels.split(",") if "=" in item
        )
        key = (parts.get("namespace", "").strip('"'), parts.get("result", "").strip('"'))
        counts[key] = float(value)
    return counts


WORKLOADS = {
    "corpus_cold": corpus_cold,
    "serve_warm": serve_warm,
    "fuzz_round": fuzz_round,
}
