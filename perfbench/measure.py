"""The two runs of one workload: untraced end-to-end and traced per-layer.

Two clocks, never mixed:

* simulated-clock metrics (``sim_*``) come from runs whose inputs are a
  pure function of the seed, so they repeat exactly for a fixed seed;
* wall-clock metrics (``wall_rps_norm``, ``setup_s``, ``peak_rss_mb``) are
  the cost of running the simulator and are medians over several passes.

The speed of a small shared host drifts by a quarter and more over
seconds to minutes, and interpreter, memory-bound and BLAS work slow down
together.  A raw requests-per-second median therefore moves with the host
between runs of the same code.  ``wall_rps_norm`` divides that drift out:
a fixed :class:`ReferenceKernel` runs before and after every timed pass,
and each pass's rate is scaled by the mean time of the two kernel runs
around it.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.obs.reqtrace import RequestTracer, TraceConfig

from checks import check_conservation, verify
from tracing import LayerTracer, ServeTap, SpanRecorder

#: Latency charged to a request that never completed, so percentiles stay
#: finite; far above every workload's limit, so it always misses.
UNSERVED_LATENCY_S = 1.0
#: A rate "keeps up" when the completions in the middle half of the run
#: (shifted by the median latency) are at least this share of the arrivals.
KEEP_UP_RATIO = 0.95
#: Timed passes run for ``--seconds`` but never fewer than this.
MIN_PASSES = 3
#: ``wall_rps_norm`` is the rate on a machine that runs the reference
#: kernel in this many seconds (a little under its median time on a shared
#: 2-core Xeon VM).
REFERENCE_NOMINAL_S = 0.01


class ReferenceKernel:
    """Fixed work whose time measures the host's speed at this moment.

    Its three parts mirror the simulator's three kinds of work: a dict
    update loop in the interpreter, random row gathers from a 51 MB table
    (memory-bound, like embedding lookups) and small float32 matmuls on
    one BLAS thread (like the dense model).  Its inputs never change, so
    a change to the program cannot change its time.
    """

    def __init__(self):
        rng = np.random.default_rng(20_221_014)
        self.table = rng.standard_normal((400_000, 32)).astype(np.float32)
        self.ids = rng.integers(0, len(self.table), size=(8, 4096))
        self.a = rng.standard_normal((512, 64)).astype(np.float32)
        self.b = rng.standard_normal((64, 64)).astype(np.float32)

    def seconds(self) -> float:
        start = time.perf_counter()
        counts = {}
        for i in range(20_000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
        for ids in self.ids:
            self.table[ids].sum()
        for _ in range(60):
            self.a @ self.b
        return time.perf_counter() - start


def timed_pass(workload):
    """One timed pass, started from a collected heap.

    Collecting first keeps garbage left by earlier untimed work (ladder
    drills, the previous pass) from being charged to this pass.
    """
    gc.collect()
    return workload.timed_pass()


@dataclass
class Metric:
    value: float
    samples: str


@dataclass
class RunResult:
    metrics: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def count(self, outcome) -> None:
        check_conservation(outcome)
        self.attempted += outcome.attempted
        self.failed += outcome.failed + outcome.shed


# --------------------------------------------------------------- sim metrics


def percentile_ms(outcome, q: float) -> float:
    lat = np.where(
        np.isfinite(outcome.latencies), outcome.latencies, UNSERVED_LATENCY_S
    )
    return float(np.percentile(lat, q)) * 1e3


def sla_attainment(outcome, sla_s: float) -> float:
    """Share of attempted requests completed within ``sla_s``.

    Shed requests have infinite latency; degraded (failed) ones are
    subtracted from the in-limit count, so both count as misses.
    """
    within = int((outcome.latencies <= sla_s).sum()) - outcome.failed
    return max(within, 0) / outcome.attempted


def keeps_up(outcome) -> bool:
    """Completed throughput matches the offered rate: no growing backlog.

    Arrivals are counted over the middle half of the schedule and
    completions over the same window shifted by those requests' median
    latency; a backlog that grows makes the completions fall behind.
    """
    lo, hi = np.quantile(outcome.arrivals, [0.25, 0.75])
    window = (outcome.arrivals >= lo) & (outcome.arrivals < hi)
    lag = float(np.median(outcome.latencies[window]))
    finish = outcome.arrivals + outcome.latencies
    completed = int(((finish >= lo + lag) & (finish < hi + lag)).sum())
    return completed >= KEEP_UP_RATIO * int(window.sum())


def meets(outcome, sla_s: float) -> bool:
    return percentile_ms(outcome, 99.0) <= sla_s * 1e3 and keeps_up(outcome)


def max_rate(workload, result: RunResult) -> tuple:
    """Highest ladder rate meeting the p99 limit without a backlog.

    Latency rises with the offered rate, so a binary search over the
    fixed ladder finds the same rung a linear scan would.  Returns
    ``(rate or 0.0, rungs evaluated)``.
    """
    ladder = workload.ladder
    lo, hi = -1, len(ladder)
    evaluated = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        outcome = workload.rung(ladder[mid])
        result.count(outcome)
        evaluated += 1
        if meets(outcome, workload.sla_s):
            lo = mid
        else:
            hi = mid
    return (ladder[lo] if lo >= 0 else 0.0), evaluated


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setups(workload) -> List[float]:
    """Set the workload up ``setup_repeats`` times; keep the last system."""
    times = []
    for i in range(workload.size.setup_repeats):
        if i:
            workload.teardown()
            gc.collect()
        times.append(workload.setup())
    return times


# -------------------------------------------------------------- untraced


def run_untraced(workload, seed: int, seconds: float) -> RunResult:
    result = RunResult()
    workload.prepare(seed)
    setup_times = _setups(workload)

    nominal = workload.nominal()
    result.count(nominal)
    rate, rungs = max_rate(workload, result)
    # Read before the reference kernel's table exists: the program's peak.
    rss_mb = peak_rss_mb()

    reference = ReferenceKernel()
    reference.seconds()
    rps: List[float] = []
    # reference_s[i] and reference_s[i + 1] bracket pass i.
    reference_s: List[float] = [reference.seconds()]
    deadline = time.perf_counter() + seconds
    pass_sizes = []
    while len(rps) < MIN_PASSES or time.perf_counter() < deadline:
        outcome, serve_s, setup_s = timed_pass(workload)
        reference_s.append(reference.seconds())
        result.count(outcome)
        rps.append(outcome.attempted / serve_s)
        pass_sizes.append(outcome.attempted)
        if setup_s is not None:
            setup_times.append(setup_s)
    normalized = [
        r * (before + after) / (2 * REFERENCE_NOMINAL_S)
        for r, before, after in zip(rps, reference_s, reference_s[1:])
    ]

    result.notes.append(f"checks: {verify(workload)}")
    m = result.metrics
    n = f"{nominal.attempted} requests at {workload.nominal_rps:,.0f}/s"
    m["sim_p50_ms"] = Metric(percentile_ms(nominal, 50.0), n)
    m["sim_p99_ms"] = Metric(percentile_ms(nominal, 99.0), n)
    m["sim_sla_attainment"] = Metric(
        sla_attainment(nominal, workload.sla_s),
        f"{n}, limit {workload.sla_s * 1e3:g} ms",
    )
    m["sim_max_rate_rps"] = Metric(float(rate), (
        f"{rungs} of {len(workload.ladder)} ladder rungs "
        f"{workload.ladder[0]:,.0f}-{workload.ladder[-1]:,.0f}/s"
    ))
    size = f"{len(rps)} passes of {int(statistics.median(pass_sizes))} requests"
    m["wall_rps_norm"] = Metric(
        statistics.median(normalized),
        f"median of {size}, each scaled to a {REFERENCE_NOMINAL_S * 1e3:g} "
        f"ms reference kernel run before and after",
    )
    m["setup_s"] = Metric(
        statistics.median(setup_times), f"median of {len(setup_times)} set-ups"
    )
    m["peak_rss_mb"] = Metric(rss_mb, "1 process, before the timed passes")
    result.notes.append(
        f"raw wall_rps: {statistics.median(rps):.1f}/s, median of {size}; "
        f"reference kernel median {statistics.median(reference_s) * 1e3:.2f} ms"
    )
    result.notes.append(
        f"failed_frac: {result.failed / result.attempted:.6f} "
        f"({result.failed} failed+shed+degraded of {result.attempted} attempted)"
    )
    return result


# ---------------------------------------------------------------- traced

#: Critical-path segments grouped as the Exp 8 breakdown reports them;
#: every other segment is a wait.
SEGMENT_GROUPS = ("queue", "host", "pcie", "gpu")


def _critical_path_shares(traces) -> Dict[str, float]:
    totals = {g: 0.0 for g in SEGMENT_GROUPS + ("waits",)}
    for trace in traces:
        for name, seconds in trace.segments.items():
            if name == "shed":
                continue
            totals[name if name in SEGMENT_GROUPS else "waits"] += seconds
    whole = sum(totals.values())
    return {g: (v / whole if whole else 0.0) for g, v in totals.items()}


#: Request tracing of the traced run's nominal sample: every 4th request,
#: unbiased (no tail capture), so the segment shares are representative.
TRACE_CONFIG = TraceConfig(head_interval=4, capture_tail=False)


def _sim_split(workload) -> tuple:
    """Nominal run with request tracing: busy fractions + critical path.

    A cluster's nominal router was built with :data:`TRACE_CONFIG`; a
    single server gets a request tracer attached for this run only.
    """
    with ServeTap() as tap:
        if workload.kind == "cluster":
            outcome = workload.nominal()
            traces = workload.drill.report.traces or []
        else:
            tracer = RequestTracer(TRACE_CONFIG)
            workload.server.reqtracer = tracer
            outcome = workload.nominal()
            workload.server.reqtracer = None
            traces = tracer.traces
    busy = {name: 0.0 for name in ("host", "pcie", "gpu")}
    span = 0.0
    for run, report in tap.runs:
        span += report.span
        for name in busy:
            busy[name] += run.resource_busy.get(name, (0.0, 0))[0]
    fractions = {k: (v / span if span else 0.0) for k, v in busy.items()}
    return outcome, fractions, _critical_path_shares(traces), len(traces)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_traced(workload, seed: int, seconds: float, spans_path) -> RunResult:
    """Per-layer self time and counts; untraced passes measure overhead."""
    result = RunResult()
    recorder = SpanRecorder()
    tracer = LayerTracer(recorder)
    workload.prepare(seed)
    if workload.kind == "cluster":
        workload.trace_config = TRACE_CONFIG
        workload.setup()
        workload.trace_config = None
    else:
        workload.setup()
    traced_wall = 0.0

    outcome, busy, shares, sampled = _sim_split(workload)
    result.count(outcome)

    plain: List[float] = []
    traced: List[float] = []
    counts: Dict[str, float] = {}
    batch_sizes: List[int] = []
    extra = {"refresh.keys_applied": 0.0, "version_lag": 0.0,
             "failovers": 0.0, "routed": 0.0, "replayed": 0.0}
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_PASSES - 1 or time.perf_counter() < deadline:
        outcome, serve_s, _ = timed_pass(workload)
        result.count(outcome)
        plain.append(outcome.attempted / serve_s)

        with ServeTap() as tap:
            tracer.install()
            outcome, serve_s, setup_s = timed_pass(workload)
            tracer.uninstall()
        result.count(outcome)
        traced.append(outcome.attempted / serve_s)
        traced_wall += serve_s + (setup_s or 0.0)
        for _, report in tap.runs:
            batch_sizes.extend(report.batch_sizes)
            for name, value in report.metrics.counters.items():
                counts[name[0]] = counts.get(name[0], 0.0) + value
        if workload.kind == "cluster":
            drill = workload.last_pass
            report = drill.report
            extra["failovers"] += outcome.counters["cluster.served_failover"]
            extra["routed"] += outcome.attempted
            extra["replayed"] += outcome.counters["cluster.replayed_batches"]
            extra["version_lag"] = max(extra["version_lag"], max(
                s.get("version_lag", 0) for s in report.per_replica.values()
            ))
            end = max(r.arrival_time for r in drill.requests)
            extra["refresh.keys_applied"] += sum(
                r.subscriber.status(end)["applied_keys"]
                for r in drill.router.replicas if r.subscriber is not None
            )
    if workload.kind != "cluster":
        extra["refresh.keys_applied"] = counts.get("refresh.applied_keys", 0.0)
    checks = verify(workload)
    result.notes.append(f"checks: {checks}")
    recorder.write_csv(spans_path)
    result.notes.append(f"spans: {len(recorder.start)} written to {spans_path.name}")

    passes = len(traced)
    m = result.metrics
    per_pass = f"per traced pass, mean of {passes}"
    for layer, (self_s, calls) in recorder.layer_totals().items():
        m[f"{layer}.self_s"] = Metric(self_s / passes, per_pass)
        m[f"{layer}.calls"] = Metric(calls / passes, per_pass)
    m["unattributed_s"] = Metric(
        (traced_wall - recorder.root_time()) / passes,
        f"{per_pass} (timed region: serve, plus router set-up on a cluster)",
    )
    m["tracing_overhead_frac"] = Metric(
        1.0 - statistics.median(traced) / statistics.median(plain),
        f"1 - median traced / median untraced raw wall_rps, {passes} passes each",
    )
    m["unmeasured_layers"] = Metric(
        float(len(tracer.unmeasured_layers)), "layers whose functions are gone"
    )
    for layer, target, reason in tracer.missing:
        result.notes.append(
            f"UNMEASURED layer {layer}: {target} not found ({reason})"
        )

    c = counts.get
    lookups = c("cache.hits", 0.0) + c("cache.misses", 0.0)
    misses = c("cache.misses", 0.0)
    m["core.hit_rate"] = Metric(_ratio(c("cache.hits", 0.0), lookups), per_pass)
    m["core.unified_hit_frac"] = Metric(
        _ratio(c("cache.unified_hits", 0.0), misses), per_pass
    )
    m["core.evicted_keys"] = Metric(c("cache.evictions", 0.0) / passes, per_pass)
    m["serving.mean_batch"] = Metric(
        float(np.mean(batch_sizes)) if batch_sizes else 0.0,
        f"{len(batch_sizes)} batches of {passes} traced passes",
    )
    m["serving.coalesced_frac"] = Metric(
        _ratio(c("cache.coalesced_keys", 0.0), misses), per_pass
    )
    dram = c("tier.dram_hits", 0.0) + c("tier.dram_misses", 0.0)
    m["multitier.dram_hit_rate"] = Metric(
        _ratio(c("tier.dram_hits", 0.0), dram), per_pass
    )
    m["multitier.remote_keys"] = Metric(
        c("tier.remote_keys", 0.0) / passes, per_pass
    )
    m["multitier.pointer_invalidations"] = Metric(
        c("tier.pointer_invalidations", 0.0) / passes, per_pass
    )
    m["refresh.keys_applied"] = Metric(
        extra["refresh.keys_applied"] / passes, per_pass
    )
    m["refresh.version_lag_end"] = Metric(
        float(extra["version_lag"]), f"max over {passes} traced passes"
    )
    m["refresh.stale_row_frac"] = Metric(
        _ratio(checks.get("stale_updated_rows", 0),
               checks.get("updated_rows_checked", 0)),
        "updated rows served an older version than the last writer's",
    )
    m["cluster.failover_frac"] = Metric(
        _ratio(extra["failovers"], extra["routed"]), per_pass
    )
    m["cluster.replayed_batches"] = Metric(extra["replayed"] / passes, per_pass)
    split = f"nominal run, {sampled} sampled request traces"
    for name, value in busy.items():
        m[f"gpusim.{name}_busy_frac"] = Metric(value, "nominal run")
    for name, value in shares.items():
        m[f"critical_path.{name}_share"] = Metric(value, split)
    return result
