"""The outcome of one serving run.

:class:`~repro.serving.pipeline.PipelinedInferenceServer` couples an
arrival stream, a batching policy, a cache scheme and the simulated
platform into one run; each request's latency is

    queueing (until its batch seals)
  + head-of-line wait (until the stages' resources are free)
  + batch service time (simulated embedding + dense compute).

The :class:`ServingReport` carries the latency distribution and SLA
attainment, making "how much more traffic fits under the same SLA with
Fleche?" — the paper's framing of why embedding speed matters —
directly answerable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import WorkloadError
from ..obs.registry import MetricsSnapshot


@dataclass
class ServingReport:
    """Outcome of one serving run.

    Every counter-valued field is derived from the engine's metrics
    registry: the serving loop snapshots the registry at run entry and
    diffs at run exit, so the report, the benchmarks and the tests all
    read the same audited numbers (the raw delta is kept in ``metrics``).
    The resilience fields stay zero / empty on fault-free runs; they are
    populated when the scheme's backing store is fault-aware (a
    :class:`~repro.multitier.hierarchy.TieredParameterStore` with a
    fault injector installed).
    """

    latencies: np.ndarray
    batch_sizes: List[int] = field(default_factory=list)
    served: int = 0
    #: Makespan of the run: first request arrival -> last batch finish
    #: (so throughput accounts for the tail batches draining).
    span: float = 0.0
    #: Cache hits / misses / unified-index hits over deduplicated keys,
    #: summed across all served batches.
    hits: int = 0
    misses: int = 0
    unified_hits: int = 0
    #: Missed keys served from another in-flight batch's pending fetch
    #: (always 0 at depth 1, where no two batches are in flight).
    coalesced_keys: int = 0
    #: Click probabilities concatenated in request order (dense runs only).
    probabilities: Optional[np.ndarray] = None
    #: Requests whose batch served at least one degraded (stale/default)
    #: embedding because the remote tier missed its retry budget.
    degraded_requests: int = 0
    #: Remote-fetch retries beyond each first attempt.
    retries: int = 0
    #: Hedged second requests fired after the hedge delay.
    hedges_fired: int = 0
    #: Total simulated time per-shard circuit breakers spent open.
    breaker_open_time: float = 0.0
    #: Merged ``(start, end)`` fault windows of the installed schedule.
    fault_windows: List[Tuple[float, float]] = field(default_factory=list)
    #: Per-request arrival times, aligned with ``latencies``.
    arrival_times: Optional[np.ndarray] = None
    #: Request-tracing summary (zero / empty unless a
    #: :class:`~repro.obs.reqtrace.RequestTracer` is attached): requests
    #: covered by trace recording, traces actually materialized under the
    #: sampling policy, and the SLA-miss root-cause breakdown
    #: (``cause -> violating request count``).
    traced_requests: int = 0
    sampled_traces: int = 0
    rootcause: Dict[str, int] = field(default_factory=dict)
    #: Registry delta covering exactly this run (counters, gauges,
    #: histograms) — the source the scalar fields above are read from.
    metrics: Optional[MetricsSnapshot] = None

    @property
    def throughput(self) -> float:
        return self.served / self.span if self.span > 0 else 0.0

    @property
    def mean_batch_size(self) -> float:
        return float(np.mean(self.batch_sizes)) if self.batch_sizes else 0.0

    def percentile(self, q: float) -> float:
        """Latency percentile; ``nan`` on an empty (zero-request) window."""
        if len(self.latencies) == 0:
            return float("nan")
        return float(np.percentile(self.latencies, q))

    @property
    def median_latency(self) -> float:
        return self.percentile(50.0)

    @property
    def p99_latency(self) -> float:
        return self.percentile(99.0)

    def sla_attainment(self, budget: float, window: str = "all") -> float:
        """Fraction of requests served within the latency ``budget``.

        ``window`` restricts the population: ``"all"`` (default),
        ``"healthy"`` — requests arriving outside every fault window —
        or ``"faulty"`` — requests arriving inside one.  An empty
        population yields ``nan``.
        """
        if budget <= 0:
            raise WorkloadError("SLA budget must be positive")
        ok = self.latencies <= budget
        if window == "all":
            return float(ok.mean())
        if window not in ("healthy", "faulty"):
            raise WorkloadError(
                "window must be 'all', 'healthy', or 'faulty'"
            )
        if self.arrival_times is None:
            raise WorkloadError(
                "windowed SLA needs per-request arrival times"
            )
        in_fault = np.zeros(len(self.latencies), dtype=bool)
        for start, end in self.fault_windows:
            in_fault |= (self.arrival_times >= start) & (
                self.arrival_times < end
            )
        mask = in_fault if window == "faulty" else ~in_fault
        return float(ok[mask].mean()) if mask.any() else float("nan")
