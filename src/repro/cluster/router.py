"""Front-end router: health-checked dispatch, failover, hedging.

The :class:`ClusterRouter` composes N :class:`~repro.cluster.replica.
ClusterReplica`\\ s behind one ``serve()`` entry point.  Planning is
separated from execution so a run stays a pure function of
``(requests, schedule, seed)``:

1. **Detect** — the :class:`~repro.cluster.health.HealthMonitor`
   precomputes every replica's health timeline from the fault schedule.
2. **Plan** — the routing policy names each request's primary (in one
   call for the stateless policies), then requests are walked in
   arrival order: crash windows turn dispatches into lost
   sends (re-dispatched to the next live replica after
   ``dispatch_timeout``, or immediately once the per-replica circuit
   breaker opens); detected-dead and suspect windows fail over at
   dispatch time; slowdown windows add a cross-replica hedge copy after
   ``hedge_delay``.
3. **Execute** — each ``(replica, incarnation)`` stream is served
   through its own :class:`~repro.serving.pipeline.
   PipelinedInferenceServer`.  Crash victims run first so in-flight
   losses can spawn failover copies; the victim then crashes, restores
   its snapshot, replays the shared update log to the version frontier,
   and its post-rejoin incarnation serves like any other stream.
4. **Merge** — per request, the earliest valid completion wins
   (primary beats failover beats hedge on ties); requests with no valid
   completion are shed.

Conservation is audited on the router's own registry: routed requests
equal served-primary + served-failover + served-hedge + shed, hedge
wins never exceed hedges fired, and every live replica's refresh stream
must satisfy its own fan-out conservation law.

With ``failover=False`` the router degrades to the unrouted baseline
the drill compares against: requests for a crashed replica are shed
until the process restarts and replays, and nothing is hedged.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from math import ceil, inf, isfinite
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError, WorkloadError
from ..faults.retry import BreakerConfig, CircuitBreaker
from ..faults.schedule import FaultSchedule
from ..obs.alerts import FIRING, RESOLVED, Alert
from ..obs.critical_path import classify
from ..obs.registry import MetricsRegistry, Observable, install_reqtrace_laws
from ..obs.reqtrace import (
    RequestTrace,
    RequestTracer,
    TraceConfig,
    TraceContext,
    _finish_trace,
)
from .health import (
    HEALTHY,
    STATE_CODES,
    SUSPECT,
    HealthConfig,
    HealthMonitor,
    ReplicaHealth,
)
from .replica import ClusterReplica
from .routing import RoutingPolicy, make_policy

#: How a request ultimately got served (ClusterReport.dispositions).
DISPATCH_PRIMARY = "primary"
DISPATCH_FAILOVER = "failover"
DISPATCH_HEDGE = "hedge"
SHED = "shed"

_KIND_RANK = {DISPATCH_PRIMARY: 0, DISPATCH_FAILOVER: 1, DISPATCH_HEDGE: 2}


@dataclass(frozen=True)
class ClusterConfig:
    """Topology + routing + failure-handling knobs for one cluster."""

    num_replicas: int = 4
    #: Routing policy name (see :data:`repro.cluster.routing.POLICY_NAMES`).
    policy: str = "hash"
    routing_table: int = 0
    cache_ratio: float = 0.05
    depth: int = 2
    max_batch_size: int = 64
    max_delay: float = 5e-4
    #: Zipf-head ids replicated onto every replica at admission.
    hot_keys: int = 256
    #: Cross-replica hedge delay for straggler replicas (None = off).
    hedge_delay: Optional[float] = None
    #: False = unrouted baseline: no failover, no hedging, crashed
    #: replicas shed their traffic until the process restarts.
    failover: bool = True
    #: Un-acked dispatches are re-sent to the next replica after this.
    dispatch_timeout: float = 1e-3
    #: Per-replica circuit breaker (None = no breaker).
    breaker: Optional[BreakerConfig] = None
    refresh_quantum: int = 512
    health: HealthConfig = field(default_factory=HealthConfig)

    def __post_init__(self) -> None:
        if self.num_replicas < 1:
            raise ConfigError("cluster needs at least one replica")
        if self.hot_keys < 0:
            raise ConfigError("hot_keys must be >= 0")
        if self.dispatch_timeout <= 0:
            raise ConfigError("dispatch_timeout must be positive")
        if self.hedge_delay is not None and self.hedge_delay <= 0:
            raise ConfigError("hedge_delay must be positive when set")


@dataclass
class _Dispatch:
    """One planned send of one request to one replica incarnation."""

    index: int
    replica: int
    incarnation: int
    at: float
    kind: str
    finish: float = inf
    valid: bool = False
    #: position within the sorted execution stream (set at run time;
    #: the stream tracer's batch records are indexed by it).
    pos: int = -1
    #: why a failover was planned ("breaker", "timeout", "inflight",
    #: "health") — distinguishes breaker fast-fails in the trace.
    cause: str = ""


@dataclass(frozen=True)
class _CrashEpisode:
    """One replica's crash window annotated with detector instants."""

    replica: int
    start: float
    end: float
    detect_at: float  # first suspect transition at/after start (inf = never)
    rejoin_at: float  # first healthy transition after detect (inf = never)
    recover_done: float  # unrouted restart + replay completion instant


class ClusterReport:
    """Cluster-wide serving outcome, aligned with the input stream."""

    def __init__(
        self,
        latencies: np.ndarray,
        arrival_times: np.ndarray,
        dispositions: List[str],
        per_replica: Dict[int, dict],
        health: Dict[int, ReplicaHealth],
        alerts: List[Alert],
        episodes: List[_CrashEpisode],
        metrics,
        *,
        traces=None,
        rootcause=None,
    ):
        self.latencies = latencies
        self.arrival_times = arrival_times
        self.dispositions = dispositions
        self.per_replica = per_replica
        self.health = health
        self.alerts = alerts
        self.episodes = episodes
        self.metrics = metrics
        #: sampled :class:`~repro.obs.reqtrace.RequestTrace` objects and
        #: the SLA-miss root-cause summary; None unless the router was
        #: built with a :class:`~repro.obs.reqtrace.TraceConfig`.
        self.traces = traces
        self.rootcause = rootcause

    # ------------------------------------------------------------- queries

    @property
    def served(self) -> int:
        return int(np.isfinite(self.latencies).sum())

    @property
    def shed(self) -> int:
        return len(self.latencies) - self.served

    def sla_attainment(
        self, budget: float, start: float = 0.0, end: float = inf
    ) -> float:
        """Fraction of requests arriving in ``[start, end)`` served
        within ``budget``; shed requests count against the SLA."""
        mask = (self.arrival_times >= start) & (self.arrival_times < end)
        if not mask.any():
            return float("nan")
        return float((self.latencies[mask] <= budget).mean())

    def percentile(self, q: float) -> float:
        finite = self.latencies[np.isfinite(self.latencies)]
        if len(finite) == 0:
            return float("nan")
        return float(np.percentile(finite, q))

    def latencies_for(self, kind: str) -> np.ndarray:
        mask = np.array([d == kind for d in self.dispositions])
        return self.latencies[mask]

    def disposition_counts(self) -> Dict[str, int]:
        counts = {k: 0 for k in (*_KIND_RANK, SHED)}
        for d in self.dispositions:
            counts[d] += 1
        return counts

    def to_payload(self, sla_budget: float) -> dict:
        """Deterministic JSON-safe summary (no floats from wall time)."""
        failover = self.latencies_for(DISPATCH_FAILOVER)
        payload = {
            "requests": len(self.latencies),
            "served": self.served,
            "shed": self.shed,
            "dispositions": self.disposition_counts(),
            "sla_attainment": self.sla_attainment(sla_budget),
            "p50_latency_s": self.percentile(50),
            "p99_latency_s": self.percentile(99),
            "failover_p50_s": (
                float(np.percentile(failover, 50)) if len(failover) else None
            ),
            "failover_p99_s": (
                float(np.percentile(failover, 99)) if len(failover) else None
            ),
            "alerts": [a.to_dict() for a in self.alerts],
            "health": {
                str(r): self.health[r].to_payload() for r in sorted(self.health)
            },
            "replicas": {
                str(r): self.per_replica[r] for r in sorted(self.per_replica)
            },
            "episodes": [
                {
                    "replica": e.replica,
                    "start_s": e.start,
                    "end_s": e.end if isfinite(e.end) else None,
                    "detect_s": e.detect_at if isfinite(e.detect_at) else None,
                    "rejoin_s": e.rejoin_at if isfinite(e.rejoin_at) else None,
                }
                for e in self.episodes
            ],
            "metrics": self.metrics.to_dict() if self.metrics else {},
        }
        if self.rootcause is not None:
            payload["rootcause"] = self.rootcause
        return payload

    def trace_payload(self, sla_budget: Optional[float] = None) -> dict:
        """Deterministic ``kind: reqtrace`` artifact of the sampled set.

        Same shape as :meth:`~repro.obs.reqtrace.RequestTracer.
        to_payload`, so ``repro obs critical-path`` and
        :func:`~repro.obs.critical_path.analyze_payload` consume both.
        """
        traces = self.traces or []
        causes: Dict[str, int] = {}
        for t in traces:
            if t.rootcause:
                causes[t.rootcause] = causes.get(t.rootcause, 0) + 1
        return {
            "kind": "reqtrace",
            "sla_budget_s": sla_budget,
            "requests": len(self.latencies),
            "sampled": len(traces),
            "rootcause": {"causes": {k: causes[k] for k in sorted(causes)}},
            "traces": [t.to_dict() for t in traces],
        }


class ClusterRouter(Observable):
    """N cache-equipped serving replicas behind one routed front end."""

    def __init__(
        self,
        dataset,
        hw,
        config: Optional[ClusterConfig] = None,
        schedule: Optional[FaultSchedule] = None,
        update_log=None,
        warm_seed: int = 0,
        trace: Optional[TraceConfig] = None,
    ):
        self.dataset = dataset
        self.hw = hw
        self.config = config or ClusterConfig()
        self.schedule = schedule or FaultSchedule()
        #: Per-request tracing contract (None = tracing off, every code
        #: path byte-identical to an untraced router).  Sampling and all
        #: ``reqtrace.*`` counters happen at router level, where the
        #: end-to-end (cross-replica) latency is known.
        self.trace_config = trace
        self.update_log = update_log
        self.warm_seed = warm_seed
        cfg = self.config
        self.policy: RoutingPolicy = make_policy(
            cfg.policy, cfg.num_replicas, cfg.routing_table
        )
        self.monitor = HealthMonitor(
            cfg.health, self.schedule, cfg.num_replicas
        )
        self.replicas: List[ClusterReplica] = [
            ClusterReplica(
                r, dataset, hw,
                cache_ratio=cfg.cache_ratio,
                max_batch_size=cfg.max_batch_size,
                max_delay=cfg.max_delay,
                depth=cfg.depth,
                refresh_quantum=cfg.refresh_quantum,
            )
            for r in range(cfg.num_replicas)
        ]
        self.breakers: Dict[int, CircuitBreaker] = (
            {r: CircuitBreaker(cfg.breaker) for r in range(cfg.num_replicas)}
            if cfg.breaker is not None else {}
        )
        self.health: Dict[int, ReplicaHealth] = {}
        self.bind_observability(MetricsRegistry())
        self._admit()

    # -------------------------------------------------------------- setup

    def _admit(self) -> None:
        """Warm the hot head on every replica; wire the refresh fan-out."""
        for replica in self.replicas:
            replica.warm_hot_keys(self.warm_seed, self.config.hot_keys)
            if self.update_log is not None:
                replica.attach_refresh(self.update_log, now=0.0)
                replica.take_snapshot()

    def _register_observability(self, registry: MetricsRegistry) -> None:
        registry.add_conservation(
            "cluster.request-conservation",
            ["cluster.requests"],
            [
                "cluster.served_primary",
                "cluster.served_failover",
                "cluster.served_hedge",
                "cluster.shed",
            ],
        )
        registry.add_conservation(
            "cluster.hedge-wins-bounded",
            ["cluster.hedge_wins"], ["cluster.hedges_fired"], op="<=",
        )
        registry.add_conservation(
            "cluster.failover-dispatch-bounded",
            ["cluster.served_failover"], ["cluster.failovers_dispatched"],
            op="<=",
        )
        registry.add_check(
            "cluster.fanout-conservation", self._audit_fanout
        )
        install_reqtrace_laws(registry)
        self.monitor.bind_observability(registry)

    def _audit_fanout(self):
        """Every live replica's refresh stream conserves its keys."""
        for replica in self.replicas:
            if replica.subscriber is None:
                continue
            result = replica.subscriber._audit_stream()
            ok, detail = result if isinstance(result, tuple) else (result, "")
            if not ok:
                return False, f"replica {replica.replica_id}: {detail}"
        return True, "all replica streams conserve keys"

    # ----------------------------------------------------------- planning

    def _episodes(self) -> Dict[int, _CrashEpisode]:
        episodes: Dict[int, _CrashEpisode] = {}
        cfg = self.config
        for r in range(cfg.num_replicas):
            windows = self.schedule.replica_crash_windows(r)
            if not windows:
                continue
            if len(windows) > 1:
                raise ConfigError(
                    "at most one crash window per replica is supported"
                )
            start, end = windows[0]
            detect = self.health[r].first(SUSPECT, after=start)
            rejoin = (
                self.health[r].first(HEALTHY, after=detect)
                if detect is not None else None
            )
            recover_done = end + (
                self.replicas[r].pending_replay_keys(end)
                / cfg.health.replay_keys_per_s
            ) if isfinite(end) else inf
            episodes[r] = _CrashEpisode(
                replica=r,
                start=start,
                end=end,
                detect_at=detect if detect is not None else inf,
                rejoin_at=rejoin if rejoin is not None else inf,
                recover_done=recover_done,
            )
        return episodes

    def _incarnation_at(
        self, replica: int, at: float, episodes: Dict[int, _CrashEpisode]
    ) -> int:
        episode = episodes.get(replica)
        if episode is None:
            return 0
        boundary = (
            episode.rejoin_at if self.config.failover
            else episode.recover_done
        )
        return 1 if at >= boundary else 0

    def _fallback_target(self, owner: int, at: float) -> Optional[int]:
        """Next replica on the ring that is routable *and* actually up."""
        for k in range(1, self.config.num_replicas):
            cand = (owner + k) % self.config.num_replicas
            if self.health[cand].routable_at(at) and not (
                self.schedule.replica_crashed(cand, at)
            ):
                return cand
        return None

    # ------------------------------------------------------------ serving

    def serve(self, requests: Sequence) -> ClusterReport:
        if not requests:
            raise WorkloadError("no requests to serve")
        cfg = self.config
        reg = self.obs
        reg.check()
        before = reg.snapshot()
        n = len(requests)
        reg.inc("cluster.requests", n)

        last_arrival = max(r.arrival_time for r in requests)
        finite_ends = [
            e.end for e in self.schedule.events if isfinite(e.end)
        ]
        horizon0 = max([last_arrival] + finite_ends)
        replay_margin = max(
            (
                replica.pending_replay_keys(horizon0)
                / cfg.health.replay_keys_per_s
                for replica in self.replicas
            ),
            default=0.0,
        )
        horizon = (
            horizon0 + replay_margin
            + cfg.health.heartbeat_interval * (cfg.health.dead_after + 8)
        )

        def replay_seconds(r: int, at: float) -> float:
            return (
                self.replicas[r].pending_replay_keys(at)
                / cfg.health.replay_keys_per_s
            )

        self.health = self.monitor.observe(
            horizon, replay_seconds=replay_seconds
        )
        episodes = self._episodes()

        streams: Dict[Tuple[int, int], List[_Dispatch]] = {}
        per_index: List[List[_Dispatch]] = [[] for _ in range(n)]

        def plan(index, replica, at, kind, cause=""):
            incarnation = self._incarnation_at(replica, at, episodes)
            dispatch = _Dispatch(
                index, replica, incarnation, at, kind, cause=cause
            )
            streams.setdefault((replica, incarnation), []).append(dispatch)
            per_index[index].append(dispatch)
            self.policy.note_dispatch(replica, at)
            if kind == DISPATCH_FAILOVER:
                reg.inc("cluster.failovers_dispatched")
            elif kind == DISPATCH_HEDGE:
                reg.inc("cluster.hedges_fired")
            return dispatch

        def plan_failover(index, owner, at, cause):
            target = self._fallback_target(owner, at)
            if target is None:
                return None
            return plan(index, target, at, DISPATCH_FAILOVER, cause=cause)

        # Stateless policies (hash, table-shard) name every primary in one
        # call; they ignore the healthy set, so this equals asking per
        # request.  Load-aware ones answer per request from their history.
        owners = self.policy.primary_many(requests)
        if owners is not None:
            owners = owners.tolist()
        for index, request in enumerate(requests):
            t = request.arrival_time
            if owners is not None:
                owner = owners[index]
            else:
                healthy = (
                    [r for r in range(cfg.num_replicas)
                     if self.health[r].routable_at(t)]
                    if cfg.failover else list(range(cfg.num_replicas))
                )
                owner = self.policy.primary(request, healthy)
            episode = episodes.get(owner)

            if not cfg.failover:
                # Unrouted baseline: shed while the owner is down or
                # still replaying after its restart.
                if episode is not None and (
                    episode.start <= t < episode.recover_done
                ):
                    continue
                plan(index, owner, t, DISPATCH_PRIMARY)
                continue

            if episode is not None and t >= episode.start:
                if t >= episode.rejoin_at:
                    plan(index, owner, t, DISPATCH_PRIMARY)
                elif t >= episode.detect_at:
                    plan_failover(index, owner, t, "health")
                else:
                    # Undetected-dead window: the send is lost.  The
                    # breaker learns from the failure; once open, the
                    # router skips the dead replica without waiting out
                    # the dispatch timeout.
                    breaker = self.breakers.get(owner)
                    if breaker is not None and not breaker.allow(t):
                        reg.inc("cluster.breaker_rejections")
                        plan_failover(index, owner, t, "breaker")
                    else:
                        if breaker is not None:
                            breaker.record(False, t)
                        reg.inc("cluster.lost_dispatches")
                        plan_failover(
                            index, owner, t + cfg.dispatch_timeout, "timeout"
                        )
                continue

            if not self.health[owner].routable_at(t):
                # Suspect/dead from heartbeat loss alone: route away.
                plan_failover(index, owner, t, "health")
                continue

            plan(index, owner, t, DISPATCH_PRIMARY)
            if episode is not None:
                breaker = self.breakers.get(owner)
                if breaker is not None:
                    breaker.record(True, t)
            slow = self.schedule.replica_slow_factor(owner, t)
            if cfg.hedge_delay is not None and slow > 1.0:
                hedge_at = t + cfg.hedge_delay
                target = self._fallback_target(owner, hedge_at)
                if target is not None:
                    plan(index, target, hedge_at, DISPATCH_HEDGE)

        # ---------------------------------------------------- execution
        stream_tracers: Dict[Tuple[int, int], RequestTracer] = {}

        def run_stream(key):
            replica_id, incarnation = key
            dispatches = sorted(
                streams[key],
                key=lambda d: (d.at, requests[d.index].request_id),
            )
            stream_requests = [
                requests[d.index]
                if d.at == requests[d.index].arrival_time
                else dataclasses.replace(
                    requests[d.index], arrival_time=d.at
                )
                for d in dispatches
            ]
            tracer = None
            if self.trace_config is not None:
                # One non-finalizing tracer per stream: it records batch
                # timing only (no sampling, no counters); the router
                # materializes winner traces from it at merge time.  The
                # dispatch's stream position indexes into its records.
                tracer = RequestTracer(
                    self.trace_config, finalize_on_serve=False
                )
                for j, dispatch in enumerate(dispatches):  # lint: allow-loop (per dispatch, trace-enabled runs only)
                    dispatch.pos = j
                self.replicas[replica_id].attach_reqtracer(tracer)
                stream_tracers[key] = tracer
            report = self.replicas[replica_id].serve(stream_requests)
            if tracer is not None:
                self.replicas[replica_id].attach_reqtracer(None)
            for dispatch, latency in zip(dispatches, report.latencies):
                factor = self.schedule.replica_slow_factor(
                    replica_id, dispatch.at
                )
                dispatch.finish = dispatch.at + float(latency) * factor
                dispatch.valid = True
            return report

        victims = sorted(episodes, key=lambda r: episodes[r].start)
        for victim in victims:
            episode = episodes[victim]
            key = (victim, 0)
            if key in streams:
                run_stream(key)
                for dispatch in streams[key]:
                    if dispatch.finish > episode.start:
                        # In flight when the replica died: the response
                        # never arrives.  The router only learns at
                        # detection, so the retry dispatches then.
                        dispatch.valid = False
                        reg.inc("cluster.lost_inflight")
                        if cfg.failover and isfinite(episode.detect_at):
                            plan_failover(
                                dispatch.index, victim, episode.detect_at,
                                "inflight",
                            )
            restart_at = (
                episode.rejoin_at if cfg.failover else episode.recover_done
            )
            self.replicas[victim].crash()
            if isfinite(restart_at):
                if self.replicas[victim].snapshot_ is not None:
                    replayed = self.replicas[victim].recover(restart_at)
                    reg.inc("cluster.replayed_batches", replayed)
                else:
                    # No snapshot (refresh not wired): cold restart.
                    self.replicas[victim].cold_restart()
                    self.replicas[victim].warm_hot_keys(
                        self.warm_seed, cfg.hot_keys
                    )

        for key in sorted(streams):
            if key[0] in episodes and key[1] == 0:
                continue  # victim pre-crash streams already ran
            run_stream(key)

        # ------------------------------------------------------- merging
        # Per request the earliest valid completion wins; ties prefer
        # primary over failover over hedge, then plan order — i.e. the
        # first minimum of ``(finish, kind_rank)`` in each request's
        # dispatch list.  One lexsort over every valid dispatch finds
        # all winners at once: sort by (index, finish, rank, seq) and
        # take each index's first row (seq = plan order, so ties
        # reproduce Python ``min``'s first-wins behaviour).
        latencies = np.full(n, inf)
        dispositions: List[str] = [SHED] * n
        winner_by_index: Dict[int, _Dispatch] = {}
        valid_d = [d for lst in per_index for d in lst if d.valid]
        if valid_d:
            m = len(valid_d)
            d_index = np.fromiter(
                (d.index for d in valid_d), np.int64, count=m
            )
            d_finish = np.fromiter(
                (d.finish for d in valid_d), np.float64, count=m
            )
            d_rank = np.fromiter(
                (_KIND_RANK[d.kind] for d in valid_d), np.int64, count=m
            )
            order = np.lexsort(
                (np.arange(m), d_rank, d_finish, d_index)
            )
            served_idx, first = np.unique(
                d_index[order], return_index=True
            )
            winners = order[first]
            arrival_arr = np.fromiter(
                (r.arrival_time for r in requests), np.float64, count=n
            )
            latencies[served_idx] = (
                d_finish[winners] - arrival_arr[served_idx]
            )
            kind_by_rank = (
                DISPATCH_PRIMARY, DISPATCH_FAILOVER, DISPATCH_HEDGE
            )
            for i, w, rank in zip(
                served_idx.tolist(), winners.tolist(),
                d_rank[winners].tolist(),
            ):
                dispositions[i] = kind_by_rank[rank]
                winner_by_index[i] = valid_d[w]
        counts = {k: 0 for k in (*_KIND_RANK, SHED)}
        for d in dispositions:
            counts[d] += 1
        reg.inc("cluster.served_primary", counts[DISPATCH_PRIMARY])
        reg.inc("cluster.served_failover", counts[DISPATCH_FAILOVER])
        reg.inc("cluster.served_hedge", counts[DISPATCH_HEDGE])
        reg.inc("cluster.shed", counts[SHED])
        if counts[DISPATCH_HEDGE]:
            reg.inc("cluster.hedge_wins", counts[DISPATCH_HEDGE])

        traces = rootcause = None
        if self.trace_config is not None:
            traces, rootcause = self._assemble_traces(
                requests, latencies, dispositions, per_index,
                winner_by_index, stream_tracers,
            )

        alerts = (
            self.monitor.health_alerts(self.health) if cfg.failover else []
        )
        alerts.extend(self._staleness_alerts(episodes, horizon))

        # Final sync: live subscribers catch up to the frontier so the
        # cluster converges before the fan-out audit runs.
        for replica in self.replicas:
            if replica.subscriber is not None:
                replica.subscriber.catch_up(horizon)
                replica.subscriber.refresh_gauges(horizon)
        per_replica = self._replica_summaries(
            {key: len(v) for key, v in streams.items()}, horizon
        )

        reg.check()
        delta = reg.snapshot().diff(before)
        return ClusterReport(
            latencies=latencies,
            arrival_times=np.array(
                [r.arrival_time for r in requests], dtype=float
            ),
            dispositions=dispositions,
            per_replica=per_replica,
            health=self.health,
            alerts=alerts,
            episodes=sorted(
                episodes.values(), key=lambda e: (e.start, e.replica)
            ),
            metrics=delta,
            traces=traces,
            rootcause=rootcause,
        )

    # ------------------------------------------------------------ tracing

    def _assemble_traces(
        self,
        requests: Sequence,
        latencies: np.ndarray,
        dispositions: List[str],
        per_index: List[List[_Dispatch]],
        winner_by_index: Dict[int, _Dispatch],
        stream_tracers: Dict[Tuple[int, int], "RequestTracer"],
    ):
        """Materialize the sampled trace set from the stream tracers.

        Sampling happens here — at the only level where the end-to-end
        latency (across failover/hedge copies) exists.  Head sampling is
        the deterministic id slice; tail capture retains every SLA
        violator (shed requests have infinite latency, so they always
        violate a finite budget); and every request that needed more
        than one dispatch copy — or was shed — is force-retained, so no
        fault-touched request ever escapes the trace.  Each winner trace
        is the replica-side record wrapped with the routing hop: the
        unscaled ``route_wait`` (arrival -> winning dispatch) tagged
        with its cause, and the replica slowdown ``scale`` the router
        applied to the whole replica-side latency.
        """
        reg = self.obs
        cfg = self.trace_config
        n = len(requests)
        ids = np.fromiter(
            (r.request_id for r in requests), np.int64, count=n
        )
        arrivals = np.fromiter(
            (r.arrival_time for r in requests), np.float64, count=n
        )
        if cfg.head_interval:
            head = (ids % cfg.head_interval) == 0
        else:
            head = np.zeros(n, dtype=bool)
        if cfg.sla_budget is not None:
            violating = latencies > cfg.sla_budget
        else:
            violating = np.zeros(n, dtype=bool)
        tail = violating & cfg.capture_tail
        forced = np.fromiter(
            (
                len(per_index[i]) > 1 or dispositions[i] != DISPATCH_PRIMARY
                for i in range(n)
            ),
            dtype=bool, count=n,
        )
        sampled = head | tail | forced
        n_sampled = int(sampled.sum())
        n_viol = int(violating.sum())
        reg.inc("reqtrace.requests", n)
        reg.inc("reqtrace.sampled", n_sampled)
        reg.inc("reqtrace.dropped", n - n_sampled)
        reg.inc("reqtrace.sampled_forced", int(forced.sum()))
        reg.inc("reqtrace.sampled_tail", int((tail & ~forced).sum()))
        reg.inc(
            "reqtrace.sampled_head", int((head & ~tail & ~forced).sum())
        )
        reg.inc("reqtrace.sla_violations", n_viol)
        if cfg.capture_tail:
            reg.inc("reqtrace.tail_eligible", n_viol)
            reg.inc(
                "reqtrace.tail_retained", int((violating & sampled).sum())
            )

        traces: List[RequestTrace] = []
        causes: Dict[str, int] = {}
        conserved = 0
        for i in np.flatnonzero(sampled).tolist():  # lint: allow-loop (per sampled request, bounded by the sampling config)
            winner = winner_by_index.get(i)
            if winner is None:
                trace = RequestTrace(
                    context=TraceContext(int(ids[i]), dispatch=SHED),
                    arrival=float(arrivals[i]),
                    latency=inf,
                    batch_index=-1,
                )
            else:
                tracer = stream_tracers[(winner.replica, winner.incarnation)]
                trace = tracer.trace_for(winner.pos)
                trace.context = TraceContext(
                    request_id=int(ids[i]),
                    dispatch=winner.kind,
                    replica=winner.replica,
                    incarnation=winner.incarnation,
                )
                trace.scale = self.schedule.replica_slow_factor(
                    winner.replica, winner.at
                )
                trace.route_wait = winner.at - float(arrivals[i])
                if winner.kind == DISPATCH_HEDGE:
                    trace.route_cause = "hedge_wait"
                elif winner.kind == DISPATCH_FAILOVER:
                    trace.route_cause = (
                        "breaker_fastfail" if winner.cause == "breaker"
                        else "failover_redispatch"
                    )
                trace.arrival = float(arrivals[i])
                trace.latency = float(latencies[i])
            trace.sampled_by = (
                "forced" if forced[i] else "tail" if tail[i] else "head"
            )
            _finish_trace(trace, reg)
            if not trace.shed and trace.conserved:
                conserved += 1
            if violating[i]:
                trace.rootcause = classify(trace.segments)
                reg.inc("reqtrace.rootcause", cause=trace.rootcause)
                causes[trace.rootcause] = causes.get(trace.rootcause, 0) + 1
            traces.append(trace)
        checked = sum(1 for t in traces if not t.shed)
        tagged = sum(1 for t in traces if t.rootcause is not None)
        rootcause = {
            "violations": n_viol,
            "tagged": sum(causes.values()),
            "coverage": (
                sum(causes.values()) / n_viol if n_viol else 1.0
            ),
            "causes": {k: causes[k] for k in sorted(causes)},
            "conservation": {"checked": checked, "ok": conserved},
            "sampled": n_sampled,
            "sampled_traces_tagged": tagged,
        }
        return traces, rootcause

    # ------------------------------------------------------------ reports

    def _staleness_alerts(
        self, episodes: Dict[int, _CrashEpisode], horizon: float
    ) -> List[Alert]:
        """Per-victim staleness alerts on the simulated beat clock.

        A crashed replica's applied version is pinned at its snapshot;
        the alert fires at the first heartbeat where the cluster's
        version frontier leads the snapshot by more than the staleness
        budget, and resolves at rejoin (when replay has caught up).
        """
        if self.update_log is None:
            return []
        cfg = self.config.health
        alerts: List[Alert] = []
        for r in sorted(episodes):
            episode = episodes[r]
            snapshot = self.replicas[r].snapshot_
            if snapshot is None:
                continue
            resolve_at = (
                episode.rejoin_at if self.config.failover
                else episode.recover_done
            )
            limit = min(resolve_at, horizon)
            beat = int(ceil(episode.start / cfg.heartbeat_interval))
            fired_at = None
            lag_at_fire = 0.0
            while True:
                t = beat * cfg.heartbeat_interval
                if t >= limit:
                    break
                if t >= episode.start:
                    lag = (
                        self.update_log.latest_version(t)
                        - snapshot.model_version
                    )
                    if lag > cfg.staleness_budget:
                        fired_at = t
                        lag_at_fire = float(lag)
                        break
                beat += 1
            if fired_at is None:
                continue
            resolved = isfinite(resolve_at)
            alerts.append(Alert(
                rule=f"replica{r}-staleness",
                slo="replica-staleness",
                state=RESOLVED if resolved else FIRING,
                fired_at=fired_at,
                fired_window=beat,
                burn_rate=lag_at_fire,
                peak_burn_rate=lag_at_fire,
                resolved_at=resolve_at if resolved else None,
                resolved_window=beat if resolved else None,
            ))
        return alerts

    def _replica_summaries(
        self, stream_counts: Dict[Tuple[int, int], int], now: float
    ) -> Dict[int, dict]:
        summaries: Dict[int, dict] = {}
        for replica in self.replicas:
            r = replica.replica_id
            dispatched = sum(
                v for (rid, _), v in stream_counts.items() if rid == r
            )
            state = self.health[r].state_at(now) if self.health else HEALTHY
            self.obs.set_gauge(
                "cluster.replica_state", STATE_CODES[state], replica=str(r)
            )
            summary = {
                "dispatched": dispatched,
                "incarnations": replica.incarnation + 1,
                "state": state,
                "transitions": (
                    self.health[r].to_payload() if self.health else []
                ),
            }
            if replica.subscriber is not None:
                lag = replica.subscriber.version_lag(now)
                summary["applied_version"] = replica.subscriber.applied_version
                summary["version_lag"] = lag
                self.obs.set_gauge(
                    "cluster.replica_version_lag", lag, replica=str(r)
                )
            summaries[r] = summary
        return summaries


__all__ = [
    "DISPATCH_FAILOVER",
    "DISPATCH_HEDGE",
    "DISPATCH_PRIMARY",
    "SHED",
    "ClusterConfig",
    "ClusterReport",
    "ClusterRouter",
]
