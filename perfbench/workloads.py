"""The benchmark's three workloads, driven through public entry points only.

Every workload is open loop: independent users send Poisson arrivals on
the simulated clock, and the whole schedule is handed to the program, so
the generator can never run late.  The workload seed is the only source
of randomness; the program receives only the generated requests.

* ``hot_dense`` — one pipelined server, Fleche flat cache at 5 % over the
  host ``EmbeddingStore``, DCN dense model on, strongly skewed tables.
* ``tiered_miss`` — one pipelined server, dense off, Fleche over a
  ``TieredParameterStore`` (GPU cache -> DRAM tier -> remote PS), low
  skew and a working set larger than both caches.
* ``cluster_refresh`` — a 4-replica hash-routed ``ClusterRouter`` fed by
  a shared ``UpdateLog``; the hot-head owner crashes mid-run and recovers
  by snapshot restore plus log replay.

A workload object keeps the state of one benchmark process: the request
stream, the system under test and the reports the checks read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import (
    DeepCrossNetwork,
    EmbeddingStore,
    FlecheConfig,
    FlecheEmbeddingLayer,
    default_platform,
    uniform_tables_spec,
)
from repro.cluster import ClusterConfig, ClusterRouter, hot_head_victim
from repro.core.snapshot import CacheSnapshot
from repro.faults import BreakerConfig, FaultSchedule, ReplicaCrash
from repro.multitier.hierarchy import TieredParameterStore
from repro.refresh import UpdateLog, UpdatePublisher, fingerprint
from repro.serving.arrivals import PoissonArrivals
from repro.serving.batcher import BatchingPolicy
from repro.serving.pipeline import PipelinedInferenceServer
from repro.workloads.zipf import ZipfSampler


@dataclass
class Outcome:
    """One simulated run, reduced to what the metrics and checks need."""

    arrivals: np.ndarray
    #: Per-request simulated latency; ``inf`` for a shed request.
    latencies: np.ndarray
    attempted: int
    #: Completed with correct (non-degraded) embeddings.
    served: int
    #: Completed, but with a degraded (stale/default) embedding.
    failed: int
    #: Never completed.
    shed: int
    #: Keys of the report counters the checks and per-layer metrics read.
    counters: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Size:
    """Request counts of one workload; ``tiny`` scales them for the self-test."""

    warm: int
    nominal: int
    rung: int
    timed_pass: int
    verify: int
    setup_repeats: int


def _stamp(report_counters, names) -> Dict[str, float]:
    return {name: float(report_counters.total(name)) for name in names}


#: Registry counters copied out of every serving report.
SERVER_COUNTERS = (
    "serving.batched_requests",
    "cache.hits",
    "cache.misses",
    "cache.unified_hits",
    "cache.coalesced_keys",
    "cache.evictions",
    "tier.dram_hits",
    "tier.dram_misses",
    "tier.remote_keys",
    "tier.pointer_invalidations",
    "refresh.applied_keys",
)

#: Registry counters copied out of every cluster report.
CLUSTER_COUNTERS = (
    "cluster.requests",
    "cluster.served_primary",
    "cluster.served_failover",
    "cluster.served_hedge",
    "cluster.shed",
    "cluster.replayed_batches",
)


def pooled(outcomes: List[Outcome]) -> Outcome:
    """Several independent runs as one sample (arrivals stay per run)."""
    counters: Dict[str, float] = {}
    for outcome in outcomes:
        for name, value in outcome.counters.items():
            counters[name] = counters.get(name, 0.0) + value
    return Outcome(
        arrivals=np.concatenate([o.arrivals for o in outcomes]),
        latencies=np.concatenate([o.latencies for o in outcomes]),
        attempted=sum(o.attempted for o in outcomes),
        served=sum(o.served for o in outcomes),
        failed=sum(o.failed for o in outcomes),
        shed=sum(o.shed for o in outcomes),
        counters=counters,
    )


def server_outcome(requests, report) -> Outcome:
    """Reduce a :class:`~repro.serving.server.ServingReport`."""
    latencies = np.asarray(report.latencies, dtype=np.float64)
    completed = int(report.served)
    degraded = int(report.degraded_requests)
    return Outcome(
        arrivals=np.asarray(report.arrival_times, dtype=np.float64),
        latencies=latencies,
        attempted=len(requests),
        served=completed - degraded,
        failed=degraded,
        shed=int((~np.isfinite(latencies)).sum()),
        counters=_stamp(report.metrics, SERVER_COUNTERS),
    )


class RequestStream:
    """One seeded Poisson request stream, drawn chunk by chunk.

    All chunks share one feature source, so the popularity ranking (and
    hence the hot set the cache learns) is the same for the whole
    process; successive chunks continue the stream instead of repeating
    it.  The offered rate of each chunk is set on the generator's public
    ``rate`` before drawing.  Arrival times restart at 0 in every chunk.
    """

    def __init__(self, dataset, seed: int):
        self._arrivals = PoissonArrivals(dataset, 1.0, seed=seed)

    def draw(self, rate: float, count: int):
        self._arrivals.rate = float(rate)
        return self._arrivals.generate(count)


class ServerWorkload:
    """A single :class:`PipelinedInferenceServer` over the Fleche layer."""

    kind = "server"

    def __init__(
        self,
        name: str,
        *,
        tables: int,
        corpus: int,
        alpha: float,
        dim: int,
        cache_ratio: float,
        dram_share: Optional[float],
        dense: bool,
        max_batch: int,
        sla_s: float,
        nominal_rps: float,
        ladder: tuple,
        size: Size,
    ):
        self.name = name
        self.hw = default_platform()
        self.dataset = uniform_tables_spec(
            num_tables=tables, corpus_size=corpus, alpha=alpha, dim=dim,
        )
        self.cache_ratio = cache_ratio
        self.dram_share = dram_share
        self.dense = dense
        self.policy = BatchingPolicy(max_batch_size=max_batch, max_delay=5e-4)
        self.sla_s = sla_s
        self.nominal_rps = nominal_rps
        self.ladder = ladder
        self.size = size
        self.server: Optional[PipelinedInferenceServer] = None
        self.stream: Optional[RequestStream] = None
        self._warm = None

    def describe(self) -> str:
        ds = self.dataset
        store = (
            f"tiered store (DRAM tier {self.dram_share:.0%} of ids)"
            if self.dram_share else "host EmbeddingStore"
        )
        return (
            f"{len(ds.fields)} tables x {ds.fields[0].corpus_size:,} ids, "
            f"alpha {ds.fields[0].alpha}, dim {ds.dim}; Fleche cache "
            f"{self.cache_ratio:.0%} over {store}; dense "
            f"{'on' if self.dense else 'off'}; depth 2, max batch "
            f"{self.policy.max_batch_size}"
        )

    # ------------------------------------------------------------- set-up

    def prepare(self, seed: int) -> None:
        """Make the inputs: the request stream and the warm-up schedule."""
        self.stream = RequestStream(self.dataset, seed)
        self._warm = self.stream.draw(self.nominal_rps, self.size.warm)

    def setup(self) -> float:
        """Build store, cache and server and warm them to steady state;
        returns the seconds it took."""
        start = time.perf_counter()
        specs = self.dataset.table_specs()
        if self.dram_share:
            store = TieredParameterStore(
                specs, self.hw,
                dram_capacity=int(self.dram_share * self.dataset.total_sparse_ids),
            )
        else:
            store = EmbeddingStore(specs, self.hw)
        layer = FlecheEmbeddingLayer(
            store, FlecheConfig(cache_ratio=self.cache_ratio), self.hw
        )
        model = (
            DeepCrossNetwork(
                num_tables=len(self.dataset.fields),
                embedding_dim=self.dataset.dim,
            )
            if self.dense else None
        )
        self.server = PipelinedInferenceServer(
            self.dataset, layer, self.hw,
            policy=self.policy, model=model, include_dense=self.dense,
            depth=2,
        )
        self.server.serve(self._warm)
        return time.perf_counter() - start

    def teardown(self) -> None:
        self.server = None

    @property
    def layers(self) -> List:
        return [self.server.scheme]

    @property
    def registries(self) -> List:
        return [self.server.obs]

    # ------------------------------------------------------------ serving

    def serve(self, rate: float, count: int) -> Outcome:
        requests = self.stream.draw(rate, count)
        return server_outcome(requests, self.server.serve(requests))

    def nominal(self) -> Outcome:
        return self.serve(self.nominal_rps, self.size.nominal)

    def rung(self, rate: float) -> Outcome:
        return self.serve(rate, self.size.rung)

    def timed_pass(self):
        """``(outcome, serve seconds, set-up seconds or None)``."""
        requests = self.stream.draw(self.nominal_rps, self.size.timed_pass)
        start = time.perf_counter()
        report = self.server.serve(requests)
        elapsed = time.perf_counter() - start
        return server_outcome(requests, report), elapsed, None

    def verify_requests(self):
        return self.stream.draw(self.nominal_rps, self.size.verify)


#: Per-replica breaker of the cluster drill: opens after a handful of
#: lost dispatches so the undetected-dead window stops paying the timeout.
DRILL_BREAKER = BreakerConfig(
    failure_threshold=0.5, window=8, min_samples=4, cooldown=5e-3,
)


@dataclass
class Drill:
    """One cluster drill: inputs, router, report and refresh ground truth."""

    router: ClusterRouter
    requests: list
    log: UpdateLog
    #: ``(table, feature id) -> every published vector``, in log order.
    versions: Dict[tuple, List[np.ndarray]]
    victim: int
    seed: int
    setup_s: float
    report: object = None
    #: Victim cache fingerprint right after it recovered (set by a wrapper).
    recovered_fingerprint: Optional[dict] = None
    recovered_at: Optional[float] = None


class ClusterWorkload:
    """A 4-replica router with refresh rounds and a mid-run crash.

    Every drill is a fresh router serving one fixed-horizon schedule; drill
    ``k`` of a run draws its requests, updates and victim from sub-seed
    ``seed * 1000 + k``.  The nominal sample pools ``nominal_drills``
    drills, because where hash routing places the few hottest keys moves a
    single drill's tail; each timed pass is a further, shorter drill of
    ``pass_horizon_s``, so that a run holds enough passes for a median.
    """

    kind = "cluster"

    def __init__(
        self,
        name: str,
        *,
        replicas: int,
        tables: int,
        corpus: int,
        alpha: float,
        dim: int,
        max_batch: int,
        horizon_s: float,
        pass_horizon_s: float,
        rounds: int,
        keys_per_round: int,
        nominal_drills: int,
        sla_s: float,
        nominal_rps: float,
        ladder: tuple,
        size: Size,
    ):
        self.name = name
        self.hw = default_platform()
        self.dataset = uniform_tables_spec(
            num_tables=tables, corpus_size=corpus, alpha=alpha, dim=dim,
        )
        self.config = ClusterConfig(
            num_replicas=replicas, policy="hash", max_batch_size=max_batch,
            hot_keys=256, breaker=DRILL_BREAKER,
        )
        self.horizon_s = horizon_s
        self.pass_horizon_s = pass_horizon_s
        self.rounds = rounds
        self.keys_per_round = keys_per_round
        self.nominal_drills = nominal_drills
        self.sla_s = sla_s
        self.nominal_rps = nominal_rps
        self.ladder = ladder
        self.size = size
        self.seed = 0
        self._next_drill = nominal_drills
        self.drill: Optional[Drill] = None
        #: The last timed pass's drill (the traced run reads its report).
        self.last_pass: Optional[Drill] = None
        #: Request tracing of the nominal router (the traced run sets it).
        self.trace_config = None

    def describe(self) -> str:
        ds = self.dataset
        cfg = self.config
        return (
            f"{cfg.num_replicas} replicas, hash routing, max batch "
            f"{cfg.max_batch_size}; {len(ds.fields)} tables x "
            f"{ds.fields[0].corpus_size:,} ids, alpha {ds.fields[0].alpha}, "
            f"dim {ds.dim}; {self.horizon_s * 1e3:.0f} ms drill with "
            f"{self.rounds} refresh rounds and the hot-head owner crashed "
            f"from 30% to 70% of it; timed passes are "
            f"{self.pass_horizon_s * 1e3:.0f} ms drills"
        )

    # ------------------------------------------------------------- inputs

    def prepare(self, seed: int) -> None:
        self.seed = seed
        self._next_drill = self.nominal_drills

    def _publish(self, horizon: float, seed: int):
        """The shared update log: ``rounds`` versions spread over the run.

        Updated ids follow each table's Zipf law with the drill's
        popularity ranking, so hot keys are refreshed most often, as a
        trainer's deltas would be.
        """
        log = UpdateLog(retention=1_000_000)
        publisher = UpdatePublisher(log, max_batch_keys=512)
        rng = np.random.default_rng(seed + 7_919)
        samplers = [
            ZipfSampler(f.corpus_size, f.alpha, seed=seed * 31 + i)
            for i, f in enumerate(self.dataset.fields)
        ]
        versions: Dict[tuple, List[np.ndarray]] = {}
        dim = self.dataset.dim
        for version in range(1, self.rounds + 1):
            for table, sampler in enumerate(samplers):
                ids = sampler.sample(self.keys_per_round, rng=rng)
                vectors = rng.standard_normal(
                    (len(ids), dim)
                ).astype(np.float32)
                publisher.stage(table, ids, vectors)
                for fid, vec in zip(ids.tolist(), vectors):
                    versions.setdefault((table, fid), []).append(vec)
            publisher.publish(
                version, now=horizon * version / (self.rounds + 1)
            )
        return log, versions

    def _build(self, rate: float, drill: int, horizon: float) -> Drill:
        """Inputs (untimed), then the timed set-up of one drill's router."""
        seed = self.seed * 1000 + drill
        requests = PoissonArrivals(
            self.dataset, rate, seed=seed
        ).generate_until(horizon)
        log, versions = self._publish(horizon, seed)
        victim = hot_head_victim(self.dataset, seed, self.config.num_replicas)
        schedule = FaultSchedule([
            ReplicaCrash(
                replica=victim, start=0.3 * horizon, duration=0.4 * horizon,
            ),
        ])
        start = time.perf_counter()
        router = ClusterRouter(
            self.dataset, self.hw, self.config,
            schedule=schedule, update_log=log, warm_seed=seed,
            trace=self.trace_config,
        )
        # Persist every replica's admission snapshot and recover from the
        # bytes, as a restarted process would.
        for replica in router.replicas:
            replica.snapshot_ = CacheSnapshot.from_bytes(
                replica.snapshot_.to_bytes()
            )
        setup_s = time.perf_counter() - start
        return Drill(router, requests, log, versions, victim, seed, setup_s)

    def _serve(self, drill: Drill) -> Outcome:
        report = drill.router.serve(drill.requests)
        drill.report = report
        latencies = np.asarray(report.latencies, dtype=np.float64)
        counters = _stamp(report.metrics, CLUSTER_COUNTERS)
        served = int(
            counters["cluster.served_primary"]
            + counters["cluster.served_failover"]
            + counters["cluster.served_hedge"]
        )
        return Outcome(
            arrivals=np.asarray(report.arrival_times, dtype=np.float64),
            latencies=latencies,
            attempted=len(drill.requests),
            served=served,
            failed=0,
            shed=int(counters["cluster.shed"]),
            counters=counters,
        )

    # ------------------------------------------------------------- set-up

    def setup(self) -> float:
        """Build the nominal drill's router (hot-key warm-up, refresh
        subscription, snapshot persistence); returns its set-up seconds,
        which exclude making the drill's inputs."""
        self.drill = self._build(self.nominal_rps, 0, self.horizon_s)
        self._watch_recovery(self.drill)
        return self.drill.setup_s

    def teardown(self) -> None:
        self.drill = None

    def _watch_recovery(self, drill: Drill) -> None:
        """Record the victim's cache right after snapshot restore + replay."""
        replica = drill.router.replicas[drill.victim]

        def watched(now):
            replayed = type(replica).recover(replica, now)
            drill.recovered_fingerprint = fingerprint(replica.layer.cache)
            drill.recovered_at = now
            return replayed

        replica.recover = watched

    @property
    def layers(self) -> List:
        return [r.layer for r in self.drill.router.replicas if r.alive]

    @property
    def registries(self) -> List:
        router = self.drill.router
        return [router.obs] + [r.server.obs for r in router.replicas if r.alive]

    # ------------------------------------------------------------ serving

    def nominal(self) -> Outcome:
        return pooled([self._serve(self.drill)] + [
            self._serve(self._build(self.nominal_rps, k, self.horizon_s))
            for k in range(1, self.nominal_drills)
        ])

    def rung(self, rate: float) -> Outcome:
        return self._serve(self._build(rate, 0, self.horizon_s))

    def timed_pass(self):
        drill = self._build(
            self.nominal_rps, self._next_drill, self.pass_horizon_s
        )
        self._next_drill += 1
        start = time.perf_counter()
        outcome = self._serve(drill)
        elapsed = time.perf_counter() - start
        self.last_pass = drill
        return outcome, elapsed, drill.setup_s


def _ladder(low: float, high: float, step: float) -> tuple:
    """Geometric rate ladder from ``low`` up to ``high`` (inclusive)."""
    rates = []
    rate = low
    while rate <= high * (1 + 1e-9):
        rates.append(round(rate, -3))
        rate *= step
    return tuple(rates)


FULL = {
    "hot_dense": Size(warm=10_000, nominal=20_000, rung=12_000,
                      timed_pass=1_000, verify=2_000, setup_repeats=3),
    "tiered_miss": Size(warm=30_000, nominal=20_000, rung=20_000,
                        timed_pass=1_000, verify=2_000, setup_repeats=3),
    # A drill's size is its horizon and rate, not a request count; a
    # timed pass is a drill of ``pass_horizon_s``.
    "cluster_refresh": Size(warm=0, nominal=0, rung=0, timed_pass=0,
                            verify=1_000, setup_repeats=10),
}

TINY = {
    "hot_dense": Size(warm=600, nominal=800, rung=600, timed_pass=400,
                      verify=200, setup_repeats=2),
    "tiered_miss": Size(warm=600, nominal=800, rung=600, timed_pass=400,
                        verify=200, setup_repeats=2),
    "cluster_refresh": Size(warm=0, nominal=0, rung=0, timed_pass=0,
                            verify=100, setup_repeats=1),
}


def make_workload(name: str, tiny: bool = False):
    """The named workload at full or self-test (``tiny``) size."""
    size = (TINY if tiny else FULL)[name]
    if name == "hot_dense":
        return ServerWorkload(
            name, tables=12, corpus=50_000, alpha=-1.3, dim=32,
            cache_ratio=0.05, dram_share=None, dense=True, max_batch=512,
            sla_s=1.5e-3, nominal_rps=1.0e6,
            ladder=_ladder(0.8e6, 1.6e6, 1.025), size=size,
        )
    if name == "tiered_miss":
        return ServerWorkload(
            name, tables=8, corpus=100_000, alpha=-1.0, dim=32,
            cache_ratio=0.02, dram_share=0.10, dense=False, max_batch=512,
            sla_s=1.5e-3, nominal_rps=5.0e5,
            ladder=_ladder(4.0e5, 1.0e6, 1.025), size=size,
        )
    if name == "cluster_refresh":
        return ClusterWorkload(
            name, replicas=4, tables=4, corpus=20_000, alpha=-0.6, dim=16,
            max_batch=16, horizon_s=0.02, pass_horizon_s=0.005, rounds=40,
            keys_per_round=64,
            nominal_drills=1 if tiny else 3, sla_s=2e-3,
            nominal_rps=5.0e4 if tiny else 6.0e5,
            ladder=(
                (5.0e4, 1.0e5) if tiny else _ladder(1.0e6, 1.8e6, 1.025)
            ),
            size=size,
        )
    raise KeyError(name)


WORKLOAD_NAMES = ("hot_dense", "tiered_miss", "cluster_refresh")
