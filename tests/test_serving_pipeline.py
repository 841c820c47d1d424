"""Tests for pipelined serving: stages, overlap, and miss coalescing."""

import numpy as np
import pytest

from repro import DeepCrossNetwork
from repro.baselines.per_table_cache import PerTableCacheLayer, PerTableConfig
from repro.core.config import FlecheConfig
from repro.core.workflow import FlecheEmbeddingLayer
from repro.errors import ConfigError, SimulationError
from repro.faults import (
    DegradeConfig,
    FaultInjector,
    FaultSchedule,
    RetryPolicy,
    ShardOutage,
)
from repro.gpusim.clock import Timeline
from repro.gpusim.executor import Event, Executor, SharedResource
from repro.multitier.hierarchy import TieredParameterStore
from repro.model.trainer import EmbeddingDeltaTrainer
from repro.multitier.remote_ps import RemoteParameterServer
from repro.obs import SpanTracer
from repro.obs.reqtrace import RequestTracer, TraceConfig
from repro.refresh import (
    RefreshScheduler,
    UpdateLog,
    UpdatePublisher,
    UpdateSubscriber,
)
from repro.serving.arrivals import PoissonArrivals
from repro.serving.batcher import BatchingPolicy, form_batches
from repro.serving.pipeline import InFlightMissTable, PipelinedInferenceServer
from repro.serving.server import ServingReport
from repro.tables.store import EmbeddingStore
from repro.workloads.synthetic import uniform_tables_spec


@pytest.fixture(scope="module")
def dataset():
    return uniform_tables_spec(
        num_tables=4, corpus_size=2_000, alpha=-1.2, dim=16,
    )


def make_servers(dataset, hw, cls, *, include_dense=True, warm=True,
                 cache_ratio=0.05, **kwargs):
    """One fresh server (fresh store + cache) per call, optionally warmed."""
    store = EmbeddingStore(dataset.table_specs(), hw)
    layer = FlecheEmbeddingLayer(
        store, FlecheConfig(cache_ratio=cache_ratio), hw
    )
    model = DeepCrossNetwork(
        num_tables=dataset.num_tables, embedding_dim=dataset.dim
    )
    server = cls(
        dataset, layer, hw,
        policy=BatchingPolicy(max_batch_size=64, max_delay=5e-4),
        model=model, include_dense=include_dense, **kwargs,
    )
    if warm:
        server.serve(PoissonArrivals(dataset, 50_000.0, seed=1).generate(300))
    return server


#: A load well past the sequential service capacity of the small dataset,
#: so consecutive batches genuinely overlap in the pipelined loop.
OVERLOAD = 2_000_000.0


@pytest.fixture(scope="module")
def requests(dataset):
    return PoissonArrivals(dataset, OVERLOAD, seed=2).generate(900)


# ---------------------------------------------------------------------------
# Simulation primitives
# ---------------------------------------------------------------------------


class TestSharedResource:
    def test_serialises_occupancies(self):
        res = SharedResource("host")
        assert res.next_start(0.0) == 0.0
        res.occupy(0.0, 2.0)
        assert res.free_at == 2.0
        assert res.next_start(1.0) == 2.0
        res.occupy(res.next_start(1.0), 5.0)
        assert res.free_at == 5.0
        assert res.busy_time == pytest.approx(5.0)
        assert res.grants == 2

    def test_rejects_time_travel(self):
        res = SharedResource("pcie")
        res.occupy(0.0, 1.0)
        with pytest.raises(SimulationError):
            res.occupy(0.5, 0.7)  # starts before free_at
        with pytest.raises(SimulationError):
            res.occupy(2.0, 1.0)  # ends before it starts


class TestEvent:
    def test_wait_event_orders_streams(self, hw):
        executor = Executor(hw)
        a = executor.stream("a")
        b = executor.stream("b")
        a.ready_time = 5.0
        event = executor.record_event(stream=a, name="after-a")
        assert event.timestamp == 5.0
        executor.wait_event(b, event)
        assert b.ready_time == 5.0
        # Waiting never moves a stream backwards.
        executor.wait_event(a, Event(timestamp=1.0))
        assert a.ready_time == 5.0


class TestTimelineActive:
    def test_active_excludes_waits(self):
        t = Timeline("cpu")
        t.advance(2.0)
        t.advance_to(10.0)
        t.advance(1.0)
        assert t.now == pytest.approx(11.0)
        assert t.active == pytest.approx(3.0)
        t.reset()
        assert t.active == 0.0


# ---------------------------------------------------------------------------
# The in-flight miss table
# ---------------------------------------------------------------------------


class TestInFlightMissTable:
    def test_publish_match_retire(self):
        table = InFlightMissTable()
        table.set_owner(0)
        keys = np.array([10, 20, 30], np.uint64)
        table.publish(keys, np.ones((3, 4), np.float32) * 7.0)
        assert len(table) == 3

        mask, rows, degraded = table.match(
            np.array([20, 40, 30], np.uint64), dim=4
        )
        assert mask.tolist() == [True, False, True]
        assert rows.shape == (2, 4)
        assert (rows == 7.0).all()
        assert degraded == 0

        assert table.retire(1) == 0  # wrong owner: nothing dropped
        assert table.retire(0) == 3
        assert len(table) == 0
        assert table.stats.published_keys == 3
        assert table.stats.coalesced_keys == 2
        assert table.stats.retired_keys == 3

    def test_degraded_entries_counted(self):
        table = InFlightMissTable()
        table.set_owner("b1")
        table.publish(
            np.array([5], np.uint64), np.zeros((1, 2), np.float32),
            degraded=True,
        )
        _, _, degraded = table.match(np.array([5], np.uint64), dim=2)
        assert degraded == 1


# ---------------------------------------------------------------------------
# Depth 1: the sequential case
# ---------------------------------------------------------------------------


class TestDepthOneEquivalence:
    def test_depth_validation(self, dataset, hw):
        with pytest.raises(ConfigError):
            make_servers(dataset, hw, PipelinedInferenceServer, warm=False,
                         depth=0)

    def test_depth_one_never_coalesces(self, dataset, hw, requests):
        server = make_servers(dataset, hw, PipelinedInferenceServer, depth=1)
        report = server.serve(requests)
        assert report.coalesced_keys == 0
        # One batch in flight: the table never holds a matchable entry.
        assert server.last_run.coalescing.coalesced_keys == 0
        assert server.last_run.depth == 1


# ---------------------------------------------------------------------------
# Depth >= 2: overlap with dependencies respected
# ---------------------------------------------------------------------------


def batch_finishes(report, requests, policy):
    """Reconstruct per-batch finish instants from per-request latencies."""
    batches = form_batches(requests, policy)
    finishes = []
    offset = 0
    for formed in batches:
        n = len(formed.requests)
        fin = report.latencies[offset:offset + n] + report.arrival_times[
            offset:offset + n
        ]
        # Every request of a batch completes at the same instant.
        assert np.allclose(fin, fin[0], rtol=0, atol=1e-12)
        finishes.append((formed.formed_at, float(fin[0])))
        offset += n
    assert offset == len(report.latencies)
    return finishes


class TestPipelineOverlap:
    @pytest.mark.parametrize("depth", [2, 3])
    def test_dependencies_never_violated(self, dataset, hw, requests, depth):
        server = make_servers(
            dataset, hw, PipelinedInferenceServer, depth=depth
        )
        report = server.serve(requests)
        finishes = batch_finishes(report, requests, server.policy)
        for i, (formed_at, finish) in enumerate(finishes):
            # A batch cannot complete before it formed.
            assert finish > formed_at
            # The depth gate: batch i dispatches no earlier than the
            # completion of batch i - depth.
            if i >= depth:
                assert finish > finishes[i - depth][1]
        # Batches complete in order.
        ends = [f for _, f in finishes]
        assert ends == sorted(ends)

    def test_overlap_beats_sequential_under_load(self, dataset, hw, requests):
        seq = make_servers(
            dataset, hw, PipelinedInferenceServer, depth=1
        ).serve(requests)
        pipe_server = make_servers(
            dataset, hw, PipelinedInferenceServer, depth=2
        )
        pipe = pipe_server.serve(requests)
        assert pipe.span < seq.span
        assert pipe.p99_latency < seq.p99_latency
        # A serial resource can never be busy longer than the makespan.
        for name, (busy, grants) in pipe_server.last_run.resource_busy.items():
            assert busy <= pipe.span + 1e-12, name
            assert grants > 0

    def test_default_stage_scheme_works_pipelined(self, dataset, hw, requests):
        """Schemes without a staged query run via the default single stage."""
        def build(cls, **kwargs):
            store = EmbeddingStore(dataset.table_specs(), hw)
            layer = PerTableCacheLayer(
                store, PerTableConfig(cache_ratio=0.05), hw
            )
            model = DeepCrossNetwork(
                num_tables=dataset.num_tables, embedding_dim=dataset.dim
            )
            return cls(
                dataset, layer, hw,
                policy=BatchingPolicy(max_batch_size=64, max_delay=5e-4),
                model=model, include_dense=True, **kwargs,
            )

        a = build(PipelinedInferenceServer, depth=1).serve(requests)
        b = build(PipelinedInferenceServer, depth=2).serve(requests)
        # The whole query is one host stage, so cache state evolves in
        # batch order exactly as sequentially; only timing overlaps.
        assert (a.hits, a.misses) == (b.hits, b.misses)
        assert np.array_equal(a.probabilities, b.probabilities)


# ---------------------------------------------------------------------------
# Aggressive refresh: an overrunning quantum delays the next stage
# ---------------------------------------------------------------------------


class TestAggressiveRefresh:
    def overrun_run(self, dataset, hw, depth):
        """A moderate load whose greedy refresh quanta outlast its idle gaps.

        Records every ``run_idle`` call as ``(slot start, slot end,
        busy-until)`` and every span, with every request traced.
        """
        tracer = SpanTracer()
        reqtracer = RequestTracer(TraceConfig(head_interval=1))
        server = make_servers(
            dataset, hw, PipelinedInferenceServer, depth=depth,
            tracer=tracer, reqtracer=reqtracer,
        )
        tracer.clear()
        reqs = PoissonArrivals(dataset, 600_000.0, seed=4).generate(1_200)
        horizon = reqs[-1].arrival_time
        log = UpdateLog(retention=4096)
        publisher = UpdatePublisher(log, max_batch_keys=4096)
        trainer = EmbeddingDeltaTrainer(
            [spec.corpus_size for spec in dataset.table_specs()],
            [spec.dim for spec in dataset.table_specs()],
            keys_per_round=4096, seed=7,
        )
        for i in range(6):
            publisher.drain(trainer, now=horizon * (i + 1) / 7)
        layer = server.engine.scheme
        subscriber = UpdateSubscriber(log, layer.cache, host_store=layer.store)
        refresher = RefreshScheduler(
            subscriber, hw, quantum_keys=8192, aggressive=True,
        )
        slots = []
        run_idle = refresher.run_idle

        def spy(start, end):
            busy = run_idle(start, end)
            slots.append((start, end, busy))
            return busy

        refresher.run_idle = spy
        server.refresher = refresher
        server.serve(reqs)
        return tracer, reqtracer, slots

    def test_no_stage_starts_inside_an_overrun(self, dataset, hw):
        tracer, reqtracer, slots = self.overrun_run(dataset, hw, depth=2)
        overruns = [(s, busy) for s, e, busy in slots if busy > e]
        assert overruns
        stages = [
            span for span in tracer.spans
            if span.category != "queue"
        ]
        assert stages
        for start, busy in overruns:
            for span in stages:
                end = span.start + span.duration
                assert end <= start or span.start >= busy, (
                    span, start, busy,
                )
        # Each overrun delays exactly one stage, and the traces charge
        # that delay as refresh wait.
        charged = sum(record.refresh for record in reqtracer.batches)
        assert charged == pytest.approx(
            sum(busy - e for _, e, busy in slots if busy > e),
            rel=0, abs=1e-12,
        )
        traces = reqtracer.traces
        assert any(t.refresh_wait > 0 for t in traces)
        assert all(t.conserved for t in traces)


# ---------------------------------------------------------------------------
# Cross-batch miss coalescing
# ---------------------------------------------------------------------------


class TestCoalescing:
    def coalescing_run(self, dataset, hw, cls=PipelinedInferenceServer,
                       **kwargs):
        """Cold cache + overload: overlapping batches miss the same keys.

        The spy on ``admit_and_insert`` asserts the exactly-once contract
        at its sharpest: an insertion must never target a key that still
        holds a live cache location (that would strand the old pool slot).
        Re-insertions of keys the slab-hash index *displaced* earlier are
        legitimate — the sequential loop does those too.
        """
        server = make_servers(
            dataset, hw, cls, warm=False, cache_ratio=1.0, **kwargs,
        )
        inserted = []
        cache = server.engine.scheme.cache
        original = cache.admit_and_insert

        def spy(flat_keys, vectors, dim, dram_mask=None):
            assert not cache.contains_cached(flat_keys).any()
            inserted.extend(int(k) for k in flat_keys)
            return original(flat_keys, vectors, dim, dram_mask=dram_mask)

        cache.admit_and_insert = spy
        reqs = PoissonArrivals(dataset, OVERLOAD, seed=3).generate(900)
        report = server.serve(reqs)
        return server, report, inserted

    def test_coalesced_fetch_issued_and_inserted_once(self, dataset, hw):
        _, seq_report, seq_inserted = self.coalescing_run(
            dataset, hw, depth=1
        )
        server, report, inserted = self.coalescing_run(dataset, hw, depth=3)
        stats = server.last_run.coalescing
        assert report.coalesced_keys > 0
        assert stats.coalesced_keys == report.coalesced_keys
        assert stats.published_keys > 0
        assert stats.retired_keys <= stats.published_keys
        # The pipelined run caches the same key population but performs
        # strictly fewer insertions: a coalesced miss takes the leader's
        # vectors instead of re-fetching and re-inserting.
        assert set(inserted) == set(seq_inserted)
        assert len(inserted) < len(seq_inserted)
        # Every miss was either fetched (and at most once inserted) or
        # coalesced; coalesced keys never reach the replacement path.
        assert report.misses >= len(inserted) + report.coalesced_keys

    def test_no_pool_slots_leak(self, dataset, hw):
        server, report, _ = self.coalescing_run(dataset, hw, depth=3)
        cache = server.engine.scheme.cache
        pool_live = sum(
            cache.pool.capacity_of(d) - cache.pool.free_of(d)
            for d in cache.pool.dims()
        )
        # Every allocated slot is either indexed or awaiting reclamation.
        assert pool_live == cache.live_entries() + cache.reclaimer.pending

    def test_coalesce_flag_off(self, dataset, hw):
        server, report, inserted = self.coalescing_run(
            dataset, hw, depth=3, coalesce=False
        )
        assert report.coalesced_keys == 0
        assert server.last_run.coalescing is None
        # Raced misses are re-fetched, but the replacement path still
        # skips keys a concurrent batch inserted first (spy asserts no
        # insertion ever overwrites a live cache entry).
        assert len(inserted) > 0


# ---------------------------------------------------------------------------
# Metamorphic depth differential: registry counters across depths
# ---------------------------------------------------------------------------


#: An offered load comfortably below the small dataset's sequential
#: service capacity: batches finish before the next one forms, so no two
#: batches are ever concurrently in flight and the pipeline depth is
#: metamorphically irrelevant — every registry counter must be identical
#: across depths.  (Empirically the capacity is ~300 K req/s; 40 K/s
#: leaves a wide margin.)
NON_SATURATING = 40_000.0

DEPTHS = (1, 2, 4)


def run_counters(server, requests):
    """Serve, audit, and return the run's registry counter delta."""
    report = server.serve(requests)
    assert server.obs.audit() == []
    return report, report.metrics.to_dict()["counters"]


class TestMetamorphicDepth:
    def test_depths_agree_on_every_counter_when_unsaturated(
        self, dataset, hw
    ):
        reqs = PoissonArrivals(
            dataset, NON_SATURATING, seed=7
        ).generate(500)
        reports = {}
        counters = {}
        for depth in DEPTHS:
            server = make_servers(
                dataset, hw, PipelinedInferenceServer, depth=depth
            )
            reports[depth], counters[depth] = run_counters(server, reqs)
        baseline = counters[DEPTHS[0]]
        assert baseline["cache.lookups"] > 0
        for depth in DEPTHS[1:]:
            assert counters[depth] == baseline, depth
            assert np.array_equal(
                reports[depth].latencies, reports[DEPTHS[0]].latencies
            )
            assert np.array_equal(
                reports[depth].probabilities, reports[DEPTHS[0]].probabilities
            )

    def test_depths_agree_under_shard_outage(self, dataset, hw):
        """The depth differential survives a faulty remote tier.

        At a non-saturating rate every depth dispatches each batch at the
        same simulated instant, so the fault injector sees identical
        (shard, time) fetch sequences and every fault-path counter —
        retries, degraded keys, breaker activity — must agree too.
        """
        def build(depth):
            schedule = FaultSchedule([
                ShardOutage(shard=s, start=5e-3, duration=1.5e-2)
                for s in range(4)
            ])
            remote = RemoteParameterServer(
                dataset.table_specs(),
                injector=FaultInjector(schedule, seed=11),
                # A short per-attempt timeout keeps the worst-case batch
                # service (2 attempts x 0.2 ms on top of the base cost)
                # below the 2 ms batch-formation cadence, so the outage
                # never pushes two batches into concurrent flight.
                retry_policy=RetryPolicy.naive(timeout=2e-4),
            )
            store = TieredParameterStore(
                dataset.table_specs(), hw, dram_capacity=600, remote=remote,
                degrade=DegradeConfig(policy="stale"),
            )
            layer = FlecheEmbeddingLayer(
                store, FlecheConfig(cache_ratio=0.05), hw
            )
            return PipelinedInferenceServer(
                dataset, layer, hw, depth=depth,
                policy=BatchingPolicy(max_batch_size=64, max_delay=2e-3),
            )

        reqs = PoissonArrivals(dataset, 20_000.0, seed=5).generate(300)
        counters = {}
        reports = {}
        for depth in DEPTHS:
            reports[depth], counters[depth] = run_counters(
                build(depth), reqs
            )
        baseline = counters[DEPTHS[0]]
        # The outage actually bit: degraded service and fault-path
        # activity are present, not vacuously zero.
        assert baseline["serving.degraded_requests"] > 0
        assert baseline["tier.degraded_keys"] > 0
        assert baseline["faults.retries"] > 0
        for depth in DEPTHS[1:]:
            assert counters[depth] == baseline, depth
            assert reports[depth].fault_windows == (
                reports[DEPTHS[0]].fault_windows
            )

    def test_saturated_depths_preserve_workload_counters(
        self, dataset, hw, requests
    ):
        """Under overload the hit/miss split legitimately shifts with
        depth (overlapping batches race the cache), but the counters the
        workload alone determines — requests, batches, total and unique
        key traffic — are depth-invariant, and the audit laws hold at
        every depth."""
        invariant_keys = (
            "serving.requests", "serving.batched_requests",
            "serving.batches", "cache.queries", "cache.lookups",
            "cache.unique_keys",
        )
        counters = {}
        for depth in DEPTHS:
            server = make_servers(
                dataset, hw, PipelinedInferenceServer, depth=depth
            )
            _, counters[depth] = run_counters(server, requests)
        baseline = counters[DEPTHS[0]]
        for depth in DEPTHS[1:]:
            for key in invariant_keys:
                assert counters[depth][key] == baseline[key], (depth, key)


# ---------------------------------------------------------------------------
# Report satellites: span definition and empty-window guards
# ---------------------------------------------------------------------------


class TestReportSatellites:
    def test_span_is_first_arrival_to_last_finish(self, dataset, hw, requests):
        for depth in (1, 2):
            report = make_servers(
                dataset, hw, PipelinedInferenceServer, depth=depth
            ).serve(requests)
            finishes = report.arrival_times + report.latencies
            expected = finishes.max() - report.arrival_times.min()
            assert report.span == pytest.approx(expected, rel=0, abs=1e-15)
            assert report.throughput == pytest.approx(
                report.served / report.span
            )

    def test_empty_latencies_percentiles_are_nan(self):
        report = ServingReport(latencies=np.zeros(0))
        assert np.isnan(report.percentile(50.0))
        assert np.isnan(report.median_latency)
        assert np.isnan(report.p99_latency)
