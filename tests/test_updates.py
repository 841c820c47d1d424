"""Tests for parameter-update propagation (cache coherence)."""

import numpy as np
import pytest

from repro.bench.profiling import layer_of
from repro.core.config import FlecheConfig
from repro.core.flat_cache import FlatCache
from repro.core.precision import (
    TIER_CODES, PrecisionConfig, dequantize_rows, quantize_rows,
)
from repro.core.updates import UpdateApplier
from repro.errors import SimulationError, WorkloadError
from repro.gpusim.executor import Executor
from repro.mempool.slab_pool import SlabMemoryPool
from repro.tables.embedding_table import reference_vectors
from repro.tables.table_spec import make_table_specs


@pytest.fixture()
def cache():
    specs = make_table_specs([500, 500], [16, 16])
    c = FlatCache(
        specs,
        FlecheConfig(cache_ratio=0.5, unified_index_fraction=1.0),
    )
    c.set_unified_capacity(50)
    c.tick()
    return c


def _fill(cache, table, ids):
    features = np.asarray(ids, dtype=np.uint64)
    keys = cache.encode(table, features)
    cache.admit_and_insert(
        keys, reference_vectors(table, features, 16), 16
    )
    return keys


class TestUpdateApplier:
    def test_refreshes_cached_entries_in_place(self, cache):
        keys = _fill(cache, 0, [1, 2, 3])
        applier = UpdateApplier(cache)
        new_rows = np.full((3, 16), 7.0, dtype=np.float32)
        outcome = applier.apply(0, np.array([1, 2, 3], np.uint64), new_rows)
        assert outcome.refreshed == 3
        got = cache.gather(cache.index_lookup(keys).locations)
        np.testing.assert_array_equal(got, new_rows)

    def test_untracked_keys_cost_nothing(self, cache):
        applier = UpdateApplier(cache)
        outcome = applier.apply(
            0, np.array([9], np.uint64), np.zeros((1, 16), np.float32)
        )
        assert outcome.refreshed == 0
        assert outcome.untracked == 1

    def test_mixed_batch(self, cache):
        _fill(cache, 0, [1])
        applier = UpdateApplier(cache)
        outcome = applier.apply(
            0, np.array([1, 2], np.uint64), np.ones((2, 16), np.float32)
        )
        assert outcome.refreshed == 1
        assert outcome.untracked == 1
        assert outcome.total == 2

    def test_invalidates_dram_pointers(self, cache):
        features = np.array([10, 11], np.uint64)
        keys = cache.encode(1, features)
        cache.publish_dram_pointers(keys, features)
        applier = UpdateApplier(cache)
        outcome = applier.apply(1, features, np.zeros((2, 16), np.float32))
        assert outcome.pointers_invalidated == 2
        assert not cache.index_lookup(keys).dram_hit.any()

    def test_pointer_invalidation_optional(self, cache):
        features = np.array([10], np.uint64)
        keys = cache.encode(1, features)
        cache.publish_dram_pointers(keys, features)
        applier = UpdateApplier(cache, invalidate_pointers=False)
        applier.apply(1, features, np.zeros((1, 16), np.float32))
        assert cache.index_lookup(keys).dram_hit.all()

    def test_version_stamp_bumped(self, cache):
        _fill(cache, 0, [5])
        cache.tick()
        cache.tick()
        key = int(cache.encode(0, np.array([5], np.uint64))[0])
        before = cache.index.stamp_of(key)
        UpdateApplier(cache).apply(
            0, np.array([5], np.uint64), np.ones((1, 16), np.float32)
        )
        assert cache.index.stamp_of(key) >= before

    def test_kernel_accounting_when_executor_given(self, cache, hw):
        _fill(cache, 0, [1, 2])
        executor = Executor(hw)
        UpdateApplier(cache).apply(
            0, np.array([1, 2], np.uint64),
            np.zeros((2, 16), np.float32), executor=executor,
        )
        assert executor.stats.counters.get("kernel:update_copy", 0) == 1
        assert executor.stats.counters.get("kernel:update_index", 0) == 1

    def test_shape_validation(self, cache):
        applier = UpdateApplier(cache)
        with pytest.raises(WorkloadError):
            applier.apply(0, np.array([1], np.uint64),
                          np.zeros((2, 16), np.float32))
        with pytest.raises(WorkloadError):
            applier.apply(0, np.array([1], np.uint64),
                          np.zeros((1, 8), np.float32))

    def test_duplicate_ids_last_write_wins(self, cache):
        keys = _fill(cache, 0, [4])
        applier = UpdateApplier(cache)
        rows = np.stack([
            np.full(16, 1.0, np.float32), np.full(16, 2.0, np.float32),
        ])
        outcome = applier.apply(0, np.array([4, 4], np.uint64), rows)
        assert outcome.duplicates == 1
        assert outcome.refreshed == 1
        got = cache.gather(cache.index_lookup(keys).locations)
        np.testing.assert_array_equal(got, rows[1:])

    def test_outcome_partitions_the_batch(self, cache):
        _fill(cache, 1, [1])
        cache.publish_dram_pointers(
            cache.encode(1, np.array([2], np.uint64)),
            np.array([2], np.uint64),
        )
        applier = UpdateApplier(cache)
        features = np.array([1, 2, 3, 3], np.uint64)
        outcome = applier.apply(1, features, np.zeros((4, 16), np.float32))
        assert (
            outcome.refreshed + outcome.pointers_invalidated
            + outcome.pointers_skipped + outcome.untracked
            + outcome.duplicates
        ) == len(features)

    def test_subsequent_queries_serve_fresh_values(self, cache):
        """Coherence end to end: after an update, hits return new rows."""
        features = np.arange(10, dtype=np.uint64)
        keys = _fill(cache, 0, features)
        fresh = np.tile(
            np.arange(16, dtype=np.float32) * -1.0, (10, 1)
        )
        UpdateApplier(cache).apply(0, features, fresh)
        outcome = cache.index_lookup(keys)
        assert outcome.cache_hit.all()
        np.testing.assert_array_equal(
            cache.gather(outcome.locations), fresh
        )


class TestMixedPrecisionRefresh:
    def test_refresh_spanning_tier_classes(self):
        """A refresh whose keys sit in fp32, fp16 and int8 classes writes
        every class and re-quantizes at each entry's current tier."""
        precision = PrecisionConfig(
            enabled=True, fp32_share=0.4, fp16_share=0.3, int8_share=0.3,
            eviction_policy="lfu",
        )
        specs = make_table_specs([1000], [16])
        c = FlatCache(specs, FlecheConfig(cache_ratio=0.5, precision=precision))
        ids = np.arange(40, dtype=np.uint64)
        keys = c.encode(0, ids)
        for _ in range(10):
            c.observe_keys(keys[:4])  # a hot head lands fp32
        for _ in range(2):
            c.observe_keys(keys[:20])  # warm keys land fp16
        c.admit_and_insert(keys, reference_vectors(0, ids, 16), 16)
        before = c.index_lookup(keys)
        codes = c.pool.tier_codes_of_locations(before.locations)
        assert set(codes.tolist()) == {
            TIER_CODES["fp32"], TIER_CODES["fp16"], TIER_CODES["int8"],
        }

        rows = np.random.default_rng(7).normal(size=(40, 16)).astype(
            np.float32
        )
        outcome = UpdateApplier(c).apply(0, ids, rows)
        assert outcome.refreshed == 40

        after = c.index_lookup(keys)
        np.testing.assert_array_equal(after.locations, before.locations)
        got = c.gather(after.locations)
        fp32 = codes == TIER_CODES["fp32"]
        np.testing.assert_array_equal(got[fp32], rows[fp32])
        for tier in ("fp16", "int8"):
            mask = codes == TIER_CODES[tier]
            payload, scales = quantize_rows(rows[mask], tier)
            np.testing.assert_array_equal(
                got[mask], dequantize_rows(payload, scales, tier)
            )

    def test_write_rejects_mixed_dimensions(self):
        pool = SlabMemoryPool({8: 4, 16: 4})
        locations = np.concatenate([pool.allocate(8, 1), pool.allocate(16, 1)])
        with pytest.raises(SimulationError):
            pool.write(locations, np.zeros((2, 8), np.float32))


def test_refresh_code_is_its_own_profiler_layer():
    assert layer_of("/x/src/repro/core/updates.py", "apply_deltas") == "refresh"
    assert layer_of("/x/src/repro/refresh/subscriber.py", "apply_batch") == (
        "refresh"
    )
    assert layer_of("/x/src/repro/core/flat_cache.py") == "workflow"
