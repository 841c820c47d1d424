"""Differential tests: the array-backed DRAM tier against a per-key LRU.

``ReferenceDramCache`` is the straightforward ``OrderedDict`` formulation
of the tier — one dict entry per resident key, moved to the end on every
hit.  Hypothesis drives random call sequences through it and through
:class:`~repro.multitier.dram_cache.DramCacheLayer` and requires the same
vectors, counters, resident set and eviction notices (key by key,
oldest-first) after every call.
"""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.profiling import layer_of
from repro.core.precision import dequantize_rows, quantize_rows
from repro.errors import WorkloadError
from repro.multitier.dram_cache import DramCacheLayer, pack_global_key
from repro.multitier.hierarchy import TieredParameterStore
from repro.tables.embedding_table import reference_vectors
from repro.tables.table_spec import make_table_specs

CORPORA = (24, 16)
DIMS = (6, 4)


class ReferenceDramCache:
    """Per-key LRU over ``(table << 48) | id``; same contract as the tier."""

    def __init__(self, specs, capacity, fetch, storage_tier="fp32"):
        self.specs, self.capacity, self._fetch = specs, capacity, fetch
        self.tier = storage_tier
        self._entries = OrderedDict()
        self._listeners = []
        self.hits = self.misses = self.evictions = 0

    def on_eviction(self, listener):
        self._listeners.append(listener)

    def _store(self, row):
        return quantize_rows(row[None, :], self.tier)  # (payload, scales)

    def _load(self, stored):
        return dequantize_rows(stored[0], stored[1], self.tier)[0]

    def _notify(self, keys):
        self.evictions += len(keys)
        for listener in self._listeners:
            listener(np.asarray(keys, dtype=np.uint64))

    def lookup(self, table_id, feature_ids):
        vectors = np.zeros((len(feature_ids), self.specs[table_id].dim),
                           np.float32)
        missing = []
        for i, fid in enumerate(feature_ids):
            key = pack_global_key(table_id, int(fid))
            if key in self._entries:
                self._entries.move_to_end(key)
                vectors[i] = self._load(self._entries[key])
                self.hits += 1
            else:
                missing.append(i)
                self.misses += 1
        cost = 0.0
        if missing:
            ids = np.asarray(feature_ids, np.uint64)[missing]
            unique, inverse = np.unique(ids, return_inverse=True)
            fetched, cost, cacheable = self._fetch(table_id, unique)
            vectors[missing] = fetched[inverse]
            if cacheable:
                for fid, row in zip(unique, fetched):
                    key = pack_global_key(table_id, int(fid))
                    self._entries[key] = self._store(row)
                evicted = []
                while len(self._entries) > self.capacity:
                    evicted.append(self._entries.popitem(last=False)[0])
                if evicted:
                    self._notify(evicted)
        return vectors, cost

    def refresh(self, table_id, feature_ids, vectors):
        updated = 0
        for fid, row in zip(feature_ids, vectors):
            key = pack_global_key(table_id, int(fid))
            if key in self._entries:
                self._entries[key] = self._store(row)
                updated += 1
        return updated

    def flush(self):
        keys = list(self._entries)
        self._entries.clear()
        if keys:
            self._notify(keys)
        return len(keys)

    def resident_keys(self):
        return set(self._entries)


def _fetcher(state):
    """A backing fetch whose ``cacheable`` flag the test toggles."""
    def fetch(table_id, ids):
        vectors = reference_vectors(table_id, ids, DIMS[table_id])
        return vectors, 1e-6 * len(ids), state["cacheable"]
    return fetch


def _pair(capacity, tier):
    specs = make_table_specs(CORPORA, DIMS)
    state = {"cacheable": True}
    ref = ReferenceDramCache(specs, capacity, _fetcher(state), tier)
    layer = DramCacheLayer(specs, capacity, _fetcher(state), tier)
    notices = ([], [])
    ref.on_eviction(lambda keys: notices[0].append(keys.tolist()))
    layer.on_eviction(lambda keys: notices[1].append(keys.tolist()))
    return ref, layer, state, notices


def _resident_keys(layer):
    return {
        pack_global_key(t, fid)
        for t, corpus in enumerate(CORPORA)
        for fid in range(corpus)
        if layer.resident(t, fid)
    }


def _ids(table):
    return st.lists(
        st.integers(0, CORPORA[table] - 1), min_size=0, max_size=20
    )


_lookup = st.integers(0, 1).flatmap(
    lambda t: st.tuples(st.just("lookup"), st.just(t), _ids(t), st.booleans())
)
_refresh = st.integers(0, 1).flatmap(
    lambda t: st.tuples(
        st.just("refresh"), st.just(t), _ids(t), st.integers(0, 2**16)
    )
)
_ops = st.lists(
    st.one_of(_lookup, _lookup, _refresh, st.just(("flush",))),
    min_size=1, max_size=25,
)


def _run_against_reference(capacity, tier, ops):
    ref, layer, state, notices = _pair(capacity, tier)
    for op in ops:
        if op[0] == "lookup":
            _, table, ids, state["cacheable"] = op
            ids = np.asarray(ids, np.uint64)
            want, want_cost = ref.lookup(table, ids)
            got, got_cost = layer.lookup(table, ids)
            np.testing.assert_array_equal(got, want)
            assert got_cost == want_cost
        elif op[0] == "refresh":
            _, table, ids, seed = op
            rows = np.random.default_rng(seed).normal(
                size=(len(ids), DIMS[table])
            ).astype(np.float32)
            ids = np.asarray(ids, np.uint64)
            assert layer.refresh(table, ids, rows) == ref.refresh(
                table, ids, rows
            )
        else:
            assert layer.flush() == ref.flush()
        assert (layer.hits, layer.misses, layer.evictions) == (
            ref.hits, ref.misses, ref.evictions
        )
        assert len(layer) == len(ref.resident_keys())
        assert _resident_keys(layer) == ref.resident_keys()
        assert notices[1] == notices[0]
    # Flushing both emits the surviving residents oldest-first.
    assert layer.flush() == ref.flush()
    assert notices[1] == notices[0]


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.integers(1, 12),
    tier=st.sampled_from(["fp32", "fp16", "int8"]),
    ops=_ops,
)
def test_matches_reference_lru(capacity, tier, ops):
    _run_against_reference(capacity, tier, ops)


@pytest.mark.parametrize("capacity, tier", [
    (1, "fp32"), (5, "int8"), (30, "fp16"),
])
def test_long_run_matches_reference(capacity, tier):
    """Hundreds of calls: the recency log wraps and compacts many times."""
    rng = np.random.default_rng(capacity)
    ops = []
    for _ in range(400):
        table = int(rng.integers(0, 2))
        ids = rng.integers(0, CORPORA[table], int(rng.integers(0, 12)))
        kind = rng.random()
        if kind < 0.8:
            ops.append(("lookup", table, ids.tolist(), kind < 0.75))
        elif kind < 0.97:
            ops.append(("refresh", table, ids.tolist(), int(rng.integers(99))))
        else:
            ops.append(("flush",))
    _run_against_reference(capacity, tier, ops)


class TestBadIds:
    def _layer(self):
        calls = []

        def fetch(table_id, ids):
            calls.append(ids)
            return reference_vectors(table_id, ids, DIMS[table_id]), 1e-6

        specs = make_table_specs(CORPORA, DIMS)
        layer = DramCacheLayer(specs, capacity=3, fetch=fetch)
        evicted = []
        layer.on_eviction(lambda keys: evicted.append(keys.tolist()))
        layer.lookup(0, np.array([1, 2, 3], np.uint64))
        return layer, calls, evicted

    @pytest.mark.parametrize("table, ids", [
        (0, [1, CORPORA[0]]),   # id past the corpus, after a resident hit
        (1, [2**63]),
        (2, [0]),               # unknown table
        (-1, [0]),
    ])
    def test_rejected_before_any_state_change(self, table, ids):
        layer, calls, evicted = self._layer()
        ids = np.array(ids, np.uint64)
        with pytest.raises(WorkloadError):
            layer.lookup(table, ids)
        with pytest.raises(WorkloadError):
            layer.refresh(table, ids, np.zeros((len(ids), 4), np.float32))
        assert (layer.hits, layer.misses, len(calls)) == (0, 3, 1)
        # Recency is untouched: key 1 is still the oldest and goes first.
        layer.lookup(0, np.array([9], np.uint64))
        assert evicted == [[pack_global_key(0, 1)]]


class TestOneNoticePerQuery:
    def test_query_many_fires_invalidators_once(self, hw):
        specs = make_table_specs([200, 200], [8, 8])
        store = TieredParameterStore(specs, hw, dram_capacity=6)
        calls = []
        store.register_pointer_invalidator(lambda k: calls.append(k.tolist()))
        store.query_many(
            np.array([0, 0, 0, 1, 1, 1]), np.arange(6, dtype=np.uint64)
        )
        assert calls == []
        store.query_many(
            np.array([0, 0, 1, 1]), np.array([10, 11, 12, 13], np.uint64)
        )
        # Table 0 evicts the two oldest, then table 1 the next two.
        assert calls == [[
            pack_global_key(0, 0), pack_global_key(0, 1),
            pack_global_key(0, 2), pack_global_key(1, 3),
        ]]
        assert store.stats.pointer_invalidations == 4
        assert store.dram.evictions == 4


def test_profiler_charges_multitier_to_tier_layer():
    assert layer_of("/x/src/repro/multitier/dram_cache.py") == "tier"
    assert layer_of("/x/src/repro/multitier/hierarchy.py", "query") == "tier"
