"""Differential test: batched refresh apply vs. the per-delta reference.

``UpdateSubscriber.apply_next`` hands a whole log batch to one
``UpdateApplier.apply_deltas`` call.  The reference below is the naive
loop it replaced, kept here verbatim in spirit: one pass per table delta,
each with its own last-write-wins, index probes, per-key pool writes,
re-stamp lookup, pointer erase and counter increments.  Hypothesis drives
both over identically built caches and checks that they agree on:

- cache contents (``fingerprint``) and every index slot's key, payload and
  stamp;
- ``unified_entries``;
- the outcome totals of each batch;
- every registry counter, ``refresh.*`` and ``cache.pointers_invalidated``
  included.

Inputs cover duplicates within a delta, cached keys, DRAM-pointer keys,
untracked keys, ``invalidate_pointers=False``, tables of two widths, a
mixed-precision cache whose entries span fp32/fp16/int8 classes, and a
narrow key width whose hashed table codes make distinct IDs share a flat
key.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FlecheConfig
from repro.core.flat_cache import FlatCache
from repro.core.precision import PrecisionConfig
from repro.core.unified_index import is_dram_pointer, untag
from repro.core.updates import UpdateApplier, UpdateOutcome
from repro.obs import MetricsRegistry
from repro.refresh import UpdateLog, UpdateSubscriber, fingerprint
from repro.tables.embedding_table import reference_vectors
from repro.tables.table_spec import make_table_specs

#: Table widths: two dims, interleaved so a batch is not sorted by dim.
DIMS = (8, 16, 8)
CORPUS = 80
MIXED = PrecisionConfig(
    enabled=True, fp32_share=0.4, fp16_share=0.3, int8_share=0.3,
    eviction_policy="lfu",
)
OUTCOME_FIELDS = (
    "refreshed", "pointers_invalidated", "untracked", "duplicates",
    "pointers_skipped",
)


def _reference_apply(cache, table_id, feature_ids, vectors, invalidate):
    """The per-delta apply: one table, probes and writes key by key."""
    total = len(feature_ids)
    keep = np.zeros(total, dtype=bool)
    seen = set()
    for i in range(total - 1, -1, -1):
        if int(feature_ids[i]) not in seen:
            seen.add(int(feature_ids[i]))
            keep[i] = True
    duplicates = int(total - keep.sum())
    feature_ids, vectors = feature_ids[keep], vectors[keep]

    keys = cache.encode(table_id, feature_ids)
    found, pointers, _ = cache.index.lookup(keys)
    dram = found & is_dram_pointer(pointers)
    cached = found & ~dram
    for i in np.flatnonzero(cached):
        cache.pool.write(untag(pointers[i : i + 1]), vectors[i : i + 1])
    cache.index.lookup(keys[cached], stamp=cache._clock)
    refreshed = int(cached.sum())

    invalidated = 0
    skipped = int(dram.sum())
    if dram.any() and invalidate:
        again, targets, _ = cache.index.lookup(keys[dram])
        stale = keys[dram][again & is_dram_pointer(targets)]
        if len(stale):
            removed, _ = cache.index.erase(stale)
            invalidated = int(removed.sum())
            cache.unified_entries = max(
                0, cache.unified_entries - invalidated
            )
            cache.obs.inc("cache.pointers_invalidated", invalidated)
        skipped -= invalidated
    return UpdateOutcome(
        refreshed=refreshed,
        pointers_invalidated=invalidated,
        untracked=int(len(keys) - refreshed - int(dram.sum())),
        duplicates=duplicates,
        pointers_skipped=skipped,
    )


def _reference_apply_batch(cache, batch, invalidate, registry):
    """The per-delta subscriber loop over one log batch."""
    outcomes = []
    for delta in batch.deltas:
        outcome = _reference_apply(
            cache, delta.table_id, delta.feature_ids, delta.vectors,
            invalidate,
        )
        outcomes.append(outcome)
        for name, value in (
            ("refresh.refreshed_keys", outcome.refreshed),
            ("refresh.invalidated_keys", outcome.pointers_invalidated),
            ("refresh.skipped_pointer_keys", outcome.pointers_skipped),
            ("refresh.untracked_keys", outcome.untracked),
            ("refresh.duplicate_keys", outcome.duplicates),
        ):
            if value:
                registry.inc(name, value)
    if batch.num_keys:
        registry.inc("refresh.applied_keys", batch.num_keys)
    registry.inc("refresh.applied_batches", 1)
    return outcomes


class _RecordingApplier(UpdateApplier):
    def __init__(self, cache, invalidate_pointers):
        super().__init__(cache, invalidate_pointers=invalidate_pointers)
        self.outcomes = []

    def apply_deltas(self, deltas, executor=None):
        outcome = super().apply_deltas(deltas, executor=executor)
        self.outcomes.append(outcome)
        return outcome


def _build(mixed, key_bits, cached, heat, pointers):
    specs = make_table_specs([CORPUS] * len(DIMS), list(DIMS))
    cache = FlatCache(
        specs,
        FlecheConfig(
            cache_ratio=0.5, unified_index_fraction=1.0, key_bits=key_bits,
            precision=MIXED if mixed else PrecisionConfig(),
        ),
    )
    registry = MetricsRegistry()
    cache.bind_observability(registry)
    cache.set_unified_capacity(40)
    cache.tick()
    for table, dim in enumerate(DIMS):
        ids = np.asarray(cached[table], dtype=np.uint64)
        # Distinct IDs may share a flat key under a hashed table code;
        # insert each key once, as the query path's dedup does.
        keys, first = np.unique(cache.encode(table, ids), return_index=True)
        ids = ids[first]
        counts = np.asarray(heat[table][: len(ids)])
        for level in range(9):
            cache.observe_keys(keys[counts > level])
        cache.admit_and_insert(keys, reference_vectors(table, ids, dim), dim)
        ids = np.asarray(pointers[table], dtype=np.uint64)
        cache.publish_dram_pointers(cache.encode(table, ids), ids)
    return cache, registry


def _index_state(cache):
    keys, values, stamps = cache.index.scan()
    return dict(zip(keys.tolist(), zip(values.tolist(), stamps.tolist())))


#: IDs are drawn from a narrower range than the corpus so that cached,
#: pointer and updated keys overlap often.
_id = st.integers(0, CORPUS // 2 - 1)
_per_table = st.lists(
    st.lists(_id, max_size=24, unique=True),
    min_size=len(DIMS), max_size=len(DIMS),
)
_heat = st.lists(
    st.lists(st.integers(0, 9), min_size=24, max_size=24),
    min_size=len(DIMS), max_size=len(DIMS),
)
_delta = st.dictionaries(
    st.integers(0, len(DIMS) - 1), st.lists(_id, max_size=20),
    max_size=len(DIMS),
)


@settings(max_examples=150, deadline=None)
@given(
    mixed=st.booleans(),
    key_bits=st.sampled_from([64, 8]),
    invalidate=st.booleans(),
    cached=_per_table,
    heat=_heat,
    pointers=_per_table,
    batches=st.lists(_delta, min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_batched_apply_matches_per_delta_reference(
    mixed, key_bits, invalidate, cached, heat, pointers, batches, seed
):
    ref, ref_registry = _build(mixed, key_bits, cached, heat, pointers)
    new, new_registry = _build(mixed, key_bits, cached, heat, pointers)
    assert _index_state(ref) == _index_state(new)

    log = UpdateLog()
    rng = np.random.default_rng(seed)
    for version, updates in enumerate(batches, start=1):
        log.append(
            version,
            {
                table: (
                    np.asarray(ids, dtype=np.uint64),
                    rng.normal(size=(len(ids), DIMS[table])).astype(
                        np.float32
                    ),
                )
                for table, ids in updates.items()
            },
        )
    applier = _RecordingApplier(new, invalidate_pointers=invalidate)
    subscriber = UpdateSubscriber(log, new, applier=applier)
    subscriber.bind_observability(new_registry)

    for batch in log.replay(0):
        outcomes = _reference_apply_batch(
            ref, batch, invalidate, ref_registry
        )
        assert subscriber.apply_next(0.0) is batch
        batched = applier.outcomes[-1]
        for field in OUTCOME_FIELDS:
            assert getattr(batched, field) == sum(
                getattr(outcome, field) for outcome in outcomes
            ), field
        assert batched.total == batch.num_keys
        assert fingerprint(new) == fingerprint(ref)
        assert _index_state(new) == _index_state(ref)
        assert new.unified_entries == ref.unified_entries
        assert new_registry.counter_state() == ref_registry.counter_state()
        ref.tick()
        new.tick()
