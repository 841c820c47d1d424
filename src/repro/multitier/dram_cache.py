"""The host-DRAM cache layer for giant models (paper §5).

When parameters exceed local DRAM, the CPU-DRAM layer keeps only a subset
of embeddings, backed by the remote parameter server.  It behaves as an
LRU cache keyed by (table, feature id) and — critically for Fleche —
*announces its evictions*: any GPU-side unified-index pointer referring to
an evicted entry has become dangling and must be invalidated (§5's corner
case).

The layer is an exact LRU held in flat arrays, so every call is a handful
of numpy operations however many keys it carries:

* a direct-address ``int32`` index maps each id of the tables'
  concatenated corpora to its slot (``-1`` when absent) — 4 B per corpus
  id, i.e. ``1/dim`` of the fp32 parameters it fronts;
* per-slot payload (at the storage tier's dtype, plus an int8 scale),
  global key and last-access stamp arrays, and a LIFO free-slot stack;
* a recency log of ``(slot, stamp)`` appended on every access.  An entry
  is live while its stamp is still the slot's stamp, so the live entries
  from the log's head, in order, are the residents oldest-first: evicting
  the k least recent is one scan from the head.  The log is compacted in
  place when its tail reaches the end.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.precision import TIER_INT8, TIERS, dequantize_rows, quantize_rows
from ..errors import ConfigError, WorkloadError
from ..obs.registry import Observable
from ..tables.table_spec import TableSpec

#: Recency-log length per slot; the log holds at most one live entry per
#: slot, so a longer log only makes compaction rarer.
_LOG_PER_SLOT = 4


def pack_global_key(table_id: int, feature_id: int) -> int:
    """One flat namespace over (table, feature) for the DRAM layer."""
    return (table_id << 48) | feature_id


def pack_global_keys(table_id: int, feature_ids: np.ndarray) -> np.ndarray:
    """:func:`pack_global_key` over an id array (``uint64``)."""
    return (np.uint64(table_id) << np.uint64(48)) | np.asarray(
        feature_ids, dtype=np.uint64
    )


def _last_occurrences(values: np.ndarray) -> np.ndarray:
    """Positions of each distinct value's last occurrence, ascending."""
    _, first_from_end = np.unique(values[::-1], return_index=True)
    return np.sort(len(values) - 1 - first_from_end)


class DramCacheLayer(Observable):
    """LRU host cache of embeddings, backed by a fetch callback.

    Args:
        specs: the model's table specs.
        capacity: embeddings the DRAM layer can hold.
        fetch: callback ``(table_id, feature_ids) -> (vectors, cost)`` used
            on DRAM misses (typically the remote parameter server).  The
            callback may instead return ``(vectors, cost, cacheable)``;
            with ``cacheable=False`` the vectors are served but *not*
            inserted (degraded fallbacks must never pollute the cache).
        storage_tier: precision at which resident rows are held —
            ``"fp32"`` (the default; rows stored verbatim, byte-identical
            to the pre-tiering layer), ``"fp16"`` or ``"int8"``.  Lookups
            always serve fp32; fetch-inserts quantize on the way in and
            refresh re-quantizes at the same tier, so a model refresh
            never silently upgrades a row's precision.

    Every call rejects an unknown table or an id outside its table's
    corpus with :class:`~repro.errors.WorkloadError` before it changes
    any state.
    """

    def __init__(
        self,
        specs: Sequence[TableSpec],
        capacity: int,
        fetch: Callable[[int, np.ndarray], Tuple[np.ndarray, float]],
        storage_tier: str = "fp32",
    ):
        if capacity <= 0:
            raise ConfigError("DRAM cache capacity must be positive")
        if storage_tier not in TIERS:
            raise ConfigError(f"unknown DRAM storage tier {storage_tier!r}")
        self.specs = list(specs)
        self.capacity = int(capacity)
        self.storage_tier = storage_tier
        self._fetch = fetch
        self._invalidation_listeners: List[Callable[[np.ndarray], None]] = []
        #: Eviction notices held back by :meth:`collect_evictions`.
        self._pending: Optional[List[np.ndarray]] = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0

        corpus = np.array([s.corpus_size for s in self.specs], np.int64)
        self._corpus = corpus
        self._base = np.concatenate(([0], np.cumsum(corpus)[:-1]))
        self._slot_of = np.full(int(corpus.sum()), -1, dtype=np.int32)
        # No more rows than the corpora hold can ever be resident.
        slots = min(self.capacity, len(self._slot_of))
        max_dim = max((s.dim for s in self.specs), default=0)
        # Rows are held at the dtype the tier's quantizer produces.
        empty, _ = quantize_rows(np.zeros((0, max_dim)), storage_tier)
        self._payload = np.zeros((slots, max_dim), dtype=empty.dtype)
        self._scale = (
            np.zeros(slots, np.float32) if storage_tier == TIER_INT8 else None
        )
        self._key = np.zeros(slots, np.uint64)
        self._pos = np.zeros(slots, np.int64)
        self._stamp = np.full(slots, -1, dtype=np.int64)
        self._free = np.arange(slots, dtype=np.int32)
        self._free_top = slots
        self._log_slot = np.zeros(_LOG_PER_SLOT * slots, np.int32)
        self._log_stamp = np.zeros(_LOG_PER_SLOT * slots, np.int64)
        self._head = 0
        self._tail = 0
        self._clock = 0

    def __len__(self) -> int:
        return len(self._free) - self._free_top

    # ---------------------------------------------------------------- storage

    def _positions(self, table_id: int, feature_ids: np.ndarray) -> np.ndarray:
        """Index positions of one table's ids; rejects bad ids up front."""
        if not 0 <= table_id < len(self.specs):
            raise WorkloadError(f"DRAM tier: unknown table {table_id}")
        corpus = int(self._corpus[table_id])
        if len(feature_ids) and int(feature_ids.max()) >= corpus:
            raise WorkloadError(
                f"DRAM tier: feature id {int(feature_ids.max())} outside "
                f"table {table_id}'s corpus of {corpus}"
            )
        return feature_ids.astype(np.int64) + int(self._base[table_id])

    def _store(self, slots: np.ndarray, rows: np.ndarray, dim: int) -> None:
        """Quantize fp32 rows to the storage tier into ``slots``."""
        payload, scales = quantize_rows(rows, self.storage_tier)
        self._payload[slots, :dim] = payload
        if scales is not None:
            self._scale[slots] = scales

    def _load(self, slots: np.ndarray, dim: int) -> np.ndarray:
        """Reconstruct fp32 rows from ``slots``."""
        payload = self._payload[slots]
        if dim != self._payload.shape[1]:
            payload = payload[:, :dim]
        scales = None if self._scale is None else self._scale[slots]
        return dequantize_rows(payload, scales, self.storage_tier)

    # ---------------------------------------------------------------- recency

    def _touch(self, slots: np.ndarray) -> None:
        """Make ``slots`` the most recent, in order of last occurrence."""
        n = len(slots)
        stamps = np.arange(self._clock, self._clock + n, dtype=np.int64)
        self._clock += n
        # Stamps only grow, so a repeated slot keeps its last occurrence's.
        np.maximum.at(self._stamp, slots, stamps)
        last = self._stamp[slots] == stamps
        slots, stamps = slots[last], stamps[last]
        n = len(slots)
        if self._tail + n > len(self._log_slot):
            self._compact()
        tail = self._tail
        self._log_slot[tail:tail + n] = slots
        self._log_stamp[tail:tail + n] = stamps
        self._tail = tail + n

    def _live(self, start: int, stop: int) -> np.ndarray:
        """Log positions in ``[start, stop)`` holding live entries."""
        slots = self._log_slot[start:stop]
        return start + np.flatnonzero(
            self._stamp[slots] == self._log_stamp[start:stop]
        )

    def _compact(self) -> None:
        """Move the live log entries, in order, to the front of the log."""
        live = self._live(self._head, self._tail)
        n = len(live)
        self._log_slot[:n] = self._log_slot[live]
        self._log_stamp[:n] = self._log_stamp[live]
        self._head, self._tail = 0, n

    def _evict_oldest(self, k: int) -> np.ndarray:
        """Free the ``k`` least recent slots; returns their global keys."""
        head, tail = self._head, self._tail
        # Scan about twice the span the log's live density predicts holds
        # k live entries, falling back to the whole log.
        guess = head + 2 * k * (tail - head) // max(len(self), 1) + 64
        live = self._live(head, min(guess, tail))
        if len(live) < k:
            live = self._live(head, tail)
        live = live[:k]
        self._head = int(live[-1]) + 1
        return self._release(self._log_slot[live])

    def _release(self, slots: np.ndarray) -> np.ndarray:
        """Return ``slots`` to the free stack; returns their global keys."""
        self._slot_of[self._pos[slots]] = -1
        self._stamp[slots] = -1
        top = self._free_top
        self._free[top:top + len(slots)] = slots
        self._free_top = top + len(slots)
        return self._key[slots]

    def _insert(
        self, table_id: int, feature_ids: np.ndarray, rows: np.ndarray
    ) -> None:
        """Admit distinct ascending ids as the most recent, then evict the
        overflow oldest-first — which, when the batch alone exceeds the
        capacity, includes the batch's own first ids."""
        overflow = len(self) + len(feature_ids) - self.capacity
        evicted = []
        if overflow > 0:
            old = min(overflow, len(self))
            if old:
                evicted.append(self._evict_oldest(old))
            own = overflow - old
            if own:
                evicted.append(pack_global_keys(table_id, feature_ids[:own]))
                feature_ids, rows = feature_ids[own:], rows[own:]
        n = len(feature_ids)
        top = self._free_top - n
        slots = self._free[top:self._free_top].copy()
        self._free_top = top
        pos = feature_ids.astype(np.int64) + int(self._base[table_id])
        self._slot_of[pos] = slots
        self._pos[slots] = pos
        self._key[slots] = pack_global_keys(table_id, feature_ids)
        self._store(slots, rows, self.specs[table_id].dim)
        self._touch(slots)
        if evicted:
            self._notify(np.concatenate(evicted))

    # ------------------------------------------------------------------ hooks

    def on_eviction(self, listener: Callable[[np.ndarray], None]) -> None:
        """Register a listener receiving the global keys of evicted rows.

        Fleche's tiered store registers the unified-index invalidator here.
        """
        self._invalidation_listeners.append(listener)

    @contextmanager
    def collect_evictions(self):
        """Hold eviction notices inside the block; fire them as one.

        Counters advance as rows are evicted; the listeners receive every
        key evicted inside the block, oldest-first, in a single call when
        it exits (also on an exception, so no pointer is left dangling).
        """
        self._pending = []
        try:
            yield
        finally:
            pending, self._pending = self._pending, None
            if pending:
                keys = np.concatenate(pending)
                for listener in self._invalidation_listeners:
                    listener(keys)

    def _notify(self, keys: np.ndarray) -> None:
        self.evictions += len(keys)
        self.obs.inc("tier.dram_evictions", len(keys))
        if self._pending is not None:
            self._pending.append(keys)
            return
        for listener in self._invalidation_listeners:
            listener(keys)

    # hot-path: vectorized
    def flush(self) -> int:
        """Drop every resident entry, notifying invalidation listeners.

        Models the DRAM tier losing its contents (process restart, a
        :class:`~repro.faults.schedule.DramTierFailure` window): every
        GPU-side unified-index pointer into the tier is now dangling and
        each key's invalidation fires exactly once.  Returns the number
        of entries dropped.
        """
        dropped = len(self)
        if not dropped:
            return 0
        live = self._live(self._head, self._tail)
        keys = self._release(self._log_slot[live])
        self._head = self._tail = 0
        self._notify(keys)
        return dropped

    # ------------------------------------------------------------------ query

    # hot-path: vectorized
    def lookup(
        self, table_id: int, feature_ids: np.ndarray
    ) -> Tuple[np.ndarray, float]:
        """Serve one table's IDs, faulting misses in from the backing store.

        Returns ``(vectors, backing_time)`` where ``backing_time`` is the
        remote fetch cost incurred (zero when everything was resident).
        Every occurrence of an id counts as a hit or a miss; resident ids
        become most recent in order of their last occurrence, then the
        fetched misses are admitted in ascending id order.
        """
        feature_ids = np.ascontiguousarray(feature_ids, dtype=np.uint64)
        slots = self._slot_of[self._positions(table_id, feature_ids)]
        spec = self.specs[table_id]
        hit = slots >= 0
        num_hits = int(np.count_nonzero(hit))
        self.hits += num_hits
        self.misses += len(feature_ids) - num_hits
        vectors = np.zeros((len(feature_ids), spec.dim), dtype=np.float32)
        if num_hits:
            hit_slots = slots[hit]
            vectors[hit] = self._load(hit_slots, spec.dim)
            self._touch(hit_slots)

        backing_time = 0.0
        if num_hits < len(feature_ids):
            miss = ~hit
            unique_missing, inverse = np.unique(
                feature_ids[miss], return_inverse=True
            )
            result = self._fetch(table_id, unique_missing)
            if len(result) == 3:
                fetched, backing_time, cacheable = result
            else:
                fetched, backing_time = result
                cacheable = True
            if fetched.shape != (len(unique_missing), spec.dim):
                raise WorkloadError("backing fetch returned wrong shape")
            vectors[miss] = fetched[inverse]
            if cacheable:
                self._insert(table_id, unique_missing, fetched)
        return vectors, backing_time

    def resident(self, table_id: int, feature_id: int) -> bool:
        """Whether one (table, id) is currently cached in DRAM."""
        ids = np.array([feature_id], dtype=np.uint64)
        return bool(self._slot_of[self._positions(table_id, ids)][0] >= 0)

    # ---------------------------------------------------------------- refresh

    # hot-path: vectorized
    def refresh(
        self, table_id: int, feature_ids: np.ndarray, vectors: np.ndarray
    ) -> int:
        """Overwrite *resident* rows with refreshed model values in place.

        The model-refresh write-through: rows the DRAM tier holds are
        updated so a later cache miss faults in the new version, but
        non-resident keys are **not** admitted (an update is not an
        access — admitting it would let refresh traffic evict the
        serving working set) and recency is untouched for the same
        reason.  Every resident occurrence counts, and for a repeated id
        the last row wins.  Returns the number of rows updated.
        """
        feature_ids = np.ascontiguousarray(feature_ids, dtype=np.uint64)
        slots = self._slot_of[self._positions(table_id, feature_ids)]
        spec = self.specs[table_id]
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.shape != (len(feature_ids), spec.dim):
            raise WorkloadError("refresh: ids/vectors shape mismatch")
        resident = np.flatnonzero(slots >= 0)
        if not len(resident):
            return 0
        last = resident[_last_occurrences(slots[resident])]
        self._store(slots[last], vectors[last], spec.dim)
        self.obs.inc("tier.dram_refreshed", len(resident))
        return len(resident)
