"""Parameter-update propagation: cache coherence with model refreshes.

Production recommendation models are continuously retrained; refreshed
embeddings stream into the serving fleet while inference keeps running.
A GPU-resident cache must not keep serving stale vectors.  The paper's
machinery already contains the needed primitive — each index slot's
timestamp "also acts as a version number to detect concurrent read-write
conflicts" (§3.1) — and its deduplicating guarantees one writer per key.

:class:`UpdateApplier` builds on that:

* updates arrive as (table, feature_id, vector) batches from the trainer;
  :meth:`UpdateApplier.apply_deltas` applies every table of one batch in
  a single pass (one index probe), :meth:`UpdateApplier.apply` one table;
* duplicate IDs within a batch resolve **last-write-wins**: only the final
  row of each (table, ID) is applied, earlier ones are counted as
  ``duplicates``;
* cached keys are *refreshed in place* (write the pool slot, bump the
  version stamp) — one copying kernel plus one indexing kernel, the same
  decoupled shape as replacement (§3.3);
* unified-index DRAM pointers for updated keys are invalidated when the
  update also relocated the host copy (or counted as ``pointers_skipped``
  when invalidation is disabled, keeping the accounting conservative);
* uncached keys cost nothing (the cache simply doesn't know them).

The outcome partitions the batch exactly:
``len(feature_ids) == refreshed + pointers_invalidated + pointers_skipped
+ untracked + duplicates``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import WorkloadError
from ..gpusim.executor import Executor
from ..gpusim.stats import Category
from .flat_cache import FlatCache
from .unified_index import is_dram_pointer, untag
from .workflow import _copy_kernel_spec, _index_kernel_spec


@dataclass(frozen=True)
class UpdateOutcome:
    """What one update batch did to the cache.

    The five counters partition the input batch: every input row is
    exactly one of refreshed (rewritten in place on the GPU), pointer
    invalidated / skipped (key lived behind a unified-index DRAM
    pointer), untracked (cache never heard of it), or a duplicate
    squashed by a later row for the same ID.
    """

    refreshed: int
    pointers_invalidated: int
    untracked: int
    duplicates: int = 0
    pointers_skipped: int = 0

    @property
    def total(self) -> int:
        return (
            self.refreshed
            + self.pointers_invalidated
            + self.pointers_skipped
            + self.untracked
            + self.duplicates
        )


def _last_occurrence_mask(
    feature_ids: np.ndarray, table_ids: np.ndarray
) -> np.ndarray:
    """Boolean mask keeping only the last occurrence of each (table, ID)."""
    # lexsort is stable: within a run of equal (table, ID) pairs the rows
    # stay in input order, so each run's final row is the last writer.
    order = np.lexsort((feature_ids, table_ids))
    ids = feature_ids[order]
    tables = table_ids[order]
    last = np.ones(len(order), dtype=bool)
    last[:-1] = (ids[1:] != ids[:-1]) | (tables[1:] != tables[:-1])
    keep = np.zeros(len(order), dtype=bool)
    keep[order[last]] = True
    return keep


class UpdateApplier:
    """Applies trainer-pushed embedding refreshes to a flat cache."""

    def __init__(self, cache: FlatCache, invalidate_pointers: bool = True):
        self.cache = cache
        self.invalidate_pointers = invalidate_pointers

    def apply(
        self,
        table_id: int,
        feature_ids: np.ndarray,
        vectors: np.ndarray,
        executor: Optional[Executor] = None,
    ) -> UpdateOutcome:
        """Refresh one table's updated embeddings inside the cache.

        Args:
            table_id: table whose parameters changed.
            feature_ids: updated IDs; duplicates resolve last-write-wins
                (only the final row per ID touches the cache).
            vectors: the new embedding rows, aligned with ``feature_ids``.
            executor: when given, the refresh kernels are accounted on the
                simulated timeline (category OTHER — off the query path).
        """
        return self.apply_deltas(
            [(table_id, feature_ids, vectors)], executor=executor
        )

    # hot-path: vectorized
    def apply_deltas(
        self,
        deltas: Sequence[Tuple[int, np.ndarray, np.ndarray]],
        executor: Optional[Executor] = None,
    ) -> UpdateOutcome:
        """Refresh several tables' embeddings in one pass (one log batch).

        ``deltas`` holds ``(table_id, feature_ids, vectors)`` triples.  Each
        delta's IDs are encoded with its own table code and the batch is
        concatenated: flat keys of different tables never collide, so one
        last-write-wins pass over (table, ID) pairs, one index probe, one
        pool write per dimension and one pointer erase give the same
        cache state and the same outcome totals as applying the deltas
        one by one.  Every delta is validated before anything changes.
        """
        parts = []
        for table_id, feature_ids, vectors in deltas:  # lint: allow-loop (per table of the batch)
            feature_ids = np.ascontiguousarray(feature_ids, dtype=np.uint64)
            vectors = np.asarray(vectors, dtype=np.float32)
            if vectors.shape[0] != len(feature_ids):
                raise WorkloadError("updates: ids/vectors length mismatch")
            dim = self.cache._dim_of_table[table_id]
            if vectors.shape[1] != dim:
                raise WorkloadError(
                    f"updates: expected dim {dim}, got {vectors.shape[1]}"
                )
            parts.append((dim, int(table_id), feature_ids, vectors))
        if not parts:
            return UpdateOutcome(refreshed=0, pointers_invalidated=0,
                                 untracked=0)
        # Stable sort by width: each dim's rows are one contiguous run of
        # the concatenation, so they write to the pool as one block.
        parts.sort(key=itemgetter(0))
        dims, table_ids, id_arrays, row_blocks = zip(*parts)
        counts = [len(ids) for ids in id_arrays]
        cache = self.cache
        keys = np.concatenate([
            cache.encode(table_id, ids)
            for table_id, ids in zip(table_ids, id_arrays)
        ])
        keep = _last_occurrence_mask(
            np.concatenate(id_arrays), np.repeat(table_ids, counts)
        )
        rows = np.flatnonzero(keep)
        duplicates = len(keys) - len(rows)
        if duplicates:
            keys = keys[rows]

        found, pointers, slots, _ = cache.index.lookup_slots(keys)
        dram = found & is_dram_pointer(pointers)
        cached = found & ~dram
        num_dram = int(dram.sum())

        refreshed = int(cached.sum())
        if refreshed:
            # In-place refresh: write the pool slots, then re-stamp the
            # probed slots at the current clock (the version bump).
            cached_rows = rows[cached]
            locations = untag(pointers[cached])
            start = 0  # first row of the dimension group
            for dim, group in groupby(zip(dims, row_blocks), key=itemgetter(0)):  # lint: allow-loop (per dimension group)
                blocks = [block for _, block in group]
                stop = start + sum(len(block) for block in blocks)
                begin, end = np.searchsorted(cached_rows, (start, stop))
                if end > begin:
                    block = (
                        blocks[0] if len(blocks) == 1
                        else np.concatenate(blocks)
                    )
                    cache.pool.write(
                        locations[begin:end],
                        block[cached_rows[begin:end] - start],
                    )
                    if executor is not None:
                        self._launch_kernels(executor, end - begin, dim)
                start = stop
            cache.index.touch(slots[cached], cache._clock)

        invalidated = 0
        skipped = num_dram
        if num_dram and self.invalidate_pointers:
            invalidated = cache.erase_dram_pointers(keys[dram])
            skipped = num_dram - invalidated

        return UpdateOutcome(
            refreshed=refreshed,
            pointers_invalidated=invalidated,
            untracked=len(keys) - refreshed - num_dram,
            duplicates=duplicates,
            pointers_skipped=skipped,
        )

    @staticmethod
    def _launch_kernels(executor: Executor, count: int, dim: int) -> None:
        executor.launch(
            _copy_kernel_spec("update_copy", int(count), dim, executor.hw),
            stream=executor.stream("copy"),
            category=Category.OTHER,
        )
        executor.launch(
            _index_kernel_spec("update_index", int(count)),
            stream=executor.stream("main"),
            category=Category.OTHER,
        )
