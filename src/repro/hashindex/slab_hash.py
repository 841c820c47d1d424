"""GPU-resident slab hash index (SlabHash).

The structure mirrors the dynamic slab hash of Ashkiani et al.: an array of
buckets, each bucket a fixed-width *slab* of slots scanned warp-cooperatively
in one global-memory transaction.  Fleche and the HugeCTR baseline both use
this index (paper §4); Fleche additionally stores a logical timestamp in
each slot for approximate LRU and read/write conflict detection (§3.1).

The reproduction keeps the structure exact but stores it in flat numpy
arrays and performs batched, vectorised operations:

* ``keys``   — per-slot flat key (uint64), ``EMPTY_KEY`` when vacant;
* ``values`` — per-slot payload (uint64 — a memory-pool location or a
  tagged CPU-DRAM pointer for Fleche's unified index);
* ``stamps`` — per-slot logical timestamp.

Every batched operation returns :class:`ProbeStats` describing how many
random memory transactions and dependent hops the equivalent GPU kernel
would execute; callers feed these into :class:`repro.gpusim.KernelSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import CapacityError, SimulationError

#: Sentinel stored in vacant slots.  Flat keys are re-encoded IDs, so the
#: all-ones pattern is never produced by the coding layer.
EMPTY_KEY = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Slots per slab.  A warp reads one 128 B transaction per probe; with
#: 8-byte keys that covers 16 slots.
SLAB_SLOTS = 16

_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


def _bucket_of(keys: np.ndarray, num_buckets: int) -> np.ndarray:
    """Multiplicative hash of flat keys onto buckets (vectorised)."""
    mixed = keys.astype(np.uint64) * _HASH_MULT
    mixed ^= mixed >> np.uint64(29)
    return (mixed % np.uint64(num_buckets)).astype(np.int64)


@dataclass(frozen=True)
class InsertResult:
    """Outcome of one batched insert.

    Attributes:
        evicted_values: payloads displaced by bucket-local LRU eviction.
        slots: for each (deduplicated) input key, the slot it landed in.
        keys: the deduplicated keys corresponding to ``slots``.
        stats: device cost stats of the insert kernel.
    """

    evicted_values: np.ndarray
    slots: np.ndarray
    keys: np.ndarray
    stats: "ProbeStats"


@dataclass(frozen=True)
class ProbeStats:
    """Device-side cost summary of one batched index operation.

    Attributes:
        lookups: number of keys processed.
        transactions: random 128 B memory transactions issued.
        dependent_hops: average serial probe hops per key (drives the
            latency term of the kernel cost model).
    """

    lookups: int
    transactions: int
    dependent_hops: float

    def merged_with(self, other: "ProbeStats") -> "ProbeStats":
        total = self.lookups + other.lookups
        if total == 0:
            return ProbeStats(0, 0, 0.0)
        hops = (
            self.dependent_hops * self.lookups + other.dependent_hops * other.lookups
        ) / total
        return ProbeStats(total, self.transactions + other.transactions, hops)


class SlabHashIndex:
    """A bucketed slab hash mapping flat keys to 64-bit payloads.

    Capacity is fixed at construction (GPU memory is pre-allocated); callers
    run eviction before the table overflows, exactly as Fleche's watermark
    eviction does.
    """

    def __init__(self, capacity: int, load_factor: float = 0.75):
        if capacity <= 0:
            raise SimulationError("slab hash capacity must be positive")
        if not 0.0 < load_factor <= 1.0:
            raise SimulationError("load factor must be in (0, 1]")
        self.capacity = int(capacity)
        self.load_factor = load_factor
        total_slots = int(np.ceil(capacity / load_factor))
        self.num_buckets = max(1, -(-total_slots // SLAB_SLOTS))
        self.slots = self.num_buckets * SLAB_SLOTS
        self._keys = np.full(self.slots, EMPTY_KEY, dtype=np.uint64)
        self._values = np.zeros(self.slots, dtype=np.uint64)
        self._stamps = np.zeros(self.slots, dtype=np.int64)
        self._size = 0

    # ------------------------------------------------------------------ basics

    def __len__(self) -> int:
        return self._size

    @property
    def metadata_bytes(self) -> int:
        """HBM consumed by index metadata (keys + values + stamps)."""
        return self._keys.nbytes + self._values.nbytes + self._stamps.nbytes

    def _slabs(self) -> np.ndarray:
        return self._keys.reshape(self.num_buckets, SLAB_SLOTS)

    # ------------------------------------------------------------------ lookup

    def lookup(
        self, keys: np.ndarray, stamp: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray, ProbeStats]:
        """Find ``keys`` in the index (fully vectorised).

        Args:
            keys: uint64 flat keys (may be empty, may contain duplicates).
            stamp: if given, hit slots get their timestamp refreshed to
                ``stamp`` (the approximate-LRU touch).

        Returns:
            ``(found_mask, values, stats)``: boolean hit mask, per-key
            payloads (zero where missed), and device cost stats.
        """
        found, values, _, stats = self.lookup_slots(keys, stamp)
        return found, values, stats

    # hot-path: vectorized
    def lookup_slots(
        self, keys: np.ndarray, stamp: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, ProbeStats]:
        """:meth:`lookup` that also returns each key's slot.

        The slots (meaningful only where found) let a caller act on the
        probed entries later — :meth:`touch` them — without probing again.
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        n = len(keys)
        if n == 0:
            return (
                np.zeros(0, bool), np.zeros(0, np.uint64),
                np.zeros(0, np.int64), ProbeStats(0, 0, 0.0),
            )

        buckets = _bucket_of(keys, self.num_buckets)
        slab_keys = self._slabs()[buckets]  # (n, SLAB_SLOTS)
        match = slab_keys == keys[:, None]
        found = match.any(axis=1)
        cols = match.argmax(axis=1)
        slot = buckets * SLAB_SLOTS + cols
        values = np.where(found, self._values[slot], np.uint64(0))
        if stamp is not None:
            self._stamps[slot[found]] = stamp
        stats = ProbeStats(n, n, 1.0)
        return found, values, slot, stats

    def touch(self, slots: np.ndarray, stamp: int) -> None:
        """Re-stamp occupied ``slots`` (from :meth:`lookup_slots`) to ``stamp``.

        The in-place refresh's version bump: the same stamp write a
        ``lookup(keys, stamp=...)`` makes on its hits, without the probe.
        """
        self._stamps[slots] = stamp

    # ------------------------------------------------------------------ insert

    # hot-path: vectorized
    def insert(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        stamp: int,
        overwrite: bool = True,
    ) -> InsertResult:
        """Insert or update ``keys`` -> ``values``.

        Duplicate keys in the batch collapse to their first occurrence.  A
        full slab forces eviction of the stalest slot in its bucket
        (approximate LRU at bucket granularity).
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        values = np.ascontiguousarray(values, dtype=np.uint64)
        if keys.shape != values.shape:
            raise SimulationError("insert: keys/values length mismatch")
        if len(keys) == 0:
            empty = np.zeros(0, np.uint64)
            return InsertResult(
                empty, np.zeros(0, np.int64), empty, ProbeStats(0, 0, 0.0)
            )

        _, first = np.unique(keys, return_index=True)
        keys, values = keys[np.sort(first)], values[np.sort(first)]
        landed = np.full(len(keys), -1, dtype=np.int64)

        # Round assignment, computed once: key i runs in round r where r
        # is i's rank among same-bucket keys in batch order — exactly the
        # "first key per bucket per round" schedule the old per-round
        # dedup produced, without re-sorting the shrinking pending set.
        all_buckets = _bucket_of(keys, self.num_buckets)
        order = np.argsort(all_buckets, kind="stable")
        sorted_b = all_buckets[order]
        run_starts = np.flatnonzero(
            np.concatenate(([True], sorted_b[1:] != sorted_b[:-1]))
        )
        run_lengths = np.diff(np.concatenate((run_starts, [len(keys)])))
        rank = np.arange(len(keys)) - np.repeat(run_starts, run_lengths)
        round_of = np.empty(len(keys), dtype=np.int64)
        round_of[order] = rank

        evicted_chunks = []
        transactions = 0
        rounds = 0
        for r in range(int(run_lengths.max())):  # lint: allow-loop (per insert round: max keys per bucket, not key count)
            rounds += 1
            active = np.flatnonzero(round_of == r)
            act_buckets = all_buckets[active]
            act_keys = keys[active]
            act_values = values[active]
            transactions += 2 * len(active)  # read slab + write back

            slab_keys = self._slabs()[act_buckets]
            match = slab_keys == act_keys[:, None]
            has_match = match.any(axis=1)
            vacant = slab_keys == EMPTY_KEY
            has_vacant = vacant.any(axis=1)

            cols = np.empty(len(active), dtype=np.int64)
            cols[has_match] = match.argmax(axis=1)[has_match]
            use_vacant = ~has_match & has_vacant
            cols[use_vacant] = vacant.argmax(axis=1)[use_vacant]
            must_evict = ~has_match & ~has_vacant
            if must_evict.any():
                stamp_rows = self._stamps.reshape(
                    self.num_buckets, SLAB_SLOTS
                )[act_buckets[must_evict]]
                cols[must_evict] = stamp_rows.argmin(axis=1)
                evict_slots = (
                    act_buckets[must_evict] * SLAB_SLOTS + cols[must_evict]
                )
                evicted_chunks.append(self._values[evict_slots].copy())

            slots = act_buckets * SLAB_SLOTS + cols
            fresh = ~has_match
            self._keys[slots[fresh]] = act_keys[fresh]
            self._values[slots[fresh]] = act_values[fresh]
            if overwrite and has_match.any():
                self._values[slots[has_match]] = act_values[has_match]
            self._stamps[slots] = stamp
            self._size += int(use_vacant.sum())
            landed[active] = slots

        stats = ProbeStats(len(keys), transactions, float(rounds))
        evicted = (
            np.concatenate(evicted_chunks)
            if evicted_chunks
            else np.zeros(0, np.uint64)
        )
        return InsertResult(evicted, landed, keys, stats)

    # ------------------------------------------------------------------ erase

    # hot-path: vectorized
    def erase(self, keys: np.ndarray) -> Tuple[np.ndarray, ProbeStats]:
        """Remove ``keys``; returns (mask of keys actually removed, stats)."""
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        if len(keys) == 0:
            return np.zeros(0, bool), ProbeStats(0, 0, 0.0)
        buckets = _bucket_of(keys, self.num_buckets)
        slab_keys = self._slabs()[buckets]
        match = slab_keys == keys[:, None]
        found = match.any(axis=1)
        slots = buckets * SLAB_SLOTS + match.argmax(axis=1)
        target = np.unique(slots[found])
        self._keys[target] = EMPTY_KEY
        self._values[target] = 0
        self._stamps[target] = 0
        self._size -= len(target)
        return found, ProbeStats(len(keys), 2 * len(keys), 1.0)

    # ------------------------------------------------------------------ scans

    def scan(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full-table scan: (keys, values, stamps) of occupied slots.

        The eviction pass (§3.1) uses this: one streaming read of the table.
        """
        occupied = self._keys != EMPTY_KEY
        return (
            self._keys[occupied].copy(),
            self._values[occupied].copy(),
            self._stamps[occupied].copy(),
        )

    def stamp_of(self, key: int) -> Optional[int]:
        """Timestamp currently recorded for ``key`` (None when absent)."""
        arr = np.array([key], dtype=np.uint64)
        found, _, _ = self.lookup(arr)
        if not found[0]:
            return None
        bucket = int(_bucket_of(arr, self.num_buckets)[0])
        row = self._slabs()[bucket]
        col = int(np.nonzero(row == arr[0])[0][0])
        return int(self._stamps[bucket * SLAB_SLOTS + col])

    def check_capacity(self, additional: int) -> None:
        """Raise :class:`CapacityError` if ``additional`` inserts cannot fit."""
        if self._size + additional > self.slots:
            raise CapacityError(
                f"slab hash overflow: {self._size}+{additional} > {self.slots} slots"
            )
