"""Span recorder for the traced run, wrapped around each layer's public calls.

The wrappers live in the benchmark's own files: they replace the listed
functions on their classes (or modules) for the duration of a traced
pass and put the originals back afterwards.  Each call records one span
(name, start, end, parent span) in memory; a generator function records
one span per resumption, so a staged query that the pipelined server
drives step by step is charged to its layer only while it runs.  A
layer's self time is its spans' duration minus the part their child
spans cover.

A target that no longer exists does not stop the run: its layer is
reported as unmeasured.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import sys
import time
from typing import Dict, List, Tuple

import numpy as np

#: layer -> ``module:qualname`` of each public function timed for it.
LAYER_TARGETS: Dict[str, Tuple[str, ...]] = {
    "serving": (
        "repro.serving.pipeline:PipelinedInferenceServer.serve",
        "repro.serving.batcher:form_batches",
        "repro.serving.pipeline:InFlightMissTable.match",
        "repro.serving.pipeline:InFlightMissTable.publish",
        "repro.serving.pipeline:InFlightMissTable.retire",
    ),
    "core": (
        "repro.core.workflow:FlecheEmbeddingLayer.query_stages",
        "repro.core.flat_cache:FlatCache.admit_and_insert",
        "repro.core.updates:UpdateApplier.apply",
    ),
    "core.snapshot": (
        "repro.core.snapshot:CacheSnapshot.to_bytes",
        "repro.core.snapshot:CacheSnapshot.from_bytes",
        "repro.cluster.replica:ClusterReplica.take_snapshot",
        "repro.cluster.replica:ClusterReplica.recover",
    ),
    "hashindex": (
        "repro.hashindex.slab_hash:SlabHashIndex.lookup",
        "repro.hashindex.slab_hash:SlabHashIndex.insert",
        "repro.hashindex.slab_hash:SlabHashIndex.erase",
    ),
    "mempool": (
        "repro.mempool.slab_pool:SlabMemoryPool.allocate",
        "repro.mempool.slab_pool:SlabMemoryPool.release",
        "repro.mempool.slab_pool:SlabMemoryPool.read",
        "repro.mempool.slab_pool:SlabMemoryPool.write",
    ),
    "tables": ("repro.tables.store:EmbeddingStore.query_many",),
    "multitier": (
        "repro.multitier.hierarchy:TieredParameterStore.query_many",
        "repro.multitier.dram_cache:DramCacheLayer.lookup",
        "repro.multitier.remote_ps:RemoteParameterServer.fetch",
    ),
    "model": ("repro.model.dcn:DeepCrossNetwork.forward",),
    "cluster": (
        "repro.cluster.router:ClusterRouter.serve",
        # The workloads route with the consistent-hash policy.
        "repro.cluster.routing:ConsistentHashPolicy.primary",
        "repro.cluster.routing:ConsistentHashPolicy.primary_many",
        "repro.cluster.health:ReplicaHealth.routable_at",
    ),
    "refresh": (
        "repro.refresh.subscriber:UpdateSubscriber.apply_next",
        "repro.refresh.subscriber:UpdateSubscriber.catch_up",
        "repro.refresh.scheduler:RefreshScheduler.run_idle",
    ),
}

LAYERS = tuple(LAYER_TARGETS)


class SpanRecorder:
    """In-memory spans: parallel lists, one entry per span."""

    def __init__(self):
        self.names: List[str] = []
        self.layer_of: Dict[str, str] = {}
        self._name_ids: Dict[str, int] = {}
        self.name_id: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.calls: List[int] = []
        self._stack: List[int] = []

    def register(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.layer_of[name] = layer
        return self._name_ids[name]

    def enter(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def exit(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    # ------------------------------------------------------------ results

    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus the children it covers."""
        start = np.asarray(self.start)
        duration = np.asarray(self.end) - start
        parent = np.asarray(self.parent, dtype=np.int64)
        nested = parent >= 0
        covered = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(start)
        )
        return duration - covered

    def root_time(self) -> float:
        start = np.asarray(self.start)
        duration = np.asarray(self.end) - start
        return float(duration[np.asarray(self.parent) < 0].sum())

    def layer_totals(self) -> Dict[str, Tuple[float, int]]:
        """layer -> (self seconds, calls)."""
        totals = {layer: [0.0, 0] for layer in LAYERS}
        if self.start:
            per_name = np.bincount(
                np.asarray(self.name_id), weights=self.self_times(),
                minlength=len(self.names),
            )
            for i, name in enumerate(self.names):
                totals[self.layer_of[name]][0] += float(per_name[i])
        for i, name in enumerate(self.names):
            totals[self.layer_of[name]][1] += self.calls[i]
        return {k: (v[0], v[1]) for k, v in totals.items()}

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["span", "name", "start_s", "end_s", "parent"])
            origin = self.start[0] if self.start else 0.0
            for i, (nid, s, e, p) in enumerate(
                zip(self.name_id, self.start, self.end, self.parent)
            ):
                writer.writerow([
                    i, self.names[nid], f"{s - origin:.9f}",
                    f"{e - origin:.9f}", p,
                ])


def _timed_resumptions(inner, name_id: int, rec: SpanRecorder):
    """Drive generator ``inner``, one span per resumption."""
    value = None
    try:
        while True:
            index = rec.enter(name_id)
            try:
                item = inner.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                rec.exit(index)
            value = yield item
    finally:
        inner.close()


def _wrap(fn, name_id: int, rec: SpanRecorder):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def generator_wrapper(*args, **kwargs):
            rec.calls[name_id] += 1
            return (yield from _timed_resumptions(
                fn(*args, **kwargs), name_id, rec
            ))
        return generator_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.calls[name_id] += 1
        index = rec.enter(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.exit(index)
    return wrapper


class LayerTracer:
    """Installs and removes the span wrappers of :data:`LAYER_TARGETS`."""

    def __init__(self, recorder: SpanRecorder):
        self.rec = recorder
        #: ``(layer, target, reason)`` of every target that could not be
        #: resolved; its layer is reported as unmeasured.
        self.missing: List[Tuple[str, str, str]] = []
        self._undo: List[Tuple[object, str, object]] = []

    @property
    def unmeasured_layers(self) -> List[str]:
        return sorted({layer for layer, _, _ in self.missing})

    def install(self) -> None:
        self.missing = []
        for layer, targets in LAYER_TARGETS.items():
            for target in targets:
                try:
                    self._patch(target, self.rec.register(target, layer))
                except (ImportError, AttributeError, KeyError) as exc:
                    self.missing.append((layer, target, repr(exc)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def _patch(self, target: str, name_id: int) -> None:
        module_name, qualname = target.split(":")
        module = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        owner = module
        for part in path:
            owner = getattr(owner, part)
        if not path:
            fn = getattr(module, attr)
            wrapped = _wrap(fn, name_id, self.rec)
            # Patch every loaded module that imported the function by name.
            for name, mod in list(sys.modules.items()):
                if name.startswith("repro") and getattr(mod, attr, None) is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)
            return
        # The class that defines the method is the one listed.
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, type(raw)(_wrap(raw.__func__, name_id, self.rec)))
        else:
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, _wrap(raw, name_id, self.rec))


class ServeTap:
    """Keeps every ``PipelinedInferenceServer.serve`` report while active.

    Lets the traced run read per-replica serving reports and resource
    busy times that the cluster router does not return.
    """

    def __init__(self):
        self.runs: List[tuple] = []
        self._original = None

    def __enter__(self):
        from repro.serving.pipeline import PipelinedInferenceServer

        original = PipelinedInferenceServer.__dict__["serve"]
        runs = self.runs

        @functools.wraps(original)
        def serve(server, requests):
            report = original(server, requests)
            runs.append((server.last_run, report))
            return report

        self._original = original
        PipelinedInferenceServer.serve = serve
        return self

    def __exit__(self, *exc):
        from repro.serving.pipeline import PipelinedInferenceServer

        PipelinedInferenceServer.serve = self._original
        return False
