"""Output-correctness checks; each failure names its check.

* ``request-conservation`` — attempted == served + failed + shed on every
  simulated run, cross-checked against the program's own counters.
* ``registry-laws`` — ``check()`` on every engine's and router's
  metrics registry (the program's conservation laws).
* ``served-rows`` — embeddings served for sampled requests equal the
  ground-truth ``EmbeddingStore`` rows, exactly (fp32 path).
* ``served-rows-refresh`` (``cluster_refresh``) — a key nobody updated is
  served its store row exactly; an updated key is served its store row or
  one of its published versions.  How many updated keys were served a
  version older than the last writer's is counted, not gated (see
  :func:`check_cluster_rows`).
* ``recovery-convergence`` (``cluster_refresh``) — right after snapshot
  restore plus log replay, the recovered replica's cache equals that of a
  replica that never crashed and applied the same log up to the same
  instant.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, List

import numpy as np

from repro import EmbeddingStore
from repro.cluster import ClusterReplica
from repro.errors import AuditError
from repro.refresh import fingerprint
from workloads import server_outcome


class CheckFailed(Exception):
    """A correctness check failed; ``check`` is its name."""

    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


def check_conservation(outcome) -> None:
    """attempted == served + failed + shed, against the program's counters."""
    name = "request-conservation"
    total = outcome.served + outcome.failed + outcome.shed
    if outcome.attempted != total:
        raise CheckFailed(name, (
            f"attempted {outcome.attempted} != served {outcome.served} + "
            f"failed {outcome.failed} + shed {outcome.shed}"
        ))
    completed = int(np.isfinite(outcome.latencies).sum())
    if completed != outcome.served + outcome.failed:
        raise CheckFailed(name, (
            f"{completed} finite latencies but served + failed = "
            f"{outcome.served + outcome.failed}"
        ))
    counters = outcome.counters
    batched = counters.get("serving.batched_requests")
    if batched is not None and int(batched) != completed:
        raise CheckFailed(name, (
            f"serving.batched_requests {int(batched)} != completed {completed}"
        ))
    routed = counters.get("cluster.requests")
    if routed is not None and int(routed) != outcome.attempted:
        raise CheckFailed(name, (
            f"cluster.requests {int(routed)} != attempted {outcome.attempted}"
        ))


def check_registries(registries) -> None:
    for registry in registries:
        try:
            registry.check()
        except AuditError as exc:
            raise CheckFailed("registry-laws", str(exc)) from exc


@contextmanager
def captured_rows(layers):
    """Record ``(batch, outputs)`` of every query the given layers serve.

    Shadows each layer instance's ``query_stages`` with a generator that
    delegates to it and keeps the result; the instance attribute is
    removed again on exit.
    """
    sink: List[tuple] = []
    for layer in layers:
        inner = layer.query_stages

        def query_stages(batch, executor, coalescer=None, _inner=inner):
            result = yield from _inner(batch, executor, coalescer=coalescer)
            sink.append((batch, result.outputs))
            return result

        layer.query_stages = query_stages
    try:
        yield sink
    finally:
        for layer in layers:
            layer.__dict__.pop("query_stages", None)


def _rows_checked(sink, check: Callable[[int, np.ndarray, np.ndarray], None]):
    rows = 0
    for batch, outputs in sink:
        for table, ids in enumerate(batch.ids_per_table):
            check(table, np.asarray(ids), np.asarray(outputs[table]))
            rows += len(ids)
    if rows == 0:
        raise CheckFailed("served-rows", "no served rows were captured")
    return rows


def check_store_rows(sink, dataset, hw) -> int:
    """Every captured row equals the ground-truth store row exactly."""
    truth = EmbeddingStore(dataset.table_specs(), hw)

    def check(table, ids, served):
        expected = truth.table(table).lookup(ids)
        if served.dtype != np.float32 or served.shape != expected.shape:
            raise CheckFailed("served-rows", (
                f"table {table}: served {served.dtype}{served.shape}, "
                f"expected float32{expected.shape}"
            ))
        bad = np.flatnonzero(~np.all(served == expected, axis=1))
        if bad.size:
            raise CheckFailed("served-rows", (
                f"table {table}: {bad.size} of {len(ids)} rows differ from "
                f"the store, first id {int(ids[bad[0]])}"
            ))

    return _rows_checked(sink, check)


def check_cluster_rows(sink, dataset, hw, versions: Dict[tuple, list]):
    """Rows served after the run, against store + published updates.

    The refresh path updates rows that are cached when their update is
    applied; a plain ``EmbeddingStore`` host is deliberately not a
    write-through target, so an updated key that was not cached at the
    time is later served an older version.  That is counted and returned
    (``(rows, updated rows, stale rows)``); a row that is neither the
    store row nor any published version fails the check.
    """
    truth = EmbeddingStore(dataset.table_specs(), hw)
    counts = {"updated": 0, "stale": 0}

    def check(table, ids, served):
        expected = truth.table(table).lookup(ids)
        for j, fid in enumerate(ids.tolist()):  # per sampled row
            history = versions.get((table, fid))
            row = served[j]
            if history is None:
                if not np.array_equal(row, expected[j]):
                    raise CheckFailed("served-rows", (
                        f"table {table} id {fid}: never updated, but the "
                        f"served row differs from the store"
                    ))
                continue
            counts["updated"] += 1
            if np.array_equal(row, history[-1]):
                continue
            if not (
                np.array_equal(row, expected[j])
                or any(np.array_equal(row, v) for v in history)
            ):
                raise CheckFailed("served-rows-refresh", (
                    f"table {table} id {fid}: served row is neither the "
                    f"store row nor any published version"
                ))
            counts["stale"] += 1

    rows = _rows_checked(sink, check)
    return rows, counts["updated"], counts["stale"]


def check_recovery(workload, drill) -> None:
    """The recovered victim's cache equals a never-crashed replica's."""
    name = "recovery-convergence"
    if drill.recovered_fingerprint is None:
        raise CheckFailed(name, f"replica {drill.victim} never recovered")
    cfg = workload.config
    shadow = ClusterReplica(
        drill.victim, workload.dataset, workload.hw,
        cache_ratio=cfg.cache_ratio, max_batch_size=cfg.max_batch_size,
        max_delay=cfg.max_delay, depth=cfg.depth,
        refresh_quantum=cfg.refresh_quantum,
    )
    shadow.warm_hot_keys(drill.seed, cfg.hot_keys)
    shadow.attach_refresh(drill.log, now=0.0)
    shadow.subscriber.catch_up(drill.recovered_at)
    expected = fingerprint(shadow.layer.cache)
    got = drill.recovered_fingerprint
    if got != expected:
        differ = sum(1 for k in expected if got.get(k) != expected[k])
        raise CheckFailed(name, (
            f"replica {drill.victim}: {differ} of {len(expected)} cached "
            f"rows differ after recovery ({len(got)} cached)"
        ))


def verify(workload) -> dict:
    """Run the workload's correctness checks; returns what they counted."""
    if workload.kind == "server":
        requests = workload.verify_requests()
        with captured_rows(workload.layers) as sink:
            outcome = server_outcome(requests, workload.server.serve(requests))
        check_conservation(outcome)
        rows = check_store_rows(sink, workload.dataset, workload.hw)
        check_registries(workload.registries)
        return {"rows_checked": rows}

    drill = workload.drill
    check_registries(workload.registries)
    check_recovery(workload, drill)
    sample = drill.requests[:: max(1, len(drill.requests) // workload.size.verify)]
    replicas = [r for r in drill.router.replicas if r.alive]
    with captured_rows([r.layer for r in replicas]) as sink:
        for replica in replicas:
            replica.serve(sample)
    rows, updated, stale = check_cluster_rows(
        sink, workload.dataset, workload.hw, drill.versions
    )
    check_registries(workload.registries)
    return {
        "rows_checked": rows,
        "updated_rows_checked": updated,
        "stale_updated_rows": stale,
    }
