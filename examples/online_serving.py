"""Online serving scenario: SLA headroom and warm restarts.

Puts the whole stack behind a dynamic batcher under open-loop Poisson
traffic — the operating regime the paper's introduction frames ("given
the same SLA, a higher-performance system can examine more candidate
items") — then demonstrates a warm restart from a cache snapshot.

Run:  python examples/online_serving.py
"""

from repro import (
    DeepCrossNetwork,
    EmbeddingStore,
    Executor,
    FlecheConfig,
    FlecheEmbeddingLayer,
    PerTableCacheLayer,
    PerTableConfig,
    default_platform,
    uniform_tables_spec,
)
from repro.bench.reporting import format_table, format_time
from repro.core.snapshot import restore, snapshot
from repro.serving.arrivals import PoissonArrivals
from repro.serving.batcher import BatchingPolicy
from repro.serving.pipeline import PipelinedInferenceServer

SLA = 2e-3  # 2 ms latency budget


def main() -> None:
    hw = default_platform()
    dataset = uniform_tables_spec(
        num_tables=12, corpus_size=50_000, alpha=-1.3, dim=32,
    )
    store = EmbeddingStore(dataset.table_specs(), hw)
    model = DeepCrossNetwork(num_tables=12, embedding_dim=32)
    policy = BatchingPolicy(max_batch_size=512, max_delay=5e-4)

    rows = []
    fleche_layer = None
    for name, layer in (
        ("HugeCTR", PerTableCacheLayer(store, PerTableConfig(0.05), hw)),
        ("Fleche", FlecheEmbeddingLayer(store, FlecheConfig(cache_ratio=0.05), hw)),
    ):
        if name == "Fleche":
            fleche_layer = layer
        server = PipelinedInferenceServer(
            dataset, layer, hw, policy=policy, model=model, include_dense=True,
            depth=1,
        )
        server.serve(PoissonArrivals(dataset, 200_000.0, seed=1).generate(800))
        for rate in (400_000, 2_400_000):
            reqs = PoissonArrivals(dataset, float(rate), seed=2).generate(4_000)
            report = server.serve(reqs)
            rows.append([
                name, f"{rate:,}/s",
                f"{report.sla_attainment(SLA):.1%}",
                format_time(report.p99_latency),
            ])
    print(format_table(
        ["scheme", "offered load", f"SLA@{SLA * 1e3:.0f}ms", "P99"],
        rows,
        title="Open-loop serving (dynamic batching, 5% cache, DCN model)",
    ))

    # --- Warm restart from a snapshot.
    snap = snapshot(fleche_layer.cache)
    cold = FlecheEmbeddingLayer(store, FlecheConfig(cache_ratio=0.05), hw)
    warm = FlecheEmbeddingLayer(store, FlecheConfig(cache_ratio=0.05), hw)
    restore(warm.cache, snap)
    probe = PoissonArrivals(dataset, 200_000.0, seed=3).generate(600)
    restart_rows = []
    for label, layer in (("cold restart", cold), ("warm restart", warm)):
        server = PipelinedInferenceServer(
            dataset, layer, hw, policy=policy, model=model, include_dense=True,
            depth=1,
        )
        report = server.serve(probe)
        restart_rows.append([
            label, f"{report.sla_attainment(SLA):.1%}",
            format_time(report.p99_latency),
        ])
    print()
    print(format_table(
        ["restart mode", f"SLA@{SLA * 1e3:.0f}ms (first minute)", "P99"],
        restart_rows,
        title=f"Restart behaviour ({snap.num_entries:,} snapshot entries)",
    ))


if __name__ == "__main__":
    main()
