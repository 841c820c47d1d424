"""Inference serving layer: open-loop load over the simulated engine.

The paper frames its goal in SLA terms (§1): at a fixed latency budget, a
faster embedding layer lets the service examine more candidate items.
This package closes that loop:

* :mod:`repro.serving.arrivals` — open-loop request generators (Poisson
  and bursty) over a dataset's sparse-feature distribution;
* :mod:`repro.serving.batcher` — dynamic batch formation with a max batch
  size and a batching timeout, the standard inference-server policy;
* :mod:`repro.serving.pipeline` — the serving loop: requests arrive,
  batches form, and up to ``depth`` batches run in flight on the
  simulated platform, stages overlapped across batches with the host
  thread and PCIe link serialized, plus cross-batch in-flight miss
  coalescing (``depth=1`` is the sequential loop);
* :mod:`repro.serving.server` — the :class:`ServingReport`: per-request
  latencies (queueing + batching + compute), so SLA-attainment curves
  under offered load can be measured for any cache scheme.
"""

from .arrivals import PoissonArrivals, BurstyArrivals, Request
from .batcher import BatchingPolicy, FormedBatch
from .pipeline import (
    CoalescingStats,
    InFlightMissTable,
    PipelinedInferenceServer,
)
from .server import ServingReport

__all__ = [
    "PoissonArrivals",
    "BurstyArrivals",
    "Request",
    "BatchingPolicy",
    "FormedBatch",
    "ServingReport",
    "PipelinedInferenceServer",
    "InFlightMissTable",
    "CoalescingStats",
]
