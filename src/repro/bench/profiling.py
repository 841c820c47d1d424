"""Built-in hot-path profiling for the benchmark suite.

Every CLI bench accepts ``--profile``; when set, the run happens under a
:class:`HotPathProfiler` — a thin harness over :mod:`cProfile` plus
deterministic ``perf_counter_ns`` sections — and a ``profile*.json``
artifact is emitted next to the other bench results.  The artifact
attributes wall-clock to the serving hot-path *layers* the vectorization
work targets (miss table, scheduler, workflow, DRAM tier, refresh apply,
router, dense, registry), so a speedup claim is diagnosable per layer and
a regression in one layer is visible even when end-to-end runtime hides
it.

Attribution is by code location: each profiled function's self-time is
charged to the layer owning its file (with the miss table split out of
``serving/pipeline.py`` by function name).  The mapping is suffix-based so
it works on any checkout path — including the pre-rewrite tree the pinned
baselines were measured on.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

#: The hot-path layers wall-clock is attributed to.  Order is the
#: presentation order in tables and ``profile.json``.
LAYERS = (
    "miss_table", "scheduler", "workflow", "tier", "refresh", "router",
    "dense", "registry", "other",
)

#: Path-suffix -> layer.  First (longest) match wins; files matching no
#: suffix are charged to ``other``.
_LAYER_OF_SUFFIX: Tuple[Tuple[str, str], ...] = (
    ("repro/serving/pipeline.py", "scheduler"),
    ("repro/serving/server.py", "scheduler"),
    ("repro/serving/batcher.py", "scheduler"),
    ("repro/serving/arrivals.py", "scheduler"),
    ("repro/core/updates.py", "refresh"),
    ("repro/core/workflow.py", "workflow"),
    ("repro/core/engine.py", "workflow"),
    ("repro/core/flat_cache.py", "workflow"),
    ("repro/core/unified_index.py", "workflow"),
    ("repro/hashindex/", "workflow"),
    ("repro/mempool/", "workflow"),
    ("repro/tables/", "workflow"),
    ("repro/coding/", "workflow"),
    ("repro/workloads/", "scheduler"),
    ("repro/gpusim/", "workflow"),
    ("repro/multitier/", "tier"),
    ("repro/refresh/", "refresh"),
    ("repro/cluster/", "router"),
    ("repro/multigpu/", "router"),
    ("repro/model/", "dense"),
    ("repro/obs/", "registry"),
)

#: ``serving/pipeline.py`` functions that belong to the in-flight miss
#: table rather than the pipelined scheduler.
_MISS_TABLE_FUNCS = frozenset(
    {"match", "publish", "retire", "outstanding", "__init__"}
)


def layer_of(filename: str, funcname: str = "") -> str:
    """Map one profiled code location to its hot-path layer."""
    path = filename.replace("\\", "/")
    for suffix, layer in _LAYER_OF_SUFFIX:
        if suffix in path:
            if (
                layer == "scheduler"
                and suffix.endswith("pipeline.py")
                and funcname in _MISS_TABLE_FUNCS
            ):
                return "miss_table"
            return layer
    return "other"


class HotPathProfiler:
    """cProfile + named wall-clock sections with per-layer attribution.

    Usage::

        prof = HotPathProfiler()
        with prof.section("depth_sweep"):
            run_depth_sweep(hw)
        prof.emit("profile", mode="full", bench="serving_sla")

    Sections are deterministic names chosen by the bench (not derived
    from timestamps or ids), so two runs of the same bench produce
    payloads whose keys — though not the measured times — are identical.
    """

    def __init__(self, use_cprofile: bool = True):
        self.use_cprofile = use_cprofile
        self._profile = cProfile.Profile() if use_cprofile else None
        #: section name -> [calls, total nanoseconds]
        self._sections: Dict[str, List[int]] = {}
        self._wall_ns = 0

    @contextmanager
    def section(self, name: str, cprofile: bool = True):
        """Time one named region (and cProfile it, when enabled).

        ``cprofile=False`` keeps a region out of the layer attribution
        (wall-clock only) — used for side work the pinned baselines do
        not cover, so before/after layer profiles compare like for like.
        """
        profile = self._profile if cprofile else None
        if profile is not None:
            profile.enable()
        started = time.perf_counter_ns()
        try:
            yield
        finally:
            elapsed = time.perf_counter_ns() - started
            if profile is not None:
                profile.disable()
            cell = self._sections.setdefault(name, [0, 0])
            cell[0] += 1
            cell[1] += elapsed
            self._wall_ns += elapsed

    # -- attribution -------------------------------------------------------

    def layer_seconds(self) -> Dict[str, float]:
        """Self-time per layer, from the cProfile stats (empty without)."""
        totals = {layer: 0.0 for layer in LAYERS}
        if self._profile is None:
            return totals
        stats = pstats.Stats(self._profile)
        for (filename, _lineno, funcname), row in stats.stats.items():
            totals[layer_of(filename, funcname)] += row[2]  # tottime
        return totals

    def top_functions(self, limit: int = 15) -> List[dict]:
        """The heaviest functions by self-time, for the artifact."""
        if self._profile is None:
            return []
        stats = pstats.Stats(self._profile)
        ranked = sorted(
            stats.stats.items(), key=lambda kv: kv[1][2], reverse=True
        )
        out = []
        for (filename, lineno, funcname), row in ranked[:limit]:
            short = filename.replace("\\", "/")
            marker = "/repro/"
            if marker in short:
                short = "repro/" + short.split(marker, 1)[1]
            out.append({
                "function": f"{short}:{lineno}({funcname})",
                "layer": layer_of(filename, funcname),
                "calls": row[1],
                "self_s": round(row[2], 6),
                "cumulative_s": round(row[3], 6),
            })
        return out

    # -- artifact ----------------------------------------------------------

    def to_payload(
        self,
        bench: str,
        mode: str,
        baseline_layers_s: Optional[Dict[str, float]] = None,
    ) -> dict:
        """The ``profile.json`` payload.

        When ``baseline_layers_s`` (pinned pre-rewrite self-time per
        layer, same workload) is given, each layer also carries its
        measured speedup — the per-layer attribution of the end-to-end
        claim.
        """
        layers_now = self.layer_seconds()
        layers = {}
        for layer in LAYERS:
            cell = {"self_s": round(layers_now[layer], 6)}
            if baseline_layers_s is not None:
                base = baseline_layers_s.get(layer)
                if base is not None:
                    cell["baseline_self_s"] = base
                    cell["speedup"] = round(
                        base / layers_now[layer], 3
                    ) if layers_now[layer] > 0 else None
            layers[layer] = cell
        return {
            "bench": bench,
            "mode": mode,
            "profiler": "cprofile" if self.use_cprofile else "sections",
            "wall_s": round(self._wall_ns / 1e9, 6),
            "sections": {
                name: {"calls": calls, "total_s": round(ns / 1e9, 6)}
                for name, (calls, ns) in sorted(self._sections.items())
            },
            "layers": layers,
            "top_functions": self.top_functions(),
        }

    def emit(
        self,
        name: str,
        bench: str,
        mode: str,
        baseline_layers_s: Optional[Dict[str, float]] = None,
    ) -> str:
        """Write the payload via the standard artifact writer; print a
        per-layer attribution table.  Returns the path written."""
        from .reporting import emit_json, format_table

        payload = self.to_payload(
            bench, mode, baseline_layers_s=baseline_layers_s
        )
        rows = []
        for layer in LAYERS:
            cell = payload["layers"][layer]
            rows.append([
                layer,
                f"{cell['self_s']:.4f} s",
                (f"{cell['baseline_self_s']:.4f} s"
                 if "baseline_self_s" in cell else "-"),
                (f"{cell['speedup']:.2f}x"
                 if cell.get("speedup") is not None else "-"),
            ])
        print()
        print(format_table(
            ["layer", "self time", "pre-rewrite", "speedup"],
            rows,
            title=f"Hot-path attribution ({bench}, {mode} mode)",
        ))
        return emit_json(name, payload)


#: Pinned pre-rewrite per-layer self-time (seconds) for
#: ``bench_serving_sla.py``'s depth sweep, measured with this module's
#: attribution on the PR-6 tree (commit 59a9b57) on the CI reference
#: machine.  These are the "before" column of the speedup attribution in
#: ``profile.json``; re-pin by running ``--profile`` on the old tree.
SERVING_BASELINE_LAYERS_S: Dict[str, Dict[str, float]] = {
    # mode -> layer -> pre-rewrite self seconds (cProfile tottime).
    "full": {
        "miss_table": 0.0858, "scheduler": 0.4910, "workflow": 0.5601,
        "router": 0.0, "dense": 1.5352, "registry": 0.2279,
        "other": 0.7074,
    },
    "smoke": {
        "miss_table": 0.0264, "scheduler": 0.2515, "workflow": 0.2747,
        "router": 0.0, "dense": 0.6230, "registry": 0.0947,
        "other": 0.3294,
    },
}


def serving_baseline(mode: str) -> Optional[Dict[str, float]]:
    """The pinned pre-rewrite layer profile for a serving-sweep mode."""
    layers = SERVING_BASELINE_LAYERS_S.get(mode)
    return layers if layers else None


def maybe_section(profiler: Optional[HotPathProfiler], name: str,
                  cprofile: bool = True):
    """``profiler.section(name)`` or a no-op when profiling is off.

    Lets a bench write one code path for both plain and ``--profile``
    runs without duplicating the section structure.
    """
    if profiler is None:
        from contextlib import nullcontext

        return nullcontext()
    return profiler.section(name, cprofile=cprofile)
