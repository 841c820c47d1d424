#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Checks, on every workload at self-test sizes:

* every end-to-end metric of ``BENCHMARK.json`` is printed with its unit,
  direction and sample count, and the traced run prints every per-layer
  metric;
* the simulated-clock metrics are identical across two runs with the same
  seed, and differ on a second seed (so the seed really drives the inputs
  and a claim can be confirmed on a seed not used while writing it);
* the correctness check rejects a deliberately corrupted served row.

Exits 0 when every check passes; otherwise prints the failures and exits 1.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SIM_METRICS = ("sim_p50_ms", "sim_p99_ms", "sim_sla_attainment", "sim_max_rate_rps")
WORKLOADS = ("hot_dense", "tiered_miss", "cluster_refresh")


def run(workload: str, seed: int, trace: int = 0):
    """One tiny benchmark run; returns (printed lines, result object)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise AssertionError(
            f"{workload} seed {seed} trace {trace} exited "
            f"{proc.returncode}: {proc.stderr.strip()[-800:]}"
        )
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_printed(spec_metrics, lines, result, label):
    rows = {line.split()[1]: line.split() for line in lines if line.startswith("# ")}
    for entry in spec_metrics:
        name = entry["name"]
        row = rows.get(name)
        if row is None or result["metrics"].get(name, {}).get("unit") != entry["unit"]:
            raise AssertionError(f"{label}: {name} not printed with its unit")
        # "# name value unit better samples..."
        if row[3] != entry["unit"] or row[4] != entry["better"] or len(row) < 6:
            raise AssertionError(
                f"{label}: {name} row lacks unit, direction or sample count: "
                f"{' '.join(row)}"
            )
    if not result["correct"] or result["attempted"] < 1:
        raise AssertionError(f"{label}: result not correct: {result}")


def check_determinism(workload, first):
    _, again = run(workload, 1)
    _, other = run(workload, 2)
    sim = {k: first["metrics"][k]["value"] for k in SIM_METRICS}
    same = {k: again["metrics"][k]["value"] for k in SIM_METRICS}
    if sim != same:
        raise AssertionError(f"{workload}: same seed, different sim metrics: {sim} vs {same}")
    moved = {k: other["metrics"][k]["value"] for k in SIM_METRICS}
    if moved == sim:
        raise AssertionError(f"{workload}: seeds 1 and 2 gave identical sim metrics")


def check_corruption_rejected():
    """A corrupted served row must fail ``served-rows``, naming it."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from checks import CheckFailed, captured_rows, check_store_rows
    from workloads import make_workload

    workload = make_workload("hot_dense", tiny=True)
    workload.prepare(1)
    workload.setup()
    requests = workload.verify_requests()
    with captured_rows(workload.layers) as sink:
        workload.server.serve(requests)
    check_store_rows(sink, workload.dataset, workload.hw)
    _, outputs = sink[len(sink) // 2]
    outputs[3][5, 7] += 1.0
    try:
        check_store_rows(sink, workload.dataset, workload.hw)
    except CheckFailed as failure:
        if failure.check != "served-rows":
            raise AssertionError(f"corruption failed the wrong check: {failure}")
        return
    raise AssertionError("a corrupted served row passed the correctness check")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    checks = [("corrupted row rejected", check_corruption_rejected)]
    for workload in WORKLOADS:
        def end_to_end(workload=workload):
            lines, result = run(workload, 1)
            check_printed(spec["end_to_end"], lines, result, workload)
            check_determinism(workload, result)

        def per_layer(workload=workload):
            lines, result = run(workload, 1, trace=1)
            check_printed(spec["per_layer"], lines, result, f"{workload} traced")

        checks.append((f"{workload} end-to-end", end_to_end))
        checks.append((f"{workload} traced", per_layer))
    for label, check in checks:
        try:
            check()
        except AssertionError as exc:
            failures.append(f"{label}: {exc}")
            print(f"FAIL {label}: {exc}")
        else:
            print(f"ok   {label}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
