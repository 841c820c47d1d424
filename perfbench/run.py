#!/usr/bin/env python3
"""Benchmark of the Fleche reproduction: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload hot_dense --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` does the traced run and prints its per-layer metrics.  Both
check the program's outputs.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A failed
check is named on standard error and the exit code is 1; a checkout
without the program (no ``src/repro``) exits with 2 and prints no result.
"""

import os

# Pin BLAS to one thread before numpy is imported: one process, one thread.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = ROOT / ".perfbench"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="self-test sizes: a few hundred requests per run",
    )
    return parser.parse_args(argv)


def git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git`` directly; no subprocess."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "seed": seed,
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def emit(spec_metrics, result, workload, seed, correct) -> None:
    print(f"# environment {json.dumps(environment(seed), sort_keys=True)}")
    print(f"# workload {workload.name}: {workload.describe()}")
    for note in result.notes:
        print(f"# {note}")
    print(f"# {'metric':34} {'value':>16} {'unit':6} {'better':6} samples")
    metrics = {}
    for entry in spec_metrics:
        name = entry["name"]
        metric = result.metrics[name]
        print(
            f"# {name:34} {metric.value:16.6f} {entry['unit']:6} "
            f"{entry['better']:6} {metric.samples}"
        )
        metrics[name] = {"value": metric.value, "unit": entry["unit"]}
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no program under {ROOT / 'src' / 'repro'}; run from "
            "the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    from checks import CheckFailed
    from measure import RunResult, run_traced, run_untraced
    from workloads import WORKLOAD_NAMES, make_workload

    if args.workload not in WORKLOAD_NAMES:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOAD_NAMES)}",
            file=sys.stderr,
        )
        return 2
    spec = load_spec()
    spec_metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = make_workload(args.workload, tiny=args.tiny)
    try:
        if args.trace:
            SPANS_DIR.mkdir(exist_ok=True)
            spans = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
            result = run_traced(workload, args.seed, args.seconds, spans)
        else:
            result = run_untraced(workload, args.seed, args.seconds)
    except CheckFailed as failure:
        print(f"perfbench: CHECK FAILED [{failure.check}] {failure}",
              file=sys.stderr)
        emit([], RunResult(), workload, args.seed, correct=False)
        return 1
    missing = [e["name"] for e in spec_metrics if e["name"] not in result.metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 2
    for note in result.notes:
        if note.startswith("UNMEASURED"):
            print(f"perfbench: {note}", file=sys.stderr)
    emit(spec_metrics, result, workload, args.seed, correct=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
