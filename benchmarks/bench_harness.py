"""Micro-benchmark for parallel figure regeneration and the trace cache.

Measures three full Figure 6 regenerations (top + cache sweep + width
sweep) and checks they render identical tables:

* **serial** — ``jobs=1``, persistent cache disabled (the baseline path).
* **cold** — ``REPRO_JOBS``-style fan-out into a *fresh* cache directory.
* **warm** — a new suite over the now-populated cache.

Writes ``benchmarks/BENCH_harness.json`` with the wall-clock numbers and
speedups.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_harness.py [--jobs 4] [--scale 1.0]

or via pytest (``pytest benchmarks/bench_harness.py``), which uses the
``REPRO_*`` environment knobs and asserts table equality plus a warm-rerun
speedup.  Speedup expectations are hardware-dependent: the parallel cold
run needs multiple cores to win, so only the warm-vs-serial ratio is
asserted, and only under pytest when ``REPRO_BENCH_STRICT=1``.
"""

import argparse
import json
import multiprocessing
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

from repro.harness import Suite, fig6_cache, fig6_top, fig6_width

_BENCH_DIR = Path(__file__).parent
_FIGURES = (fig6_top, fig6_cache, fig6_width)


def _regenerate(suite):
    """Run the full Figure 6 and return the rendered tables."""
    return tuple(fn(suite).render() for fn in _FIGURES)


def run_harness_benchmark(jobs=4, scale=1.0, benchmarks=None):
    """Time serial vs cold-parallel vs warm-cached Figure 6 regeneration."""
    timings = {}
    tables = {}

    t0 = time.perf_counter()
    tables["serial"] = _regenerate(
        Suite(benchmarks=benchmarks, scale=scale, jobs=1, cache=None)
    )
    timings["serial_seconds"] = round(time.perf_counter() - t0, 2)

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as root:
        t0 = time.perf_counter()
        tables["cold"] = _regenerate(
            Suite(benchmarks=benchmarks, scale=scale, jobs=jobs, cache=root)
        )
        timings["cold_parallel_seconds"] = round(time.perf_counter() - t0, 2)

        t0 = time.perf_counter()
        tables["warm"] = _regenerate(
            Suite(benchmarks=benchmarks, scale=scale, jobs=jobs, cache=root)
        )
        timings["warm_cached_seconds"] = round(time.perf_counter() - t0, 2)

    identical = tables["serial"] == tables["cold"] == tables["warm"]
    serial = timings["serial_seconds"]

    # Telemetry must be free when off: record the disabled-mode overhead
    # of both hot loops alongside the harness numbers (see
    # bench_telemetry.py for the full structural + measured check).
    if str(_BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(_BENCH_DIR))
    from bench_telemetry import run_telemetry_benchmark, run_tracing_benchmark
    telemetry_overhead = run_telemetry_benchmark(
        scale=min(scale, 0.1), repeats=2
    )["timings"]
    # Same deal for the tracing/profiler layer: disabled-mode dispatch
    # stays structurally unwrapped, and the enabled-mode hot-path
    # profiler stays block-granular cheap on a warm translated run.
    tracing_overhead = run_tracing_benchmark(
        scale=min(scale, 0.1), repeats=2
    )["timings"]
    payload = {
        "meta": {
            "jobs": jobs,
            "scale": scale,
            "benchmarks": list(benchmarks) if benchmarks else "all",
            "cpu_count": multiprocessing.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "timings": timings,
        "speedups": {
            "cold_parallel_vs_serial": round(
                serial / timings["cold_parallel_seconds"], 2
            ),
            "warm_cached_vs_serial": round(
                serial / timings["warm_cached_seconds"], 2
            ),
        },
        "tables_identical": identical,
        "telemetry_overhead": telemetry_overhead,
        "tracing_overhead": tracing_overhead,
    }
    return payload, tables


def _write_payload(payload):
    # Read-merge-write: other benchmark modules (bench_batch,
    # bench_cycle) merge their own sections (sim_batch, cycle_engine)
    # into this file — preserve them regardless of run order.
    out = _BENCH_DIR / "BENCH_harness.json"
    previous = json.loads(out.read_text()) if out.exists() else {}
    for key, value in previous.items():
        payload.setdefault(key, value)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


# ----------------------------------------------------------------------
# pytest entry point
# ----------------------------------------------------------------------
def test_harness_regeneration_identical_and_cached():
    names = os.environ.get("REPRO_BENCHMARKS")
    benchmarks = (
        tuple(n.strip() for n in names.split(",") if n.strip()) if names
        else None
    )
    payload, tables = run_harness_benchmark(
        jobs=int(os.environ.get("REPRO_JOBS", "2")),
        scale=float(os.environ.get("REPRO_SCALE", "1.0")),
        benchmarks=benchmarks,
    )
    _write_payload(payload)
    assert tables["serial"] == tables["cold"], \
        "parallel cold run changed the figure tables"
    assert tables["serial"] == tables["warm"], \
        "cached warm run changed the figure tables"
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert payload["speedups"]["warm_cached_vs_serial"] >= 10.0, payload


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--benchmarks", help="comma-separated subset")
    args = parser.parse_args(argv)
    benchmarks = (
        tuple(args.benchmarks.split(",")) if args.benchmarks else None
    )
    payload, _ = run_harness_benchmark(
        jobs=args.jobs, scale=args.scale, benchmarks=benchmarks
    )
    out = _write_payload(payload)
    print(json.dumps(payload, indent=2))
    print(f"wrote {out}")
    return 0 if payload["tables_identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
