"""Cohort-throughput microbenchmark: batched lanes vs serial translated.

Measures warm steady-state *aggregate* retired instructions per second
for cohorts of 1/4/8/16 machines stepped by the batch engine
(:class:`repro.sim.batch.BatchMachine`) against the same machines run
one after another on the translated scalar tier.  All lanes share one
MFI installation, so the image-wide translation store and compiled-block
store are warm before any timed run — the regime batched fault campaigns
and figure sweeps actually execute in (the cold first batch pays the
one-off exec-compile cost instead).

Timings interleave serial and batched runs per cohort size within each
repeat and keep the best time per side.  A separate untimed pass runs a
cohort of eight with ``full``-projection observers attached and checks
the per-lane observation digests against serial runs bit-for-bit.

Merges a ``batch`` section into ``benchmarks/BENCH_sim.json`` and a
``sim_batch`` summary into ``benchmarks/BENCH_harness.json`` (both
read-merge-write: other sections are preserved).  Run standalone::

    PYTHONPATH=src python benchmarks/bench_batch.py [--scale 1.0]

or via pytest (``pytest benchmarks/bench_batch.py``), which uses the
``REPRO_*`` environment knobs.  Under ``REPRO_BENCH_STRICT=1`` the
cohort-8 aggregate must beat serial translated by >= 5x (geomean).
"""

import argparse
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

from repro.acf.mfi import attach_mfi
from repro.harness.runner import FUNCTIONAL_DISE, MAX_STEPS
from repro.sim.batch import BatchMachine
from repro.verify.observe import Observer
from repro.workloads import BENCHMARK_NAMES
from repro.workloads.generator import generate_benchmark
from repro.workloads.specint import get_profile

_BENCH_DIR = Path(__file__).parent

COHORTS = (1, 4, 8, 16)


def _installation(name, scale):
    # Every machine made from one installation shares its image, and with
    # it the image-wide translation and compiled-block stores.
    return attach_mfi(generate_benchmark(get_profile(name), scale=scale),
                      "dise3")


def _machines(installation, count):
    return [
        installation.make_machine(FUNCTIONAL_DISE, record_trace=False,
                                  dispatch="translated")
        for _ in range(count)
    ]


def _run_serial(machines):
    t0 = time.perf_counter()
    for machine in machines:
        machine.run(max_steps=MAX_STEPS)
    return time.perf_counter() - t0


def _run_batched(machines):
    cohort = BatchMachine()
    for machine in machines:
        cohort.add_lane(machine, max_steps=MAX_STEPS)
    t0 = time.perf_counter()
    cohort.run()
    elapsed = time.perf_counter() - t0
    for outcome in cohort.outcomes():
        outcome.raise_or_result(MAX_STEPS)
    return elapsed


def _digests_identical(installation, count=8):
    """Per-lane ``full`` observation digests: batched vs serial."""
    def observed(count):
        machines = _machines(installation, count)
        observers = []
        for machine in machines:
            obs = Observer("full")
            machine._install_observer(obs)
            observers.append(obs)
        return machines, observers

    serial_machines, serial_obs = observed(count)
    for machine in serial_machines:
        machine.run(max_steps=MAX_STEPS)
    batch_machines, batch_obs = observed(count)
    cohort = BatchMachine()
    for machine in batch_machines:
        cohort.add_lane(machine, max_steps=MAX_STEPS)
    cohort.run()
    for outcome in cohort.outcomes():
        outcome.raise_or_result(MAX_STEPS)
    return all(
        s.count == b.count and s.hexdigest() == b.hexdigest()
        for s, b in zip(serial_obs, batch_obs)
    )


def _profile_batch(name, scale, repeats):
    """Best aggregate rates per cohort size for one benchmark profile."""
    installation = _installation(name, scale)
    # Warm both stores: one scalar run seeds the translation store, one
    # full-width batch seeds the compiled-block store.
    _machines(installation, 1)[0].run(max_steps=MAX_STEPS)
    _run_batched(_machines(installation, max(COHORTS)))

    best_serial = {n: math.inf for n in COHORTS}
    best_batch = {n: math.inf for n in COHORTS}
    retired = {}
    for _ in range(repeats):
        for n in COHORTS:
            serial_machines = _machines(installation, n)
            best_serial[n] = min(best_serial[n], _run_serial(serial_machines))
            aggregate = sum(m.instructions for m in serial_machines)
            batch_machines = _machines(installation, n)
            best_batch[n] = min(best_batch[n], _run_batched(batch_machines))
            if sum(m.instructions for m in batch_machines) != aggregate:
                raise AssertionError(
                    f"{name}: batched cohort-{n} retired a different "
                    f"aggregate count than serial")
            retired[n] = aggregate
    return {
        "aggregate_instructions": {str(n): retired[n] for n in COHORTS},
        "instrs_per_sec": {
            "serial": {str(n): round(retired[n] / best_serial[n])
                       for n in COHORTS},
            "batch": {str(n): round(retired[n] / best_batch[n])
                      for n in COHORTS},
        },
        "speedup": {str(n): round(best_serial[n] / best_batch[n], 2)
                    for n in COHORTS},
        "digests_identical": _digests_identical(installation),
    }


def _geomean(values):
    return round(math.exp(sum(math.log(v) for v in values) / len(values)), 2)


def run_batch_benchmark(scale=1.0, repeats=2, benchmarks=None):
    """Aggregate cohort throughput across benchmark profiles."""
    names = tuple(benchmarks) if benchmarks else BENCHMARK_NAMES
    profiles = {name: _profile_batch(name, scale, repeats)
                for name in names}
    c8 = [p["speedup"]["8"] for p in profiles.values()]
    c16 = [p["speedup"]["16"] for p in profiles.values()]
    return {
        "meta": {
            "scale": scale,
            "repeats": repeats,
            "cohorts": list(COHORTS),
            "benchmarks": list(names),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "profiles": profiles,
        "summary": {
            "geomean_speedup_cohort8": _geomean(c8),
            "geomean_speedup_cohort16": _geomean(c16),
            "profiles_ge_5x_cohort8": sum(1 for s in c8 if s >= 5.0),
            "profiles_total": len(names),
            "all_digests_identical": all(
                p["digests_identical"] for p in profiles.values()),
        },
    }


def _merge_payload(payload):
    """Read-merge-write: only this benchmark's sections are replaced."""
    sim_path = _BENCH_DIR / "BENCH_sim.json"
    sim = json.loads(sim_path.read_text()) if sim_path.exists() else {}
    sim["batch"] = payload
    sim_path.write_text(json.dumps(sim, indent=2) + "\n")
    harness_path = _BENCH_DIR / "BENCH_harness.json"
    harness = (json.loads(harness_path.read_text())
               if harness_path.exists() else {})
    harness["sim_batch"] = payload["summary"]
    harness_path.write_text(json.dumps(harness, indent=2) + "\n")
    return sim_path


# ----------------------------------------------------------------------
# pytest entry point
# ----------------------------------------------------------------------
def test_batch_cohort_throughput():
    names = os.environ.get("REPRO_BENCHMARKS")
    benchmarks = (
        tuple(n.strip() for n in names.split(",") if n.strip()) if names
        else None
    )
    payload = run_batch_benchmark(
        scale=float(os.environ.get("REPRO_SCALE", "1.0")),
        repeats=int(os.environ.get("REPRO_BENCH_REPEATS", "2")),
        benchmarks=benchmarks,
    )
    _merge_payload(payload)
    assert payload["summary"]["all_digests_identical"], \
        "batched lanes diverged from serial translated observations"
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        summary = payload["summary"]
        assert summary["geomean_speedup_cohort8"] >= 5.0, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--benchmarks", help="comma-separated subset")
    args = parser.parse_args(argv)
    benchmarks = (
        tuple(args.benchmarks.split(",")) if args.benchmarks else None
    )
    payload = run_batch_benchmark(
        scale=args.scale, repeats=args.repeats, benchmarks=benchmarks
    )
    out = _merge_payload(payload)
    print(json.dumps(payload, indent=2))
    print(f"merged 'batch' into {out}")
    return 0 if payload["summary"]["all_digests_identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
