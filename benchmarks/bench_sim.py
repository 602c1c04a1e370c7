"""Interpreter-throughput microbenchmark: translated vs fast vs generic.

Measures retired dynamic instructions per second for the three functional
dispatch tiers (see docs/performance.md) across the twelve SPECint
profiles, each running under its MFI installation so the translation
cache's pre-bound expansion bodies are exercised.  Tracing is off — this
isolates dispatch cost from trace recording.

Timings interleave the tiers within each repeat (drift lands on all of
them equally) and keep the best rate per tier.  Repeats deliberately
reuse one installation: the translated tier's superblocks live on the
image, shared across machines, so later repeats measure the warm steady
state — the regime figure sweeps, fault campaigns, and verify oracles
actually run in.

Writes ``benchmarks/BENCH_sim.json``.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_sim.py [--scale 1.0] [--repeats 3]

or via pytest (``pytest benchmarks/bench_sim.py``), which uses the
``REPRO_*`` environment knobs.  Under ``REPRO_BENCH_STRICT=1`` the
translated tier must beat the fast tier by >= 1.5x on at least 8 of the
12 profiles.
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
from repro.workloads import BENCHMARK_NAMES
from repro.workloads.generator import generate_benchmark
from repro.workloads.specint import get_profile

_BENCH_DIR = Path(__file__).parent

DISPATCH_TIERS = ("generic", "fast", "translated")


def _time_tier(installation, dispatch):
    """One timed functional run; returns (seconds, run outcome tuple)."""
    machine = installation.make_machine(
        FUNCTIONAL_DISE, record_trace=False, dispatch=dispatch
    )
    t0 = time.perf_counter()
    result = machine.run(max_steps=MAX_STEPS)
    elapsed = time.perf_counter() - t0
    outcome = (tuple(result.outputs), result.fault_code,
               result.instructions, result.expansions)
    return elapsed, outcome


def _profile_throughput(name, scale, repeats):
    """Best instrs/sec per dispatch tier for one benchmark profile."""
    image = generate_benchmark(get_profile(name), scale=scale)
    installation = attach_mfi(image, "dise3")
    best = {tier: math.inf for tier in DISPATCH_TIERS}
    outcomes = {}
    for _ in range(repeats):
        for tier in DISPATCH_TIERS:
            elapsed, outcome = _time_tier(installation, tier)
            best[tier] = min(best[tier], elapsed)
            outcomes[tier] = outcome
    instructions = outcomes["generic"][2]
    rates = {tier: instructions / best[tier] for tier in DISPATCH_TIERS}
    return {
        "instructions": instructions,
        "expansions": outcomes["generic"][3],
        "instrs_per_sec": {t: round(rates[t]) for t in DISPATCH_TIERS},
        "speedup": {
            "translated_vs_fast": round(
                rates["translated"] / rates["fast"], 2),
            "translated_vs_generic": round(
                rates["translated"] / rates["generic"], 2),
            "fast_vs_generic": round(rates["fast"] / rates["generic"], 2),
        },
        # All three tiers must retire the same program: identical outputs,
        # fault code, retirement count, and expansion count.
        "outcomes_identical": len(set(outcomes.values())) == 1,
    }


def _geomean(values):
    return round(math.exp(sum(math.log(v) for v in values) / len(values)), 2)


def run_sim_benchmark(scale=1.0, repeats=3, benchmarks=None):
    """Throughput of the three dispatch tiers across benchmark profiles."""
    names = tuple(benchmarks) if benchmarks else BENCHMARK_NAMES
    profiles = {name: _profile_throughput(name, scale, repeats)
                for name in names}
    tf = [p["speedup"]["translated_vs_fast"] for p in profiles.values()]
    tg = [p["speedup"]["translated_vs_generic"] for p in profiles.values()]
    return {
        "meta": {
            "scale": scale,
            "repeats": repeats,
            "benchmarks": list(names),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "profiles": profiles,
        "summary": {
            "geomean_translated_vs_fast": _geomean(tf),
            "geomean_translated_vs_generic": _geomean(tg),
            "profiles_ge_1p5x_translated_vs_fast": sum(
                1 for s in tf if s >= 1.5),
            "profiles_total": len(names),
            "all_outcomes_identical": all(
                p["outcomes_identical"] for p in profiles.values()),
        },
    }


def _write_payload(payload):
    out = _BENCH_DIR / "BENCH_sim.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


# ----------------------------------------------------------------------
# pytest entry point
# ----------------------------------------------------------------------
def test_dispatch_tier_throughput():
    names = os.environ.get("REPRO_BENCHMARKS")
    benchmarks = (
        tuple(n.strip() for n in names.split(",") if n.strip()) if names
        else None
    )
    payload = run_sim_benchmark(
        scale=float(os.environ.get("REPRO_SCALE", "1.0")),
        repeats=int(os.environ.get("REPRO_BENCH_REPEATS", "3")),
        benchmarks=benchmarks,
    )
    _write_payload(payload)
    assert payload["summary"]["all_outcomes_identical"], \
        "dispatch tiers disagreed on a program outcome"
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        summary = payload["summary"]
        assert summary["profiles_ge_1p5x_translated_vs_fast"] >= min(
            8, summary["profiles_total"]), summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--benchmarks", help="comma-separated subset")
    args = parser.parse_args(argv)
    benchmarks = (
        tuple(args.benchmarks.split(",")) if args.benchmarks else None
    )
    payload = run_sim_benchmark(
        scale=args.scale, repeats=args.repeats, benchmarks=benchmarks
    )
    out = _write_payload(payload)
    print(json.dumps(payload, indent=2))
    print(f"wrote {out}")
    return 0 if payload["summary"]["all_outcomes_identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
