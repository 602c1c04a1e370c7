"""Disabled-mode overhead benchmark for :mod:`repro.telemetry`.

The telemetry layer promises that the two hot loops — functional-sim
dispatch and the cycle-sim tick — run within 2% of their uninstrumented
throughput when ``REPRO_TELEMETRY`` is off.  The guarantee is structural:
instrumentation is installed at *setup* time (machine construction,
production-set installation), so the disabled dispatch path executes the
same bytecode as before the telemetry PR.  This benchmark pins both
halves of that claim:

* **structural** — a machine built with telemetry disabled has no opcode
  counting wrapper and its engine carries no telemetry sink; building
  with telemetry enabled installs both.  These assertions always run and
  are what actually guarantees zero steady-state overhead.
* **measured** — interleaved min-of-k timings of a functional run and a
  cycle replay with telemetry disabled vs enabled.  Two independent
  disabled series (A and B) bound the machine's noise floor; under
  ``REPRO_BENCH_STRICT=1`` the disabled series must agree within 2%
  (catching any accidental always-on instrumentation) and the structural
  invariants are re-asserted.

Writes ``benchmarks/BENCH_telemetry.json``.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_telemetry.py [--scale 0.1] [--repeats 3]

or via pytest (``pytest benchmarks/bench_telemetry.py``).
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.acf.mfi import attach_mfi
from repro.harness.runner import FUNCTIONAL_DISE, MAX_STEPS
from repro.sim.config import MachineConfig
from repro.sim.cycle import simulate_trace
from repro.telemetry import profile as _profile
from repro.telemetry import registry as _telemetry
from repro.telemetry import tracing as _tracing
from repro.workloads.generator import generate_benchmark
from repro.workloads.specint import get_profile

_BENCH_DIR = Path(__file__).parent


def _build_machine(image, enabled):
    """Construct an instrumented (or not) machine for one functional run."""
    with _telemetry.enabled_scope(enabled):
        installation = attach_mfi(image, "dise4")
        return installation.make_machine(FUNCTIONAL_DISE)


def _time_functional(image, enabled):
    machine = _build_machine(image, enabled)
    t0 = time.perf_counter()
    with _telemetry.enabled_scope(enabled):
        machine.run(max_steps=MAX_STEPS)
    return time.perf_counter() - t0


def _time_cycle(trace, enabled, iterations=20):
    # A single warm replay is a few milliseconds under the outcome engine
    # (memoised columns), well inside scheduler noise — time a batch and
    # report the per-replay mean so the 2% strict-mode spread bound still
    # has a usable noise floor.
    config = MachineConfig()
    t0 = time.perf_counter()
    with _telemetry.enabled_scope(enabled):
        for _ in range(iterations):
            simulate_trace(trace, config, warm_start=True)
    return (time.perf_counter() - t0) / iterations


def check_structural_invariants(image):
    """The actual zero-overhead guarantee: disabled builds carry no hooks."""
    from repro.sim.functional import Machine
    from repro.verify.observe import Observer

    disabled = _build_machine(image, False)
    assert disabled._opcode_counts is None, \
        "telemetry-disabled machine installed an opcode counting wrapper"
    assert disabled.engine is None or disabled.engine._tm is None, \
        "telemetry-disabled engine carries a telemetry sink"
    # The verification observer follows the same setup-time contract: a
    # machine built without one dispatches through the unwrapped bound
    # method, byte-identical to the pre-verify build.
    assert disabled._observer is None, \
        "observer-less machine carries a verification observer"
    assert disabled._execute.__func__ is Machine._execute_fast, \
        "observer-less machine dispatches through a wrapper"
    enabled = _build_machine(image, True)
    assert enabled._opcode_counts is not None, \
        "telemetry-enabled machine did not install the counting wrapper"
    assert enabled.engine is not None and enabled.engine._tm is not None, \
        "telemetry-enabled engine did not build its telemetry sink"
    with _telemetry.enabled_scope(False):
        observed = attach_mfi(image, "dise4").make_machine(
            FUNCTIONAL_DISE, observer=Observer("full"))
    assert observed._observer is not None, \
        "observer-built machine did not install the observation hook"
    assert getattr(observed._execute, "__func__", None) \
        is not Machine._execute_fast, \
        "observer-built machine left dispatch unwrapped"


def check_tracing_invariants(image):
    """Tracing/profiling keep PR 3's disabled-mode dispatch contract.

    With ``REPRO_TRACE`` and ``REPRO_TRACE_PROFILE`` off — merely
    *importable* is not enough to change anything — a machine still
    dispatches through the unwrapped bound method, stays on the
    translated tier, and carries no profile state.  Enabling the
    profiler attaches attribution dicts but, on the translated tier,
    still leaves dispatch unwrapped (the hooks live in the superblock
    runner, one dict bump per block execution).
    """
    from repro.sim.functional import Machine

    assert not _tracing.enabled() and not _profile.enabled(), \
        "tracing/profiling knobs leaked into the benchmark environment"
    plain = _build_machine(image, False)
    assert plain._profile is None, \
        "profiler-disabled machine carries profile state"
    assert plain._execute.__func__ is Machine._execute_fast, \
        "profiler-disabled machine dispatches through a wrapper"
    assert plain._translated, \
        "profiler-disabled machine fell off the translated tier"
    with _profile.profile_scope(True):
        profiled = _build_machine(image, False)
    assert profiled._profile is not None and \
        profiled._profile["tier"] == "translated", \
        "profiler-enabled machine did not attach translated-tier state"
    assert profiled._execute.__func__ is Machine._execute_fast, \
        "profiler-enabled translated machine wrapped dispatch"


def _time_profiled_functional(image):
    with _profile.profile_scope(True):
        machine = _build_machine(image, False)
    t0 = time.perf_counter()
    with _profile.profile_scope(True):
        machine.run(max_steps=MAX_STEPS)
    return time.perf_counter() - t0


def run_tracing_benchmark(scale=0.1, repeats=3, bench="bzip2"):
    """Tracing/profiler overhead: structural asserts plus warm-run timing.

    ``profiled_overhead_pct`` measures the hot-path profiler on a *warm
    translated* run (telemetry off, so the translated tier stays active)
    against the plain disabled baseline; the attribution is
    block-granular, so it must stay under 10%.
    """
    image = generate_benchmark(get_profile(bench), scale=scale)
    check_tracing_invariants(image)

    disabled, profiled = [], []
    for _ in range(repeats):
        disabled.append(_time_functional(image, False))
        profiled.append(_time_profiled_functional(image))
    base = min(disabled)
    prof = min(profiled)
    return {
        "meta": {"bench": bench, "scale": scale, "repeats": repeats},
        "timings": {
            "functional_disabled_seconds": round(base, 4),
            "functional_profiled_seconds": round(prof, 4),
            "profiled_overhead_pct": round(
                (prof / base - 1.0) * 100.0, 2) if base else None,
        },
        "structural_invariants": "ok",
    }


def run_telemetry_benchmark(scale=0.1, repeats=3, bench="bzip2"):
    """Interleaved min-of-k disabled/enabled timings for both hot loops."""
    image = generate_benchmark(get_profile(bench), scale=scale)
    check_structural_invariants(image)

    trace = _build_machine(image, False).run(max_steps=MAX_STEPS)

    samples = {"functional": {"disabled_a": [], "disabled_b": [],
                              "enabled": []},
               "cycle": {"disabled_a": [], "disabled_b": [], "enabled": []}}
    # Interleave every series within each repeat so drift (thermal, cache,
    # scheduler) lands on all of them equally.
    for _ in range(repeats):
        samples["functional"]["disabled_a"].append(
            _time_functional(image, False))
        samples["functional"]["enabled"].append(
            _time_functional(image, True))
        samples["functional"]["disabled_b"].append(
            _time_functional(image, False))
        samples["cycle"]["disabled_a"].append(_time_cycle(trace, False))
        samples["cycle"]["enabled"].append(_time_cycle(trace, True))
        samples["cycle"]["disabled_b"].append(_time_cycle(trace, False))

    def best(loop, series):
        return min(samples[loop][series])

    timings = {}
    for loop in ("functional", "cycle"):
        disabled = min(best(loop, "disabled_a"), best(loop, "disabled_b"))
        enabled = best(loop, "enabled")
        timings[loop] = {
            "disabled_seconds": round(disabled, 4),
            "enabled_seconds": round(enabled, 4),
            "enabled_overhead_pct": round(
                (enabled / disabled - 1.0) * 100.0, 2) if disabled else None,
            # Disagreement between the two disabled series bounds the noise
            # floor; a regression that instruments the disabled path shows
            # up here (and in the structural asserts) long before 2%.
            "disabled_spread_pct": round(
                abs(best(loop, "disabled_a") / best(loop, "disabled_b") - 1.0)
                * 100.0, 2),
        }

    payload = {
        "meta": {
            "bench": bench,
            "scale": scale,
            "repeats": repeats,
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "timings": timings,
        "structural_invariants": "ok",
    }
    return payload


def _write_payload(payload):
    out = _BENCH_DIR / "BENCH_telemetry.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


# ----------------------------------------------------------------------
# pytest entry point
# ----------------------------------------------------------------------
def test_telemetry_disabled_overhead():
    payload = run_telemetry_benchmark(
        scale=float(os.environ.get("REPRO_SCALE", "0.1")),
        repeats=int(os.environ.get("REPRO_BENCH_REPEATS", "3")),
    )
    _write_payload(payload)
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        for loop, numbers in payload["timings"].items():
            assert numbers["disabled_spread_pct"] <= 2.0, (loop, numbers)


def test_tracing_overhead():
    payload = run_tracing_benchmark(
        scale=float(os.environ.get("REPRO_SCALE", "0.1")),
        repeats=int(os.environ.get("REPRO_BENCH_REPEATS", "3")),
    )
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert payload["timings"]["profiled_overhead_pct"] <= 10.0, payload


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--bench", default="bzip2")
    args = parser.parse_args(argv)
    payload = run_telemetry_benchmark(scale=args.scale,
                                      repeats=args.repeats, bench=args.bench)
    payload["tracing_overhead"] = run_tracing_benchmark(
        scale=args.scale, repeats=args.repeats, bench=args.bench)["timings"]
    out = _write_payload(payload)
    print(json.dumps(payload, indent=2))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
