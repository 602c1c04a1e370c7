"""Workload/trace management for the experiment harness.

A :class:`Suite` lazily generates benchmark programs and caches the
functional traces of each (benchmark, transformation) pair.  Timing replays
(many per trace: cache sizes, widths, placements, RT geometries) then reuse
the cached traces, which is what makes regenerating all of Figures 6-8
tractable.

A persistent content-addressed cache (:mod:`repro.harness.trace_cache`)
makes repeat runs warm-start, for serial and parallel figure runs alike.
``REPRO_TRACE_CACHE`` points it at a directory (or disables it with
``0``/``off``); ``REPRO_JOBS`` sets the default worker count, which
:mod:`repro.harness.experiments` spends on one fabric task per figure row.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.acf.base import AcfInstallation, plain_installation
from repro.acf.composition import build_composition
from repro.acf.compression import (
    CompressionOptions,
    CompressionResult,
    compress_image,
)
from repro.acf.mfi import attach_mfi, rewrite_mfi
from repro.core.config import DiseConfig
from repro.harness.trace_cache import (
    LazyTrace,
    cycle_key,
    machine_trace_key,
    open_cache,
    trace_fingerprint,
)
from repro.program.image import ProgramImage
from repro.sim.config import MachineConfig
from repro.sim.cycle import CycleResult, resolve_cycle_engine, simulate_trace
from repro.sim.trace import TraceResult
from repro.workloads.generator import generate_benchmark
from repro.workloads.specint import BENCHMARK_NAMES, get_profile

#: Functional runs use a perfect RT: RT behaviour is replayed inside the
#: timing model, so the functional pass should not burn time there.
FUNCTIONAL_DISE = DiseConfig(rt_perfect=True)

#: Generous dynamic-instruction budget for transformed binaries.
MAX_STEPS = 30_000_000


class Suite:
    """Lazily generated benchmarks + cached functional traces.

    ``jobs`` sets the worker count of figure runs (``None`` defers to the
    ``REPRO_JOBS`` environment variable); ``cache`` configures the
    persistent trace cache: ``"auto"`` (the default) honours
    ``REPRO_TRACE_CACHE``, ``None`` disables, and a path or
    :class:`~repro.harness.trace_cache.TraceCache` selects a directory.
    """

    def __init__(self, benchmarks: Optional[Sequence[str]] = None,
                 scale: float = 1.0, jobs: Optional[int] = None,
                 cache="auto", cycle_engine: Optional[str] = None):
        self.benchmarks = tuple(benchmarks or BENCHMARK_NAMES)
        self.scale = scale
        self.jobs = jobs
        #: Timing-replay engine (None honours ``REPRO_CYCLE``).  Both
        #: engines are bit-identical, so the persistent cycle cache and the
        #: in-memory memo are engine-agnostic.
        self.cycle_engine = resolve_cycle_engine(cycle_engine)
        self.cache = open_cache(cache)
        self._images: Dict[str, ProgramImage] = {}
        self._traces: Dict[Tuple, TraceResult] = {}
        self._compressions: Dict[Tuple, CompressionResult] = {}
        self._cycles: Dict[Tuple, CycleResult] = {}

    # ------------------------------------------------------------------
    def image(self, bench: str) -> ProgramImage:
        if bench not in self._images:
            self._images[bench] = generate_benchmark(
                get_profile(bench), scale=self.scale
            )
        return self._images[bench]

    def _execute_installation(self, installation: AcfInstallation
                              ) -> TraceResult:
        """One functional run, through the persistent cache when possible."""
        machine = installation.make_machine(FUNCTIONAL_DISE)
        digest = None
        if self.cache is not None:
            digest = machine_trace_key(installation, machine,
                                       repr(FUNCTIONAL_DISE), MAX_STEPS)
            if digest is not None and self.cache.has_trace(digest):
                # Deserialization is deferred: a warm figure run that finds
                # all its cycle replays cached never touches the ops.
                return LazyTrace(
                    self.cache, digest,
                    recompute=lambda: machine.run(max_steps=MAX_STEPS),
                )
        trace = machine.run(max_steps=MAX_STEPS)
        trace.cache_key = digest
        if digest is not None:
            self.cache.store_trace(digest, trace)
        return trace

    def _run(self, key: Tuple, installation: AcfInstallation) -> TraceResult:
        if key not in self._traces:
            self._traces[key] = self._execute_installation(installation)
        return self._traces[key]

    # ------------------------------------------------------------------
    # Traces per transformation
    # ------------------------------------------------------------------
    def trace_plain(self, bench: str) -> TraceResult:
        key = (bench, "plain")
        if key not in self._traces:
            self._run(key, plain_installation(self.image(bench)))
        return self._traces[key]

    def trace_mfi(self, bench: str, variant: str) -> TraceResult:
        key = (bench, "mfi", variant)
        if key not in self._traces:
            self._run(key, attach_mfi(self.image(bench), variant))
        return self._traces[key]

    def trace_rewrite(self, bench: str) -> TraceResult:
        key = (bench, "rewrite")
        if key not in self._traces:
            self._run(key, rewrite_mfi(self.image(bench)))
        return self._traces[key]

    def compression(self, bench: str,
                    options: CompressionOptions,
                    label: str) -> CompressionResult:
        key = (bench, "compress", label)
        if key not in self._compressions:
            self._compressions[key] = compress_image(
                self.image(bench), options
            )
        return self._compressions[key]

    def trace_compressed(self, bench: str, options: CompressionOptions,
                         label: str) -> TraceResult:
        key = (bench, "compressed", label)
        if key not in self._traces:
            result = self.compression(bench, options, label)
            self._run(key, result.installation())
        return self._traces[key]

    def composition(self, bench: str, scheme: str) -> CompressionResult:
        ckey = (bench, "composition", scheme)
        tkey = (bench, "composed", scheme)
        if ckey not in self._compressions or tkey not in self._traces:
            result, installation = build_composition(self.image(bench),
                                                     scheme)
            self._compressions.setdefault(ckey, result)
            if tkey not in self._traces:
                self._traces[tkey] = self._execute_installation(installation)
        return self._compressions[ckey]

    def trace_composition(self, bench: str, scheme: str) -> TraceResult:
        self.composition(bench, scheme)
        return self._traces[(bench, "composed", scheme)]

    # ------------------------------------------------------------------
    def cycles(self, trace: TraceResult,
               config: Optional[MachineConfig] = None) -> CycleResult:
        # Steady-state measurement: our runs are shorter than the paper's
        # complete-input runs, so cold misses are warmed away.  Results are
        # memoised — figures share many (trace, config) replays.  The key is
        # a content fingerprint: id(trace) could be recycled by the
        # allocator after a trace is garbage-collected, silently returning
        # another trace's results.
        fingerprint = trace_fingerprint(trace)
        key = (fingerprint, repr(config))
        if key not in self._cycles:
            result = None
            persistent_key = None
            if self.cache is not None and trace.cache_key is not None:
                persistent_key = cycle_key(trace.cache_key, repr(config),
                                           True)
                result = self.cache.load_cycles(persistent_key)
            if result is None:
                result = simulate_trace(trace, config, warm_start=True,
                                        engine=self.cycle_engine)
                if persistent_key is not None:
                    self.cache.store_cycles(persistent_key, result)
            self._cycles[key] = result
        return self._cycles[key]
