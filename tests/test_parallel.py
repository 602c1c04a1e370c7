"""Parallel figure harness: fan-out, fallback, and Suite integration."""

import logging
import os
from concurrent.futures import Future

import pytest

from repro.harness import Suite, fig6_top, fig6_width
from repro.harness.parallel import (
    TraceTask,
    build_installation,
    resolve_jobs,
    run_tasks,
)
from repro.harness.trace_cache import (
    LazyTrace,
    TraceCache,
    serialize_trace,
    trace_fingerprint,
)
from repro.sim.config import MachineConfig

SCALE = 0.2
BENCHES = ("mcf", "gzip")


def _plan(configs=None):
    configs = configs if configs is not None else [MachineConfig()]
    return [
        (TraceTask(bench="mcf", scale=SCALE, kind="plain"), configs),
        (TraceTask(bench="mcf", scale=SCALE, kind="mfi", variant="dise3"),
         configs),
        (TraceTask(bench="gzip", scale=SCALE, kind="rewrite"), configs),
    ]


class TestResolveJobs:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_garbage_env_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        assert resolve_jobs() == 1

    def test_floor_is_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1

    def test_warns_when_jobs_exceed_affinity(self, monkeypatch, caplog):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        with caplog.at_level(logging.WARNING, logger="repro.fabric.supervise"):
            assert resolve_jobs(2) == 2
            assert not caplog.records
            assert resolve_jobs(3) == 3
        (record,) = caplog.records
        assert "3 jobs exceed the 2 CPU(s)" in record.getMessage()

    def test_cpu_count_stands_in_for_missing_affinity(self, monkeypatch,
                                                      caplog):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        with caplog.at_level(logging.WARNING, logger="repro.fabric.supervise"):
            assert resolve_jobs(4) == 4
            assert not caplog.records
            assert resolve_jobs(5) == 5
        (record,) = caplog.records
        assert "5 jobs exceed the 4 CPU(s)" in record.getMessage()


class TestTraceTask:
    def test_suite_keys(self):
        assert TraceTask("mcf", 1.0, "plain").suite_key() == ("mcf", "plain")
        assert TraceTask("mcf", 1.0, "mfi", variant="dise4").suite_key() == \
            ("mcf", "mfi", "dise4")
        assert TraceTask("mcf", 1.0, "rewrite").suite_key() == \
            ("mcf", "rewrite")
        assert TraceTask("mcf", 1.0, "compressed", label="DISE").suite_key() \
            == ("mcf", "compressed", "DISE")
        assert TraceTask("mcf", 1.0, "composed", scheme="mfi+comp") \
            .suite_key() == ("mcf", "composed", "mfi+comp")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TraceTask("mcf", 1.0, "nonsense")

    def test_build_installation_is_deterministic(self):
        task = TraceTask("mcf", SCALE, "mfi", variant="dise3")
        a = build_installation(task)
        b = build_installation(task)
        assert [repr(i) for i in a.image.instructions] == \
            [repr(i) for i in b.image.instructions]


class TestRunTasks:
    def test_parallel_is_bit_identical_to_serial(self):
        serial = run_tasks(_plan(), jobs=1)
        parallel = run_tasks(_plan(), jobs=2)
        assert set(serial) == set(parallel)
        for task in serial:
            _, trace_s, cycles_s = serial[task]
            _, trace_p, cycles_p = parallel[task]
            assert serialize_trace(trace_s) == serialize_trace(trace_p)
            assert cycles_s == cycles_p

    def test_results_populate_cache(self, tmp_path):
        cache = TraceCache(tmp_path)
        run_tasks(_plan(), jobs=2, cache=cache)
        stats = cache.stats()
        assert stats["traces"]["entries"] == 3
        assert stats["cycles"]["entries"] == 3

    def test_cached_rerun_matches(self, tmp_path):
        cache = TraceCache(tmp_path)
        first = run_tasks(_plan(), jobs=1, cache=cache)
        second = run_tasks(_plan(), jobs=2, cache=cache)
        for task in first:
            assert serialize_trace(first[task][1]) == \
                serialize_trace(second[task][1])
            assert first[task][2] == second[task][2]

    def test_fully_cached_rerun_stays_lazy(self, tmp_path):
        cache = TraceCache(tmp_path)
        run_tasks(_plan(), jobs=1, cache=cache)
        warm = run_tasks(_plan(), jobs=2, cache=cache)
        for task, (digest, trace, cycles) in warm.items():
            assert isinstance(trace, LazyTrace)
            assert trace._real is None      # ops never deserialized
            assert digest is not None and cycles
        # Materializing still yields the stored trace.
        reference = run_tasks(_plan(), jobs=1)
        for task in reference:
            assert serialize_trace(warm[task][1]) == \
                serialize_trace(reference[task][1])

    def test_worker_failure_falls_back_to_serial(self, caplog):
        class FailingExecutor:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_exception(RuntimeError("worker exploded"))
                return future

        with caplog.at_level(logging.WARNING, logger="repro.harness.parallel"):
            results = run_tasks(_plan(), jobs=2,
                                executor_factory=FailingExecutor)
        assert len(results) == 3
        assert any("falling back to serial" in rec.message
                   for rec in caplog.records)
        reference = run_tasks(_plan(), jobs=1)
        for task in reference:
            assert serialize_trace(results[task][1]) == \
                serialize_trace(reference[task][1])

    def test_broken_pool_completes_serially(self, caplog):
        def broken_factory():
            raise OSError("fork failed")

        with caplog.at_level(logging.WARNING, logger="repro.harness.parallel"):
            results = run_tasks(_plan(), jobs=2,
                                executor_factory=broken_factory)
        assert len(results) == 3
        assert any("completing serially" in rec.message
                   for rec in caplog.records)

    def test_config_lists_are_merged_per_task(self):
        task = TraceTask("mcf", SCALE, "plain")
        wide = MachineConfig(width=8)
        plan = [(task, [MachineConfig()]), (task, [MachineConfig(), wide])]
        results = run_tasks(plan, jobs=1)
        assert len(results) == 1
        assert set(results[task][2]) == {repr(MachineConfig()), repr(wide)}


class TestSuiteIntegration:
    def test_prefetch_populates_traces_and_cycles(self):
        suite = Suite(benchmarks=BENCHES, scale=SCALE, jobs=2, cache=None)
        config = MachineConfig()
        plan = [
            (suite.task("plain", "mcf"), [config]),
            (suite.task("mfi", "gzip", variant="dise3"), [config]),
        ]
        count = suite.prefetch(plan)
        assert count == 2
        assert ("mcf", "plain") in suite._traces
        assert ("gzip", "mfi", "dise3") in suite._traces
        trace = suite._traces[("mcf", "plain")]
        assert (trace_fingerprint(trace), repr(config)) in suite._cycles
        # A second prefetch of the same plan is a no-op.
        assert suite.prefetch(plan) == 0

    def test_prefetch_serial_jobs_is_noop(self):
        suite = Suite(benchmarks=BENCHES, scale=SCALE, jobs=1, cache=None)
        plan = [(suite.task("plain", "mcf"), [MachineConfig()])]
        assert suite.prefetch(plan) == 0
        assert ("mcf", "plain") not in suite._traces

    def test_parallel_cached_figures_match_serial(self, tmp_path):
        serial = Suite(benchmarks=BENCHES, scale=SCALE, jobs=1, cache=None)
        fast = Suite(benchmarks=BENCHES, scale=SCALE, jobs=2,
                     cache=tmp_path / "cache")
        for experiment in (fig6_top, fig6_width):
            assert experiment(serial).render() == experiment(fast).render()
        # Warm rerun out of the cache in a fresh suite: still identical.
        warm = Suite(benchmarks=BENCHES, scale=SCALE, jobs=2,
                     cache=tmp_path / "cache")
        for experiment in (fig6_top, fig6_width):
            assert experiment(serial).render() == experiment(warm).render()

    def test_suite_cycles_usage_hits_persistent_cache(self, tmp_path):
        config = MachineConfig()
        first = Suite(benchmarks=("mcf",), scale=SCALE, jobs=1,
                      cache=tmp_path / "cache")
        trace = first.trace_plain("mcf")
        result = first.cycles(trace, config)
        second = Suite(benchmarks=("mcf",), scale=SCALE, jobs=1,
                       cache=tmp_path / "cache")
        trace2 = second.trace_plain("mcf")
        assert trace2.cache_key is not None
        assert second.cycles(trace2, config) == result
