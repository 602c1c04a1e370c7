"""Parallel figure runs: each figure row is one fabric task, and the tables
match the serial run byte for byte."""

import json
import logging
import os
from concurrent.futures import Future

import pytest

from repro.fabric.supervise import resolve_jobs
from repro.harness import ALL_EXPERIMENTS, Suite, fig6_top, fig6_width
from repro.harness import experiments
from repro.harness.trace_cache import LazyTrace, TraceCache
from repro.sim.config import MachineConfig
from repro.telemetry import enabled_scope
from repro.telemetry import registry as registry_mod

SCALE = 0.05
BENCHES = ("mcf", "bzip2")


def _tables(suite, names=tuple(ALL_EXPERIMENTS)):
    return {name: ALL_EXPERIMENTS[name](suite).render() for name in names}


@pytest.fixture(scope="module")
def serial_tables():
    """All eight experiments, serial and uncached: the reference."""
    return _tables(Suite(benchmarks=BENCHES, scale=SCALE, jobs=1,
                         cache=None))


class FailingExecutor:
    """Every submitted task fails as if its worker crashed."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_exception(RuntimeError("worker exploded"))
        return future


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


class TestRunTasks:
    """Figure rows as tasks of the ``repro.harness.experiments:row``
    recipe, run by a fabric whenever ``jobs >= 2``."""

    def test_parallel_is_bit_identical_to_serial(self, serial_tables):
        parallel = Suite(benchmarks=BENCHES, scale=SCALE, jobs=2,
                         cache=None)
        assert _tables(parallel) == serial_tables

    def test_results_populate_cache(self, tmp_path):
        cache = TraceCache(tmp_path)
        fig6_top(Suite(benchmarks=BENCHES, scale=SCALE, jobs=2,
                       cache=cache))
        stats = cache.stats()
        # Per benchmark: plain, rewrite, dise4, dise3 traces; one replay
        # of each plus the stall and pipe replays of dise4.
        assert stats["traces"]["entries"] == 4 * len(BENCHES)
        assert stats["cycles"]["entries"] == 6 * len(BENCHES)

    def test_cached_rerun_matches(self, tmp_path, serial_tables):
        cold = Suite(benchmarks=BENCHES, scale=SCALE, jobs=2,
                     cache=tmp_path)
        assert _tables(cold) == serial_tables
        warm = Suite(benchmarks=BENCHES, scale=SCALE, jobs=2,
                     cache=tmp_path)
        assert _tables(warm) == serial_tables

    def test_fully_cached_rerun_stays_lazy(self, tmp_path):
        fig6_top(Suite(benchmarks=BENCHES, scale=SCALE, jobs=2,
                       cache=tmp_path))
        before = TraceCache(tmp_path).stats()
        warm = Suite(benchmarks=BENCHES, scale=SCALE, jobs=1,
                     cache=tmp_path)
        fig6_top(warm)
        assert warm._traces
        for trace in warm._traces.values():
            assert isinstance(trace, LazyTrace)
            assert trace._real is None      # ops never deserialized
        fig6_top(Suite(benchmarks=BENCHES, scale=SCALE, jobs=2,
                       cache=tmp_path))
        assert TraceCache(tmp_path).stats() == before

    def test_worker_failure_falls_back_to_serial(self, figure_fabric, caplog,
                                                 serial_tables):
        figure_fabric(executor_factory=FailingExecutor, retries=1)
        suite = Suite(benchmarks=BENCHES, scale=SCALE, jobs=2, cache=None)
        with caplog.at_level(logging.WARNING, logger="repro.fabric"):
            table = fig6_top(suite).render()
        assert table == serial_tables["fig6_top"]
        assert any("falling back to serial" in rec.message
                   for rec in caplog.records)

    def test_broken_pool_completes_serially(self, figure_fabric, caplog,
                                            serial_tables):
        def broken_factory():
            raise OSError("fork failed")

        figure_fabric(executor_factory=broken_factory)
        suite = Suite(benchmarks=BENCHES, scale=SCALE, jobs=2, cache=None)
        with caplog.at_level(logging.WARNING, logger="repro.fabric"):
            table = fig6_top(suite).render()
        assert table == serial_tables["fig6_top"]
        assert any("completing serially" in rec.message
                   for rec in caplog.records)


class TestSuiteIntegration:
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

    def test_one_benchmark_runs_on_the_callers_suite(self, monkeypatch):
        def no_fabric(*args, **kwargs):
            raise AssertionError("a one-row figure needs no fabric")

        monkeypatch.setattr(experiments, "Fabric", no_fabric)
        suite = Suite(benchmarks=("mcf",), scale=SCALE, jobs=2, cache=None)
        fig6_top(suite)
        assert ("mcf", "mfi", "dise3") in suite._traces

    def test_row_task_returns_the_serial_row_as_json(self, serial_tables):
        serial = Suite(benchmarks=BENCHES, scale=SCALE, jobs=1, cache=None)
        expected = fig6_width(serial).as_dict()["bzip2"]
        row = experiments.row_task({
            "experiment": "fig6_width", "bench": "bzip2", "scale": SCALE,
            "cache": None, "cycle_engine": serial.cycle_engine,
        })
        assert json.loads(json.dumps(row)) == row == expected
        assert list(row) == list(expected)

    def test_parallel_metrics_match_serial(self):
        """Worker registry deltas reach the parent with tracing off."""
        def counters(jobs):
            with enabled_scope(True):
                registry_mod.get_registry().reset()
                fig6_top(Suite(benchmarks=BENCHES, scale=SCALE, jobs=jobs,
                               cache=None))
                snap = registry_mod.snapshot()
                registry_mod.get_registry().reset()
            return {name: metric for name, metric in snap.items()
                    if metric["type"] == "counter"
                    and not name.startswith("fabric.")}

        serial = counters(jobs=1)
        assert serial["sim.instructions"]["value"] > 0
        assert counters(jobs=2) == serial
