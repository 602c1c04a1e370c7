"""Figure resilience: watchdogs, retries, and report checkpoint/resume."""

import json
import logging
from concurrent.futures import Future

import pytest

from repro.errors import CheckpointError, TaskTimeoutError
from repro.fabric.checkpoint import load_checkpoint, write_checkpoint
from repro.fabric.supervise import resolve_retries, resolve_task_timeout
from repro.harness import Suite, experiments, fig6_top
from repro.harness.report import (
    CHECKPOINT_DRIVER,
    build_report,
    report_fingerprint,
)
from repro.tools.cli import main

SCALE = 0.05
BENCHES = ("mcf", "bzip2")


def _suite(jobs=2):
    return Suite(benchmarks=BENCHES, scale=SCALE, jobs=jobs, cache=None)


@pytest.fixture(scope="module")
def serial_table():
    return fig6_top(_suite(jobs=1)).render()


class _InlineFuture(Future):
    """A future that ran its work synchronously at submit time."""

    def __init__(self, fn, args):
        super().__init__()
        try:
            self.set_result(fn(*args))
        except Exception as exc:
            self.set_exception(exc)


class FlakyExecutor:
    """Fails the first ``crashes`` submissions, then works inline —
    an induced worker crash that a retry recovers from."""

    def __init__(self, crashes=1):
        self.crashes = crashes
        self.submissions = 0

    def __call__(self):        # doubles as its own factory
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.submissions += 1
        if self.submissions <= self.crashes:
            future = Future()
            future.set_exception(RuntimeError("worker killed"))
            return future
        return _InlineFuture(fn, args)


class HangingExecutor:
    """Every submitted future hangs forever."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        return Future()

    def shutdown(self, **kwargs):
        pass


class TestEnvResolution:
    def test_timeout_explicit_and_env(self, monkeypatch):
        assert resolve_task_timeout(2.5) == 2.5
        assert resolve_task_timeout(0) is None
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "7.5")
        assert resolve_task_timeout() == 7.5
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "junk")
        assert resolve_task_timeout() is None

    def test_retries_explicit_and_env(self, monkeypatch):
        assert resolve_retries(3) == 3
        assert resolve_retries(-1) == 0
        monkeypatch.setenv("REPRO_TASK_RETRIES", "4")
        assert resolve_retries() == 4
        monkeypatch.delenv("REPRO_TASK_RETRIES")
        assert resolve_retries() == 1


class TestRetries:
    def test_induced_crash_recovers_via_retry(self, figure_fabric, caplog,
                                              serial_table):
        executor = FlakyExecutor(crashes=1)
        figure_fabric(executor_factory=executor, retries=1)
        with caplog.at_level(logging.WARNING, logger="repro.fabric"):
            table = fig6_top(_suite()).render()
        assert any("retrying" in rec.message for rec in caplog.records)
        assert not any("falling back" in rec.message
                       for rec in caplog.records)
        # Retried rows are the same as an undisturbed serial run.
        assert table == serial_table

    def test_exhausted_retries_fall_back_to_serial(self, figure_fabric, caplog,
                                                   serial_table):
        executor = FlakyExecutor(crashes=100)     # never recovers in-pool
        figure_fabric(executor_factory=executor, retries=1)
        with caplog.at_level(logging.WARNING, logger="repro.fabric"):
            table = fig6_top(_suite()).render()
        assert table == serial_table              # serial fallback saved it
        assert any("falling back to serial" in rec.message
                   for rec in caplog.records)


class TestWatchdog:
    def test_hung_tasks_raise_a_structured_timeout(self, figure_fabric,
                                                   caplog):
        figure_fabric(executor_factory=HangingExecutor,
                     task_timeout=0.05, retries=1)
        with caplog.at_level(logging.WARNING, logger="repro.fabric"):
            with pytest.raises(TaskTimeoutError) as info:
                fig6_top(_suite())
        error = info.value
        assert error.retryable
        assert error.attempts == 2                # initial try + 1 retry
        details = error.details()
        assert details["type"] == "TaskTimeoutError"
        assert details["timeout"] == 0.05
        assert details["task"].startswith("fig6_top/")
        assert any("exceeded its" in rec.message for rec in caplog.records)

    def test_no_watchdog_by_default(self, monkeypatch, serial_table):
        monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
        monkeypatch.delenv("REPRO_FABRIC_TIMEOUT", raising=False)
        real = experiments.Fabric
        seen = []

        def spy(*args, **kwargs):
            fabric = real(*args, **kwargs)
            seen.append(fabric.task_timeout)
            return fabric

        monkeypatch.setattr(experiments, "Fabric", spy)
        assert fig6_top(_suite()).render() == serial_table
        assert seen == [None]


class TestReportCheckpoint:
    EXPS = ("fig6_top",)

    def _suite(self):
        return Suite(benchmarks=("mcf",), scale=SCALE, cache=None)

    def test_record_and_resume_round_trip(self, tmp_path):
        suite = self._suite()
        fingerprint = report_fingerprint(suite, self.EXPS)
        path = str(tmp_path / "ck.json")

        reference = build_report(suite, experiments=self.EXPS)

        first = build_report(suite, experiments=self.EXPS, checkpoint=path)
        assert first == reference
        restored = load_checkpoint(path, CHECKPOINT_DRIVER, fingerprint)
        assert list(restored) == ["fig6_top"]

        # A "resumed" run replays the checkpointed section — even on a
        # suite that could not recompute it — and renders identically.
        broken = Suite(benchmarks=("nonsense",), scale=SCALE, cache=None)
        broken.benchmarks = ("mcf",)   # fingerprint-compatible, unusable
        resumed = build_report(broken, experiments=self.EXPS,
                               checkpoint=path, completed=restored)
        assert resumed == reference

    def test_fingerprint_mismatch_refuses(self, tmp_path):
        suite = self._suite()
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, CHECKPOINT_DRIVER,
                         report_fingerprint(suite, self.EXPS),
                         {"fig6_top": "## stale section"})
        with pytest.raises(CheckpointError):
            load_checkpoint(
                path, CHECKPOINT_DRIVER,
                report_fingerprint(suite, ("fig6_top", "fig6_width")),
            )
        with pytest.raises(CheckpointError):
            load_checkpoint(path, "faults",
                            report_fingerprint(suite, self.EXPS))

    def test_corrupt_checkpoint_quarantined(self, tmp_path):
        # A truncated/bit-flipped checkpoint must not kill the resume:
        # it is renamed aside and the run restarts from empty.
        path = tmp_path / "ck.json"
        path.write_text("{not json")
        assert load_checkpoint(str(path), CHECKPOINT_DRIVER,
                               {"anything": 1}) == {}
        assert not path.exists()
        assert (tmp_path / "ck.json.quarantined").exists()

    def test_malformed_checkpoint_quarantined(self, tmp_path):
        # Includes files in the report's former checkpoint layout, whose
        # sections table sat under "sections" with no content digest.
        for sections in ("oops", {"fig6_top": "## old"}):
            path = tmp_path / "ck.json"
            path.write_text(json.dumps({"schema": 1,
                                        "fingerprint": {"x": 1},
                                        "sections": sections}))
            assert load_checkpoint(str(path), CHECKPOINT_DRIVER,
                                   {"x": 1}) == {}
            assert not path.exists()
            quarantined = tmp_path / "ck.json.quarantined"
            assert quarantined.exists()
            quarantined.unlink()

    def test_missing_checkpoint_starts_empty(self, tmp_path):
        assert load_checkpoint(str(tmp_path / "absent.json"),
                               CHECKPOINT_DRIVER, {"x": 1}) == {}

    def test_clear_removes_the_file(self, tmp_path, capsys):
        path = tmp_path / "ck.json"
        out = tmp_path / "report.md"
        args = ["report", "--benchmarks", "mcf", "--scale", "0.05",
                "--experiments", "fig7_ratio", "--no-cache",
                "--checkpoint", str(path), "-o", str(out)]
        assert main(args) == 0
        assert out.exists()
        assert not path.exists()


class TestKilledWorkerResume:
    """A run dies mid-report; ``--resume`` completes with identical
    output, recomputing only the unfinished experiment."""

    def test_crash_interrupt_resume_identical(self, tmp_path, monkeypatch):
        exps = ("fig6_top", "fig6_width")
        fingerprint = report_fingerprint(self._fresh(), exps)
        path = str(tmp_path / "ck.json")
        reference = build_report(self._fresh(), experiments=exps)

        # Run 1 "dies" after the first experiment (simulated by an
        # exception from the second), leaving the checkpoint behind.
        from repro.harness import report as report_mod

        real = report_mod._render_section
        calls = []

        def dying(name, suite_):
            calls.append(name)
            if len(calls) == 2:
                raise KeyboardInterrupt("killed mid-figure")
            return real(name, suite_)

        monkeypatch.setattr(report_mod, "_render_section", dying)
        with pytest.raises(KeyboardInterrupt):
            build_report(self._fresh(), experiments=exps, checkpoint=path)
        monkeypatch.setattr(report_mod, "_render_section", real)
        restored = load_checkpoint(path, CHECKPOINT_DRIVER, fingerprint)
        assert list(restored) == ["fig6_top"]

        # Run 2 resumes: only the unfinished experiment is recomputed.
        resumed = build_report(self._fresh(), experiments=exps,
                               checkpoint=path, completed=restored)
        assert resumed == reference
        assert load_checkpoint(path, CHECKPOINT_DRIVER,
                               fingerprint).keys() == set(exps)

    @staticmethod
    def _fresh():
        return Suite(benchmarks=BENCHES, scale=SCALE, cache=None, jobs=2)
