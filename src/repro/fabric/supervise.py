"""Worker-pool supervision: heartbeats, watchdogs, retries, circuit breaking.

:class:`PoolSupervisor` is the pool half of :class:`repro.fabric.Fabric`:
it owns a process pool, watches every in-flight future against a per-task
watchdog deadline, retries failures with deterministic exponential backoff
(:func:`repro.errors.backoff_delay`), and classifies each task's fate so
the *caller* decides what degradation means:

``ok``
    The task's callable returned; ``value`` holds the result.
``fatal``
    The task raised a **non-retryable** :class:`~repro.errors.ReproError`
    — a deterministic model/configuration error that would fail
    identically on every attempt.  Failing fast here is the point:
    retrying it would only burn the watchdog budget.
``gave_up``
    Worker crashes exhausted the retry budget, or the pool's circuit
    breaker opened (repeated worker deaths / a broken executor).  The
    task is *safe to re-run serially in the parent* — that is exactly
    what the fabric engine does.
``timeout``
    The task kept exceeding the watchdog.  **Not** safe to re-run in the
    parent: a hanging task would hang the parent and defeat the watchdog.

The circuit breaker guards the degrade path: once ``circuit_threshold``
broken-executor events accumulate (or a submission itself fails), the
supervisor stops feeding the pool and marks all remaining tasks
``gave_up`` instead of grinding through a dead pool one timeout at a
time.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import CircuitOpenError, backoff_delay, is_retryable
from repro.telemetry import events as _events
from repro.telemetry import get_logger
from repro.telemetry import registry as _telemetry

logger = get_logger(__name__)


# ----------------------------------------------------------------------
# Supervision knobs (explicit argument > environment > default)
# ----------------------------------------------------------------------
def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument > ``REPRO_JOBS`` env > 1.

    Warns when the count exceeds the CPUs this process may use: the extra
    workers only time-share cores, so they cannot beat a smaller pool.
    """
    resolved = 1
    if jobs is not None:
        resolved = max(1, int(jobs))
    else:
        env = os.environ.get("REPRO_JOBS")
        if env:
            try:
                resolved = max(1, int(env))
            except ValueError:
                logger.warning("ignoring non-integer REPRO_JOBS=%r", env)
    cpus = _usable_cpus()
    if resolved > cpus:
        logger.warning("%d jobs exceed the %d CPU(s) this process may use",
                       resolved, cpus)
    return resolved


def _env_number(name: str, cast, floor):
    value = os.environ.get(name)
    if not value:
        return None
    try:
        return max(floor, cast(value))
    except ValueError:
        logger.warning("ignoring non-numeric %s=%r", name, value)
        return None


def resolve_task_timeout(task_timeout: Optional[float] = None
                         ) -> Optional[float]:
    """Watchdog seconds: explicit > ``REPRO_TASK_TIMEOUT`` env > off."""
    if task_timeout is not None:
        return task_timeout if task_timeout > 0 else None
    return _env_number("REPRO_TASK_TIMEOUT", float, 0.001)


def resolve_retries(retries: Optional[int] = None) -> int:
    """In-pool retry budget: explicit > ``REPRO_TASK_RETRIES`` env > 1."""
    if retries is not None:
        return max(0, int(retries))
    env = _env_number("REPRO_TASK_RETRIES", int, 0)
    return 1 if env is None else env


@dataclass
class TaskOutcome:
    """What became of one supervised task."""

    status: str                      # ok | fatal | gave_up | timeout
    value: object = None
    error: Optional[BaseException] = None
    attempts: int = 1
    #: Wall seconds from first submission to the final verdict.
    elapsed: float = 0.0
    #: Wall-clock (``time.time``) start stamp of each attempt.
    attempt_times: Tuple[float, ...] = ()


@dataclass
class _InFlight:
    key: object
    attempt: int
    deadline: Optional[float]


class _CallbackError(BaseException):
    """Wrapper that carries an ``on_ok`` exception past the degrade-to-
    serial handler: a driver aborting on purpose (checkpoint-and-interrupt)
    must not be mistaken for pool breakage."""

    def __init__(self, error: BaseException):
        super().__init__()
        self.error = error


def abandon_pool(pool):
    """Best-effort teardown of a pool with hung workers, so exiting the
    ``with`` block (which joins workers) cannot hang the parent."""
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except TypeError:
        try:
            pool.shutdown(wait=False)
        except Exception:
            pass
    except Exception:
        pass
    processes = getattr(pool, "_processes", None)
    if processes:
        for proc in list(processes.values()):
            try:
                proc.terminate()
            except Exception:
                pass


class PoolSupervisor:
    """Run a batch of independent calls under pool supervision.

    ``specs`` (see :meth:`run`) maps an opaque task key to a *call spec*:
    ``spec(attempt) -> (fn, args)`` where ``fn`` is a picklable top-level
    callable.  The attempt number is passed through so callers can thread
    it into the worker (the chaos harness keys injections on it).
    Task keys double as log and event labels; retries, timeouts and
    utilization count under ``fabric.*``.
    """

    def __init__(self, jobs: int, *,
                 task_timeout: Optional[float] = None,
                 retries: int = 1,
                 backoff_base: float = 0.5,
                 executor_factory: Optional[Callable] = None,
                 circuit_threshold: int = 3,
                 sleep: Callable[[float], None] = time.sleep):
        self.jobs = max(1, int(jobs))
        self.task_timeout = task_timeout
        self.retries = max(0, int(retries))
        self.backoff_base = backoff_base
        self.executor_factory = executor_factory or (
            lambda: ProcessPoolExecutor(max_workers=self.jobs))
        self.circuit_threshold = max(1, int(circuit_threshold))
        self.sleep = sleep

    # ------------------------------------------------------------------
    def run(self, specs: Dict[object, Callable[[int], Tuple[Callable,
                                                            tuple]]],
            on_ok: Optional[Callable[[object, object], None]] = None
            ) -> Dict[object, TaskOutcome]:
        """Supervise every spec to a verdict; never raises for task
        failures (the outcome's ``status``/``error`` carry them).

        ``on_ok(key, value)`` streams successes as they land — the fabric
        engine uses it for progress callbacks and checkpoint ticks.
        """
        outcomes: Dict[object, TaskOutcome] = {}
        first_start: Dict[object, float] = {}
        attempt_log: Dict[object, List[float]] = {}
        broken_events = 0
        busy_seconds = 0.0
        pool_t0 = time.monotonic()

        def begin_attempt(key):
            attempt_log.setdefault(key, []).append(time.time())
            first_start.setdefault(key, time.monotonic())

        def settle(key, status, attempt, value=None, error=None):
            start = first_start.get(key)
            elapsed = time.monotonic() - start if start is not None else 0.0
            outcomes[key] = TaskOutcome(
                status=status, value=value, error=error, attempts=attempt,
                elapsed=elapsed,
                attempt_times=tuple(attempt_log.get(key, ())),
            )
            return outcomes[key]

        try:
            with self.executor_factory() as pool:
                pending = {}          # future -> _InFlight
                hung = False

                def submit(key, attempt):
                    begin_attempt(key)
                    fn, args = specs[key](attempt)
                    future = pool.submit(fn, *args)
                    deadline = (time.monotonic() + self.task_timeout
                                if self.task_timeout else None)
                    pending[future] = _InFlight(key, attempt, deadline)

                for key in specs:
                    submit(key, 1)

                while pending:
                    wait_for = None
                    deadlines = [f.deadline for f in pending.values()
                                 if f.deadline is not None]
                    if deadlines:
                        wait_for = max(0.0,
                                       min(deadlines) - time.monotonic())
                    done, _ = wait(set(pending), timeout=wait_for,
                                   return_when=FIRST_COMPLETED)
                    for future in done:
                        flight = pending.pop(future)
                        key, attempt = flight.key, flight.attempt
                        try:
                            value = future.result()
                        except Exception as exc:
                            if isinstance(exc, BrokenExecutor):
                                broken_events += 1
                                if broken_events >= self.circuit_threshold:
                                    raise CircuitOpenError(
                                        f"worker pool broke "
                                        f"{broken_events} times; opening "
                                        "the circuit"
                                    ) from exc
                            if not is_retryable(exc):
                                _events.event(
                                    "task_fatal", task=key,
                                    error=type(exc).__name__)
                                logger.warning(
                                    "task %s failed with non-retryable %s: "
                                    "%s; failing fast (no retries)",
                                    key, type(exc).__name__,
                                    exc,
                                )
                                settle(key, "fatal", attempt, error=exc)
                                continue
                            if attempt <= self.retries:
                                _telemetry.counter(
                                    "fabric.retries").inc()
                                _events.event(
                                    "task_retry", task=key,
                                    attempt=attempt + 1,
                                    error=type(exc).__name__)
                                logger.warning(
                                    "worker for %s failed (%s: %s); "
                                    "retrying (attempt %d of %d)",
                                    key, type(exc).__name__,
                                    exc, attempt + 1, self.retries + 1,
                                )
                                self.sleep(backoff_delay(
                                    attempt, base=self.backoff_base,
                                    key=key))
                                submit(key, attempt + 1)
                            else:
                                logger.warning(
                                    "worker for %s failed (%s: %s); "
                                    "falling back to serial execution",
                                    key, type(exc).__name__,
                                    exc,
                                )
                                settle(key, "gave_up", attempt, error=exc)
                            continue
                        settle(key, "ok", attempt, value=value)
                        busy_seconds += outcomes[key].elapsed
                        if on_ok is not None:
                            try:
                                on_ok(key, value)
                            except BaseException as exc:
                                raise _CallbackError(exc)
                    now = time.monotonic()
                    for future in list(pending):
                        flight = pending[future]
                        if flight.deadline is None or now < flight.deadline:
                            continue
                        del pending[future]
                        future.cancel()
                        key, attempt = flight.key, flight.attempt
                        _telemetry.counter(
                            "fabric.timeouts").inc()
                        if attempt <= self.retries:
                            _telemetry.counter(
                                "fabric.retries").inc()
                            _events.event(
                                "task_retry", task=key,
                                attempt=attempt + 1, error="timeout")
                            logger.warning(
                                "task %s exceeded its %.3gs watchdog; "
                                "retrying (attempt %d of %d)",
                                key, self.task_timeout,
                                attempt + 1, self.retries + 1,
                            )
                            submit(key, attempt + 1)
                        else:
                            settle(key, "timeout", attempt)
                            hung = True
                            logger.warning(
                                "task %s exceeded its %.3gs watchdog "
                                "after %d attempts; skipping it",
                                key, self.task_timeout,
                                attempt,
                            )
                if hung:
                    abandon_pool(pool)
        except _CallbackError as wrapped:
            raise wrapped.error
        except Exception as exc:
            # The pool itself broke (circuit opened, fork failure,
            # submission into a dead pool): everything unresolved degrades
            # to the caller's serial path rather than losing the run.
            _telemetry.counter("fabric.circuit_open").inc()
            logger.warning(
                "process pool failed (%s: %s); completing serially",
                type(exc).__name__, exc,
            )
            for key in specs:
                if key not in outcomes:
                    attempts = len(attempt_log.get(key, ())) or 1
                    settle(key, "gave_up", attempts, error=exc)

        wall = time.monotonic() - pool_t0
        if wall > 0 and busy_seconds > 0:
            _telemetry.gauge("fabric.worker_utilization").set(
                round(min(1.0, busy_seconds / (wall * self.jobs)), 4)
            )
        return outcomes
