"""Structured error taxonomy shared across the simulator, ACF, and harness
layers.

Historically each layer raised ad-hoc ``RuntimeError``/``ValueError``
subclasses, which made two things impossible:

* the fault-injection campaign (:mod:`repro.faults`) could not *classify*
  an outcome — "the model detected a stray codeword" and "the harness hit a
  corrupt cache entry" both surfaced as ``RuntimeError`` with only message
  text to distinguish them;
* the worker pool could not choose a *retry policy* — a crashed worker
  is worth retrying, a deterministic model error is not.

Every error the repo raises on purpose now derives from :class:`ReproError`
and carries machine-readable fields (see :meth:`ReproError.details`).  Two
branches keep legacy bases for one release so existing ``except`` clauses
continue to work:

* :class:`SimulationError` also subclasses ``RuntimeError`` (the old
  ``ExecutionError`` base);
* :class:`AcfError` also subclasses ``ValueError`` — the one-release shim
  for the bare ``ValueError`` raises that used to live in ``acf/``.
  Catch :class:`AcfError` (or a subclass) instead; the ``ValueError`` base
  will be dropped in the release after next.
"""

from __future__ import annotations

import hashlib
from typing import Optional


class ReproError(Exception):
    """Base of the structured error hierarchy.

    ``retryable`` drives the execution fabric's retry policy: transient
    infrastructure failures (crashed or hung workers) are retried with
    backoff, deterministic model/configuration errors are not.
    """

    #: Whether the harness should retry the operation that raised this.
    retryable = False

    def details(self) -> dict:
        """Machine-readable payload for reports and structured logs."""
        out = {"type": type(self).__name__, "message": str(self)}
        for key, value in vars(self).items():
            if not key.startswith("_") and value is not None:
                out[key] = value
        return out


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
class ConfigError(ReproError, ValueError):
    """A machine, cache or predictor configuration is invalid.

    Raised at construction, so a bad geometry fails where it is written
    instead of mid-replay.  Subclasses ``ValueError`` so existing
    ``except ValueError`` clauses keep working.
    """


# ----------------------------------------------------------------------
# Simulator layer
# ----------------------------------------------------------------------
class SimulationError(ReproError, RuntimeError):
    """Base for model-level errors raised while simulating a program."""


class ExecutionError(SimulationError):
    """The functional model hit an architecturally impossible situation
    (stray codeword, undefined control, unresolved branch target...).

    Carries the fault site as fields so callers — fault classification
    above all — can assert on *cause* rather than message text.
    """

    def __init__(self, message: str, *, pc: Optional[int] = None,
                 index: Optional[int] = None, opcode=None):
        super().__init__(message)
        #: Program counter of the offending instruction, when known.
        self.pc = pc
        #: Instruction-list index of the offending instruction, when known.
        self.index = index
        #: The offending :class:`~repro.isa.opcodes.Opcode`, when known.
        self.opcode = opcode

    def details(self) -> dict:
        out = super().details()
        if self.opcode is not None:
            out["opcode"] = getattr(self.opcode, "name", str(self.opcode))
        return out


class ExecutionTimeout(ExecutionError):
    """The program did not halt within its dynamic-instruction budget.

    Distinct from :class:`ExecutionError` so hang classification (and the
    campaign's ``hang`` outcome) can key off the type.
    """

    def __init__(self, message: str, *, steps: Optional[int] = None,
                 pc: Optional[int] = None, index: Optional[int] = None):
        super().__init__(message, pc=pc, index=index)
        #: The exhausted step budget.
        self.steps = steps


# ----------------------------------------------------------------------
# ACF layer
# ----------------------------------------------------------------------
class AcfError(ReproError, ValueError):
    """Base for ACF construction/configuration errors.

    Subclasses ``ValueError`` as a one-release deprecation shim for the
    bare ``raise ValueError`` sites that used to live in ``acf/``.
    """


class AcfConfigError(AcfError):
    """An ACF was configured with invalid parameters (bad variant name,
    empty range, unknown strategy/scheme...)."""


# ----------------------------------------------------------------------
# Harness layer
# ----------------------------------------------------------------------
class HarnessError(ReproError):
    """Base for experiment-harness failures."""


class TaskError(HarnessError):
    """A fabric task failed.

    ``task`` is the repr of the failing unit; ``attempts`` counts tries
    including the failing one.
    """

    def __init__(self, message: str, *, task: Optional[str] = None,
                 attempts: int = 1):
        super().__init__(message)
        self.task = task
        self.attempts = attempts


class WorkerCrashError(TaskError):
    """A pool worker died (or its future raised) while running a task."""

    retryable = True


class TaskTimeoutError(TaskError):
    """A task exceeded the per-task watchdog timeout."""

    retryable = True

    def __init__(self, message: str, *, task: Optional[str] = None,
                 attempts: int = 1, timeout: Optional[float] = None):
        super().__init__(message, task=task, attempts=attempts)
        self.timeout = timeout


class CacheCorruptionError(HarnessError):
    """A persistent-cache entry failed its integrity check.

    Normally invisible to users: the cache quarantines the entry and the
    caller regenerates it.  Raised only when self-healing itself fails.
    """

    def __init__(self, message: str, *, path: Optional[str] = None):
        super().__init__(message)
        self.path = path


class CheckpointError(HarnessError):
    """A resume checkpoint is unreadable or does not match the run it is
    being applied to."""


# ----------------------------------------------------------------------
# Fabric layer
# ----------------------------------------------------------------------
class FabricError(HarnessError):
    """Base for failures of the :mod:`repro.fabric` work-queue itself."""


class FabricInterrupted(FabricError):
    """A fabric run stopped early (induced interruption / test hook).

    Progress up to the interruption is in the checkpoint; re-run with
    ``resume=True`` to finish.
    """


class CircuitOpenError(FabricError):
    """The fabric's worker pool kept dying and its circuit breaker opened;
    remaining work degrades to serial in-parent execution."""

    retryable = True


# ----------------------------------------------------------------------
# Fault-injection layer
# ----------------------------------------------------------------------
class CampaignError(ReproError):
    """The fault-injection campaign driver was misconfigured."""


# ----------------------------------------------------------------------
# Rewriting layer
# ----------------------------------------------------------------------
class RewriteError(ReproError, ValueError):
    """A static binary rewrite cannot faithfully express the requested
    transformation (e.g. a production set whose replacement sequence uses
    DISE-internal branches, which only have meaning inside an expansion)."""


# ----------------------------------------------------------------------
# Verification layer
# ----------------------------------------------------------------------
class VerificationError(ReproError):
    """Base for differential-conformance failures raised by
    :mod:`repro.verify`."""


class DivergenceError(VerificationError):
    """Two executions that an oracle requires to be observation-equivalent
    diverged.

    Carries the structured :class:`repro.verify.bisect.DivergenceReport`
    locating the first divergent retirement.
    """

    def __init__(self, message: str, *, report=None):
        super().__init__(message)
        #: The :class:`~repro.verify.bisect.DivergenceReport`, when the
        #: divergence was bisected; ``None`` for digest-only comparisons.
        self.report = report

    def details(self) -> dict:
        out = super().details()
        if self.report is not None:
            out["report"] = self.report.to_dict()
        return out


# ----------------------------------------------------------------------
# Serving layer
# ----------------------------------------------------------------------
class ServeError(ReproError):
    """Base for failures of the :mod:`repro.serve` simulation server."""


class ProtocolError(ServeError):
    """A request violates the newline-delimited JSON wire protocol
    (unparseable frame, missing ``op``, unknown operation, bad params).

    Never retryable: the same bytes will fail the same way.
    """


class SessionError(ServeError):
    """A request named a session the server does not hold (never created,
    already closed, or owned by a different tenant)."""

    def __init__(self, message: str, *, session: Optional[str] = None):
        super().__init__(message)
        self.session = session


class BudgetExceededError(ServeError):
    """A tenant exhausted one of its serving budgets.

    ``budget`` names the exhausted dimension (``"retirements"`` or
    ``"wall_clock"``); ``limit`` and ``used`` quantify it.  Retirement
    budgets are enforced with :class:`ExecutionTimeout` precision: the
    session retires *exactly* ``limit`` dynamic instructions before this
    is raised, so a budgeted run's observation digest is a prefix-exact
    replay of the unbudgeted one.  Not retryable — the budget does not
    replenish by retrying.
    """

    retryable = False

    def __init__(self, message: str, *, tenant: Optional[str] = None,
                 budget: Optional[str] = None, limit=None, used=None):
        super().__init__(message)
        self.tenant = tenant
        self.budget = budget
        self.limit = limit
        self.used = used


# ----------------------------------------------------------------------
# Retry policy helpers
# ----------------------------------------------------------------------
def is_retryable(exc: BaseException) -> bool:
    """Whether a failed attempt is worth retrying.

    Errors from the :class:`ReproError` taxonomy answer for themselves via
    their ``retryable`` flag — a deterministic model or configuration
    error will fail identically on every attempt, so retrying it only
    burns the watchdog budget.  Anything *outside* the taxonomy is treated
    as transient infrastructure trouble (a worker killed mid-pickle
    surfaces as ``BrokenProcessPool``, a fork failure as ``OSError``, a
    test double as a bare ``RuntimeError``) and is retried.
    """
    if isinstance(exc, ReproError):
        return exc.retryable
    return True


def backoff_delay(attempt: int, *, base: float = 0.5, cap: float = 30.0,
                  key: Optional[str] = None) -> float:
    """Exponential backoff with deterministic per-key jitter, in seconds.

    ``attempt`` counts the failures so far (1 after the first failure).
    The un-jittered delay doubles each attempt (``base * 2**(attempt-1)``)
    and is clamped to ``cap``; jitter then scales it into the
    ``[0.5, 1.0]`` fraction of that window so simultaneous retries
    de-correlate.  The jitter is a pure function of ``(key, attempt)`` —
    not of a global RNG — so a retried task sleeps the same schedule in
    every run, keeping resumed and chaos-perturbed campaigns reproducible.
    """
    if attempt < 1 or base <= 0:
        return 0.0
    window = min(cap, base * (2.0 ** (attempt - 1)))
    digest = hashlib.sha256(
        f"{key or ''}:{attempt}".encode()
    ).digest()
    fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return window * (0.5 + fraction / 2.0)
