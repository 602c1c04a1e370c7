"""Structured JSONL run events: spans, task records, metric snapshots.

Every harness invocation that opts in (``REPRO_TELEMETRY`` truthy) can open
a *run*: an append-only JSONL file of events, written next to checkpoints
(or wherever ``REPRO_TELEMETRY_DIR`` points).  Each line is one JSON object
with a fixed envelope::

    {"schema": 1, "run": "<run id>", "seq": N, "t": <seconds>, "kind": ...}

``seq`` increments per event; ``t`` is monotonic seconds since the run
began (wall-clock timestamps never enter the log, which keeps seeded runs
diffable — only ``t`` varies between identical runs, and the comparison
tools ignore it).  Event kinds:

``run_begin`` / ``run_end``
    Brackets of the run.  ``run_end`` carries the exit status;
    a ``metrics`` event with the final registry snapshot precedes it.
``span_begin`` / ``span_end``
    Harness phases (experiments, benchmark preparation, campaign chunks).
    ``span_end`` repeats the name and carries ``seconds``.
``task``
    One fabric task: label (the task id), wall seconds, attempts, status.
``event``
    Anything else (retries, quarantines, watchdog expiries).
``metrics``
    A full registry snapshot (``{"metrics": {name: {...}}}``).

Schema 2 (tracing) extends schema 1 without breaking it: when
``REPRO_TRACE`` is on, span events additionally carry ``trace_id`` /
``span_id`` / ``parent_id`` (see :mod:`repro.telemetry.tracing`), and
spans recorded in worker processes are re-emitted here at merge time with
a ``remote`` marker, worker ``pid``, and worker-relative ``start``.
Id-carrying spans are matched by id instead of stack position — so a
worker crash mid-span leaves a well-formed ``span_end``-less record that
validation accepts as *truncated* rather than rejecting as corrupt.

:func:`validate_log` is the schema check CI runs against emitted logs —
hand-rolled (no jsonschema dependency), strict about the envelope, the
known kinds, per-kind required fields, seq/t monotonicity, and span
balance.  It accepts both schema versions.
"""

from __future__ import annotations

import io
import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.telemetry import registry as _registry
from repro.telemetry import tracing as _tracing

#: Bump when the envelope or per-kind required fields change.
EVENT_SCHEMA = 2

#: Schema versions :func:`validate_log` accepts (older logs stay valid).
ACCEPTED_SCHEMAS = (1, 2)

_DIR_ENV_VAR = "REPRO_TELEMETRY_DIR"
_DEFAULT_DIR = ".repro-telemetry"

ENVELOPE_KEYS = ("schema", "run", "seq", "t", "kind")

#: kind -> extra required fields.
EVENT_KINDS = {
    "run_begin": ("argv",),
    "run_end": ("status",),
    "span_begin": ("name",),
    "span_end": ("name", "seconds"),
    "task": ("label", "seconds", "attempts", "status"),
    "event": ("name",),
    "metrics": ("metrics",),
}


class TelemetryError(RuntimeError):
    """Raised for malformed event logs (validation failures)."""


def default_log_dir() -> Path:
    """Where run logs land unless the caller picks a directory."""
    return Path(os.environ.get(_DIR_ENV_VAR) or _DEFAULT_DIR)


def make_run_id() -> str:
    """A collision-resistant, filename-safe run identifier."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return f"run-{stamp}-{os.getpid():05d}-{os.urandom(2).hex()}"


class EventLog:
    """Append-only JSONL writer with the envelope stamped on every event."""

    def __init__(self, path, run_id: str):
        self.path = Path(path)
        self.run_id = run_id
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: Optional[io.TextIOWrapper] = open(self.path, "a")
        self._seq = 0
        self._t0 = time.monotonic()

    def emit(self, kind: str, **fields):
        if self._handle is None:
            return
        record = {
            "schema": EVENT_SCHEMA,
            "run": self.run_id,
            "seq": self._seq,
            "t": round(time.monotonic() - self._t0, 6),
            "kind": kind,
        }
        record.update(fields)
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        self._seq += 1

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class _Span:
    __slots__ = ("_run", "name", "fields", "_t0", "_ids")

    def __init__(self, run: "RunTelemetry", name: str, fields: dict):
        self._run = run
        self.name = name
        self.fields = fields
        self._t0 = None
        self._ids = None

    def __enter__(self):
        self._t0 = time.monotonic()
        fields = self.fields
        if _tracing.enabled():
            # Trace id == run id: one run, one trace, zero coordination.
            self._ids = _tracing.push_span(self._run.log.run_id)
            fields = dict(fields, **self._ids)
        self._run.emit("span_begin", name=self.name, **fields)
        return self

    def __exit__(self, exc_type, exc, tb):
        fields = self.fields
        if self._ids is not None:
            fields = dict(fields, **self._ids)
            _tracing.pop_span()
        self._run.emit(
            "span_end", name=self.name,
            seconds=round(time.monotonic() - self._t0, 6),
            ok=exc_type is None, **fields,
        )
        return False


class RunTelemetry:
    """One observed run: an event log plus the process registry.

    Constructed through :func:`start_run`; when telemetry is disabled the
    run is inert (``log`` is ``None`` and every method no-ops), so call
    sites never need to guard.
    """

    def __init__(self, log: Optional[EventLog]):
        self.log = log

    @property
    def active(self) -> bool:
        return self.log is not None

    @property
    def path(self) -> Optional[Path]:
        return self.log.path if self.log is not None else None

    def emit(self, kind: str, **fields):
        if self.log is not None:
            self.log.emit(kind, **fields)

    def span(self, name: str, **fields) -> _Span:
        if self.log is None:
            return _registry._NULL_CONTEXT
        return _Span(self, name, fields)

    def finish(self, status: str = "ok") -> Optional[Path]:
        """Emit the final metrics snapshot and close the log."""
        if self.log is None:
            return None
        self.emit("metrics", metrics=_registry.snapshot())
        self.emit("run_end", status=status)
        path = self.log.path
        self.log.close()
        self.log = None
        return path


_INERT_RUN = RunTelemetry(None)
_CURRENT: RunTelemetry = _INERT_RUN


def start_run(log_dir=None, run_id: Optional[str] = None,
              argv: Optional[List[str]] = None) -> RunTelemetry:
    """Open a run event log (no-op when telemetry is disabled).

    The log lands in ``log_dir`` (default: ``REPRO_TELEMETRY_DIR`` or
    ``.repro-telemetry/``) as ``<run id>.jsonl``.  The new run becomes the
    process-current run targeted by :func:`event` / :func:`span`.
    """
    global _CURRENT
    if not _registry.enabled():
        return _INERT_RUN
    run_id = run_id or make_run_id()
    directory = Path(log_dir) if log_dir is not None else default_log_dir()
    log = EventLog(directory / f"{run_id}.jsonl", run_id)
    run = RunTelemetry(log)
    run.emit("run_begin", argv=list(argv or []))
    _CURRENT = run
    return run


def current_run() -> RunTelemetry:
    return _CURRENT


def finish_run(status: str = "ok") -> Optional[Path]:
    """Finish the process-current run; returns the log path (or None)."""
    global _CURRENT
    path = _CURRENT.finish(status)
    _CURRENT = _INERT_RUN
    return path


def event(name: str, **fields):
    """Emit a free-form event on the current run (no-op without one)."""
    _CURRENT.emit("event", name=name, **fields)


def emit_task(label: str, seconds: float, attempts: int, status: str,
              **fields):
    """Emit a fabric task record on the current run."""
    _CURRENT.emit("task", label=label, seconds=round(seconds, 6),
                  attempts=attempts, status=status, **fields)


def span(name: str, **fields):
    """A span on the current run (an inert context without one).

    In a worker process activated via ``tracing.remote_session`` there is
    no event log; the span is recorded into the session buffer instead,
    preserving existing call sites (campaign prep, fabric phases) across
    the process boundary.
    """
    if _CURRENT.active:
        return _CURRENT.span(name, **fields)
    if _tracing.enabled() and _tracing.remote_active():
        return _tracing.remote_span(name, **fields)
    return _registry._NULL_CONTEXT


def emit_remote_spans(records: List[dict]):
    """Re-emit worker-recorded span buffers into the current run log.

    Each record becomes an adjacent ``span_begin``/``span_end`` pair
    carrying the worker's trace ids, pid, worker-relative ``start``, and
    measured ``seconds``; the envelope ``t`` is stamped at merge time
    (parent clock), so timeline tools place remote spans by
    ``span_end.t - seconds``.  Id-based span matching makes the adjacent
    emission order valid regardless of the original nesting.
    """
    if not _CURRENT.active or not records:
        return
    for record in sorted(records,
                         key=lambda r: (r.get("start", 0.0),
                                        str(r.get("span_id", "")))):
        fields = {k: v for k, v in record.items()
                  if k not in ("name", "seconds", "ok")}
        _CURRENT.emit("span_begin", name=record.get("name", "?"),
                      remote=True, **fields)
        ids = {k: record[k] for k in ("trace_id", "span_id", "parent_id")
               if k in record}
        _CURRENT.emit("span_end", name=record.get("name", "?"),
                      seconds=record.get("seconds", 0.0),
                      ok=record.get("ok", True), remote=True, **ids)


def emit_truncated_span(name: str, context: Optional[dict] = None, **fields):
    """Synthesize a ``span_begin`` with no ``span_end`` (a crashed span).

    Used by the parent when a worker died, hung, or gave up before
    returning its span buffer: the failure becomes a *truncated* node in
    the trace tree (``validate_log`` accepts it; the critical-path
    analysis flags it) instead of disappearing.  Returns the synthesized
    span id, or None when no run log is active.
    """
    if not _CURRENT.active or not _tracing.enabled():
        return None
    parent = context or _tracing.current_context()
    ids = {"span_id": _tracing._next_span_id()}
    if parent is not None:
        ids["trace_id"] = parent["trace_id"]
        ids["parent_id"] = parent["span_id"]
    else:
        ids["trace_id"] = _CURRENT.log.run_id
    _CURRENT.emit("span_begin", name=name, truncated=True, **ids, **fields)
    return ids["span_id"]


# ----------------------------------------------------------------------
# Validation (the CI schema check)
# ----------------------------------------------------------------------
def validate_event(obj: dict, line_no: int = 0):
    """Check one event object against the envelope and per-kind schema."""
    if not isinstance(obj, dict):
        raise TelemetryError(f"line {line_no}: event is not an object")
    for key in ENVELOPE_KEYS:
        if key not in obj:
            raise TelemetryError(f"line {line_no}: missing envelope key "
                                 f"{key!r}")
    if obj["schema"] not in ACCEPTED_SCHEMAS:
        raise TelemetryError(
            f"line {line_no}: schema {obj['schema']!r} not in "
            f"{ACCEPTED_SCHEMAS}"
        )
    kind = obj["kind"]
    if kind not in EVENT_KINDS:
        raise TelemetryError(f"line {line_no}: unknown event kind {kind!r}")
    if not isinstance(obj["seq"], int) or obj["seq"] < 0:
        raise TelemetryError(f"line {line_no}: bad seq {obj['seq']!r}")
    if not isinstance(obj["t"], (int, float)) or obj["t"] < 0:
        raise TelemetryError(f"line {line_no}: bad timestamp {obj['t']!r}")
    for field in EVENT_KINDS[kind]:
        if field not in obj:
            raise TelemetryError(
                f"line {line_no}: {kind} event missing field {field!r}"
            )
    if kind == "metrics" and not isinstance(obj["metrics"], dict):
        raise TelemetryError(f"line {line_no}: metrics payload is not a dict")


def validate_log(path) -> int:
    """Validate a JSONL event log end-to-end; returns the event count.

    Checks every line parses, envelopes and per-kind fields are present,
    ``seq`` counts from 0 without gaps, ``t`` never goes backwards, the
    first event is ``run_begin``, all events share one run id, and spans
    balance.  Span balance has two disciplines:

    * **id-less spans** (schema 1, or schema 2 with tracing off) must
      nest strictly — every ``span_end`` closes the innermost open
      ``span_begin``, and none may remain open at the end;
    * **id-carrying spans** (schema 2 with tracing on) match by
      ``span_id`` in any order — a ``span_end`` without a matching begin
      is an error, but a begin with no end is an accepted *truncated*
      span (a worker crashed mid-span; the record is still well-formed).
    """
    events = list(read_events(path))
    if not events:
        raise TelemetryError(f"{path}: empty event log")
    run_id = events[0]["run"]
    if events[0]["kind"] != "run_begin":
        raise TelemetryError(f"{path}: first event is not run_begin")
    last_t = 0.0
    open_spans: List[str] = []
    open_ids: Dict[str, str] = {}
    for i, obj in enumerate(events):
        validate_event(obj, line_no=i + 1)
        if obj["run"] != run_id:
            raise TelemetryError(f"{path}: line {i + 1}: run id changed")
        if obj["seq"] != i:
            raise TelemetryError(
                f"{path}: line {i + 1}: seq {obj['seq']} != {i}"
            )
        if obj["t"] < last_t:
            raise TelemetryError(
                f"{path}: line {i + 1}: timestamp went backwards"
            )
        last_t = obj["t"]
        if obj["kind"] == "span_begin":
            span_id = obj.get("span_id")
            if span_id is not None:
                if span_id in open_ids:
                    raise TelemetryError(
                        f"{path}: line {i + 1}: duplicate span_id "
                        f"{span_id!r}"
                    )
                open_ids[span_id] = obj["name"]
            else:
                open_spans.append(obj["name"])
        elif obj["kind"] == "span_end":
            span_id = obj.get("span_id")
            if span_id is not None:
                if span_id not in open_ids:
                    raise TelemetryError(
                        f"{path}: line {i + 1}: span_end {obj['name']!r} "
                        f"has no matching span_begin for span_id "
                        f"{span_id!r}"
                    )
                open_ids.pop(span_id)
            else:
                if not open_spans or open_spans[-1] != obj["name"]:
                    raise TelemetryError(
                        f"{path}: line {i + 1}: span_end {obj['name']!r} "
                        "does not close the innermost open span"
                    )
                open_spans.pop()
    if open_spans:
        raise TelemetryError(f"{path}: unclosed spans: {open_spans}")
    # Id-carrying spans left open are *truncated* (worker crashes), not
    # errors: the log stays valid and analysis tools flag them.
    return len(events)


def read_events(path) -> List[dict]:
    """Parse a JSONL event log into a list of dicts (no validation)."""
    events = []
    with open(path) as handle:
        for i, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise TelemetryError(
                    f"{path}: line {i + 1}: not JSON: {exc}"
                ) from exc
    return events


def final_metrics(events: List[dict]) -> Dict[str, dict]:
    """The last ``metrics`` snapshot in a run's events (or ``{}``)."""
    for obj in reversed(events):
        if obj.get("kind") == "metrics":
            return obj.get("metrics", {})
    return {}
