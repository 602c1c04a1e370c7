"""Conformance-verification campaigns: (benchmark x oracle) sweeps.

A verification campaign runs every configured oracle against every
configured benchmark profile.  The sweep itself rides on the execution
fabric (:mod:`repro.fabric`): each (benchmark, oracle) cell becomes a
content-addressed task, so the fabric supplies the process-pool fan-out
(``-j`` / ``REPRO_JOBS``), crash supervision, checkpoint/resume, and —
with ``REPRO_FABRIC_STORE`` enabled — cross-campaign dedupe of cells
other sweeps already computed.  ``verify.oracles.*`` telemetry counters
are published from the parent either way.

Reports are deterministic JSON (sorted keys, no timestamps); a
checkpoint written by a different configuration is refused rather than
silently merged, while a *corrupt* checkpoint is quarantined and the
sweep restarts cleanly.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import CampaignError, CheckpointError
from repro.fabric.engine import Fabric
from repro.fabric.task import Task, register_recipe
from repro.faults.campaign import _atomic_write_json
from repro.fabric.supervise import resolve_jobs
from repro.telemetry import events as _events
from repro.telemetry import registry as _telemetry
from repro.verify.oracles import ORACLES, OracleOutcome, run_oracle

#: Version stamp on verification reports and checkpoints.
REPORT_SCHEMA = 1


@dataclass(frozen=True)
class VerifyConfig:
    """Everything that determines a verification sweep's results."""

    benchmarks: Tuple[str, ...] = ("bzip2", "gzip", "mcf", "parser")
    oracles: Tuple[str, ...] = ORACLES
    #: Workload scale factor (fraction of the full synthetic trip counts).
    scale: float = 0.05
    #: MFI production-set variant used by ``dise_vs_static``.
    variant: str = "dise3"
    max_steps: int = 10_000_000
    #: Checkpoint after this many newly computed cells.
    checkpoint_every: int = 4
    #: Bisect to the first divergent retirement on mismatch.
    bisect: bool = True
    #: Digest-window size used by the bisector.
    window: int = 256

    def validate(self):
        if not self.benchmarks:
            raise CampaignError("verification needs at least one benchmark")
        if not self.oracles:
            raise CampaignError("verification needs at least one oracle")
        unknown = [o for o in self.oracles if o not in ORACLES]
        if unknown:
            raise CampaignError(
                f"unknown oracles {unknown}; choose from {list(ORACLES)}"
            )
        if self.scale <= 0:
            raise CampaignError("scale must be positive")
        if self.max_steps < 1:
            raise CampaignError("max_steps must be positive")
        if self.window < 1:
            raise CampaignError("window must be positive")

    def fingerprint(self) -> Dict[str, object]:
        """JSON-stable identity used to match checkpoints to configs."""
        return {
            "benchmarks": list(self.benchmarks),
            "oracles": list(self.oracles),
            "scale": self.scale,
            "variant": self.variant,
            "max_steps": self.max_steps,
            "bisect": self.bisect,
            "window": self.window,
        }

    def cells(self) -> List[Tuple[str, str]]:
        """All (benchmark, oracle) pairs, in deterministic order."""
        return [(bench, oracle) for bench in self.benchmarks
                for oracle in self.oracles]


def _cell_id(benchmark: str, oracle: str) -> str:
    return f"{benchmark}:{oracle}"


# ----------------------------------------------------------------------
# The fabric recipe: one oracle cell
# ----------------------------------------------------------------------
def _cell_recipe(params: Dict[str, object]) -> Dict[str, object]:
    """Run one oracle cell to its deterministic result dict."""
    outcome = run_oracle(
        params["oracle"], params["benchmark"], scale=params["scale"],
        variant=params["variant"], max_steps=params["max_steps"],
        bisect=params["bisect"], window=params["window"],
    )
    return outcome.to_dict()


register_recipe("repro.verify.campaign:cell", _cell_recipe)


def _cell_task(config: VerifyConfig, benchmark: str, oracle: str) -> Task:
    return Task(
        recipe="repro.verify.campaign:cell",
        params={
            "benchmark": benchmark,
            "oracle": oracle,
            "scale": config.scale,
            "variant": config.variant,
            "max_steps": config.max_steps,
            "bisect": config.bisect,
            "window": config.window,
        },
        task_id=_cell_id(benchmark, oracle),
    )


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def run_verification(config: VerifyConfig,
                     checkpoint_path: Optional[str] = None,
                     resume: bool = False,
                     progress: Optional[Callable[[str, str, int, int],
                                                 None]] = None,
                     jobs: Optional[int] = None,
                     fabric_options: Optional[Dict[str, object]] = None
                     ) -> Dict[str, object]:
    """Run (or resume) a verification sweep; returns the report dict.

    ``progress(cell_id, status, done, total)`` is called after every
    newly computed cell (restored cells stay silent).  Cells are
    independent, so with ``jobs > 1`` they fan out under fabric
    supervision; telemetry counters are incremented in the parent either
    way.  ``fabric_options`` passes extra :class:`~repro.fabric.engine
    .Fabric` knobs through (``store``, ``chaos``, ``task_timeout``...).
    """
    config.validate()
    if resume and not checkpoint_path:
        raise CheckpointError("resume requested without a checkpoint path")

    def on_result(cell: str, record: Dict[str, object], done: int,
                  total: int):
        status = record["status"]
        _telemetry.counter("verify.oracles.run").inc()
        if status == "pass":
            _telemetry.counter("verify.oracles.passed").inc()
        elif status == "diverged":
            _telemetry.counter("verify.oracles.diverged").inc()
        else:
            _telemetry.counter("verify.oracles.errors").inc()
        if progress is not None:
            progress(cell, status, done, total)

    fabric = Fabric(
        "verify", config.fingerprint(), checkpoint_path=checkpoint_path,
        resume=resume, jobs=jobs, checkpoint_every=config.checkpoint_every,
        **(fabric_options or {}),
    )
    tasks = [_cell_task(config, bench, oracle)
             for bench, oracle in config.cells()]
    with _events.span("verify.sweep", cells=len(tasks), jobs=fabric.jobs):
        records = fabric.run(tasks, on_result=on_result)
    return _build_report(config, records)


def _build_report(config: VerifyConfig,
                  records: Dict[str, Dict[str, object]]) -> Dict[str, object]:
    by_oracle: Dict[str, Dict[str, int]] = {
        oracle: {"pass": 0, "diverged": 0, "error": 0}
        for oracle in config.oracles
    }
    divergences = []
    checks = 0
    for cell in sorted(records):
        record = records[cell]
        by_oracle[record["oracle"]][record["status"]] += 1
        checks += record.get("checks", 0)
        if record["status"] != "pass":
            divergences.append(cell)
    return {
        "schema": REPORT_SCHEMA,
        "config": config.fingerprint(),
        "summary": {
            "cells": len(records),
            "checks": checks,
            "passed": sum(c["pass"] for c in by_oracle.values()),
            "diverged": sum(c["diverged"] for c in by_oracle.values()),
            "errors": sum(c["error"] for c in by_oracle.values()),
            "by_oracle": by_oracle,
            "divergent_cells": divergences,
        },
        "cells": [records[cell] for cell in sorted(records)],
    }


def all_passed(report: Dict[str, object]) -> bool:
    summary = report["summary"]
    return summary["diverged"] == 0 and summary["errors"] == 0


# ----------------------------------------------------------------------
# Report I/O and rendering
# ----------------------------------------------------------------------
def save_report(report: Dict[str, object], path: str):
    """Write a report deterministically (sorted keys, no timestamps)."""
    _atomic_write_json(path, report)


def load_report(path: str) -> Dict[str, object]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CampaignError(f"unreadable verification report {path}: "
                            f"{exc}") from exc


def render_verify_summary(report: Dict[str, object]) -> str:
    """Human-readable summary of a verification report (markdown)."""
    summary = report["summary"]
    config = report["config"]
    lines: List[str] = []
    lines.append("# Differential conformance verification")
    lines.append("")
    lines.append(
        f"{summary['cells']} oracle cells over "
        f"{', '.join(config['benchmarks'])} (scale {config['scale']}, "
        f"variant {config['variant']}): {summary['passed']} passed, "
        f"{summary['diverged']} diverged, {summary['errors']} errors "
        f"({summary['checks']} individual checks)."
    )
    lines.append("")
    lines.append("| oracle | pass | diverged | error |")
    lines.append("|---|---|---|---|")
    for oracle, counts in summary["by_oracle"].items():
        lines.append(
            f"| {oracle} | {counts['pass']} | {counts['diverged']} | "
            f"{counts['error']} |"
        )
    for record in report["cells"]:
        if record["status"] == "pass":
            continue
        lines.append("")
        lines.append(
            f"## {record['benchmark']}:{record['oracle']} — "
            f"{record['status']}"
        )
        lines.append(record["detail"] or "(no detail)")
        report_dict = record.get("report")
        if report_dict:
            lines.append("```")
            lines.append(json.dumps(report_dict, indent=2, sort_keys=True))
            lines.append("```")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Determinism fingerprints
# ----------------------------------------------------------------------
def _digest_one(args: Tuple[str, float, int]) -> Tuple[str, str, int]:
    """Top-level (picklable) worker: full-projection digest of one profile."""
    from repro.acf.base import plain_installation
    from repro.verify.oracles import _FUNCTIONAL_DISE, _generate
    from repro.verify.observe import Observer

    benchmark, scale, max_steps = args
    observer = Observer("full")
    plain_installation(_generate(benchmark, scale)).run(
        dise_config=_FUNCTIONAL_DISE, record_trace=False,
        max_steps=max_steps, observer=observer,
    )
    return benchmark, observer.hexdigest(), observer.count


def observation_digests(benchmarks, scale: float = 0.02,
                        max_steps: int = 10_000_000,
                        jobs: Optional[int] = None) -> Dict[str, Tuple[str, int]]:
    """Full-projection observation digests for a set of benchmark profiles.

    The determinism suite runs this twice (serially and under a parallel
    job count) and requires bit-identical digests.
    """
    jobs = resolve_jobs(jobs)
    work = [(name, scale, max_steps) for name in benchmarks]
    if jobs > 1 and len(work) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_digest_one, work))
    else:
        results = [_digest_one(item) for item in work]
    return {name: (digest, count) for name, digest, count in results}
