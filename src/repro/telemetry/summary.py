"""Render telemetry runs: ``summary``, ``top``, and two-run ``diff``.

Works purely from the emitted JSONL (see :mod:`repro.telemetry.events`):
the final ``metrics`` snapshot supplies counter/histogram values, the
``task`` events supply per-task harness timings, and the spans supply
phase timings.  Nothing here re-runs any simulation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.telemetry.events import final_metrics, read_events


class RunView:
    """Parsed view of one run log: events, metrics, tasks, spans."""

    def __init__(self, path):
        self.path = str(path)
        self.events = read_events(path)
        if not self.events:
            raise ValueError(f"{path}: empty event log")
        self.run_id = self.events[0].get("run", "?")
        self.schema = self.events[0].get("schema")
        self.metrics = final_metrics(self.events)
        self.tasks = [e for e in self.events if e.get("kind") == "task"]
        self.spans = [e for e in self.events if e.get("kind") == "span_end"]

    # -- metric accessors ---------------------------------------------
    def value(self, name: str, default=0):
        entry = self.metrics.get(name)
        if entry is None:
            return default
        if "value" in entry:
            return entry["value"]
        return entry.get("total", default)

    def counters_with_prefix(self, prefix: str) -> List[Tuple[str, int]]:
        out = []
        for name, entry in self.metrics.items():
            if name.startswith(prefix) and "value" in entry:
                out.append((name[len(prefix):], entry["value"]))
        out.sort(key=lambda pair: (-pair[1], pair[0]))
        return out

    def histogram(self, name: str) -> Optional[dict]:
        entry = self.metrics.get(name)
        return entry if entry and "count" in entry else None


def _ratio(numerator, denominator) -> Optional[float]:
    return numerator / denominator if denominator else None


def _pct(value: Optional[float]) -> str:
    return f"{value * 100:.2f}%" if value is not None else "—"


def _rate_line(label: str, hits, misses) -> Optional[str]:
    accesses = hits + misses
    if not accesses:
        return None
    return (f"  {label:<22s} {_pct(_ratio(hits, accesses)):>8s} hit "
            f"({hits}/{accesses})")


def render_summary(run: RunView) -> str:
    """Expansion frequency, cache hit rates, and harness task timings."""
    lines = [f"# Telemetry summary — {run.run_id}", ""]

    # -- engine / functional sim --------------------------------------
    app = run.value("sim.app_instructions")
    expansions = run.value("sim.expansions")
    dynamic = run.value("sim.instructions")
    lines.append("## Engine")
    if app or expansions:
        freq = _ratio(expansions, app)
        lines.append(f"  app instructions       {app}")
        lines.append(f"  dynamic instructions   {dynamic}")
        lines.append(f"  expansions             {expansions} "
                     f"(frequency {_pct(freq)})")
        length = run.histogram("engine.replacement_length")
        if length:
            mean = length["total"] / length["count"] if length["count"] else 0
            lines.append(
                f"  replacement length     mean {mean:.2f} "
                f"(min {length['min']}, max {length['max']}, "
                f"n={length['count']})"
            )
        pt_miss = run.value("sim.pt_misses")
        rt_miss = run.value("sim.rt_misses")
        lines.append(f"  PT misses              {pt_miss}")
        lines.append(f"  RT misses              {rt_miss}")
        for gauge_name, label in (("engine.pt_occupancy", "PT occupancy"),
                                  ("engine.rt_occupancy", "RT occupancy")):
            if gauge_name in run.metrics:
                lines.append(f"  {label:<22s} {run.value(gauge_name)}")
    else:
        lines.append("  (no functional-sim metrics in this run)")
    lines.append("")

    # -- cache hit rates ----------------------------------------------
    lines.append("## Cache hit rates")
    cache_lines = []
    for label, hit_name, miss_name in (
        ("trace cache (traces)", "trace_cache.trace.hits",
         "trace_cache.trace.misses"),
        ("trace cache (cycles)", "trace_cache.cycles.hits",
         "trace_cache.cycles.misses"),
    ):
        line = _rate_line(label, run.value(hit_name), run.value(miss_name))
        if line:
            cache_lines.append(line)
    for label, acc_name, miss_name in (
        ("I-cache (L1)", "cycle.il1.accesses", "cycle.il1.misses"),
        ("D-cache (L1)", "cycle.dl1.accesses", "cycle.dl1.misses"),
    ):
        accesses = run.value(acc_name)
        misses = run.value(miss_name)
        if accesses:
            cache_lines.append(
                f"  {label:<22s} {_pct(_ratio(accesses - misses, accesses)):>8s}"
                f" hit ({accesses - misses}/{accesses})"
            )
    quarantined = run.value("trace_cache.quarantined")
    if quarantined:
        cache_lines.append(f"  quarantined entries    {quarantined}")
    lines.extend(cache_lines or ["  (no cache metrics in this run)"])
    lines.append("")

    # -- execution fabric ---------------------------------------------
    fabric_names = [name for name in run.metrics
                    if name.startswith("fabric.")]
    if fabric_names:
        lines.append("## Execution fabric")
        dedupe = _rate_line("cross-campaign dedupe",
                            run.value("fabric.dedupe.hits"),
                            run.value("fabric.dedupe.misses"))
        if dedupe:
            lines.append(dedupe)
        store = _rate_line("artifact store",
                           run.value("fabric.store.hits"),
                           run.value("fabric.store.misses"))
        if store:
            lines.append(store)
        for name, label in (
            ("fabric.store.stores", "artifacts written"),
            ("fabric.store.quarantined", "artifacts quarantined"),
            ("fabric.checkpoint.quarantined", "checkpoints quarantined"),
            ("fabric.duplicates", "duplicates coalesced"),
            ("fabric.retries", "retries"),
            ("fabric.timeouts", "watchdog timeouts"),
            ("fabric.circuit_open", "circuit opens"),
            ("fabric.degradations", "serial degradations"),
        ):
            value = run.value(name)
            if value:
                lines.append(f"  {label:<22s} {value}")
        utilization = run.metrics.get("fabric.worker_utilization")
        if utilization is not None:
            lines.append(
                f"  worker utilization     {_pct(utilization.get('value'))}"
            )
        lines.append("")

    # -- timing model --------------------------------------------------
    replays = run.value("cycle.replays")
    if replays:
        lines.append("## Timing model")
        lines.append(f"  replays                {replays}")
        lines.append(f"  cycles                 {run.value('cycle.cycles')}")
        for name, label in (
            ("cycle.stall.expansion", "expansion stalls"),
            ("cycle.stall.pt_miss", "PT-miss stalls"),
            ("cycle.stall.rt_miss", "RT-miss stalls"),
            ("cycle.stall.dise_redirect", "DISE redirects"),
            ("cycle.mispredicts", "mispredicts"),
        ):
            lines.append(f"  {label:<22s} {run.value(name)}")
        lines.append("")

    # -- batch cohorts -------------------------------------------------
    lanes = run.histogram("sim.batch.lanes_active")
    drains = run.counters_with_prefix("sim.batch.drain.")
    readmitted = run.value("sim.batch.readmitted")
    if lanes or drains or readmitted:
        lines.append("## Batch cohorts")
        if lanes and lanes["count"]:
            mean = lanes["total"] / lanes["count"]
            lines.append(
                f"  lanes active           mean {mean:.2f} "
                f"(min {lanes['min']}, max {lanes['max']}, "
                f"n={lanes['count']})"
            )
        for cause, count in drains:
            label = f"drains ({cause})"
            lines.append(f"  {label:<22s} {count}")
        lines.append(f"  re-admissions          {readmitted}")
        lines.append("")

    # -- serve sessions ------------------------------------------------
    serve_names = [name for name in run.metrics if name.startswith("serve.")]
    if serve_names:
        lines.append("## Serve sessions")
        lines.append(f"  requests               {run.value('serve.requests')}"
                     f" ({run.value('serve.errors')} errors)")
        ops = run.counters_with_prefix("serve.requests.")
        for op, count in ops:
            label = f"op {op}"
            lines.append(f"  {label:<22s} {count}")
        lines.append(f"  sessions opened        "
                     f"{run.value('serve.sessions.opened')} "
                     f"({run.value('serve.sessions.forked')} forked, "
                     f"{run.value('serve.sessions.closed')} closed, "
                     f"{run.value('serve.sessions.resumed')} resumed)")
        warm_builds = run.value("serve.pool.warm_builds")
        builds = warm_builds + run.value("serve.pool.cold_builds")
        if builds:
            lines.append(f"  machine builds         {builds} "
                         f"({_pct(_ratio(warm_builds, builds))} warm)")
        for name, label in (
            ("serve.pool.evictions", "pool evictions"),
            ("serve.retired", "retirements served"),
            ("serve.errors.BudgetExceededError", "budget rejections"),
            ("serve.campaigns.started", "campaigns started"),
            ("serve.shutdowns", "graceful shutdowns"),
        ):
            value = run.value(name)
            if value:
                lines.append(f"  {label:<22s} {value}")
        lines.append("")

    # -- tasks ---------------------------------------------------------
    lines.append("## Tasks")
    if run.tasks:
        total = sum(t.get("seconds", 0) for t in run.tasks)
        retries = run.value("fabric.retries")
        timeouts = run.value("fabric.timeouts")
        lines.append(f"  tasks                  {len(run.tasks)} "
                     f"({total:.2f}s busy)")
        lines.append(f"  retries                {retries}")
        lines.append(f"  watchdog timeouts      {timeouts}")
        utilization = run.metrics.get("fabric.worker_utilization")
        if utilization is not None:
            lines.append(
                f"  worker utilization     {_pct(utilization.get('value'))}"
            )
        slowest = sorted(run.tasks, key=lambda t: -t.get("seconds", 0))[:5]
        lines.append("  slowest tasks:")
        for task in slowest:
            lines.append(
                f"    {task.get('seconds', 0):8.3f}s  "
                f"x{task.get('attempts', 1)}  {task.get('status', '?'):<8s} "
                f"{task.get('label', '?')}"
            )
    else:
        lines.append("  (no task events in this run)")
    lines.append("")

    # -- phases --------------------------------------------------------
    if run.spans:
        lines.append("## Phases")
        for span_event in run.spans:
            lines.append(f"  {span_event.get('seconds', 0):8.3f}s  "
                         f"{span_event.get('name', '?')}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def render_top(run: RunView, n: int = 10) -> str:
    """Hottest opcodes and productions from the metric snapshot."""
    lines = [f"# Telemetry top — {run.run_id}", ""]
    opcodes = run.counters_with_prefix("sim.opcode.")
    lines.append(f"## Hottest opcodes (top {n})")
    if opcodes:
        total = sum(count for _, count in opcodes)
        for name, count in opcodes[:n]:
            lines.append(f"  {name:<10s} {count:>12d}  "
                         f"{_pct(_ratio(count, total))}")
        loads = sum(c for name, c in opcodes if name in ("LDQ", "LDL"))
        stores = sum(c for name, c in opcodes if name in ("STQ", "STL"))
        lines.append("")
        lines.append(f"  memory-op mix: {loads} loads / {stores} stores "
                     f"({_pct(_ratio(loads + stores, total))} of retired)")
    else:
        lines.append("  (no opcode metrics in this run)")
    lines.append("")
    productions = run.counters_with_prefix("engine.production.")
    lines.append(f"## Hottest productions (top {n})")
    if productions:
        for name, count in productions[:n]:
            lines.append(f"  {name:<24s} {count:>12d}")
    else:
        lines.append("  (no production-match metrics in this run)")
    blocks = run.counters_with_prefix("profile.block.")
    if blocks:
        lines.append("")
        lines.append(f"## Hottest superblocks (top {n})")
        for name, count in blocks[:n]:
            tier, _, pc = name.partition(".")
            lines.append(f"  {tier:<12s} {pc:<16s} {count:>12d}")
    return "\n".join(lines).rstrip() + "\n"


def render_diff(a: RunView, b: RunView, threshold: float = 0.0) -> str:
    """Two-run regression diff over counters, gauges and histogram totals.

    Timer/histogram *totals* are compared for timing metrics; raw event
    timestamps never participate, so seeded runs diff clean.
    """
    lines = [f"# Telemetry diff — {a.run_id} -> {b.run_id}", ""]
    names = sorted(set(a.metrics) | set(b.metrics))
    rows: List[Tuple[str, float, str]] = []
    for name in names:
        va = a.value(name, 0) or 0
        vb = b.value(name, 0) or 0
        if va == vb:
            continue
        if va:
            change = (vb - va) / abs(va)
            change_str = f"{change * 100:+.1f}%"
        else:
            change = float("inf")
            change_str = "new"
        magnitude = abs(change) if change != float("inf") else float("inf")
        if magnitude >= threshold:
            rows.append((name, magnitude,
                         f"  {name:<36s} {va!s:>14s} -> {vb!s:<14s} "
                         f"{change_str}"))
    if not rows:
        lines.append("  (no metric differences)")
        return "\n".join(lines) + "\n"
    rows.sort(key=lambda row: (-row[1] if row[1] != float("inf") else
                               float("-inf"), row[0]))
    lines.append(f"  {'metric':<36s} {'before':>14s}    {'after':<14s} change")
    lines.extend(row[2] for row in rows)
    return "\n".join(lines) + "\n"
