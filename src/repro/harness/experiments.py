"""Per-figure experiment definitions (the reproduction of Section 4).

Each ``fig*`` experiment regenerates the data behind one of the paper's
figures as a :class:`~repro.harness.tables.ResultTable` whose rows are the
SPECint benchmarks and whose columns are the figure's bars/series.  A
figure is defined once, as the function that fills one benchmark's row;
:func:`run_rows` runs those rows serially on one suite or, with several
workers, as tasks on the execution fabric.

Conventions (matching Section 4):

* Execution times are normalized to the unmodified program on the baseline
  machine (4-wide, 32 KB I/D caches, 1 MB L2).
* After Section 4.1's design discussion, DISE runs use the elongated-pipe
  placement; the ``free``/``stall`` options appear only in Figure 6 (top).
* The dedicated decompressor baseline is modelled as a DISE engine with
  free placement and a perfect RT (its dictionary is dedicated on-chip
  SRAM), which is exactly how the two mechanisms correspond physically.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.acf.composition import COMPOSITION_SCHEMES
from repro.acf.compression import DISE_OPTIONS, FIGURE7_VARIANTS
from repro.core.config import DiseConfig
from repro.fabric import Fabric, Task, recipe
from repro.fabric.supervise import resolve_jobs
from repro.harness.runner import Suite
from repro.harness.tables import ResultTable
from repro.sim.config import KB, MachineConfig

#: I-cache sweep points; ``None`` is the paper's "perfect" cache.
CACHE_SIZES = (8 * KB, 32 * KB, 128 * KB, None)
CACHE_LABELS = ("8K", "32K", "128K", "perf")

WIDTHS = (2, 4, 8)

#: RT geometries of the Figure 7 (bottom) sweep: the paper's actual points.
#: Our plain decompression dictionaries occupy 40-470 RT entries, so — as in
#: the paper — 512 entries hurt the large benchmarks while 2K (nearly)
#: matches a perfect RT.
RT_CONFIGS = (
    (512, 1, "512-DM"),
    (512, 2, "512-2way"),
    (2048, 1, "2K-DM"),
    (2048, 2, "2K-2way"),
)

#: Figure 8 (bottom) uses capacity-scaled points (4x down): composition
#: inflates our RT working sets to 90-1200 entries, about 4x less than the
#: paper's composed working sets, so scaling the RT by the same factor
#: preserves the occupancy ratios the figure is about.  See EXPERIMENTS.md.
RT_SCALE_COMPOSED = 4
RT_CONFIGS_COMPOSED = tuple(
    (entries // RT_SCALE_COMPOSED, assoc, label)
    for entries, assoc, label in RT_CONFIGS
)


def _machine(il1_size=32 * KB, width=4, placement="pipe",
             rt_entries=2048, rt_assoc=2, rt_perfect=True,
             simple_miss=30, compose_miss=150) -> MachineConfig:
    dise = DiseConfig(
        placement=placement, rt_entries=rt_entries, rt_assoc=rt_assoc,
        rt_perfect=rt_perfect, simple_miss_cycles=simple_miss,
        compose_miss_cycles=compose_miss,
    )
    return MachineConfig(width=width, dise=dise).with_il1_size(il1_size)


def _baseline_cycles(suite: Suite, bench: str, il1_size=32 * KB,
                     width=4) -> int:
    trace = suite.trace_plain(bench)
    return suite.cycles(trace, _machine(il1_size=il1_size, width=width,
                                        placement="free")).cycles


# ----------------------------------------------------------------------
# One definition per figure: a table layout plus a row function
# ----------------------------------------------------------------------
class Experiment:
    """One figure: its table layout and the function that fills one
    benchmark's row.  Calling it on a suite regenerates the whole table."""

    def __init__(self, row: Callable[[Suite, str, ResultTable], None],
                 title: str, columns: Sequence[str], fmt: str = "{:.3f}"):
        self.row = row
        self.name = self.__name__ = row.__name__
        self.__doc__ = row.__doc__
        self.title = title
        self.columns = tuple(columns)
        self.fmt = fmt

    def table(self) -> ResultTable:
        return ResultTable(self.title, self.columns, self.fmt)

    def __call__(self, suite: Suite) -> ResultTable:
        return run_rows(self, suite)


def experiment(title: str, columns: Sequence[str], fmt: str = "{:.3f}"):
    """Decorator: make a row function ``row(suite, bench, table)`` an
    :class:`Experiment`."""
    return lambda row: Experiment(row, title, columns, fmt)


#: The fabric recipe behind parallel figure runs: one figure row.
ROW_RECIPE = "repro.harness.experiments:row"


@recipe(ROW_RECIPE)
def row_task(params: dict) -> dict:
    """One benchmark's row of one figure, as ``{column: value}``.

    Runs the figure's row function on a one-benchmark suite that shares the
    caller's trace-cache root, so a worker reuses (and fills) the same
    content-addressed traces and timing replays as a serial run.
    """
    bench = params["bench"]
    suite = Suite(benchmarks=(bench,), scale=params["scale"], jobs=1,
                  cache=params["cache"], cycle_engine=params["cycle_engine"])
    figure = ALL_EXPERIMENTS[params["experiment"]]
    table = figure.table()
    figure.row(suite, bench, table)
    return table.as_dict()[bench]


def run_rows(figure: Experiment, suite: Suite) -> ResultTable:
    """Regenerate a figure's table, one row per benchmark in
    ``suite.benchmarks`` order.

    With one worker (or one benchmark) the rows run directly on ``suite``,
    sharing its in-memory memos.  Otherwise each row is a
    :data:`ROW_RECIPE` task under a :class:`~repro.fabric.Fabric`.  The
    fabric has no artifact store: its keys are task parameters, so only the
    content-keyed trace cache may persist figure results.
    """
    table = figure.table()
    jobs = resolve_jobs(suite.jobs)
    if jobs <= 1 or len(suite.benchmarks) <= 1:
        for bench in suite.benchmarks:
            figure.row(suite, bench, table)
        return table
    params = {
        "experiment": figure.name,
        "scale": suite.scale,
        "cache": str(suite.cache.root) if suite.cache is not None else None,
        "cycle_engine": suite.cycle_engine,
    }
    tasks = [Task(ROW_RECIPE, dict(params, bench=bench),
                  task_id=f"{figure.name}/{bench}")
             for bench in suite.benchmarks]
    rows = Fabric("figures", params, store=None, jobs=jobs).run(tasks)
    for task in tasks:
        for column, value in rows[task.task_id].items():
            table.set(task.params["bench"], column, value)
    return table


def _at(series: Sequence[str], labels: Sequence[str]):
    """Columns ``series@label``, grouped by label."""
    return [f"{name}@{label}" for label in labels for name in series]


# ----------------------------------------------------------------------
# Figure 6: memory fault isolation
# ----------------------------------------------------------------------
@experiment("Figure 6 (top): MFI execution time, normalized to no-MFI",
            ["rewrite", "DISE4", "DISE4+stall", "DISE4+pipe", "DISE3"])
def fig6_top(suite: Suite, bench: str, table: ResultTable):
    """MFI: rewriting vs DISE4/DISE3 and the engine placement options."""
    base = _baseline_cycles(suite, bench)
    rw = suite.cycles(suite.trace_rewrite(bench),
                      _machine(placement="free"))
    table.set(bench, "rewrite", rw.cycles / base)
    tr4 = suite.trace_mfi(bench, "dise4")
    table.set(bench, "DISE4",
              suite.cycles(tr4, _machine(placement="free")).cycles / base)
    table.set(bench, "DISE4+stall",
              suite.cycles(tr4, _machine(placement="stall")).cycles / base)
    table.set(bench, "DISE4+pipe",
              suite.cycles(tr4, _machine(placement="pipe")).cycles / base)
    tr3 = suite.trace_mfi(bench, "dise3")
    table.set(bench, "DISE3",
              suite.cycles(tr3, _machine(placement="free")).cycles / base)


@experiment("Figure 6 (middle): MFI vs I-cache size, normalized per size",
            _at(("rewrite", "DISE3"), CACHE_LABELS))
def fig6_cache(suite: Suite, bench: str, table: ResultTable):
    """MFI: DISE3 vs rewriting across I-cache sizes."""
    rw_trace = suite.trace_rewrite(bench)
    d3_trace = suite.trace_mfi(bench, "dise3")
    for size, label in zip(CACHE_SIZES, CACHE_LABELS):
        base = _baseline_cycles(suite, bench, il1_size=size)
        rw = suite.cycles(rw_trace, _machine(il1_size=size,
                                             placement="free"))
        d3 = suite.cycles(d3_trace, _machine(il1_size=size))
        table.set(bench, f"rewrite@{label}", rw.cycles / base)
        table.set(bench, f"DISE3@{label}", d3.cycles / base)


@experiment("Figure 6 (bottom): MFI vs processor width, normalized per "
            "width", _at(("rewrite", "DISE3"), [f"{w}w" for w in WIDTHS]))
def fig6_width(suite: Suite, bench: str, table: ResultTable):
    """MFI: DISE3 vs rewriting across processor widths."""
    rw_trace = suite.trace_rewrite(bench)
    d3_trace = suite.trace_mfi(bench, "dise3")
    for width in WIDTHS:
        base = _baseline_cycles(suite, bench, width=width)
        rw = suite.cycles(rw_trace, _machine(width=width,
                                             placement="free"))
        d3 = suite.cycles(d3_trace, _machine(width=width))
        table.set(bench, f"rewrite@{width}w", rw.cycles / base)
        table.set(bench, f"DISE3@{width}w", d3.cycles / base)


# ----------------------------------------------------------------------
# Figure 7: dynamic code decompression
# ----------------------------------------------------------------------
@experiment("Figure 7 (top): static code size / original (and +dictionary)",
            [column for name, _ in FIGURE7_VARIANTS
             for column in (name, f"{name}+d")])
def fig7_ratio(suite: Suite, bench: str, table: ResultTable):
    """Compression ratio stacks for the six feature variants."""
    for name, options in FIGURE7_VARIANTS:
        result = suite.compression(bench, options, name)
        table.set(bench, name, result.text_ratio)
        table.set(bench, f"{name}+d", result.total_ratio)


@experiment("Figure 7 (middle): decompression vs I-cache size "
            "(normalized to uncompressed 32K)",
            _at(("plain", "DISE"), CACHE_LABELS))
def fig7_perf(suite: Suite, bench: str, table: ResultTable):
    """DISE decompression execution time vs I-cache size (perfect RT),
    normalized to the uncompressed 32 KB case."""
    ref = _baseline_cycles(suite, bench, il1_size=32 * KB)
    plain_trace = suite.trace_plain(bench)
    comp_trace = suite.trace_compressed(bench, DISE_OPTIONS, "DISE")
    for size, label in zip(CACHE_SIZES, CACHE_LABELS):
        plain = suite.cycles(plain_trace, _machine(il1_size=size,
                                                   placement="free"))
        comp = suite.cycles(comp_trace, _machine(il1_size=size))
        table.set(bench, f"plain@{label}", plain.cycles / ref)
        table.set(bench, f"DISE@{label}", comp.cycles / ref)


@experiment("Figure 7 (bottom): decompression vs RT configuration "
            "(normalized to uncompressed 32K)",
            ["perfect"] + [label for _, _, label in RT_CONFIGS])
def fig7_rt(suite: Suite, bench: str, table: ResultTable):
    """DISE decompression under realistic RT geometries (30-cycle miss)."""
    ref = _baseline_cycles(suite, bench)
    comp_trace = suite.trace_compressed(bench, DISE_OPTIONS, "DISE")
    table.set(bench, "perfect",
              suite.cycles(comp_trace, _machine()).cycles / ref)
    for entries, assoc, label in RT_CONFIGS:
        config = _machine(rt_entries=entries, rt_assoc=assoc,
                          rt_perfect=False)
        table.set(bench, label,
                  suite.cycles(comp_trace, config).cycles / ref)


# ----------------------------------------------------------------------
# Figure 8: composing decompression and fault isolation
# ----------------------------------------------------------------------
def _composition_machine(scheme: str, **kwargs) -> MachineConfig:
    if scheme == "rewrite+dedicated":
        # Dedicated hardware: free decode placement, dedicated dictionary.
        kwargs.setdefault("placement", "free")
    return _machine(**kwargs)


@experiment("Figure 8 (top): decompression+MFI, normalized to unmodified "
            "32K", _at(COMPOSITION_SCHEMES, CACHE_LABELS), fmt="{:.2f}")
def fig8_perf(suite: Suite, bench: str, table: ResultTable):
    """The three composition schemes across I-cache sizes (perfect RT)."""
    ref = _baseline_cycles(suite, bench)
    for scheme in COMPOSITION_SCHEMES:
        trace = suite.trace_composition(bench, scheme)
        for size, label in zip(CACHE_SIZES, CACHE_LABELS):
            config = _composition_machine(scheme, il1_size=size)
            table.set(bench, f"{scheme}@{label}",
                      suite.cycles(trace, config).cycles / ref)


@experiment("Figure 8 (bottom): composed RT sensitivity, capacity-scaled RT "
            "(normalized to unmodified 32K)",
            [f"{label}@{latency}" for _, _, label in RT_CONFIGS_COMPOSED
             for latency in (30, 150)], fmt="{:.2f}")
def fig8_rt(suite: Suite, bench: str, table: ResultTable):
    """DISE+DISE composition vs RT geometry and miss-handler latency."""
    ref = _baseline_cycles(suite, bench)
    trace = suite.trace_composition(bench, "dise+dise")
    for entries, assoc, label in RT_CONFIGS_COMPOSED:
        for latency in (30, 150):
            config = _machine(
                rt_entries=entries, rt_assoc=assoc, rt_perfect=False,
                compose_miss=latency,
            )
            table.set(bench, f"{label}@{latency}",
                      suite.cycles(trace, config).cycles / ref)


#: Experiment id -> experiment, for the CLI and the benchmark harness.
ALL_EXPERIMENTS = {
    figure.name: figure
    for figure in (fig6_top, fig6_cache, fig6_width, fig7_ratio, fig7_perf,
                   fig7_rt, fig8_perf, fig8_rt)
}


def run_experiment(name: str, benchmarks: Optional[Sequence[str]] = None,
                   scale: float = 1.0, suite: Optional[Suite] = None
                   ) -> ResultTable:
    """Build one figure's table (convenience for examples/CLI)."""
    if suite is None:
        suite = Suite(benchmarks=benchmarks, scale=scale)
    return ALL_EXPERIMENTS[name](suite)
