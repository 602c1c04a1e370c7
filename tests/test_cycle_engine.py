"""Equality and memo tests for the two timing-replay engines.

The outcome engine (``REPRO_CYCLE=outcome``, the default) must be
bit-identical to the reference scalar loop for every ``CycleResult``
field, every retire-observer callback, and every published telemetry
counter — across the full 12-profile config grid the figures sweep
(placements, widths, RT geometries, perfect/real caches, warm/cold).
The memo tests pin the accelerator state's lifecycle: component columns
are reused across config sweeps, never serialized, and the reference
engine's warm-state memo evicts in true LRU order.  A seeded property
test pins ``replay_hierarchy`` against a per-access ``Cache`` loop.
"""

import dataclasses
import random

import pytest

import repro.sim.cache
import repro.sim.cycle
from repro.core.config import DiseConfig
from repro.harness.trace_cache import deserialize_trace, serialize_trace
from repro.sim.cache import (
    FETCH_L2_HIT,
    FETCH_L2_MISS,
    MEM_SHIFT,
    Cache,
    CacheConfig,
    PerfectCache,
    replay_hierarchy,
)
from repro.sim.config import (
    KB,
    MachineConfig,
    dl1_config,
    il1_config,
    l2_config,
)
from repro.sim.cycle import (
    CycleSimulator,
    resolve_cycle_engine,
    simulate_trace,
)
from repro.sim.trace import META_FETCH, META_MEM, META_STORE, OpColumns
from repro.telemetry import registry as _telemetry
from repro.workloads.generator import generate_benchmark
from repro.workloads.specint import BENCHMARK_NAMES, get_profile

SCALE = 0.1


@pytest.fixture(scope="module")
def traces():
    """One MFI trace per SPECint profile, scaled down for test runtime."""
    from repro.acf.mfi import attach_mfi

    out = {}
    for bench in BENCHMARK_NAMES:
        image = generate_benchmark(get_profile(bench), scale=SCALE)
        out[bench] = attach_mfi(image, "dise4").run()
    return out


def config_grid():
    """The axes the figures sweep: placements, widths, RT geometries,
    perfect/real caches."""
    base = MachineConfig()
    grid = [("base", base)]
    for placement in ("free", "stall", "pipe"):
        grid.append((f"placement-{placement}",
                     MachineConfig(dise=DiseConfig(placement=placement))))
    for width in (2, 8):
        grid.append((f"width-{width}", base.with_changes(width=width)))
    grid.append(("rt-tiny", MachineConfig(
        dise=DiseConfig(placement="pipe", rt_entries=4, rt_assoc=1))))
    grid.append(("rt-perfect", MachineConfig(
        dise=DiseConfig(placement="pipe", rt_perfect=True))))
    grid.append(("il1-4k", base.with_il1_size(4 * KB)))
    grid.append(("perfect-caches", base.with_changes(
        il1=None, dl1=None, l2=None)))
    return grid


def cache_grid():
    """Every cache ladder point: the Figure 6 IL1 ladder, a DL1 ladder,
    associativities, line sizes, perfect levels and a tiny L2 (where the
    I/D interleave of L2 traffic decides the outcome)."""
    base = MachineConfig()
    grid = [(f"il1-{size}", base.with_il1_size(size))
            for size in (8 * KB, 32 * KB, 128 * KB, None)]
    grid += [(f"dl1-{size}", base.with_changes(dl1=dl1_config(size)))
             for size in (8 * KB, 128 * KB)]
    for assoc in (1, 4, 8, 512):  # 512 ways: fully associative at 32K
        grid.append((f"il1-assoc-{assoc}", base.with_changes(
            il1=CacheConfig(32 * KB, assoc, 64, name="il1"))))
    for line in (32, 128):
        grid.append((f"lines-{line}", base.with_changes(
            il1=CacheConfig(8 * KB, 2, line, name="il1"),
            dl1=CacheConfig(8 * KB, 2, line, name="dl1"),
            l2=CacheConfig(256 * KB, 4, line, 12, name="l2"))))
    grid.append(("perfect-dl1", base.with_changes(
        il1=il1_config(8 * KB), dl1=None)))
    grid.append(("perfect-l2", base.with_changes(
        il1=il1_config(8 * KB), dl1=dl1_config(8 * KB), l2=None)))
    grid.append(("tiny-l2", base.with_changes(
        il1=CacheConfig(2 * KB, 1, 64, name="il1"),
        dl1=CacheConfig(2 * KB, 2, 64, name="dl1"),
        l2=l2_config(8 * KB))))
    return grid


def result_fields(result):
    return {f.name: getattr(result, f.name)
            for f in dataclasses.fields(result)}


def assert_identical(trace, config, warm_start):
    ref = simulate_trace(trace, config, warm_start=warm_start,
                         engine="reference")
    out = simulate_trace(trace, config, warm_start=warm_start,
                         engine="outcome")
    ref_fields = result_fields(ref)
    out_fields = result_fields(out)
    diffs = {name: (ref_fields[name], out_fields[name])
             for name in ref_fields if ref_fields[name] != out_fields[name]}
    assert not diffs, (config, warm_start, diffs)


class TestEngineResolution:
    def test_default_is_outcome(self, monkeypatch):
        monkeypatch.delenv("REPRO_CYCLE", raising=False)
        assert resolve_cycle_engine() == "outcome"

    def test_env_selects(self, monkeypatch):
        monkeypatch.setenv("REPRO_CYCLE", "reference")
        assert resolve_cycle_engine() == "reference"

    def test_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CYCLE", "reference")
        assert resolve_cycle_engine("outcome") == "outcome"

    def test_invalid_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_cycle_engine("speculative")
        monkeypatch.setenv("REPRO_CYCLE", "speculative")
        with pytest.raises(ValueError):
            resolve_cycle_engine()

    def test_simulator_resolves(self):
        assert CycleSimulator(engine="reference").engine == "reference"
        assert CycleSimulator().engine == resolve_cycle_engine()


class TestConfigGridEquality:
    """Every CycleResult field identical, per profile, over the grid."""

    @pytest.mark.parametrize("bench", BENCHMARK_NAMES)
    def test_profile_grid(self, traces, bench):
        trace = traces[bench]
        for _label, config in config_grid():
            assert_identical(trace, config, warm_start=True)

    def test_cold_replays(self, traces):
        trace = traces["mcf"]
        for _label, config in config_grid():
            assert_identical(trace, config, warm_start=False)

    @pytest.mark.parametrize("bench", ["mcf", "gcc"])
    @pytest.mark.parametrize("warm_start", [True, False])
    def test_cache_ladders(self, traces, bench, warm_start):
        trace = traces[bench]
        for _label, config in cache_grid():
            assert_identical(trace, config, warm_start=warm_start)

    def test_pure_python_fallback(self, traces, monkeypatch):
        """With NumPy hidden, the static-column, merge and hierarchy
        fallbacks build the same results from scratch."""
        monkeypatch.setattr(repro.sim.cycle, "_np", None)
        monkeypatch.setattr(repro.sim.cache, "_np", None)
        grid = dict(config_grid() + cache_grid())
        # A fresh copy carries no memo built on the NumPy path.
        trace = deserialize_trace(serialize_trace(traces["gzip"]))
        for label in ("base", "placement-stall", "perfect-caches", "il1-8192",
                      "lines-32", "perfect-dl1", "perfect-l2", "tiny-l2"):
            for warm_start in (True, False):
                assert_identical(trace, grid[label], warm_start)
        assert trace._static_cols is not None

    def test_observer_and_telemetry_identical(self, traces):
        trace = traces["gcc"]
        config = MachineConfig(dise=DiseConfig(placement="stall"))
        streams = {}
        counters = {}
        for engine in ("reference", "outcome"):
            retired = []
            with _telemetry.enabled_scope(True):
                before = _telemetry.snapshot()
                simulate_trace(
                    trace, config, warm_start=True,
                    retire_observer=lambda op, t: retired.append(
                        (op.pc, t)),
                    engine=engine)
                delta = _telemetry.snapshot_delta(before,
                                                  _telemetry.snapshot())
            streams[engine] = retired
            counters[engine] = {k: v for k, v in delta.items()
                                if k.startswith("cycle.")
                                and not k.startswith("cycle.outcome.")}
        assert streams["reference"] == streams["outcome"]
        assert counters["reference"] == counters["outcome"]


def counter_value(delta, name):
    entry = delta.get(name)
    return entry["value"] if entry else 0


class TestOutcomeMemos:
    def test_sweep_reuses_component_columns(self, traces):
        """A placement/width sweep recomputes nothing after the first
        replay; an RT-geometry sweep recomputes only the RT column."""
        trace = traces["mcf"]
        base = MachineConfig()
        with _telemetry.enabled_scope(True):
            simulate_trace(trace, base, warm_start=True, engine="outcome")

            def delta_for(config):
                before = _telemetry.snapshot()
                simulate_trace(trace, config, warm_start=True,
                               engine="outcome")
                return _telemetry.snapshot_delta(before,
                                                 _telemetry.snapshot())

            sweep = delta_for(MachineConfig(
                dise=DiseConfig(placement="stall")))
            # Same components, different placement: every Phase A column
            # is a memo hit.
            for component in ("mem", "ctrl", "rt"):
                assert counter_value(
                    sweep, f"cycle.outcome.{component}.misses"
                ) == 0, (component, sweep)
            rt_sweep = delta_for(MachineConfig(
                dise=DiseConfig(rt_entries=64, rt_assoc=1)))
            assert counter_value(rt_sweep, "cycle.outcome.rt.misses") == 1
            assert counter_value(rt_sweep, "cycle.outcome.mem.misses") == 0
            assert counter_value(rt_sweep, "cycle.outcome.ctrl.misses") == 0

    def test_il1_ladder_replays_dl1_once(self, traces):
        """The Figure 6 cache ladder misses the per-level memo once for
        DL1 and once per IL1 point."""
        trace = deserialize_trace(serialize_trace(traces["parser"]))
        base = MachineConfig()
        with _telemetry.enabled_scope(True):
            before = _telemetry.snapshot()
            for size in (8 * KB, 32 * KB, 128 * KB, None):
                simulate_trace(trace, base.with_il1_size(size),
                               warm_start=True, engine="outcome")
            delta = _telemetry.snapshot_delta(before, _telemetry.snapshot())
        assert counter_value(delta, "cycle.outcome.dl1.misses") == 1
        assert counter_value(delta, "cycle.outcome.dl1.hits") == 3
        assert counter_value(delta, "cycle.outcome.il1.misses") == 4
        assert counter_value(delta, "cycle.outcome.mem.misses") == 4

    def test_memos_are_transient_across_serialization(self, traces):
        """An RDTC3 round-trip carries no memo state and recomputes
        correctly."""
        trace = traces["vortex"]
        config = MachineConfig()
        original = simulate_trace(trace, config, warm_start=True,
                                  engine="outcome")
        assert trace._outcome_memos, "outcome replay left no memo state"
        assert trace._static_cols is not None
        restored = deserialize_trace(serialize_trace(trace))
        assert restored._outcome_memos is None
        assert restored._static_cols is None
        assert restored._warm_states is None
        replayed = simulate_trace(restored, config, warm_start=True,
                                  engine="outcome")
        assert result_fields(replayed) == result_fields(original)


class TestWarmMemoLRU:
    def test_interleaved_sweep_keeps_hot_entry(self, traces):
        """An 8+1-geometry interleaved sweep keeps the hot geometry
        resident: hits refresh recency, so the 9 cold geometries evict
        each other instead of the entry every other replay touches."""
        from repro.sim.cycle import _WARM_MEMO_LIMIT

        trace = traces["gzip"]
        hot = MachineConfig()
        hot_signature = CycleSimulator(hot)._warm_signature()
        cold = [hot.with_il1_size((4 + i) * KB)
                for i in range(_WARM_MEMO_LIMIT + 1)]
        assert len({CycleSimulator(c)._warm_signature() for c in cold}
                   | {hot_signature}) == _WARM_MEMO_LIMIT + 2

        simulate_trace(trace, hot, warm_start=True, engine="reference")
        for config in cold:
            simulate_trace(trace, config, warm_start=True,
                           engine="reference")
            # The interleaved hot replay must hit the memo every time.
            states = trace._warm_states
            assert hot_signature in states
            simulate_trace(trace, hot, warm_start=True, engine="reference")
        assert hot_signature in trace._warm_states
        assert len(trace._warm_states) <= _WARM_MEMO_LIMIT


def oracle_hierarchy(columns, il1_config, dl1_config, l2_config, passes):
    """The per-access definition of :func:`replay_hierarchy`: one
    ``Cache.access`` call per access, fetch before data within an op."""
    def make(config):
        return Cache(config) if config is not None else PerfectCache()

    il1, dl1, l2 = make(il1_config), make(dl1_config), make(l2_config)
    codes = bytearray(len(columns.pc))
    for _ in range(passes):
        for cache in (il1, dl1, l2):
            cache.accesses = cache.misses = 0
        for i, meta in enumerate(columns.meta):
            code = 0
            if meta & META_FETCH and not il1.access(columns.pc[i]):
                code = FETCH_L2_HIT if l2.access(columns.pc[i]) \
                    else FETCH_L2_MISS
            if meta & META_MEM:
                addr = columns.mem[i]
                if not dl1.access(addr) and not meta & META_STORE:
                    code |= (FETCH_L2_HIT if l2.access(addr)
                             else FETCH_L2_MISS) << MEM_SHIFT
            codes[i] = code
    return (bytes(codes), il1.accesses, il1.misses, dl1.accesses,
            dl1.misses, l2.misses)


def random_columns(rng):
    """A short random op stream over few lines: conflicts, store misses
    and same-line runs, often opening on the line it closes on so runs
    cross the warm-start pass boundary."""
    columns = OpColumns()
    n = rng.randint(1, 250)
    lines = [rng.randrange(64) for _ in range(12)]
    pc = mem = 0
    for _ in range(n):
        meta = 0
        if rng.random() < 0.8:
            meta |= META_FETCH
            if rng.random() < 0.6:
                pc = rng.choice(lines) * 128 + rng.randrange(32) * 4
        if rng.random() < 0.5:
            meta |= META_MEM
            if rng.random() < 0.4:
                meta |= META_STORE
            if rng.random() < 0.6:
                mem = rng.choice(lines) * 128 + rng.randrange(16) * 8
        columns.pc.append(pc)
        columns.meta.append(meta)
        columns.mem.append(mem)
    if rng.random() < 0.5:  # close on the opening lines
        columns.pc.append(columns.pc[0])
        columns.mem.append(columns.mem[0])
        columns.meta.append(META_FETCH | META_MEM)
    return columns


def random_cache(rng, name):
    if rng.random() < 0.15:
        return None
    line = rng.choice((16, 32, 64, 128))
    assoc = rng.choice((1, 2, 3, 4, 8))
    sets = rng.choice((1, 2, 3, 4, 8))
    return CacheConfig(line * assoc * sets, assoc, line, name=name)


class TestReplayHierarchyProperty:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_per_access_cache_loop(self, seed, monkeypatch):
        rng = random.Random(seed)
        columns = random_columns(rng)
        levels = [random_cache(rng, name) for name in ("il1", "dl1", "l2")]
        if seed % 3 == 0:  # the pure-Python path, on a third of the seeds
            monkeypatch.setattr(repro.sim.cache, "_np", None)
        for passes in (1, 2):
            out = replay_hierarchy(columns, *levels, passes=passes)
            got = (out.codes, out.il1_accesses, out.il1_misses,
                   out.dl1_accesses, out.dl1_misses, out.l2_misses)
            assert got == oracle_hierarchy(columns, *levels, passes), (
                seed, levels, passes)
