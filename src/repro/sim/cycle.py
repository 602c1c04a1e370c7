"""Calibrated superscalar timing model.

Replays a dynamic trace (from :mod:`repro.sim.functional`) under a
:class:`~repro.sim.config.MachineConfig`.  The model is a single in-order
pass with out-of-order issue semantics:

* **Fetch**: up to ``width`` instructions per cycle.  Application-level
  instructions access the I-cache (replacement instructions come from the
  RT and do not); misses stall fetch through the L2/memory hierarchy.
  Taken application branches end the fetch group.
* **DISE engine**: per the placement option (Section 4.1) — ``free`` adds
  nothing; ``stall`` adds one fetch bubble per expansion; ``pipe`` adds one
  cycle to every pipeline refill (the elongated decode pipe).  PT/RT misses
  flush the pipeline and stall for the controller's miss latency (30 cycles
  simple, 150 when the miss handler composes sequences).
* **Dispatch**: bounded by the reorder buffer (an instruction cannot
  dispatch until the instruction ``rob_entries`` older has retired) and by
  reservation-station occupancy.
* **Issue/execute**: an instruction starts when its source registers are
  ready; loads incur the D-cache/L2/memory latency of their access.
* **Control**: conditional branches use a gshare predictor; indirect jumps
  a BTB + return stack.  Mispredictions redirect fetch after the branch
  resolves plus the front-end refill.  Non-trigger replacement branches are
  never predicted (Section 2.2): if taken they pay a refill, and DISE
  internal branches behave the same way.
* **Retire**: in order, ``width`` per cycle; total cycles = last retire.

Absolute cycle counts are not calibrated against the authors' testbed; the
model's purpose is faithful *relative* behaviour across ACF implementations,
cache sizes, widths, and RT configurations.

Two replay engines implement the model, selected by ``REPRO_CYCLE`` (or
the ``engine=`` argument; same resolution order as ``REPRO_DISPATCH``):

* ``reference`` — the original scalar loop: every cache, predictor and RT
  access is a live method call per op.
* ``outcome`` (default) — a decoupled outcome-replay cycle: **Phase A**
  runs per-component passes (:func:`repro.sim.cache.replay_hierarchy`,
  :func:`repro.sim.branch.replay_control`,
  :func:`repro.core.tables.replay_rt`) that emit packed per-op outcome
  columns, each memoized on the trace keyed by *that component's*
  geometry — a Figure-7 RT sweep recomputes only the RT column, a
  placement/width sweep recomputes nothing; **Phase B** is a specialized
  timing kernel consuming only trace columns plus the outcome columns —
  no method calls, no dict membership tests — chunked over event-free
  spans, with NumPy column merges when available.  ``warm_start`` is
  subsumed by two-pass component replays (second-pass outcomes kept).

Every :class:`CycleResult` field, retire-observer callback and telemetry
counter is bit-identical between the engines (pinned by
``tests/test_cycle_engine.py`` and the ``functional_vs_cycle`` oracle,
which runs both).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import (
    PLACEMENT_PIPE,
    PLACEMENT_STALL,
)
from repro.core.tables import ReplacementTable, replay_rt
from repro.isa.opcodes import OPCODE_BY_CODE
from repro.sim.branch import ACT_END_GROUP, BranchPredictor, replay_control
from repro.sim.cache import (
    Cache,
    PerfectCache,
    cache_geometry,
    replay_hierarchy,
)
from repro.sim.config import MachineConfig
from repro.telemetry import registry as _telemetry

try:  # NumPy accelerates the outcome engine's column merges when present.
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None
from repro.sim.trace import (
    CC_CALL,
    CC_COND,
    CC_DISE,
    CC_INDIRECT,
    CC_RET,
    CTRL_SHIFT,
    DEST_SHIFT,
    DISEPC_SHIFT,
    META_FETCH,
    META_MEM,
    META_STORE,
    META_TAKEN,
    META_TARGET,
    META_TRIGGER,
    TraceResult,
)

NUM_REGS = 40

_CC_INDIRECT = (CC_INDIRECT, CC_RET, CC_CALL)

#: Opcode code -> execute latency, for the hot loop's packed-metadata path.
_LAT_BY_CODE = [0] * 256
for _code, _op in OPCODE_BY_CODE.items():
    _LAT_BY_CODE[_code] = _op.latency
del _code, _op


@dataclass
class CycleResult:
    """Timing-model outputs for one trace replay."""

    cycles: int
    instructions: int
    app_instructions: int
    il1_accesses: int
    il1_misses: int
    dl1_accesses: int
    dl1_misses: int
    l2_misses: int
    cond_branches: int
    mispredicts: int
    expansions: int
    expansion_stalls: int
    rt_miss_stalls: int
    pt_miss_stalls: int
    dise_redirects: int

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def il1_miss_rate(self) -> float:
        if not self.il1_accesses:
            return 0.0
        return self.il1_misses / self.il1_accesses


#: Warm-state snapshots kept per trace.  Each figure sweeps a handful of
#: cache/RT geometries per trace, so a small bound keeps memory flat while
#: covering every sweep in the harness.
_WARM_MEMO_LIMIT = 8


def _snap_cache(cache):
    if isinstance(cache, PerfectCache):
        return None
    return [entry_set.copy() for entry_set in cache._sets]


def _restore_cache(snap, cache):
    if snap is not None:
        cache._sets = [entry_set.copy() for entry_set in snap]


def _snapshot_warm(il1, dl1, l2, predictor, rt):
    return (
        _snap_cache(il1), _snap_cache(dl1), _snap_cache(l2),
        bytes(predictor._counters), predictor._history,
        dict(predictor._btb), tuple(predictor._ras),
        {index: entry_set.copy() for index, entry_set in rt._sets.items()},
    )


def _restore_warm(snap, il1, dl1, l2, predictor, rt):
    il1_snap, dl1_snap, l2_snap, counters, history, btb, ras, rt_sets = snap
    _restore_cache(il1_snap, il1)
    _restore_cache(dl1_snap, dl1)
    _restore_cache(l2_snap, l2)
    predictor._counters = bytearray(counters)
    predictor._history = history
    predictor._btb = dict(btb)
    predictor._ras = list(ras)
    rt._sets = {index: entry_set.copy() for index, entry_set in rt_sets.items()}


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------
_ENGINES = ("outcome", "reference")


def resolve_cycle_engine(engine: Optional[str] = None) -> str:
    """Resolve the replay engine: explicit argument > ``REPRO_CYCLE`` >
    the default (``outcome``) — the same resolution order as
    ``REPRO_DISPATCH`` and ``REPRO_BATCH``."""
    if engine is None:
        engine = os.environ.get("REPRO_CYCLE") or "outcome"
    if engine not in _ENGINES:
        raise ValueError(
            f"unknown cycle engine {engine!r}: expected 'outcome' or "
            "'reference'"
        )
    return engine


# ----------------------------------------------------------------------
# Outcome engine: component memos and static columns
# ----------------------------------------------------------------------
#: Outcome columns kept per trace (true LRU, hits refresh recency).  One
#: figure sweeps a handful of geometries per component; the bound covers
#: every component x geometry x warm combination a sweep interleaves.
#: All eight experiments in a row evict only entries they never revisit,
#: so the small per-level IL1/DL1 entries cost no recomputation.
_OUTCOME_MEMO_LIMIT = 24

#: Opcode-code -> latency lookup as a NumPy array (outcome engine merges).
_LAT_NP = _np.array(_LAT_BY_CODE, dtype=_np.int64) if _np is not None else None


def _note_memo(component: str, hit: bool):
    if _telemetry.enabled():
        kind = "hits" if hit else "misses"
        _telemetry.counter(f"cycle.outcome.{component}.{kind}").inc()


def _outcome_memo(trace, key, n_ops, component, build):
    """Bounded per-trace LRU over component outcome columns.

    Entries are keyed by (component, geometry, warm) and carry the column
    length they were computed over, so a live trace whose columns grew
    since the memo was taken recomputes instead of replaying stale
    outcomes.  Memos are transient accelerator state: they live only on
    the in-memory :class:`TraceResult` and never survive serialization.
    """
    memos = trace._outcome_memos
    if memos is None:
        memos = {}
        trace._outcome_memos = memos
    entry = memos.get(key)
    if entry is not None and entry[0] == n_ops:
        memos[key] = memos.pop(key)  # LRU: a hit refreshes recency
        _note_memo(component, True)
        return entry[1]
    _note_memo(component, False)
    value = build()
    if len(memos) >= _OUTCOME_MEMO_LIMIT:
        memos.pop(next(iter(memos)))
    memos[key] = (n_ops, value)
    return value


#: Ready-array layout for the timing kernel: indices 0..NUM_REGS-1 are the
#: architectural registers, NUM_REGS is a write-only discard slot for
#: destination-less ops, and _SRC_NONE is a read-only always-zero slot for
#: absent source operands — both make the kernel's register traffic
#: unconditional.
_DEST_NONE = NUM_REGS
_SRC_NONE = NUM_REGS + 1


class _StaticCols:
    """Config-independent per-op columns derived from the trace once."""

    __slots__ = ("lat", "lat_list", "dest", "src1", "src2", "src3",
                 "exp_list", "rt_events", "pt_miss_count")

    def __init__(self, lat, lat_list, dest, src1, src2, src3, exp_list,
                 rt_events, pt_miss_count):
        #: Base execute latency per op — NumPy int64 array when NumPy is
        #: available (merge path), else the plain list.
        self.lat = lat
        self.lat_list = lat_list
        #: Destination ready-slot index per op (_DEST_NONE when none).
        self.dest = dest
        #: Source ready-slot indices per op (_SRC_NONE when absent).
        self.src1 = src1
        self.src2 = src2
        self.src3 = src3
        #: Expansion events in program order:
        #: (op_index, seq_id, length, pt_miss, composed).
        self.exp_list = exp_list
        #: (seq_id, length) stream for :func:`repro.core.tables.replay_rt`.
        self.rt_events = rt_events
        self.pt_miss_count = pt_miss_count


def _static_columns(trace, n_ops) -> _StaticCols:
    """Materialise (and cache on the trace) the derived static columns."""
    cached = trace._static_cols
    if cached is not None and cached[0] == n_ops:
        return cached[1]
    cols = trace.columns
    meta_col = cols.meta
    if _np is not None and n_ops:
        meta_np = _np.frombuffer(meta_col, dtype=_np.uint64)
        lat = _LAT_NP[(meta_np & 0xFF).astype(_np.intp)]
        lat_list = lat.tolist()
        dest_np = ((meta_np >> DEST_SHIFT) & 0xFF).astype(_np.int64)
        dest = _np.where(dest_np == 0, _DEST_NONE, dest_np - 1).tolist()
        srcs_np = _np.frombuffer(cols.srcs, dtype=_np.uint64)
        src_cols = []
        for shift in (0, 6, 12):
            field = ((srcs_np >> shift) & 63).astype(_np.int64)
            src_cols.append(
                _np.where(field == 0, _SRC_NONE, field - 1).tolist()
            )
        src1, src2, src3 = src_cols
    else:
        lat_by_code = _LAT_BY_CODE
        lat_list = [lat_by_code[meta & 0xFF] for meta in meta_col]
        lat = lat_list
        dest = [0] * len(meta_col)
        for i, meta in enumerate(meta_col):
            d = (meta >> DEST_SHIFT) & 0xFF
            dest[i] = d - 1 if d else _DEST_NONE
        src1 = [_SRC_NONE] * n_ops
        src2 = [_SRC_NONE] * n_ops
        src3 = [_SRC_NONE] * n_ops
        for i, packed in enumerate(cols.srcs):
            f = packed & 63
            if f:
                src1[i] = f - 1
            f = (packed >> 6) & 63
            if f:
                src2[i] = f - 1
            f = (packed >> 12) & 63
            if f:
                src3[i] = f - 1
    exp_list = tuple(
        (i, event[0], event[1], event[2], event[4])
        for i, event in sorted(cols.exp.items())
    )
    rt_events = tuple((seq_id, length) for _, seq_id, length, _, _ in exp_list)
    pt_miss_count = sum(1 for item in exp_list if item[3])
    static = _StaticCols(lat, lat_list, dest, src1, src2, src3, exp_list,
                         rt_events, pt_miss_count)
    trace._static_cols = (n_ops, static)
    return static


class _MergedCols:
    """One configuration's merged replay inputs (memoized per trace).

    Penalties, expansion stalls and control actions folded into three
    flat per-op columns plus the sorted event-index list — everything the
    Phase-B kernel reads.  ``counters`` carries the component statistic
    totals the :class:`CycleResult` reports, so a merged-memo hit skips
    Phase A entirely.
    """

    __slots__ = ("bubbles", "lat", "actions", "events", "counters")

    def __init__(self, bubbles, lat, actions, events, counters):
        self.bubbles = bubbles
        self.lat = lat
        self.actions = actions
        self.events = events
        self.counters = counters


def _publish_cycle_telemetry(result: "CycleResult"):
    """Publish replay counters (both engines, after the replay finishes,
    so the hot loops themselves are untouched)."""
    if not _telemetry.enabled():
        return
    _telemetry.counter("cycle.replays").inc()
    for name, value in (
        ("cycle.cycles", result.cycles),
        ("cycle.instructions", result.instructions),
        ("cycle.il1.accesses", result.il1_accesses),
        ("cycle.il1.misses", result.il1_misses),
        ("cycle.dl1.accesses", result.dl1_accesses),
        ("cycle.dl1.misses", result.dl1_misses),
        ("cycle.l2.misses", result.l2_misses),
        ("cycle.cond_branches", result.cond_branches),
        ("cycle.mispredicts", result.mispredicts),
        ("cycle.expansions", result.expansions),
        ("cycle.stall.expansion", result.expansion_stalls),
        ("cycle.stall.rt_miss", result.rt_miss_stalls),
        ("cycle.stall.pt_miss", result.pt_miss_stalls),
        ("cycle.stall.dise_redirect", result.dise_redirects),
    ):
        if value:
            _telemetry.counter(name).inc(value)


class CycleSimulator:
    """Replays a trace; see the module docstring for the model."""

    def __init__(self, config: Optional[MachineConfig] = None,
                 engine: Optional[str] = None):
        self.config = config or MachineConfig()
        self.engine = resolve_cycle_engine(engine)

    def _warm_signature(self):
        """Everything the warm pass can observe.  Configs differing only in
        placement, width, or window sizes share warmed state."""
        config = self.config
        dise = config.dise
        return (
            repr(config.il1), repr(config.dl1), repr(config.l2),
            repr(config.predictor),
            dise.rt_entries, dise.rt_assoc, dise.rt_perfect,
            dise.rt_block_size,
            config.predict_replacement_branches,
        )

    def _warm(self, trace, il1, dl1, l2, predictor, rt):
        """Replay the trace through the caches, predictor and RT without
        timing.  The warmed state is memoized on the trace per geometry
        signature, so config sweeps (placements, widths, windows) restore
        it by copy instead of re-running the whole pass."""
        signature = self._warm_signature()
        states = trace._warm_states
        if states is None:
            states = trace._warm_states = {}
        snap = states.get(signature)
        if snap is not None:
            # True LRU: a hit refreshes recency, so interleaved sweeps that
            # revisit geometries keep their hot entries instead of evicting
            # them in insertion (FIFO) order.
            states[signature] = states.pop(signature)
            _restore_warm(snap, il1, dl1, l2, predictor, rt)
            return

        il1_access = il1.access
        dl1_access = dl1.access
        l2_access = l2.access
        rt_access = rt.access_sequence
        predict_cond = predictor.predict_and_update
        predict_target = predictor.predict_indirect
        predict_replacement = self.config.predict_replacement_branches
        cols = trace.columns
        pc_col = cols.pc
        meta_col = cols.meta
        mem_col = cols.mem
        tgt_col = cols.target
        exp_map = cols.exp
        for i in range(len(pc_col)):
            meta = meta_col[i]
            pc = pc_col[i]
            if meta & META_FETCH and not il1_access(pc):
                l2_access(pc)
            if i in exp_map:
                event = exp_map[i]
                rt_access(event[0], event[1])
            if meta & META_MEM:
                mem_addr = mem_col[i]
                if meta & META_STORE:
                    dl1_access(mem_addr)
                elif not dl1_access(mem_addr):
                    l2_access(mem_addr)
            cc = (meta >> CTRL_SHIFT) & 0xF
            if not cc:
                continue
            taken = bool(meta & META_TAKEN)
            is_trigger = meta & META_TRIGGER
            if cc == CC_COND:
                if is_trigger:
                    predict_cond(pc, taken)
                elif predict_replacement:
                    predict_cond(
                        pc ^ ((meta >> DISEPC_SHIFT) << 4), taken
                    )
            elif cc in _CC_INDIRECT and is_trigger and meta & META_TARGET:
                predict_target(
                    pc, tgt_col[i],
                    is_return=cc == CC_RET, is_call=cc == CC_CALL,
                    return_addr=pc + 4,
                )
            elif not is_trigger and predict_replacement and taken and \
                    cc != CC_DISE:
                predict_target(
                    pc ^ ((meta >> DISEPC_SHIFT) << 4), tgt_col[i]
                )
        # Reset statistics so the measured pass reports its own counts.
        il1.accesses = il1.misses = 0
        dl1.accesses = dl1.misses = 0
        l2.accesses = l2.misses = 0
        rt.accesses = rt.misses = rt.fills = 0
        predictor.cond_lookups = predictor.cond_mispredicts = 0
        predictor.target_lookups = predictor.target_mispredicts = 0

        if len(states) >= _WARM_MEMO_LIMIT:
            states.pop(next(iter(states)))
        states[signature] = _snapshot_warm(il1, dl1, l2, predictor, rt)

    def simulate(self, trace: TraceResult, warm_start=False,
                 retire_observer=None) -> CycleResult:
        """Replay ``trace``.

        ``warm_start=True`` first replays the trace through the caches,
        predictor and RT without timing, then measures the second pass —
        steady-state behaviour, as in the paper's complete-run numbers
        (our synthetic runs are short enough that cold misses would
        otherwise dominate).  The outcome engine subsumes this with
        two-pass component replays that keep second-pass outcomes.

        ``retire_observer``, when given, is called as ``observer(op,
        retire_time)`` for every op in retirement order *after* the replay
        loop finishes — the ``functional_vs_cycle`` conformance oracle
        hangs off this, and like the telemetry block it costs the hot loop
        nothing.

        Both engines return bit-identical :class:`CycleResult` values,
        observer callbacks and telemetry counters.
        """
        if self.engine == "reference":
            return self._simulate_reference(trace, warm_start,
                                            retire_observer)
        return self._simulate_outcome(trace, warm_start, retire_observer)

    def _simulate_reference(self, trace: TraceResult, warm_start=False,
                            retire_observer=None) -> CycleResult:
        """The original scalar loop: live cache/predictor/RT method calls
        per op.  Kept as the semantics-defining engine the outcome engine
        is pinned against."""
        config = self.config
        cols = trace.columns
        pc_col = cols.pc
        meta_col = cols.meta
        mem_col = cols.mem
        tgt_col = cols.target
        srcs_col = cols.srcs
        exp_map = cols.exp
        n_ops = len(pc_col)
        lat_by_code = _LAT_BY_CODE

        il1 = Cache(config.il1) if config.il1 is not None else PerfectCache()
        dl1 = Cache(config.dl1) if config.dl1 is not None else PerfectCache()
        l2 = Cache(config.l2) if config.l2 is not None else PerfectCache()
        predictor = BranchPredictor(config.predictor)
        # The RT is modelled here, not in the functional pass, so one trace
        # can be replayed under many RT configurations (Figure 7 bottom,
        # Figure 8 bottom).
        rt = ReplacementTable(
            entries=config.dise.rt_entries,
            assoc=config.dise.rt_assoc,
            perfect=config.dise.rt_perfect,
            block_size=config.dise.rt_block_size,
        )

        # Bound-method locals: the replay loops below touch these millions
        # of times, and LOAD_FAST beats the attribute chain.
        il1_access = il1.access
        dl1_access = dl1.access
        l2_access = l2.access
        rt_access = rt.access_sequence
        predict_cond = predictor.predict_and_update
        predict_target = predictor.predict_indirect

        if warm_start:
            self._warm(trace, il1, dl1, l2, predictor, rt)

        width = config.width
        rob_entries = config.rob_entries
        rs_entries = config.rs_entries
        mem_latency = config.mem_latency
        l2_latency = config.l2.hit_latency if config.l2 is not None else 0

        placement = config.dise.placement
        stall_per_expansion = 1 if placement == PLACEMENT_STALL else 0
        refill = config.mispredict_penalty + (
            1 if placement == PLACEMENT_PIPE else 0
        )
        simple_miss = config.dise.simple_miss_cycles
        compose_miss = config.dise.compose_miss_cycles
        predict_replacement = config.predict_replacement_branches

        ready = [0] * NUM_REGS
        retire_times: List[int] = []
        start_times: List[int] = []
        retire_append = retire_times.append
        start_append = start_times.append
        last_retire = 0
        fetch_cycle = 1
        slots_used = 0

        expansions = 0
        expansion_stalls = 0
        rt_miss_stalls = 0
        pt_miss_stalls = 0
        dise_redirects = 0
        mispredicts = 0
        cond_branches = 0
        l2_misses = 0

        for i in range(n_ops):
            meta = meta_col[i]
            pc = pc_col[i]
            # ----------------------------------------------------- fetch
            if meta & META_FETCH:
                if not il1_access(pc):
                    if l2_access(pc):
                        fetch_cycle += l2_latency
                    else:
                        l2_misses += 1
                        fetch_cycle += l2_latency + mem_latency
                    slots_used = 0

            if i in exp_map:
                expansions += 1
                seq_id, length, pt_miss, _, composed = exp_map[i]
                if stall_per_expansion:
                    fetch_cycle += stall_per_expansion
                    expansion_stalls += 1
                    slots_used = 0
                if pt_miss:
                    fetch_cycle += simple_miss + refill
                    pt_miss_stalls += 1
                    slots_used = 0
                if rt_access(seq_id, length):
                    fetch_cycle += (compose_miss if composed else simple_miss)
                    fetch_cycle += refill
                    rt_miss_stalls += 1
                    slots_used = 0

            if slots_used >= width:
                fetch_cycle += 1
                slots_used = 0
            slots_used += 1

            # -------------------------------------------------- dispatch
            dispatch = fetch_cycle
            if i >= rob_entries:
                blocked = retire_times[i - rob_entries]
                if blocked > dispatch:
                    dispatch = blocked
            if i >= rs_entries:
                blocked = start_times[i - rs_entries]
                if blocked > dispatch:
                    dispatch = blocked

            # ---------------------------------------------- issue/execute
            start = dispatch + 1
            packed_srcs = srcs_col[i]
            while packed_srcs:
                t = ready[(packed_srcs & 63) - 1]
                if t > start:
                    start = t
                packed_srcs >>= 6

            latency = lat_by_code[meta & 0xFF]
            if meta & META_MEM:
                mem_addr = mem_col[i]
                if meta & META_STORE:
                    dl1_access(mem_addr)  # stores retire via the store buffer
                else:
                    if not dl1_access(mem_addr):
                        if l2_access(mem_addr):
                            latency += l2_latency
                        else:
                            l2_misses += 1
                            latency += l2_latency + mem_latency
            complete = start + latency

            dest_field = (meta >> DEST_SHIFT) & 0xFF
            if dest_field:
                ready[dest_field - 1] = complete

            # ----------------------------------------------------- control
            cc = (meta >> CTRL_SHIFT) & 0xF
            if cc:
                taken = bool(meta & META_TAKEN)
                if cc == CC_DISE:
                    # Never predicted; a taken DISE branch redirects fetch.
                    if taken:
                        dise_redirects += 1
                        redirect = complete + refill
                        if redirect > fetch_cycle:
                            fetch_cycle = redirect
                            slots_used = 0
                elif not meta & META_TRIGGER:
                    if predict_replacement and cc == CC_COND:
                        # Enhanced design: the predictor learns replacement
                        # branches, indexed by the PC:DISEPC pair.
                        cond_branches += 1
                        if predict_cond(
                            pc ^ ((meta >> DISEPC_SHIFT) << 4), taken
                        ):
                            mispredicts += 1
                            redirect = complete + refill
                            if redirect > fetch_cycle:
                                fetch_cycle = redirect
                                slots_used = 0
                        elif taken:
                            slots_used = width
                    elif predict_replacement and taken:
                        # Unconditional/indirect replacement transfer: the
                        # BTB learns the codeword's PC:DISEPC.
                        if predict_target(
                            pc ^ ((meta >> DISEPC_SHIFT) << 4), tgt_col[i]
                        ):
                            mispredicts += 1
                            redirect = complete + refill
                            if redirect > fetch_cycle:
                                fetch_cycle = redirect
                                slots_used = 0
                        else:
                            slots_used = width
                    elif taken:
                        # Paper's design: prediction suppressed, effectively
                        # predicted not-taken.
                        mispredicts += 1
                        redirect = complete + refill
                        if redirect > fetch_cycle:
                            fetch_cycle = redirect
                            slots_used = 0
                elif cc == CC_COND:
                    cond_branches += 1
                    if predict_cond(pc, taken):
                        mispredicts += 1
                        redirect = complete + refill
                        if redirect > fetch_cycle:
                            fetch_cycle = redirect
                            slots_used = 0
                    elif taken:
                        slots_used = width  # taken branch ends the group
                elif cc in _CC_INDIRECT:
                    if meta & META_TARGET:
                        if predict_target(
                            pc, tgt_col[i],
                            is_return=cc == CC_RET, is_call=cc == CC_CALL,
                            return_addr=pc + 4,
                        ):
                            mispredicts += 1
                            redirect = complete + refill
                            if redirect > fetch_cycle:
                                fetch_cycle = redirect
                                slots_used = 0
                        else:
                            slots_used = width
                    else:
                        slots_used = width

            # ------------------------------------------------------ retire
            retire = complete + 1
            if retire < last_retire:
                retire = last_retire
            if i >= width:
                floor = retire_times[i - width] + 1
                if retire < floor:
                    retire = floor
            retire_append(retire)
            start_append(start)
            last_retire = retire

        cycles = last_retire if n_ops else 0
        result = CycleResult(
            cycles=cycles,
            instructions=n_ops,
            app_instructions=trace.app_instructions,
            il1_accesses=il1.accesses,
            il1_misses=il1.misses,
            dl1_accesses=dl1.accesses,
            dl1_misses=dl1.misses,
            l2_misses=l2_misses,
            cond_branches=cond_branches,
            mispredicts=mispredicts,
            expansions=expansions,
            expansion_stalls=expansion_stalls,
            rt_miss_stalls=rt_miss_stalls,
            pt_miss_stalls=pt_miss_stalls,
            dise_redirects=dise_redirects,
        )
        # Published after the replay loop, so the hot loop itself is
        # untouched (the ≤2% disabled-overhead budget covers setup only).
        _publish_cycle_telemetry(result)
        if retire_observer is not None:
            # Post-loop, like telemetry: the conformance oracle sees the
            # retired-op sequence with its timestamps, zero hot-loop cost.
            # Ops are materialised here only — the replay loop above never
            # builds per-op objects.
            for op, when in zip(trace.ops, retire_times):
                retire_observer(op, when)
        return result

    # ------------------------------------------------------------------
    # Outcome engine
    # ------------------------------------------------------------------
    def _merge_columns(self, trace, static, n_ops, mem_key, ctrl_key, rt_key,
                       pen, stall_per_expansion, refill, simple_miss,
                       compose_miss, warm_start) -> _MergedCols:
        """Phase A + merge: recall (or compute) the per-component outcome
        columns, then fold config penalties into the kernel's flat inputs.

        The result is itself memoized (the ``merged`` component): configs
        differing only in width/window re-enter the kernel directly."""
        config = self.config
        cols = trace.columns
        passes = 2 if warm_start else 1
        dise = config.dise
        hier = _outcome_memo(
            trace, mem_key, n_ops, "mem",
            lambda: replay_hierarchy(
                cols, config.il1, config.dl1, config.l2, passes=passes,
                memo=lambda key, component, build: _outcome_memo(
                    trace, key, n_ops, component, build),
            ),
        )
        ctrl = _outcome_memo(
            trace, ctrl_key, n_ops, "ctrl",
            lambda: replay_control(cols, config.predictor,
                                   config.predict_replacement_branches,
                                   passes=passes),
        )
        rt_flags = _outcome_memo(
            trace, rt_key, n_ops, "rt",
            lambda: replay_rt(static.rt_events, entries=dise.rt_entries,
                              assoc=dise.rt_assoc, perfect=dise.rt_perfect,
                              block_size=dise.rt_block_size, passes=passes),
        )

        actions = ctrl.actions
        if _np is not None and n_ops:
            codes_np = _np.frombuffer(hier.codes, dtype=_np.uint8)
            actions_np = _np.frombuffer(actions, dtype=_np.uint8)
            pen_np = _np.array(pen, dtype=_np.int64)
            fetch_codes = codes_np & 3
            lat_list = (static.lat + pen_np[(codes_np >> 2) & 3]).tolist()
            bubbles = _np.where(
                fetch_codes != 0, (pen_np[fetch_codes] << 1) | 1, 0
            ).tolist()
            event_idx = _np.flatnonzero(
                (fetch_codes != 0) | (actions_np != 0)
            ).tolist()
        else:
            codes = hier.codes
            base_lat = static.lat_list
            lat_list = [0] * n_ops
            bubbles = [0] * n_ops
            event_idx = []
            event_append = event_idx.append
            for i in range(n_ops):
                code = codes[i]
                lat_list[i] = base_lat[i] + pen[(code >> 2) & 3]
                fc = code & 3
                if fc:
                    bubbles[i] = (pen[fc] << 1) | 1
                    event_append(i)
                elif actions[i]:
                    event_append(i)

        # Expansion stalls fold into the bubble column.  ``fired`` (not
        # ``add``) decides the fetch-group reset: the reference engine
        # zeroes the slot counter whenever a stall source fires, even if
        # its configured penalty is zero.
        expansion_stalls = 0
        rt_miss_stalls = 0
        exp_events = []
        for j, (i, _seq_id, _length, pt_miss, composed) in enumerate(
                static.exp_list):
            add = 0
            fired = False
            if stall_per_expansion:
                add += stall_per_expansion
                expansion_stalls += 1
                fired = True
            if pt_miss:
                add += simple_miss + refill
                fired = True
            if rt_flags[j]:
                add += (compose_miss if composed else simple_miss) + refill
                rt_miss_stalls += 1
                fired = True
            if fired:
                bubbles[i] = (((bubbles[i] >> 1) + add) << 1) | 1
                exp_events.append(i)
        if exp_events:
            event_idx = sorted(set(event_idx).union(exp_events))
        return _MergedCols(
            bubbles, lat_list, actions, tuple(event_idx),
            (hier.il1_accesses, hier.il1_misses, hier.dl1_accesses,
             hier.dl1_misses, hier.l2_misses, ctrl.cond_branches,
             ctrl.mispredicts, ctrl.dise_redirects, expansion_stalls,
             rt_miss_stalls),
        )

    def _simulate_outcome(self, trace: TraceResult, warm_start=False,
                          retire_observer=None) -> CycleResult:
        """Decoupled outcome-replay cycle.

        **Phase A** runs (or recalls from the per-trace memo) one outcome
        pass per component — {IL1, DL1, L2} hierarchy, branch predictor,
        physical RT — each keyed by *that component's* geometry alone.
        The columns hold outcome *codes*, not penalties, so they are also
        shared across latency changes; penalties are applied at merge time
        from the active config.  ``warm_start`` runs each component pass
        twice, keeping second-pass outcomes.

        **Phase B** merges the outcome columns into per-op ``bubbles``
        (front-end stall cycles, low bit = "reset the fetch group") and
        effective latencies — NumPy-vectorised when available — then runs
        a specialized timing kernel chunked over event-free spans: the
        span body touches only plain lists and ints (no method calls, no
        dict membership tests); bubble/action handling is confined to the
        event indices.
        """
        config = self.config
        cols = trace.columns
        n_ops = len(cols.pc)
        static = _static_columns(trace, n_ops)
        dise = config.dise

        width = config.width
        rob_entries = config.rob_entries
        rs_entries = config.rs_entries
        l2_latency = config.l2.hit_latency if config.l2 is not None else 0
        pen = (0, l2_latency, l2_latency + config.mem_latency, 0)
        placement = dise.placement
        stall_per_expansion = 1 if placement == PLACEMENT_STALL else 0
        refill = config.mispredict_penalty + (
            1 if placement == PLACEMENT_PIPE else 0
        )
        simple_miss = dise.simple_miss_cycles
        compose_miss = dise.compose_miss_cycles

        pred = config.predictor
        predict_replacement = config.predict_replacement_branches
        mem_key = ("mem", cache_geometry(config.il1),
                   cache_geometry(config.dl1), cache_geometry(config.l2),
                   warm_start)
        ctrl_key = ("ctrl", pred.gshare_bits, pred.btb_entries,
                    pred.ras_entries, predict_replacement, warm_start)
        rt_key = ("rt", dise.rt_entries, dise.rt_assoc, dise.rt_perfect,
                  dise.rt_block_size, warm_start)

        merged = _outcome_memo(
            trace,
            ("merged", mem_key, ctrl_key, rt_key, pen, stall_per_expansion,
             refill, simple_miss, compose_miss),
            n_ops, "merged",
            lambda: self._merge_columns(
                trace, static, n_ops, mem_key, ctrl_key, rt_key, pen,
                stall_per_expansion, refill, simple_miss, compose_miss,
                warm_start,
            ),
        )
        bubbles = merged.bubbles
        lat_list = merged.lat
        actions = merged.actions
        expansions = len(static.exp_list)
        (il1_accesses, il1_misses, dl1_accesses, dl1_misses, l2_misses,
         cond_branches, mispredicts, dise_redirects, expansion_stalls,
         rt_miss_stalls) = merged.counters

        # ------------------------------------------------- timing kernel
        # Time arrays are prepadded with zeros so the ROB/RS window reads
        # and the retire-width floor never need an ``i >= window`` bounds
        # branch: below the window the padding zero is read, and a zero
        # lower bound never binds (dispatch >= 1, retire >= 3).
        src1 = static.src1
        src2 = static.src2
        src3 = static.src3
        dest = static.dest
        # _DEST_NONE discards destination-less writes; _SRC_NONE stays zero
        # so absent-operand reads never bind.
        ready = [0] * (NUM_REGS + 2)
        pad = rob_entries if rob_entries > width else width
        if rs_entries > pad:
            pad = rs_entries
        times = [0] * (pad + n_ops)       # retire times, written at i + pad
        starts = [0] * (pad + n_ops)      # start times, written at i + pad
        rob_base = pad - rob_entries      # window read: times[i + rob_base]
        rs_base = pad - rs_entries        # window read: starts[i + rs_base]
        floor_base = pad - width          # floor read: times[i + floor_base]
        last_retire = 0
        fetch_cycle = 1
        slots_used = 0

        pos = 0
        event_idx = list(merged.events)
        event_idx.append(n_ops)  # sentinel: final event-free span
        for ev in event_idx:
            # Event-free span [pos, ev): no front-end bubbles, no control
            # actions — just slots, windows, operands, and retire order.
            for i in range(pos, ev):
                if slots_used >= width:
                    fetch_cycle += 1
                    slots_used = 0
                slots_used += 1

                dispatch = fetch_cycle
                blocked = times[i + rob_base]
                if blocked > dispatch:
                    dispatch = blocked
                blocked = starts[i + rs_base]
                if blocked > dispatch:
                    dispatch = blocked

                start = dispatch + 1
                t = ready[src1[i]]
                if t > start:
                    start = t
                t = ready[src2[i]]
                if t > start:
                    start = t
                t = ready[src3[i]]
                if t > start:
                    start = t
                complete = start + lat_list[i]
                ready[dest[i]] = complete

                retire = complete + 1
                if retire < last_retire:
                    retire = last_retire
                floor = times[i + floor_base] + 1
                if retire < floor:
                    retire = floor
                times[i + pad] = retire
                starts[i + pad] = start
                last_retire = retire
            if ev == n_ops:
                break

            # Event op: front-end bubble and/or control action.
            i = ev
            bubble = bubbles[i]
            if bubble:
                fetch_cycle += bubble >> 1
                slots_used = 0
            if slots_used >= width:
                fetch_cycle += 1
                slots_used = 0
            slots_used += 1

            dispatch = fetch_cycle
            blocked = times[i + rob_base]
            if blocked > dispatch:
                dispatch = blocked
            blocked = starts[i + rs_base]
            if blocked > dispatch:
                dispatch = blocked

            start = dispatch + 1
            t = ready[src1[i]]
            if t > start:
                start = t
            t = ready[src2[i]]
            if t > start:
                start = t
            t = ready[src3[i]]
            if t > start:
                start = t
            complete = start + lat_list[i]
            ready[dest[i]] = complete

            act = actions[i]
            if act:
                if act == ACT_END_GROUP:
                    slots_used = width  # taken transfer ends the group
                else:  # mispredict or DISE redirect
                    redirect = complete + refill
                    if redirect > fetch_cycle:
                        fetch_cycle = redirect
                        slots_used = 0

            retire = complete + 1
            if retire < last_retire:
                retire = last_retire
            floor = times[i + floor_base] + 1
            if retire < floor:
                retire = floor
            times[i + pad] = retire
            starts[i + pad] = start
            last_retire = retire
            pos = ev + 1

        result = CycleResult(
            cycles=last_retire if n_ops else 0,
            instructions=n_ops,
            app_instructions=trace.app_instructions,
            il1_accesses=il1_accesses,
            il1_misses=il1_misses,
            dl1_accesses=dl1_accesses,
            dl1_misses=dl1_misses,
            l2_misses=l2_misses,
            cond_branches=cond_branches,
            mispredicts=mispredicts,
            expansions=expansions,
            expansion_stalls=expansion_stalls,
            rt_miss_stalls=rt_miss_stalls,
            pt_miss_stalls=static.pt_miss_count,
            dise_redirects=dise_redirects,
        )
        _publish_cycle_telemetry(result)
        if retire_observer is not None:
            for op, when in zip(trace.ops, times[pad:]):
                retire_observer(op, when)
        return result


def simulate_trace(trace: TraceResult,
                   config: Optional[MachineConfig] = None,
                   warm_start=False, retire_observer=None,
                   engine: Optional[str] = None) -> CycleResult:
    """Convenience wrapper around :class:`CycleSimulator`."""
    return CycleSimulator(config, engine=engine).simulate(
        trace, warm_start=warm_start, retire_observer=retire_observer)
