"""Layer spans for the traced benchmark run.

A :class:`Tracer` wraps the coarse public entry points of each layer
(workload generation, ACF install/rewrite, functional run, cycle Phase A
and B, trace-cache I/O, fabric, faults, serve) where their callers look
the names up, records one span per call — name, start, end, parent — in
memory, and turns the spans into per-layer self times.  Nothing here runs
per instruction: ``Machine.step`` and ``Cache.access`` are never wrapped.

Self time follows the usual definition: a span's duration minus the part
of its interval covered by the union of its children.  Summed over every
span of a pass (the root's residual included) it equals the pass's wall
time exactly when spans nest without overlap; :func:`accounting_error`
checks that, so concurrent or double-counted spans show up as an error
instead of silently inflating a layer.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict

#: (module, attribute path, span name).  Each entry is patched in the
#: module whose globals the callers read, so ``from x import f`` call sites
#: see the wrapper.  ``generate_benchmark`` is patched in the generator
#: module too, which catches every ``generate_by_name`` caller.
PATCHES = (
    ("repro.harness.runner", "generate_benchmark", "workload.generate"),
    ("repro.workloads.generator", "generate_benchmark", "workload.generate"),
    ("repro.harness.runner", "attach_mfi", "acf.mfi"),
    ("repro.harness.runner", "rewrite_mfi", "acf.mfi"),
    ("repro.faults.campaign", "attach_mfi", "acf.mfi"),
    ("repro.serve.session", "attach_mfi", "acf.mfi"),
    ("repro.harness.runner", "compress_image", "acf.compress"),
    ("repro.harness.runner", "build_composition", "acf.compose"),
    ("repro.acf.base", "AcfInstallation.make_machine", "acf.install"),
    ("repro.harness.runner", "machine_trace_key", "harness.key"),
    ("repro.harness.runner", "trace_fingerprint", "harness.key"),
    ("repro.sim.functional", "Machine.run", "sim.functional.run"),
    ("repro.harness.runner", "simulate_trace", "cycle.simulate"),
    ("repro.sim.cycle", "replay_hierarchy", "cycle.phase_a.mem"),
    ("repro.sim.cycle", "replay_control", "cycle.phase_a.ctrl"),
    ("repro.sim.cycle", "replay_rt", "cycle.phase_a.rt"),
    ("repro.harness.trace_cache", "TraceCache.store_trace",
     "trace_cache.store"),
    ("repro.harness.trace_cache", "TraceCache.store_cycles",
     "trace_cache.store"),
    ("repro.harness.trace_cache", "TraceCache.has_trace", "trace_cache.load"),
    ("repro.harness.trace_cache", "TraceCache.load_trace",
     "trace_cache.load"),
    ("repro.harness.trace_cache", "TraceCache.load_cycles",
     "trace_cache.load"),
    ("repro.harness.trace_cache", "LazyTrace.materialize",
     "trace_cache.materialize"),
    ("repro.fabric.engine", "Fabric.run", "fabric.run"),
    ("repro.sim.batch", "BatchMachine.run", "sim.batch.run"),
    ("repro.faults.campaign", "make_fault", "faults.inject"),
    ("repro.faults.campaign", "mutate_image", "faults.inject"),
    ("repro.faults.campaign", "state_mutator", "faults.inject"),
    ("repro.faults.campaign", "profile_sites", "faults.inject"),
    # ``_dispatch`` runs under the server's global lock, so its spans never
    # overlap; time spent queueing for the lock stays in the client's
    # latency (``serve.wait.s``).
    ("repro.serve.server", "ServerCore._dispatch", "serve.handle"),
    ("repro.serve.session", "Session.build_machine", "serve.session.build"),
    ("repro.serve.session", "Session.advance", "serve.session.advance"),
    ("repro.serve.session", "Session.park", "serve.session.park"),
)

#: (fabric recipe, span name).  The fault campaign's per-fault work —
#: ``_drive``'s scalar step loop and the outcome classification — runs
#: inside ``Fabric.run`` through the recipe registry but belongs to the
#: faults layer; its self time joins the campaign residual in
#: ``faults.self.s``.
RECIPES = (("repro.faults.campaign:fault", "faults"),)


# ----------------------------------------------------------------------
# Counters fed from call arguments and results
# ----------------------------------------------------------------------
def _before_run(args):
    return args[0].instructions


def _after_run(tracer, token, args, result):
    tracer.count("sim.functional.instructions",
                 args[0].instructions - token)


def _after_simulate(tracer, token, args, result):
    if result is not None:
        tracer.count("cycle.ops", result.instructions)


def _after_lookup(tracer, token, args, result):
    tracer.count("trace_cache.lookups")
    if result is not None and result is not False:
        tracer.count("trace_cache.hits")


def _after_batch(tracer, token, args, result):
    machine = args[0]
    stats = machine.stats
    tracer.count("sim.batch.retired", machine.occupancy()["retired"])
    tracer.count("sim.batch.compiled_retired", stats["compiled_retired"])
    tracer.count("sim.batch.blocks_compiled", stats["blocks"])
    tracer.count("sim.batch.drains", sum(stats["drains"].values()))


def _dispatch_tag(args):
    return args[1]


#: attribute path -> (before, after, tag) hooks.
HOOKS = {
    "Machine.run": (_before_run, _after_run, None),
    "simulate_trace": (None, _after_simulate, None),
    "TraceCache.has_trace": (None, _after_lookup, None),
    "TraceCache.load_cycles": (None, _after_lookup, None),
    "BatchMachine.run": (None, _after_batch, None),
    "ServerCore._dispatch": (None, None, _dispatch_tag),
}


class Tracer:
    """In-memory span recorder; one per traced process.

    Spans are ``[id, name, start, end, parent, tag]`` lists.  The parent
    is the innermost open span of the calling thread, or the root span
    for calls made on other threads (the server's executor threads).
    """

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.root_id = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched = []
        self._recipes = []

    # -- recording -----------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name, amount=1):
        self.counters[name] += amount

    def open(self, name, tag=None):
        stack = self._stack()
        parent = stack[-1][0] if stack else self.root_id
        record = [next(self._ids), name, time.perf_counter(), None, parent,
                  tag]
        self.spans.append(record)
        stack.append(record)
        return record

    def close(self, record):
        record[3] = time.perf_counter()
        self._stack().pop()

    def start_root(self, name):
        record = self.open(name)
        self.root_id = record[0]
        return record

    def wrap(self, fn, name, hooks=(None, None, None)):
        before, after, tag_of = hooks
        tracer = self

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            record = tracer.open(name, tag_of(args) if tag_of else None)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(record)
                if after is not None:
                    after(tracer, token, args, result)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def _wrap_materialize(self, fn, name):
        """Span only the calls that really deserialize: an already
        materialised ``LazyTrace`` answers every attribute read through
        ``materialize`` too."""
        tracer = self

        def traced(lazy):
            if object.__getattribute__(lazy, "_real") is not None:
                return fn(lazy)
            record = tracer.open(name)
            try:
                return fn(lazy)
            finally:
                tracer.close(record)

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------
    def install(self):
        for module_name, path, name in PATCHES:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if path == "LazyTrace.materialize":
                wrapper = self._wrap_materialize(original, name)
            else:
                wrapper = self.wrap(original, name,
                                    HOOKS.get(path, (None, None, None)))
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, original))
        from repro.fabric.task import get_recipe, register_recipe

        for recipe, name in RECIPES:
            fn, batch_fn = get_recipe(recipe)
            register_recipe(recipe, self.wrap(fn, name),
                            batch_fn and self.wrap(batch_fn, name))
            self._recipes.append((recipe, fn, batch_fn))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        from repro.fabric.task import register_recipe

        while self._recipes:
            register_recipe(*self._recipes.pop())

    def export(self):
        """JSON-ready spans and counters."""
        return {"spans": self.spans, "counters": dict(self.counters)}


# ----------------------------------------------------------------------
# Analysis (runs in the parent on exported spans)
# ----------------------------------------------------------------------
def self_times(spans):
    """``{span id: self seconds}``: duration minus the union of the
    children's intervals, clipped to the parent's."""
    children = defaultdict(list)
    for span_id, _name, start, end, parent, _tag in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for span_id, _name, start, end, _parent, _tag in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span_id] = (end - start) - covered
    return out


def accounting_error(spans, wall):
    """``|sum of all self times - wall| / wall`` for one pass.

    Overlapping siblings, spans outside their parent, or orphaned spans
    make the sum exceed the wall; correct nesting makes them equal."""
    total = sum(self_times(spans).values())
    return abs(total - wall) / wall if wall > 0 else 0.0


def summarize(spans):
    """Per span name: self seconds, total seconds, calls, and per-tag
    durations (for the server's per-op latencies)."""
    selfs = self_times(spans)
    by_name = defaultdict(lambda: {"self": 0.0, "total": 0.0, "calls": 0})
    by_tag = defaultdict(list)
    for span_id, name, start, end, _parent, tag in spans:
        entry = by_name[name]
        entry["self"] += selfs[span_id]
        entry["total"] += end - start
        entry["calls"] += 1
        if tag is not None:
            by_tag[f"{name}:{tag}"].append(end - start)
    return dict(by_name), dict(by_tag)
