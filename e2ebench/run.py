"""End-to-end benchmark of the DISE reproduction, split by layer.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload fig6_all12 --seed 2003 \\
        --seconds 20 --trace 0 [--out result.json]

``--workload all`` runs every workload in turn.  Each workload runs
*pairs* of passes — a cold pass over empty cache/store roots, then a warm
pass over the roots it filled — every pass in a fresh interpreter
(``passes.py``), and repeats pairs while ``--seconds`` allows (at least
one).  ``serve_steps`` instead starts ``repro-cli serve`` and drives it
from two closed-loop TCP clients; its cold and warm passes are the first
and second round of the same session mix against one server.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs an untraced and a traced pair and reports the
per-layer metrics of the traced one (see ``layers.py``), its accounting
check and the tracing overhead.  Every line but the last is for people;
the last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when any output
gate fails.

``setup_s``, ``cold_s`` and ``warm_s`` are host-normalised seconds: a
sampler process (``sampler.py``) times a fixed burst beside the passes,
and each interval's wall time is scaled by how fast the host ran during
it (see ``NOMINAL_BURST_S``).  The raw wall medians are printed next to
them.

The workload seed reaches only the generated inputs: the data segment
of the figure workloads' images, the fault campaign's seed, and the order
of the served session mix.  ``rationale.json`` records why each workload
and metric exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"

DEFAULT_SEED = 2003
HELD_OUT_SEED = 7

#: Upper bound on one run (a run must end within 180 s).
RUN_DEADLINE_S = 170.0
#: Set-up probes per run, on top of the set-up each pass reports.
SETUP_PROBES = 3

ALL12 = ("bzip2", "crafty", "eon", "gap", "gcc", "gzip", "mcf", "parser",
         "perlbmk", "twolf", "vortex", "vpr")
FIG6 = ("fig6_top", "fig6_cache", "fig6_width")
ALL8 = FIG6 + ("fig7_ratio", "fig7_perf", "fig7_rt", "fig8_perf", "fig8_rt")

WORKLOADS = {
    "fig6_all12": {"kind": "figures", "benchmarks": ALL12, "scale": 0.05,
                   "experiments": FIG6},
    "figs_small2": {"kind": "figures", "benchmarks": ("bzip2", "mcf"),
                    "scale": 0.05, "experiments": ALL8},
    "faults": {"kind": "faults",
               "benchmarks": ("bzip2", "mcf", "parser", "twolf"),
               "scale": 0.05, "faults": 200, "batch": 8, "warm_passes": 5},
    "serve_steps": {"kind": "serve",
                    "benchmarks": ("gzip", "bzip2", "mcf", "parser"),
                    "acfs": ("plain", "dise3"), "scale": 0.05,
                    "copies": 4, "clients": 2, "live": 2, "steps": 2000,
                    "pool": 2},
}

#: ``--tiny`` sizes: one profile, 20 faults, a few dozen step requests.
TINY = {
    "fig6_all12": {"benchmarks": ("mcf",), "experiments": ("fig6_top",)},
    "figs_small2": {"benchmarks": ("mcf",),
                    "experiments": ("fig7_rt", "fig8_rt")},
    "faults": {"benchmarks": ("mcf",), "faults": 20},
    "serve_steps": {"benchmarks": ("mcf",), "copies": 1},
}

E2E_UNITS = {"setup_s": "s", "cold_s": "s", "warm_s": "s",
             "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "workload.generate.s": "s",
    "acf.mfi.s": "s",
    "acf.install.s": "s",
    "acf.compress.s": "s",
    "acf.compose.s": "s",
    "harness.key.s": "s",
    "harness.self.s": "s",
    "sim.functional.run.s": "s",
    "sim.functional.run.calls": "count",
    "sim.functional.minstr_per_s": "Minstr/s",
    "cycle.simulate.calls": "count",
    "cycle.phase_a.mem.s": "s",
    "cycle.phase_a.ctrl.s": "s",
    "cycle.phase_a.rt.s": "s",
    "cycle.phase_b.s": "s",
    "cycle.mops_per_s": "Mops/s",
    "cycle.phase_a.replays_per_simulate": "ratio",
    "trace_cache.store.s": "s",
    "trace_cache.store.mb": "MB",
    "trace_cache.load.s": "s",
    "trace_cache.hit_frac": "ratio",
    "trace_cache.materialize.calls": "count",
    "sim.batch.run.s": "s",
    "sim.batch.compiled_frac": "ratio",
    "sim.batch.blocks_compiled": "count",
    "sim.batch.drains": "count",
    "fabric.run.s": "s",
    "faults.inject.s": "s",
    "faults.self.s": "s",
    "serve.handle.s": "s",
    "serve.wait.s": "s",
    "serve.session.build.s": "s",
    "serve.session.build.calls": "count",
    "serve.session.advance.s": "s",
    "serve.session.park.s": "s",
    "serve.session.park.calls": "count",
    "serve.self.s": "s",
    "serve.op.open_session.p50_ms": "ms",
    "serve.op.step.p50_ms": "ms",
    "serve.op.result.p50_ms": "ms",
    "serve.op.close_session.p50_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.accounting_err_frac": "ratio",
}

#: Host-speed normalisation.  The shared hosts this runs on change speed
#: by tens of percent over minutes, moving every pass together.
#: ``sampler.py`` runs beside the passes and times a fixed burst every
#: 50 ms; a timed interval is reported as its wall time scaled by
#: ``NOMINAL_BURST_S / median(bursts inside the interval)`` — seconds on a
#: host where the burst takes ``NOMINAL_BURST_S`` (its median beside a
#: running pass on the 2-vCPU VM this benchmark was built on).  Intervals
#: holding fewer than ``MIN_BURSTS`` bursts (set-up) use the median of all
#: bursts taken inside any timed interval.  Raw wall times are printed
#: alongside.
NOMINAL_BURST_S = 0.0004
MIN_BURSTS = 5

#: Largest tolerated gap between summed self times and pass wall time.
ACCOUNTING_LIMIT = 0.05

#: Inherited variables that would change what a pass does.  Every
#: ``REPRO_*`` variable is dropped; passes get only what their workload
#: defines (the default ``~/.cache/repro-dise`` would turn cold into warm).
ENV_PREFIX = "REPRO_"


class PassError(RuntimeError):
    """A pass process failed, timed out, or printed no result."""


def median(values):
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
class Child:
    """One pass process: spawn, wait for its ready line, collect its
    result and peak RSS.  A watchdog kills it at the run's deadline."""

    def __init__(self, cmd, env, timeout, log_path):
        self._log = open(log_path, "wb")
        self.log_path = log_path
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=env, cwd=ROOT,
                                     stdout=subprocess.PIPE,
                                     stderr=self._log)
        self._timer = threading.Timer(max(timeout, 1.0), self.proc.kill)
        self._timer.daemon = True
        self._timer.start()
        self.ready_s = None
        self.wall_s = None
        self.rss_mb = None

    def ready(self):
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - self.t0
        if not line:
            self.close()
            raise PassError(f"pass exited before it was ready: "
                            f"{self._tail()}")
        return line.decode().strip()

    def finish(self):
        rest = self.proc.stdout.read()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.wall_s = time.perf_counter() - self.t0
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.close()
        if self.proc.returncode != 0:
            raise PassError(f"pass exited with {self.proc.returncode}: "
                            f"{self._tail()}")
        lines = rest.decode().strip().splitlines()
        return json.loads(lines[-1]) if lines else {}

    def close(self):
        self._timer.cancel()
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()

    def _tail(self):
        text = Path(self.log_path).read_text(errors="replace")
        return text[-2000:].strip() or "(no stderr)"


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
class Run:
    """Shared state of one workload run: environment, deadline, pins,
    operation/gate tallies and the collected samples."""

    def __init__(self, name, config, seed, seconds, trace, work, pin):
        self.name = name
        self.config = config
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.pin = pin
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.gates = []
        self.samples = defaultdict(list)
        #: metric name -> [(start, end)] perf_counter windows
        self.windows = defaultdict(list)
        self.bursts = []
        self.extra = {}
        self.layer_runs = []
        self._seq = 0
        tmp = work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self.base_env = {k: v for k, v in os.environ.items()
                         if not k.startswith(ENV_PREFIX)}
        self.base_env.update({
            "PYTHONPATH": str(SRC), "TMPDIR": str(tmp),
            "REPRO_JOBS": "1", "REPRO_TRACE_CACHE": "0",
            "REPRO_FABRIC_STORE": "0",
        })

    # -- bookkeeping ---------------------------------------------------
    def ops(self, attempted, failed=0):
        self.attempted += attempted
        self.failed += failed

    def timed(self, name, start, seconds):
        self.windows[name].append((start, start + seconds))

    def gate(self, name, ok, detail=""):
        self.ops(1, 0 if ok else 1)
        self.gates.append((name, bool(ok), detail))

    def fresh(self, stem):
        self._seq += 1
        return self.work / f"{stem}{self._seq}"

    def spawn(self, cmd, extra_env=None):
        env = dict(self.base_env)
        env.update(extra_env or {})
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise PassError("run deadline reached")
        return Child(cmd, env, remaining, self.fresh("stderr"))

    def pass_cmd(self, job):
        return [sys.executable, str(HERE / "passes.py"), json.dumps(job)]

    def run_pass(self, job, extra_env):
        child = self.spawn(self.pass_cmd(job), extra_env)
        try:
            child.ready()
            out = child.finish()
        finally:
            child.close()
        spans = None
        if job.get("trace"):
            with open(job["spans_out"], encoding="utf-8") as handle:
                spans = json.load(handle)
        return {"t0": child.t0, "ready_s": child.ready_s,
                "wall_s": child.wall_s,
                "rss_mb": child.rss_mb, "out": out, "spans": spans}

    # -- the measurement loop -----------------------------------------
    def repeat(self, one):
        """Call ``one(traced)`` for at least one untraced (and, when
        tracing, one traced) round, and again while ``--seconds`` lasts."""
        modes = (False, True) if self.trace else (False,)
        start = time.perf_counter()
        rounds = 0
        while True:
            for traced in modes:
                one(traced)
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed * (rounds + 1) / rounds > self.seconds:
                return


# ----------------------------------------------------------------------
# Figure and fault workloads: cold/warm pairs of pass processes
# ----------------------------------------------------------------------
def store_env(kind, root):
    var = "REPRO_TRACE_CACHE" if kind == "figures" else "REPRO_FABRIC_STORE"
    return {var: str(root)}


def measure_batch(run):
    config = run.config
    kind = config["kind"]
    if not run.trace:
        for _ in range(SETUP_PROBES):
            probe = run.run_pass({"kind": f"probe_{kind}"}, {})
            run.timed("setup_s", probe["t0"], probe["ready_s"])

    def pair(traced):
        root = run.fresh("store")
        # Short warm passes are repeated (untraced) so their median is
        # steady; a traced pair is always one cold and one warm pass.
        phases = ["cold"] + ["warm"] * (1 if traced
                                        else config.get("warm_passes", 1))
        passes = []
        for phase in phases:
            job = dict(config, seed=run.seed, trace=traced,
                       spans_out=str(run.fresh("spans")) + ".json")
            result = run.run_pass(job, store_env(kind, root))
            result["phase"] = phase
            passes.append(result)
        shutil.rmtree(root, ignore_errors=True)
        cold, warms = passes[0], passes[1:]
        check = check_figures if kind == "figures" else check_faults
        check(run, cold, warms)
        key = "traced" if traced else "untraced"
        run.samples[f"{key}_pair_s"].append(
            cold["wall_s"] + warms[0]["wall_s"])
        if traced:
            run.layer_runs.append(batch_layers(run, cold, warms[0]))
            return
        for result in passes:
            run.timed(f"{result['phase']}_s", result["t0"], result["wall_s"])
            run.timed("setup_s", result["t0"], result["ready_s"])
            run.samples["peak_rss_mb"].append(result["rss_mb"])
        if kind == "faults":
            run.samples["faults_per_s"].append(
                cold["out"].get("faults", 0) / cold["out"]["wall_s"])

    run.repeat(pair)


def combined_digest(tables, experiments):
    text = "\n".join(f"{name} {tables.get(name)}" for name in experiments)
    return hashlib.sha256(text.encode()).hexdigest()


def report_errors(result):
    for name, text in result["out"]["errors"].items():
        print(f"  {result['phase']} {name} raised:\n{text}",
              file=sys.stderr)
    return len(result["out"]["errors"])


def check_figures(run, cold, warms):
    experiments = run.config["experiments"]
    for result in [cold] + warms:
        run.ops(len(experiments), report_errors(result))
    for warm in warms:
        mismatched = [name for name in experiments
                      if warm["out"]["tables"].get(name)
                      != cold["out"]["tables"].get(name)]
        run.gate("figures.cold_equals_warm", not mismatched,
                 ",".join(mismatched))
    digest = combined_digest(cold["out"]["tables"], experiments)
    run.extra["tables_sha256"] = digest
    if run.pin is not None:
        run.gate("figures.pinned_tables", digest == run.pin, digest)
    if cold["spans"] is not None:
        names, _ = layers.summarize(warms[0]["spans"]["spans"])
        for layer in ("cycle.simulate", "trace_cache.materialize"):
            calls = names.get(layer, {}).get("calls", 0)
            run.gate(f"warm.{layer}.calls==0", calls == 0, str(calls))


def check_faults(run, cold, warms):
    faults = run.config["faults"]
    for result in [cold] + warms:
        out = result["out"]
        run.ops(faults, faults if report_errors(result) else 0)
        run.gate(f"faults.{result['phase']}.containment_rate==1",
                 out.get("containment_rate") == 1.0,
                 str(out.get("containment_rate")))
        run.gate(f"faults.{result['phase']}.false_positives==0",
                 out.get("false_positives") == 0,
                 str(out.get("false_positives")))
    digest = cold["out"].get("report_sha")
    run.extra["report_sha256"] = digest
    for warm in warms:
        run.gate("faults.cold_equals_warm",
                 digest is not None
                 and digest == warm["out"].get("report_sha"))
    if run.pin is not None:
        run.gate("faults.pinned_report", digest == run.pin, str(digest))


def batch_layers(run, cold, warm):
    totals, tags, counters, accounting = merge_spans(run, (cold, warm))
    warm_counters = warm["spans"]["counters"]
    lookups = warm_counters.get("trace_cache.lookups", 0)
    extra = {
        "trace_cache.hit_frac": (warm_counters.get("trace_cache.hits", 0)
                                 / lookups if lookups else 0.0),
        "trace_cache.store.mb": cold["out"].get("store_bytes", 0) / 2**20,
        "trace.accounting_err_frac": accounting,
    }
    return layer_metrics(totals, tags, counters, extra)


# ----------------------------------------------------------------------
# Serve workload: closed-loop TCP clients against repro-cli serve
# ----------------------------------------------------------------------
def session_specs(config):
    return [{"benchmark": bench, "scale": config["scale"], "acf": acf}
            for bench in config["benchmarks"] for acf in config["acfs"]]


def spec_key(spec):
    return f"{spec['benchmark']}/{spec['acf']}@{spec['scale']}"


def serve_oracle(run):
    """Batch digests of every session spec, computed once per run."""
    from repro.serve.session import batch_digest

    expected = {spec_key(spec): batch_digest(spec)["digest"]
                for spec in session_specs(run.config)}
    digest = hashlib.sha256(json.dumps(expected, sort_keys=True)
                            .encode()).hexdigest()
    run.extra["oracle_sha256"] = digest
    if run.pin is not None:
        run.gate("serve.pinned_oracle", digest == run.pin, digest)
    return expected


class ClientLoop:
    """One tenant's closed loop: ``live`` sessions stepped round-robin
    at ``steps`` retirements per request until halt, then ``result``
    (checked against the oracle) and ``close_session``."""

    def __init__(self, host, port, tenant, plan, config, expected):
        self.host, self.port, self.tenant = host, port, tenant
        self.plan = plan
        self.config = config
        self.expected = expected
        self.latency = defaultdict(list)
        self.requests = 0
        self.failed = 0
        self.mismatches = []

    def _call(self, op, fn, *args):
        self.requests += 1
        t0 = time.perf_counter()
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            raise
        finally:
            self.latency[op].append(time.perf_counter() - t0)

    def run(self):
        from repro.serve.client import TcpClient

        client = TcpClient(self.host, self.port, tenant=self.tenant)
        pending = list(self.plan)
        live = []
        try:
            while pending or live:
                while pending and len(live) < self.config["live"]:
                    spec = pending.pop()
                    try:
                        sid = self._call("open_session",
                                         client.open_session, spec)
                    except Exception:
                        continue
                    live.append((sid, spec))
                for entry in list(live):
                    if not self._advance(client, *entry):
                        live.remove(entry)
        finally:
            client.close()

    def _advance(self, client, sid, spec):
        """Step one session; returns False once it is finished."""
        try:
            view = self._call("step", client.step, sid,
                              self.config["steps"])
            if not view["halted"]:
                return True
            result = self._call("result", client.result, sid)
            if result["digest"] != self.expected[spec_key(spec)]:
                self.failed += 1
                self.mismatches.append(spec_key(spec))
            self._call("close_session", client.close_session, sid)
        except Exception:
            traceback.print_exc(file=sys.stderr)
        return False


def client_round(run, host, port, round_index, expected):
    config = run.config
    specs = session_specs(config)
    loops = []
    for index in range(config["clients"]):
        plan = specs * config["copies"]
        random.Random(f"{run.seed}:{round_index}:{index}").shuffle(plan)
        loops.append(ClientLoop(host, port, f"tenant{index}", plan, config,
                                expected))
    threads = [threading.Thread(target=loop.run) for loop in loops]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    latency = defaultdict(list)
    for loop in loops:
        run.ops(loop.requests, loop.failed)
        for op, values in loop.latency.items():
            latency[op] += values
        if loop.mismatches:
            print(f"  served digest mismatch: {loop.mismatches}",
                  file=sys.stderr)
    return start, wall, latency


def start_server(run, traced, spans_out=None):
    if traced:
        cmd = run.pass_cmd({"kind": "serve", "pool": run.config["pool"],
                            "trace": True, "spans_out": spans_out})
    else:
        cmd = [sys.executable, "-m", "repro.tools", "serve", "--host",
               "127.0.0.1", "--port", "0", "--pool",
               str(run.config["pool"])]
    child = run.spawn(cmd)
    try:
        line = child.ready()
        if not line.startswith("serving on "):
            raise PassError(f"unexpected server banner {line!r}")
        host, port = line[len("serving on "):].rsplit(":", 1)
    except BaseException:
        child.close()
        raise
    return child, host, int(port)


def stop_server(child):
    """SIGINT, which the server handles by parking its sessions and
    exiting.  Callers first complete a request, so the handler is
    installed by the time the signal arrives."""
    try:
        child.proc.send_signal(signal.SIGINT)
        return child.finish()
    finally:
        child.close()


def measure_serve(run):
    expected = serve_oracle(run)
    if not run.trace:
        from repro.serve.client import TcpClient

        for _ in range(SETUP_PROBES):
            child, host, port = start_server(run, False)
            try:
                with TcpClient(host, port) as client:
                    client.hello()
            finally:
                stop_server(child)
            run.timed("setup_s", child.t0, child.ready_s)

    def one_pass(traced):
        spans_out = str(run.fresh("spans")) + ".json"
        child, host, port = start_server(run, traced, spans_out)
        try:
            rounds = [client_round(run, host, port, index, expected)
                      for index in range(2)]
        finally:
            out = stop_server(child)
        walls = [wall for _, wall, _ in rounds]
        latency = defaultdict(list)
        for _, _, values in rounds:
            for op, items in values.items():
                latency[op] += items
        key = "traced" if traced else "untraced"
        run.samples[f"{key}_pair_s"].append(sum(walls))
        if traced:
            with open(spans_out, encoding="utf-8") as handle:
                spans = json.load(handle)
            server = {"spans": spans, "out": out}
            run.layer_runs.append(serve_layers(run, server, latency))
            return
        run.timed("setup_s", child.t0, child.ready_s)
        for name, (start, wall, _) in zip(("cold_s", "warm_s"), rounds):
            run.timed(name, start, wall)
        run.samples["peak_rss_mb"].append(child.rss_mb)
        run.samples["step_latency_s"] += latency["step"]
        run.samples["steps_per_s"].append(len(latency["step"]) / sum(walls))

    run.repeat(one_pass)


def serve_layers(run, server, latency):
    totals, tags, counters, accounting = merge_spans(run, (server,))
    client_s = sum(sum(values) for values in latency.values())
    handled_s = totals.get("serve.handle", {}).get("total", 0.0)
    extra = {"serve.wait.s": client_s - handled_s,
             "trace.accounting_err_frac": accounting}
    return layer_metrics(totals, tags, counters, extra)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def merge_spans(run, passes):
    totals = defaultdict(lambda: {"self": 0.0, "total": 0.0, "calls": 0})
    tags = defaultdict(list)
    counters = defaultdict(float)
    worst = 0.0
    for result in passes:
        spans = result["spans"]["spans"]
        names, by_tag = layers.summarize(spans)
        for name, entry in names.items():
            for field, value in entry.items():
                totals[name][field] += value
        for tag, values in by_tag.items():
            tags[tag] += values
        for name, value in result["spans"]["counters"].items():
            counters[name] += value
        error = layers.accounting_error(spans, result["out"]["wall_s"])
        worst = max(worst, error)
        run.gate("trace.accounting", error <= ACCOUNTING_LIMIT,
                 f"{error:.4f}")
    return totals, tags, counters, worst


def layer_metrics(totals, tags, counters, extra):
    def self_s(name):
        return totals.get(name, {}).get("self", 0.0)

    def total_s(name):
        return totals.get(name, {}).get("total", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    replays = sum(calls(f"cycle.phase_a.{part}")
                  for part in ("mem", "ctrl", "rt"))
    metrics = {
        "workload.generate.s": self_s("workload.generate"),
        "acf.mfi.s": self_s("acf.mfi"),
        "acf.install.s": self_s("acf.install"),
        "acf.compress.s": self_s("acf.compress"),
        "acf.compose.s": self_s("acf.compose"),
        "harness.key.s": self_s("harness.key"),
        "harness.self.s": self_s("harness"),
        "sim.functional.run.s": self_s("sim.functional.run"),
        "sim.functional.run.calls": calls("sim.functional.run"),
        "sim.functional.minstr_per_s": ratio(
            counters.get("sim.functional.instructions", 0),
            total_s("sim.functional.run")) / 1e6,
        "cycle.simulate.calls": calls("cycle.simulate"),
        "cycle.phase_a.mem.s": self_s("cycle.phase_a.mem"),
        "cycle.phase_a.ctrl.s": self_s("cycle.phase_a.ctrl"),
        "cycle.phase_a.rt.s": self_s("cycle.phase_a.rt"),
        "cycle.phase_b.s": self_s("cycle.simulate"),
        "cycle.mops_per_s": ratio(counters.get("cycle.ops", 0),
                                  total_s("cycle.simulate")) / 1e6,
        "cycle.phase_a.replays_per_simulate": ratio(
            replays, calls("cycle.simulate")),
        "trace_cache.store.s": self_s("trace_cache.store"),
        "trace_cache.store.mb": 0.0,
        "trace_cache.load.s": self_s("trace_cache.load"),
        "trace_cache.hit_frac": 0.0,
        "trace_cache.materialize.calls": calls("trace_cache.materialize"),
        "sim.batch.run.s": self_s("sim.batch.run"),
        "sim.batch.compiled_frac": ratio(
            counters.get("sim.batch.compiled_retired", 0),
            counters.get("sim.batch.retired", 0)),
        "sim.batch.blocks_compiled": counters.get(
            "sim.batch.blocks_compiled", 0),
        "sim.batch.drains": counters.get("sim.batch.drains", 0),
        "fabric.run.s": self_s("fabric.run"),
        "faults.inject.s": self_s("faults.inject"),
        "faults.self.s": self_s("faults"),
        "serve.handle.s": self_s("serve.handle"),
        "serve.wait.s": 0.0,
        "serve.session.build.s": self_s("serve.session.build"),
        "serve.session.build.calls": calls("serve.session.build"),
        "serve.session.advance.s": self_s("serve.session.advance"),
        "serve.session.park.s": self_s("serve.session.park"),
        "serve.session.park.calls": calls("serve.session.park"),
        "serve.self.s": self_s("serve"),
    }
    for op in ("open_session", "step", "result", "close_session"):
        metrics[f"serve.op.{op}.p50_ms"] = median(
            tags.get(f"serve.handle:{op}", [])) * 1e3
    metrics.update(extra)
    return metrics


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def metadata(run):
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, env=dict(os.environ,
                                GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        git_rev = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        git_rev = None
    return {
        "workload": run.name,
        "seed": run.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "sizes": run.config,
        "jobs": 1,
        "run_seconds": run.seconds,
        "trace": run.trace,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy_version,
        "git_rev": git_rev,
    }


def bursts_in(run, windows):
    return [burst for t, burst in run.bursts
            if any(start <= t < end for start, end in windows)]


def e2e_metrics(run):
    timed = [w for windows in run.windows.values() for w in windows]
    fallback = median(bursts_in(run, timed))

    def host_seconds(start, end):
        """Wall seconds of ``[start, end)`` at the nominal host speed."""
        inside = bursts_in(run, [(start, end)])
        speed = median(inside) if len(inside) >= MIN_BURSTS else fallback
        return (end - start) * NOMINAL_BURST_S / speed if speed else 0.0

    metrics, walls, counts = {}, {}, {}
    for name in ("setup_s", "cold_s", "warm_s"):
        windows = run.windows[name]
        metrics[name] = median([host_seconds(*w) for w in windows])
        walls[name] = median([end - start for start, end in windows])
        counts[name] = len(windows)
    metrics["peak_rss_mb"] = max(run.samples["peak_rss_mb"], default=0.0)
    counts["peak_rss_mb"] = len(run.samples["peak_rss_mb"])
    return metrics, counts, walls


def report(run):
    """Print the human-readable block; return the result document."""
    meta = metadata(run)
    print(f"== {run.name}  seed {run.seed}  trace {int(run.trace)}")
    print("meta " + json.dumps(meta, sort_keys=True))
    if run.trace:
        layer_values = {
            name: median([values[name] for values in run.layer_runs])
            for name in LAYER_UNITS if name != "trace.overhead_frac"}
        untraced = median(run.samples["untraced_pair_s"])
        layer_values["trace.overhead_frac"] = (
            median(run.samples["traced_pair_s"]) / untraced - 1.0
            if untraced else 0.0)
        metrics = {name: {"value": layer_values[name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
        for name, entry in metrics.items():
            print(f"  {name:38s} {entry['value']:12.6f} {entry['unit']}"
                  f"  (n={len(run.layer_runs)} traced pair)")
    else:
        values, counts, walls = e2e_metrics(run)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
        for name, entry in metrics.items():
            stat = "max" if name == "peak_rss_mb" else "median"
            wall = f", wall {walls[name]:.4f} s" if name in walls else ""
            print(f"  {name:14s} {entry['value']:12.4f} {entry['unit']:3s}"
                  f"  ({stat} of n={counts[name]}{wall})")
        timed = [w for windows in run.windows.values() for w in windows]
        bursts = bursts_in(run, timed)
        print(f"  host speed     burst median {median(bursts) * 1e3:.4f} ms "
              f"inside timed intervals (n={len(bursts)}; nominal "
              f"{NOMINAL_BURST_S * 1e3:.4f} ms)")
        run.extra["wall_s"] = walls
        for line in workload_lines(run):
            print("  " + line)
    error_rate = run.failed / run.attempted if run.attempted else 0.0
    print(f"  error_rate     {error_rate:12.4f}      "
          f"({run.failed} failed of n={run.attempted} operations and gates)")
    for name, ok, detail in run.gates:
        print(f"  gate {name}: {'ok' if ok else 'FAILED'} {detail}".rstrip())
    for name, value in sorted(run.extra.items()):
        print(f"  {name}: {value}")
    return {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }, meta


def workload_lines(run):
    """The workload-specific figures of merit, with sample counts."""
    from repro.serve.loadgen import percentile

    samples = run.samples
    lines = []
    if samples["faults_per_s"]:
        lines.append(f"faults_per_s   {median(samples['faults_per_s']):12.4f}"
                     f" 1/s  (median of n={len(samples['faults_per_s'])} "
                     "cold campaigns)")
    steps = samples["step_latency_s"]
    if steps:
        beyond = len(steps) - 1 - round(0.99 * (len(steps) - 1))
        lines.append(f"step_p50_ms    {percentile(steps, 0.5) * 1e3:12.4f}"
                     f" ms   (n={len(steps)} step requests)")
        lines.append(f"step_p99_ms    {percentile(steps, 0.99) * 1e3:12.4f}"
                     f" ms   (n={len(steps)}, {beyond} samples beyond)")
        lines.append(f"steps_per_s    {median(samples['steps_per_s']):12.4f}"
                     f" 1/s  (median of n={len(samples['steps_per_s'])} "
                     "passes)")
    return lines


def run_workload(name, args, pins, work):
    config = dict(WORKLOADS[name])
    if args.tiny:
        config.update(TINY[name])
    # Pins hold digests per workload and seed; ``--tiny`` sizes have
    # their own entries (``<workload>@tiny``).
    pin_key = f"{name}@tiny" if args.tiny else name
    run = Run(name, config, args.seed, args.seconds, bool(args.trace),
              work, pins.get(pin_key, {}).get(str(args.seed)))
    try:
        sampler = start_sampler(run)
        try:
            if config["kind"] == "serve":
                measure_serve(run)
            else:
                measure_batch(run)
        finally:
            run.bursts = stop_sampler(sampler)
    except PassError as exc:
        run.gate("run.completed", False, str(exc))
    return report(run)


def start_sampler(run):
    """The host-speed sampler (``sampler.py``) for the whole run."""
    path = str(run.fresh("bursts")) + ".json"
    child = run.spawn([sys.executable, str(HERE / "sampler.py"), path])
    try:
        child.ready()
    except BaseException:
        child.close()
        raise
    return child, path


def stop_sampler(sampler):
    child, path = sampler
    try:
        child.proc.send_signal(signal.SIGTERM)
        child.finish()
    finally:
        child.close()
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure this long (at least one pair)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (one profile, 20 faults)")
    parser.add_argument("--pins", type=Path, default=PINS,
                        help="pinned output digests (JSON)")
    parser.add_argument("--out", type=Path,
                        help="also write metrics, gates and metadata here")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"e2ebench: no program sources under {SRC}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith(ENV_PREFIX)]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    pins = json.loads(args.pins.read_text()) if args.pins.is_file() else {}
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    work = ROOT / ".e2ebench_work" / str(os.getpid())
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args, pins, work / name)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    if len(names) == 1:
        final = results[names[0]][0]
    else:
        final = {
            "correct": all(doc["correct"] for doc, _ in results.values()),
            "attempted": sum(doc["attempted"] for doc, _ in results.values()),
            "failed": sum(doc["failed"] for doc, _ in results.values()),
            "metrics": {f"{name}/{metric}": value
                        for name, (doc, _) in results.items()
                        for metric, value in doc["metrics"].items()},
        }
    if args.out is not None:
        args.out.write_text(json.dumps(
            {name: {"result": doc, "meta": meta}
             for name, (doc, meta) in results.items()},
            indent=2, sort_keys=True) + "\n")
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
