"""One benchmark pass in a fresh interpreter.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 e2ebench/passes.py '<job json>'

The job's ``kind`` selects the work:

* ``figures`` — regenerate experiment tables through a :class:`Suite`
  whose images carry a data segment re-rolled from the workload seed;
* ``faults`` — one MFI fault campaign through ``run_campaign``;
* ``serve`` — the server, started the way ``repro-cli serve`` starts it,
  with the layer wrappers installed first (used for traced passes);
* ``probe_figures`` / ``probe_faults`` — imports only (set-up probes).

The first stdout line, ``ready`` (``serving on HOST:PORT`` for the
server), is printed once the interpreter has imported the pass's layers;
the parent times it as set-up.  The last stdout line is the pass's JSON
result.  With ``"trace": true`` the layer wrappers of :mod:`layers` are
installed before the work starts and the spans are written to
``spans_out`` when it ends.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import traceback


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _tree_bytes(root):
    total = 0
    for directory, _dirs, files in os.walk(root):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(directory, name))
            except OSError:
                pass
    return total


def _make_tracer(job):
    if not job.get("trace"):
        return None
    from layers import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _stop(tracer, root, start):
    """Pass wall time, taken independently of the root span it ends."""
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.close(root)
    return wall


def _finish(job, tracer, result):
    if tracer is not None:
        tracer.uninstall()
        with open(job["spans_out"], "w", encoding="utf-8") as handle:
            json.dump(tracer.export(), handle)
    print(json.dumps(result), flush=True)


def run_figures(job):
    from repro.harness import runner
    from repro.harness.experiments import ALL_EXPERIMENTS
    from repro.workloads.specint import get_profile

    class SeededSuite(runner.Suite):
        """A suite whose images re-roll their data segment from the
        workload seed.  Text — and with it every ACF layer — is the
        same for every seed; only data and branch behaviour move."""

        def __init__(self, benchmarks, scale, data_seed):
            super().__init__(benchmarks=benchmarks, scale=scale, jobs=1,
                             cache="auto")
            self.data_seed = data_seed

        def image(self, bench):
            if bench not in self._images:
                self._images[bench] = runner.generate_benchmark(
                    get_profile(bench), scale=self.scale,
                    data_seed=self.data_seed)
            return self._images[bench]

    print("ready", flush=True)
    tracer = _make_tracer(job)
    start = time.perf_counter()
    root = tracer.start_root("harness") if tracer is not None else None
    suite = SeededSuite(job["benchmarks"], job["scale"], job["seed"])
    tables, errors = {}, {}
    for name in job["experiments"]:
        try:
            tables[name] = _sha256(ALL_EXPERIMENTS[name](suite).render())
        except Exception:  # reported per experiment; the pass goes on
            errors[name] = traceback.format_exc()
    wall = _stop(tracer, root, start)
    _finish(job, tracer, {
        "tables": tables, "errors": errors, "wall_s": wall,
        "store_bytes": _tree_bytes(os.environ["REPRO_TRACE_CACHE"]),
    })


def run_faults(job):
    from repro.faults.campaign import CampaignConfig, run_campaign

    print("ready", flush=True)
    tracer = _make_tracer(job)
    start = time.perf_counter()
    root = tracer.start_root("faults") if tracer is not None else None
    config = CampaignConfig(seed=job["seed"], faults=job["faults"],
                            benchmarks=tuple(job["benchmarks"]),
                            scale=job["scale"])
    result = {"errors": {}}
    try:
        report = run_campaign(config, batch=job["batch"], jobs=1,
                              fabric_options={"store": "auto"})
    except Exception:  # a failed campaign fails every fault it held
        result["errors"]["campaign"] = traceback.format_exc()
    else:
        summary = report["summary"]
        result.update(
            report_sha=_sha256(json.dumps(report, sort_keys=True)),
            faults=summary["faults"],
            containment_rate=summary["guarded"]["containment_rate"],
            false_positives=summary["false_positives"],
        )
    result["wall_s"] = _stop(tracer, root, start)
    _finish(job, tracer, result)


def run_serve(job):
    from repro.serve.server import run_server

    tracer = _make_tracer(job)

    def ready(host, port):
        print(f"serving on {host}:{port}", flush=True)

    start = time.perf_counter()
    root = tracer.start_root("serve") if tracer is not None else None
    run_server(host="127.0.0.1", port=0, ready=ready,
               pool_capacity=job["pool"])
    _finish(job, tracer, {"wall_s": _stop(tracer, root, start)})


def probe(job):
    if job["kind"] == "probe_figures":
        import repro.harness.experiments  # noqa: F401
    else:
        import repro.faults.campaign  # noqa: F401
    print("ready", flush=True)


PASSES = {
    "figures": run_figures,
    "faults": run_faults,
    "serve": run_serve,
    "probe_figures": probe,
    "probe_faults": probe,
}


def main(argv):
    job = json.loads(argv[1])
    PASSES[job["kind"]](job)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
