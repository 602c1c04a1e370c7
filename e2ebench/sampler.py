"""Host-speed sampler, run beside the passes of one benchmark run.

Usage: ``python3 e2ebench/sampler.py OUT.json`` — runs until SIGTERM,
then writes ``[[start, seconds], ...]``: every ``PERIOD_S`` it times a
fixed pure-Python burst of ``BURST`` iterations.  At about 1.5% duty it
barely disturbs the pass it runs beside, and its median over a pass tells
how fast the host was during that pass (``run.py`` normalises by it).
``start`` is ``time.perf_counter()``, the system-wide monotonic clock, so
the parent can match samples to its own pass windows.
"""

from __future__ import annotations

import json
import signal
import sys
import time

BURST = 3000
PERIOD_S = 0.05


def main(argv):
    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    samples = []
    print("ready", flush=True)
    while not stopped:
        start = time.perf_counter()
        acc = 0
        for i in range(BURST):
            acc = (acc * 1_000_003 + i) & 0xFFFFFFFF
        samples.append((start, time.perf_counter() - start))
        time.sleep(PERIOD_S)
    with open(argv[1], "w", encoding="utf-8") as handle:
        json.dump(samples, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
