"""Time zhat's set-up in a fresh interpreter.

Set-up is importing the package and its CLI, then reading and parsing one
run's inputs (triples and PLUMB texts).  Only ``sys`` and ``time`` are
imported before the clock starts.  After it stops, the reference block is
timed three times.  Prints the set-up time and the median block time, in
seconds.  Usage:

    python3 bench/setup_probe.py SRC_DIR INPUTS_JSON
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import zhat  # noqa: E402
import zhat.cli  # noqa: E402,F401
import json  # noqa: E402

with open(sys.argv[2], encoding="utf-8") as fh:
    items = json.load(fh)
for item in items:
    if "plumb" in item:
        zhat.parse_plumb(item["plumb"])
    elif "triple" in item:
        tuple(int(b) for b in item["triple"])
elapsed = time.perf_counter() - start

# The host's speed right after, for scaling (see reference.py).
import statistics  # noqa: E402

import reference  # noqa: E402

ref = statistics.median(reference.sample()[2] for _ in range(3))
print(elapsed, ref)
