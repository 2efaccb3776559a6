"""One set-up measurement in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR SPECS_JSON

Times importing permlab and permlab.cli, reading the workload's job list and
parsing every job's documents into permlab objects, with no evaluation, and
prints the elapsed seconds.
"""

import sys
import time

t0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402

sys.path.insert(0, sys.argv[1])
import permlab  # noqa: E402,F401
import permlab.cli  # noqa: E402,F401

sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
import jobkinds  # noqa: E402

with open(sys.argv[2]) as fh:
    jobs = json.load(fh)
for job in jobs:
    jobkinds.parse(job["kind"], job["spec"])
print(repr(time.perf_counter() - t0))
