"""One cold set-up: import kirchheat, load and validate the workload's
configs, then print the monotonic clock. run.py starts it in a fresh
interpreter and times it from just before the start.

    python3 perfbench/setup_probe.py SPEC_JSON
"""

import json
import sys
import time

import kirchheat

spec = json.loads(open(sys.argv[1]).read())
for path in spec["configs"]:
    kirchheat.load_config(path)
for path in spec["grids"]:
    json.loads(open(path).read())
print(repr(time.monotonic()))
