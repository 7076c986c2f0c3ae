"""Set-up probe: a fresh interpreter that does one workload's set-up and
exits, printing the seconds each phase took as JSON.

Usage: python3 perfbench/probe.py WORKLOAD SEED  (with src on PYTHONPATH)
"""

import json
import sys
import time

t0 = time.perf_counter()
import proxpoint  # noqa: E402
import proxpoint.cli  # noqa: E402,F401

t1 = time.perf_counter()
from workloads import SETUPS  # noqa: E402

_, phases = SETUPS[sys.argv[1]](proxpoint, int(sys.argv[2]), time.perf_counter)
print(json.dumps({"import_s": t1 - t0, **phases}))
