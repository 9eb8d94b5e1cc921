"""Time igk.verify.run_suite once per suite, in one warm process.

Usage: python suites.py SEED  ->  {"suite": [seconds, passed], ...}
"""

import json
import sys
import time

from igk import verify

seed = int(sys.argv[1])
out = {}
for name in verify.SUITES:
    start = time.perf_counter()
    report = verify.run_suite(name, seed=seed)
    out[name] = [time.perf_counter() - start, report.passed]
print(json.dumps(out))
