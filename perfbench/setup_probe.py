"""Set-up probe: a fresh interpreter imports the package and builds inputs.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED`` with ``src`` on
``PYTHONPATH``.  The caller times the process from spawn to exit; the probe
prints its own import time and the number of modules the import added.
"""

import sys
import time

t0 = time.perf_counter()
before = len(sys.modules)
import nodalbubbles  # noqa: E402,F401  (the import is what is measured)
import_s = time.perf_counter() - t0
modules = len(sys.modules) - before

import json  # noqa: E402

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]][0](int(sys.argv[2]))
print(json.dumps({"import_s": import_s, "import_modules": modules}))
