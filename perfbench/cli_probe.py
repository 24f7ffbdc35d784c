"""Traced CLI probe: one subcommand with the layer tracer installed.

Usage: ``python3 perfbench/cli_probe.py RESULT_JSON SPANS_NPZ CLI_ARGS...``
with ``src`` on ``PYTHONPATH``.  Times ``import nodalbubbles.cli`` and
``main(CLI_ARGS)``, writes both times, the exit code and the layer counters
to RESULT_JSON, the spans to SPANS_NPZ, and exits with the CLI's code.
"""

import sys
import time

t0 = time.perf_counter()
import nodalbubbles.cli as cli  # noqa: E402  (the import is what is measured)
import_s = time.perf_counter() - t0

import json  # noqa: E402

from layers import GridWatch, aggregate, all_targets  # noqa: E402
from tracer import Tracer, save_spans  # noqa: E402


def main() -> int:
    result_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer, watch = Tracer(), GridWatch()
    with tracer.installed(all_targets(watch)):
        t = time.perf_counter()
        code = cli.main(argv)
        main_s = time.perf_counter() - t
    save_spans(spans_path, tracer)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "main_s": main_s, "code": code,
                   "raw": aggregate(tracer, watch)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
