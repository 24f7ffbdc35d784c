"""Import discipline: scipy is loaded only by the code paths that use it.

``import nodalbubbles`` needs numpy alone; the coercivity scan's root finder
and Nelder-Mead polish and the grid LU (``verify``) import scipy when they
first run.  Each check runs
in a fresh interpreter, so modules imported by other tests do not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
import nodalbubbles
from nodalbubbles import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules
                                  if m == "scipy" or m.startswith("scipy."))}))
"""


def run_probe(commands):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    out = subprocess.run([sys.executable, "-c", PROBE, json.dumps(commands)],
                         capture_output=True, text=True, env=env, check=True,
                         timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_package_import_loads_no_scipy():
    result = run_probe([])
    assert result["scipy"] == []


@pytest.mark.parametrize("command", ["constants", "assumptions", "saddle"])
def test_light_commands_load_no_scipy(command, tmp_path):
    result = run_probe([[command, "--out", str(tmp_path)]])
    assert result["codes"] == [0]
    assert result["scipy"] == []
