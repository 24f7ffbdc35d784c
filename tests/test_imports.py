"""Import discipline and the export surface.

``import nodalbubbles`` needs numpy alone, and so does every subcommand; only
the coercivity scan's root finder and Nelder-Mead polish import scipy, when
they first run.  Each scipy check runs in a fresh interpreter, so modules imported
by other tests do not count.  Every name in an ``__all__`` resolves, and the
package re-exports each library module's ``__all__``.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nodalbubbles

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


def test_verify_after_saddle_loads_no_scipy(tmp_path):
    out = ["--out", str(tmp_path)]
    result = run_probe([["saddle"] + out, ["verify"] + out])
    assert result["codes"] == [0, 0]
    assert result["scipy"] == []


LIBRARY_MODULES = ["bubble_core", "errors", "green_domain", "pde_harness",
                   "reduced_energy", "saddle_solver"]


@pytest.mark.parametrize("module", ["__init__", "cli"] + LIBRARY_MODULES)
def test_every_exported_name_resolves(module):
    mod = (nodalbubbles if module == "__init__"
           else importlib.import_module(f"nodalbubbles.{module}"))
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


@pytest.mark.parametrize("module", LIBRARY_MODULES)
def test_package_reexports_module_surface(module):
    mod = importlib.import_module(f"nodalbubbles.{module}")
    missing = [n for n in mod.__all__ if n not in nodalbubbles.__all__
               or getattr(nodalbubbles, n) is not getattr(mod, n)]
    assert missing == []
