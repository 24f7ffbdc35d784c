"""Import discipline and the export surface.

``import nodalbubbles`` needs numpy alone, and so does every subcommand; the
only scipy use in the package is the coercivity scan's Nelder-Mead polish,
which imports it when it first runs (the level crossings are closed-form).
Each scipy check runs in a fresh interpreter, so modules imported by other
tests do not count.  Every name in an ``__all__`` resolves, the package
re-exports each library module's ``__all__`` (every ``*.py`` of the package
but ``__init__`` and ``cli``), and no public name is exported twice.
"""

import ast
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


def test_scipy_is_imported_only_by_the_polish():
    sites = []
    for path in sorted((SRC / "nodalbubbles").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        assert "brentq" not in source, path.name
        tree = ast.parse(source)
        parent = {child: node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                owner = node
                while owner in parent and not isinstance(owner,
                                                         ast.FunctionDef):
                    owner = parent[owner]
                sites.append((path.stem, getattr(owner, "name", None)))
    assert sites == [("saddle_solver", "_refine_level_min")]


LIBRARY_MODULES = sorted(p.stem for p in (SRC / "nodalbubbles").glob("*.py")
                         if p.stem not in ("__init__", "cli"))


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


def test_no_public_name_is_exported_twice():
    # The package star-imports every library module, so a name in two
    # modules' __all__ would silently resolve to whichever comes last.
    owners = {}
    for module in LIBRARY_MODULES:
        for name in importlib.import_module(f"nodalbubbles.{module}").__all__:
            owners.setdefault(name, []).append(module)
    assert {n: m for n, m in owners.items() if len(m) > 1} == {}
    assert len(nodalbubbles.__all__) == len(set(nodalbubbles.__all__))
