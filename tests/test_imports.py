"""Import discipline and the export surface.

``import nodalbubbles`` loads none of the package's modules, and each
subcommand loads only the modules it runs: ``constants`` needs the standard
library alone (it exits 0 with numpy blocked), ``assumptions`` adds the
kernels, ``saddle`` the reduced energies and the solver, ``verify`` the
reduced energies and the pde harness.  The only scipy use in the package is
the coercivity scan's Nelder-Mead polish, which imports it when it first
runs (the level crossings are closed-form), so no subcommand loads scipy.
Each of these checks runs in a fresh interpreter, so modules imported by
other tests do not count.  Every name in an ``__all__`` resolves, the
package re-exports each library module's ``__all__`` (every ``*.py`` of the
package but ``__init__`` and ``cli``), binding all of them on the first
package attribute, and no public name is exported twice.  The reduced
energies and the solver reach the ball only through its ``AxisKernels``.
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

# argv[1] is a JSON pair: the CLI argument lists to run in order, and
# whether numpy is blocked first (an entry of None makes its import fail).
PROBE = """
import json, sys
commands, block_numpy = json.loads(sys.argv[1])
if block_numpy:
    sys.modules["numpy"] = None


def loaded():
    return {"package": sorted(m for m in sys.modules
                              if m.partition(".")[0] == "nodalbubbles"),
            "numpy": sys.modules.get("numpy") is not None,
            "scipy": sorted(m for m in sys.modules
                            if m == "scipy" or m.startswith("scipy."))}


import nodalbubbles
result = {"import": loaded()}
from nodalbubbles import cli
result["cli"] = loaded()
result["codes"] = [cli.main(argv) for argv in commands]
result["run"] = loaded()
print(json.dumps(result))
"""


def run_script(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    out = subprocess.run([sys.executable, "-c", code, *args],
                         capture_output=True, text=True, env=env, check=True,
                         timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_probe(commands, block_numpy=False):
    return run_script(PROBE, json.dumps([commands, block_numpy]))


def package(*modules):
    return ["nodalbubbles"] + [f"nodalbubbles.{m}" for m in sorted(modules)]


# The library modules each subcommand runs, besides the three every run
# loads: the CLI, the error taxonomy and bubble_core, which checks the
# dimension of every run configuration.
COMMAND_MODULES = {
    "constants": (),
    "assumptions": ("green_domain",),
    "saddle": ("green_domain", "reduced_energy", "saddle_solver"),
    "verify": ("green_domain", "reduced_energy", "pde_harness"),
}


def expected_run(command):
    return {"package": package("bubble_core", "cli", "errors",
                               *COMMAND_MODULES[command]),
            "numpy": command != "constants", "scipy": []}


def test_package_import_loads_no_scipy():
    # Nor any module of the package, nor numpy; a submodule attribute
    # imports that submodule alone (cli imports only the error taxonomy).
    result = run_probe([])
    assert result["import"] == {"package": package(), "numpy": False,
                                "scipy": []}
    assert result["cli"] == {"package": package("cli", "errors"),
                             "numpy": False, "scipy": []}


@pytest.mark.parametrize("command", ["constants", "assumptions", "saddle"])
def test_light_commands_load_no_scipy(command, tmp_path):
    # Each loads exactly the modules it runs.
    result = run_probe([[command, "--out", str(tmp_path)]])
    assert result["codes"] == [0]
    assert result["run"] == expected_run(command)


def test_verify_after_saddle_loads_no_scipy(tmp_path):
    # verify reads the saddle report of its ball; in a process of its own
    # it loads exactly the modules it runs.
    out = ["--out", str(tmp_path)]
    assert run_probe([["saddle"] + out])["codes"] == [0]
    result = run_probe([["verify"] + out])
    assert result["codes"] == [0]
    assert result["run"] == expected_run("verify")


def test_constants_runs_without_numpy(tmp_path):
    result = run_probe([["constants", "--out", str(tmp_path)],
                        ["constants", "--format", "csv", "--out",
                         str(tmp_path / "csv")]], block_numpy=True)
    assert result["codes"] == [0, 0]
    assert json.loads((tmp_path / "constants.json").read_text())[
        "report"]["N"] == 3
    assert (tmp_path / "csv" / "constants.csv").is_file()


SURFACE = """
import json
import nodalbubbles
before = sorted(vars(nodalbubbles))
nodalbubbles.BallDomain
bound = sorted(vars(nodalbubbles))
star = {}
exec("from nodalbubbles import *", star)
print(json.dumps({"before": before, "bound": bound,
                  "star": sorted(set(star) - {"__builtins__"}),
                  "dir": dir(nodalbubbles), "all": nodalbubbles.__all__}))
"""


def test_star_import_dir_and_all_give_one_surface():
    result = run_script(SURFACE)
    names = sorted(result["all"])
    assert len(names) == len(set(names)) == 80
    assert result["star"] == sorted(result["dir"]) == names
    # Nothing is bound until the first attribute, which binds every name,
    # so later lookups are plain global reads.
    assert set(names) <= set(result["bound"])
    assert set(names) & set(result["before"]) == {"__version__"}


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        nodalbubbles.no_such_name


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


def test_reduced_layer_reads_the_ball_only_through_its_kernels():
    # The reduced energies and the solver read the kernels' section, g, h,
    # jets and Robin minimum, never the ball's geometry: a second domain
    # then needs only another kernel object.
    geometry = {"domain", "center", "radius", "kappa", "sigma"}
    reads = []
    for module in ("reduced_energy", "saddle_solver"):
        path = SRC / "nodalbubbles" / f"{module}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads += [(module, node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in geometry]
    assert reads == []


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
