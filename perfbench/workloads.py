"""The four benchmark workloads: inputs, one timed pass, and output checks.

Each workload has three parts:

* ``inputs(seed)`` builds plain inputs (domains, configurations, seeds);
* ``run(inp, p)`` is one pass.  Every library call goes through ``p.op`` and
  sits inside a ``p.stage`` block, which times it;
* ``check(inp, results, p)`` compares the pass's outputs with independent
  references.  It runs after the pass, outside the timed region.

Why these four: ``pipeline`` is what a user runs (four CLI processes, so
interpreter start and import count); ``reduced`` drives the scalar axis
kernels through the Newton solve, the coercivity scan and the multistart;
``energy`` drives the spherical-panel quadrature and the grid LU factor;
``dim_sweep`` calls the same kernels in large batches and shows how the
constants and validators grow with the dimension N.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

import nodalbubbles as nb
import reference as ref
from nodalbubbles.errors import QuadratureError

HERE = Path(__file__).resolve().parent
EPS = (0.1, 0.05, 0.025)
M_LIST = (10.0, 20.0, 40.0)
COERCIVITY_SAMPLES = 64


# ---------------------------------------------------------------------------
# pipeline: the four CLI subcommands, each in a fresh process
# ---------------------------------------------------------------------------

CLI_STEPS = (("constants", ["constants"]),
             ("assumptions", ["assumptions"]),
             ("saddle", ["saddle", "--trace"]),
             ("verify", ["verify"]))


def pipeline_inputs(seed: int) -> dict:
    return {"seed": seed, "out_root": HERE / "out" / "pipeline"}


def pipeline_run(inp: dict, p) -> dict:
    inp["out_root"].mkdir(parents=True, exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="pass-", dir=inp["out_root"]))
    codes = {}
    for name, args in CLI_STEPS:
        argv = args + ["--out", str(out), "--seed", str(inp["seed"])]
        with p.stage(f"cli.{name}_s"):
            codes[name] = p.op(name, p.cli, name, argv, out)
    return {"out": out, "codes": codes}


def _report(out: Path, name: str) -> dict:
    with open(out / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)["report"]


def pipeline_check(inp: dict, res: dict, p) -> None:
    out = res["out"]
    try:
        for name, _ in CLI_STEPS:
            p.expect(name, res["codes"][name] == 0,
                     f"exit code {res['codes'][name]}")
        if res["codes"]["constants"] == 0:
            table = _report(out, "constants")
            p.expect("constants", ref.constants_match(table, 3),
                     "constants differ from the closed forms")
        if res["codes"]["assumptions"] == 0:
            p.expect("assumptions", _report(out, "assumptions")["all_passed"],
                     "assumptions.json: all_passed is false")
        if res["codes"]["saddle"] == 0:
            rep = _report(out, "saddle")
            _check_saddle(p, "saddle", rep["saddle"]["value"],
                          rep["saddle"]["inertia"], rep["saddle"]["bounds_ok"],
                          rep["identities_max_deviation"])
            p.expect("saddle", (out / "trace.csv").is_file(), "no trace.csv")
        if res["codes"]["verify"] == 0:
            rep = _report(out, "verify")
            p.expect("verify", rep["projection_rate"]
                     ["constant_stable_within_factor_2"],
                     "projection-rate constants vary by more than 2x")
            _check_gap(p, "verify", rep["expansion_gap"])
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _check_saddle(p, op, value, inertia, bounds_ok, ids_dev) -> None:
    p.expect(op, abs(value - ref.SADDLE_VALUE) <= 1e-9,
             f"saddle value {value!r}")
    p.expect(op, tuple(inertia) == ref.SADDLE_INERTIA, f"inertia {inertia}")
    p.expect(op, ids_dev <= 1e-6, f"identities deviate by {ids_dev:.3e}")
    p.expect(op, bounds_ok is True, "saddle value outside its bounds")


def _check_gap(p, op, gap) -> None:
    p.expect(op, gap["monotone_decreasing"], "gap not monotone decreasing")
    p.expect(op, gap["refinement_below_decrement"],
             "quadrature refinement delta exceeds the gap decrement")


# ---------------------------------------------------------------------------
# reduced: saddle, coercivity scan and multistart on the unit ball, N = 3
# ---------------------------------------------------------------------------

def reduced_inputs(seed: int) -> dict:
    return {"seed": seed, "domain": nb.BallDomain.unit(3)}


def certified_saddle(d):
    """find_t0_r0 -> bounds -> Newton -> bounds check -> identities."""
    kern = nb.AxisKernels.for_ball(d)
    t0, r0 = nb.find_t0_r0(d)
    bounds = nb.bounds_report(d, None, t0, r0)
    init = nb.mu_embed(1.0, 1.0, 1.0, nb.base_spacing_points(t0, r0))
    rep = nb.solve_saddle(d, None, init)
    nb.verify_bounds(rep, bounds)
    ids = nb.stationarity_identities(rep.config, kern)
    return {"t_base": nb.base_spacing_points(t0, r0), "report": rep,
            "ids_dev": float(np.max(np.abs(ids - 1.0)))}


def reduced_run(inp: dict, p) -> dict:
    d, seed = inp["domain"], inp["seed"]
    with p.stage("saddle_s"):
        saddle = p.op("saddle", certified_saddle, d)
    with p.stage("coercivity_s"):
        scan = p.op("coercivity", nb.coercivity_scan, d, M_list=M_LIST,
                    n_samples=COERCIVITY_SAMPLES, seed=seed)
    with p.stage("multistart_s"):
        if saddle is None:
            starts = None
            p.fail("multistart", "no base positions: the saddle stage failed")
        else:
            starts = p.op("multistart", nb.solve_saddle_multistart, d, None,
                          saddle["t_base"], seed=seed)
    if scan:
        p.count("certified", sum(r["n_certified"] for r in scan))
        p.count("drawn", COERCIVITY_SAMPLES * len(scan))
    return {"saddle": saddle, "coercivity": scan, "multistart": starts}


def reduced_check(inp: dict, res: dict, p) -> None:
    s = res["saddle"]
    if s:
        rep = s["report"]
        _check_saddle(p, "saddle", rep.value, rep.inertia, rep.bounds_ok,
                      s["ids_dev"])
    scan = res["coercivity"]
    if scan:
        mins = [r["min_psi_tilde"] for r in scan]
        p.expect("coercivity", None not in mins, f"unreached level: {scan}")
        if None not in mins:
            p.expect("coercivity", all(a < b for a, b in zip(mins, mins[1:])),
                     f"minima not increasing in M: {mins}")
            p.expect("coercivity", min(mins) > ref.SADDLE_VALUE,
                     f"minima below the saddle value: {mins}")
            if inp["seed"] == 0:
                p.expect("coercivity", all(
                    math.isclose(r["min_psi_tilde"],
                                 ref.COERCIVITY_MINIMA[r["M"]], rel_tol=1e-9)
                    for r in scan), f"minima differ from the frozen ones: {mins}")
    starts = res["multistart"]
    if starts is not None:
        p.note("multistart", [(r.value, list(r.inertia)) for r in starts])
        p.expect("multistart", any(
            abs(r.value - ref.SADDLE_VALUE) <= 1e-8
            and tuple(r.inertia) == ref.SADDLE_INERTIA for r in starts),
            "canonical saddle missing from the multistart")


# ---------------------------------------------------------------------------
# energy: quadrature gaps and the grid instrument at fixed configurations
# ---------------------------------------------------------------------------

def energy_inputs(seed: int) -> dict:
    # The seed is recorded but unused: the inputs are published configurations.
    return {
        "seed": seed,
        "domain": nb.BallDomain.unit(3),
        "saddle": nb.Configuration(k=4, signs=nb.ALTERNATING_SIGNS_4,
                                   Lambda=ref.SADDLE_LAMBDA, t=ref.SADDLE_T),
        "k1": nb.Configuration(k=1, signs=(1,), Lambda=(ref.LAMBDA_STAR,),
                               t=(0.0,)),
    }


def energy_run(inp: dict, p) -> dict:
    d, cfg4 = inp["domain"], inp["saddle"]
    r: dict = {}
    with p.stage("quadrature_s"):
        table = r["table"] = p.op("constants", nb.compute_constants, 3)
        r["gap_k4"] = p.op("gap_k4", nb.expansion_gap, cfg4, EPS, table,
                           domain=d)
        r["gap_k1"] = p.op("gap_k1", nb.expansion_gap, inp["k1"], EPS, table,
                           domain=d)
        r["residual"] = p.op("residual_quadrature", nb.residual_quadrature,
                             d, cfg4, table, EPS[-1])
        r["gradient"] = p.op("energy_gradient_quadrature",
                             nb.energy_gradient_quadrature, d, cfg4, table,
                             EPS[-1])
    with p.stage("grid_s"):
        grid = r["grid"] = p.op("grid", nb.AxisymGrid.for_ball, d,
                                nz=513, nr=257)
        for eps in EPS:
            bubble = nb.BubbleParams(N=3, eps=eps, lam=1.0, xi=np.zeros(3))
            pu = r[f"project@{eps}"] = p.op(f"project@{eps}",
                                            nb.project_bubble, d, bubble, grid)
            r[f"residual_norm@{eps}"] = p.op(f"residual_norm@{eps}",
                                             nb.residual_norm, pu, eps,
                                             relative=True)
            r[f"energy_I@{eps}"] = p.op(f"energy_I@{eps}", nb.energy_I, pu, eps)
    return r


def energy_check(inp: dict, res: dict, p) -> None:
    d = inp["domain"]
    table = res["table"]
    if table is not None:
        p.expect("constants", ref.constants_match(table.to_json_dict(), 3),
                 "constants differ from the closed forms")
    for op, psi in (("gap_k4", ref.SADDLE_VALUE), ("gap_k1", ref.PSI1_MIN)):
        if res[op] is not None:
            _check_gap(p, op, res[op])
            p.expect(op, abs(res[op]["psi"] - psi) <= 1e-9,
                     f"psi {res[op]['psi']!r}")
    if res["residual"] is not None:
        p.expect("residual_quadrature", math.isclose(
            res["residual"], ref.RESIDUAL_QUADRATURE_0025, rel_tol=1e-6),
            f"relative residual {res['residual']!r}")
    if res["gradient"] is not None:
        p.expect("energy_gradient_quadrature",
                 bool(np.all(np.isfinite(res["gradient"]))),
                 "non-finite energy gradient")
    grid = res["grid"]
    rates = []
    for eps in EPS:
        pu = res[f"project@{eps}"]
        if pu is None or grid is None:
            continue
        # The lam = 1 bubble written out here: core width m = eps in N = 3.
        d2 = grid.z_nodes ** 2 + grid.r_nodes ** 2
        u = 3.0 ** 0.25 * (eps / (eps * eps + d2)) ** 0.5
        active = grid.interior | grid.boundary
        rates.append(float(np.max(np.abs(np.where(active, pu.values - u, 0.0))))
                     / math.sqrt(eps))
        rn = res[f"residual_norm@{eps}"]
        p.expect(f"residual_norm@{eps}", rn is not None and math.isfinite(rn),
                 f"residual norm {rn!r}")
        e_grid = res[f"energy_I@{eps}"]
        if e_grid is not None:
            # Same bubble through the quadrature instrument: Lambda = sqrt(128)
            # gives lam = 1 in N = 3.
            cfg = nb.Configuration(k=1, signs=(1,), Lambda=(math.sqrt(128.0),),
                                   t=(0.0,))
            e_quad, _ = nb.energy_quadrature(d, cfg, table, eps)
            p.expect(f"energy_I@{eps}", abs(e_grid - e_quad) < 0.05,
                     f"grid energy {e_grid!r} vs quadrature {e_quad!r}")
    if len(rates) == len(EPS):
        p.expect("project@0.025", max(rates) / min(rates) <= 2.0,
                 f"projection-rate constants {rates}")


# ---------------------------------------------------------------------------
# dim_sweep: constants for N = 3..12, validators for N = 3..8
# ---------------------------------------------------------------------------

CONSTANT_DIMS = range(3, 13)
VALIDATOR_DIMS = range(3, 9)
# compute_constants raises QuadratureError for N >= 9 (absolute error gate
# against integrals that grow with N).  That outcome is counted as a known
# defect; a correct table for those N passes the same closed-form check.
KNOWN_DEFECT_DIMS = range(9, 13)


def dim_sweep_inputs(seed: int) -> dict:
    return {"seed": seed,
            "domains": {N: nb.BallDomain.unit(N) for N in VALIDATOR_DIMS}}


def dim_sweep_run(inp: dict, p) -> dict:
    r: dict = {}
    with p.stage("constants_s"):
        for N in CONSTANT_DIMS:
            known = (QuadratureError,) if N in KNOWN_DEFECT_DIMS else ()
            r[f"constants@{N}"] = p.op(f"constants@{N}", nb.compute_constants,
                                       N, known=known)
    with p.stage("assumptions_s"):
        for N, d in inp["domains"].items():
            r[f"validate_A3@{N}"] = p.op(f"validate_A3@{N}", nb.validate_A3,
                                         d, nb.AxisSection.of_ball(d))
            r[f"boundary@{N}"] = p.op(f"boundary@{N}",
                                      nb.check_boundary_expansion, d)
            r[f"monotonicity@{N}"] = p.op(
                f"monotonicity@{N}", nb.check_directional_monotonicity, d,
                seed=inp["seed"])
    return r


def dim_sweep_check(inp: dict, res: dict, p) -> None:
    for N in CONSTANT_DIMS:
        table = res[f"constants@{N}"]
        if table is not None:
            p.expect(f"constants@{N}", ref.constants_match(
                table.to_json_dict(), N), "constants differ from closed forms")
    for N in VALIDATOR_DIMS:
        for op, count in ((f"validate_A3@{N}", 2), (f"boundary@{N}", 3),
                          (f"monotonicity@{N}", 1)):
            reports = res[op]
            if reports is None:
                continue
            if not isinstance(reports, list):
                reports = [reports]
            # Verdicts are recorded, not gated: the N = 8 leading-ratio check
            # fails (0.161 > 0.15) on the library as it stands.
            p.note(op, [bool(r.passed) for r in reports])
            p.expect(op, len(reports) == count and all(
                math.isfinite(r.worst_value) and r.sample_count > 0
                for r in reports), f"malformed reports {reports}")


WORKLOADS = {
    "pipeline": (pipeline_inputs, pipeline_run, pipeline_check),
    "reduced": (reduced_inputs, reduced_run, reduced_check),
    "energy": (energy_inputs, energy_run, energy_check),
    "dim_sweep": (dim_sweep_inputs, dim_sweep_run, dim_sweep_check),
}

STAGES = {
    "pipeline": ("cli.constants_s", "cli.assumptions_s", "cli.saddle_s",
                 "cli.verify_s"),
    "reduced": ("saddle_s", "coercivity_s", "multistart_s"),
    "energy": ("quadrature_s", "grid_s"),
    "dim_sweep": ("constants_s", "assumptions_s"),
}
