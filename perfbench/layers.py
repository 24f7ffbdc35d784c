"""Which library functions the traced pass wraps, and the per-layer metrics.

Every target is a public function (or a public class's method) of one of
the library modules.  Targets are grouped into layers; a call counts once
per layer it enters, so ``psi_tilde -> psi_k`` is one energy evaluation,
while self time is summed over every span of the layer.

:func:`aggregate` turns the spans of one traced pass into additive raw
counters (so the counters of several CLI processes can be summed), and
:func:`layer_metrics` turns summed raw counters into the per-layer metrics
named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import statistics

from tracer import Target, under


def _points(args) -> int:
    """Evaluation points of an axis-kernel call: its largest array argument."""
    import numpy as np
    return max(int(np.size(a)) for a in args[2:])


def _bubble_points(args) -> int:
    import numpy as np
    return int(np.broadcast(args[1], args[2]).size)


class GridWatch:
    """Tags each grid solve with 1 when it factors a fresh grid.

    The grids it factored stay referenced until :meth:`lu_nnz` reads their
    fill and forgets them.
    """

    def __init__(self):
        self.grids = []

    def tag(self, args) -> int:
        grid = args[0]
        # Private read-only peek: the library exposes no public factor state.
        if grid._lu is None:
            self.grids.append(grid)
            return 1
        return 0

    def lu_nnz(self) -> int:
        nnz = [g._lu.L.nnz + g._lu.U.nnz for g in self.grids
               if g._lu is not None]
        self.grids = []
        return max(nnz, default=0)


AXIS_KERNELS = ("axis_g", "axis_g_dt", "axis_h", "axis_h_d1", "axis_h_d2")


def layer_targets(watch: GridWatch) -> dict[str, list[Target]]:
    """Layer name -> the targets whose spans belong to it."""
    return {
        "bubble_core.compute_constants": [
            Target("bubble_core", "compute_constants")],
        "green_domain.axis_kernel": [
            Target("green_domain", f, _points) for f in AXIS_KERNELS],
        "green_domain.validators": [
            Target("green_domain", f) for f in (
                "validate_A3", "check_boundary_expansion",
                "check_directional_monotonicity")],
        "green_domain.grad_x_G": [Target("green_domain", "grad_x_G")],
        "reduced_energy.energy": [
            Target("reduced_energy", f)
            for f in ("psi_k", "psi_tilde", "phi_penalty")],
        "reduced_energy.grad": [
            Target("reduced_energy", f)
            for f in ("grad_psi_k", "grad_psi_tilde")],
        "reduced_energy.find_t0_r0": [Target("reduced_energy", "find_t0_r0")],
        "saddle_solver.hessian": [
            Target("saddle_solver", f)
            for f in ("hessian_psi_k", "hessian_psi_tilde")],
        "saddle_solver.newton": [Target("saddle_solver", "solve_saddle")],
        "saddle_solver.coercivity": [
            Target("saddle_solver", "coercivity_scan")],
        "pde_harness.energy_quadrature": [
            Target("pde_harness", "energy_quadrature")],
        "pde_harness.residual_quadrature": [
            Target("pde_harness", "residual_quadrature")],
        "pde_harness.bubble": [
            Target("pde_harness", f"ProjectedBubbleExact.{m}", _bubble_points)
            for m in ("u", "w")],
        "pde_harness.grid": [
            Target("pde_harness", f, watch.tag)
            for f in ("solve_dirichlet_laplace", "solve_poisson")],
    }


def all_targets(watch: GridWatch) -> list[Target]:
    return [t for ts in layer_targets(watch).values() for t in ts]


def aggregate(tracer, watch: GridWatch) -> dict:
    """Additive raw counters of the spans recorded so far."""
    import numpy as np
    groups = layer_targets(watch)
    group_names = list(groups)
    of_name = {t.name: gi for gi, ts in enumerate(groups.values())
               for t in ts}
    a = tracer.arrays()
    n = len(a["start"])
    lookup = np.array([of_name.get(nm, -1) for nm in tracer.names] + [-1])
    group = lookup[a["name_id"]]
    parent = a["parent"]
    dur = a["end"] - a["start"]
    self_s = a["self_s"]
    parent_group = np.where(parent >= 0, group[np.maximum(parent, 0)], -1)
    entry = (group >= 0) & (group != parent_group)

    def gid(name):
        return group_names.index(name)

    raw: dict = {}
    for gi, gname in enumerate(group_names):
        member = group == gi
        raw[f"{gname}.calls"] = int(np.sum(entry & member))
        raw[f"{gname}.self_s"] = float(np.sum(self_s[member]))
        raw[f"{gname}.total_s"] = float(np.sum(dur[entry & member]))
        raw[f"{gname}.tag"] = int(np.sum(a["tag"][member]))
        raw[f"{gname}.raised"] = int(np.sum(a["raised"][entry & member]))

    names = np.array(tracer.names + [""])[a["name_id"]]
    in_coercivity = under(parent, group == gid("saddle_solver.coercivity"))
    in_hessian = under(parent, group == gid("saddle_solver.hessian"))
    energy_entry = entry & (group == gid("reduced_energy.energy"))
    grad_entry = entry & (group == gid("reduced_energy.grad"))
    hess_entry = entry & (group == gid("saddle_solver.hessian"))
    raw["coercivity.axis_g_s"] = float(np.sum(
        self_s[(names == "green_domain.axis_g") & in_coercivity]))
    raw["coercivity.energy_calls"] = int(np.sum(energy_entry & in_coercivity))
    raw["hessian.grad_calls"] = int(np.sum(grad_entry & in_hessian))
    # The Hessians of the certified-saddle stage alone (the multistart makes
    # its own), for the share of that stage.
    in_saddle_stage = under(parent, names == "saddle_s")
    raw["saddle_s.hessian_total_s"] = float(np.sum(
        dur[hess_entry & in_saddle_stage]))
    raw["saddle_s.hessian_self_s"] = float(np.sum(
        self_s[(group == gid("saddle_solver.hessian")) & in_saddle_stage]))

    # Newton bookkeeping from the children of each solve_saddle span: one
    # Hessian per iteration plus one for the final inertia on success; one
    # gradient at the start plus one per line-search trial that was
    # admissible.
    newton = entry & (group == gid("saddle_solver.newton"))
    direct = parent >= 0
    hess_children = np.bincount(parent[direct & hess_entry], minlength=n)
    grad_children = np.bincount(parent[direct & grad_entry], minlength=n)
    ok = newton & ~a["raised"]
    iterations = hess_children[newton] - ok[newton]
    raw["newton.iterations"] = int(np.sum(iterations))
    raw["newton.backtracks"] = int(np.sum(np.maximum(
        grad_children[newton] - 1 - iterations, 0)))
    raw["newton.failed"] = int(np.sum(a["raised"][newton]))

    solve = entry & (group == gid("pde_harness.grid"))
    first = solve & (a["tag"] == 1)
    raw["grid.first_solve_s"] = float(np.sum(dur[first]))
    raw["grid.first_solves"] = int(np.sum(first))
    raw["grid.reuse_solve_s"] = float(np.sum(dur[solve & ~first]))
    raw["grid.reuse_solves"] = int(np.sum(solve & ~first))
    raw["grid.lu_nnz"] = watch.lu_nnz()
    return raw


def merge(raws: list[dict]) -> dict:
    """Sum raw counters of several processes; the LU fill takes the max."""
    out: dict = {}
    for raw in raws:
        for k, v in raw.items():
            out[k] = max(out.get(k, 0), v) if k == "grid.lu_nnz" \
                else out.get(k, 0) + v
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict, ctx: dict) -> dict:
    """Per-layer metric values from raw counters and run context.

    ``ctx`` carries what the spans do not: the import probe, the CLI probe
    times, the coercivity sample counts, the untraced stage medians used as
    share denominators and the traced and untraced pass walls.
    """
    m = {
        "import.s": ctx["import_s"],
        "import.modules": ctx["import_modules"],
        "bubble_core.compute_constants.calls":
            raw["bubble_core.compute_constants.calls"],
        "bubble_core.compute_constants.self_s":
            raw["bubble_core.compute_constants.self_s"],
        "bubble_core.compute_constants.failed":
            raw["bubble_core.compute_constants.raised"],
        "green_domain.axis_kernel.calls": raw["green_domain.axis_kernel.calls"],
        "green_domain.axis_kernel.points": raw["green_domain.axis_kernel.tag"],
        "green_domain.axis_kernel.self_s":
            raw["green_domain.axis_kernel.self_s"],
        "green_domain.validators.self_s": raw["green_domain.validators.self_s"],
        "green_domain.grad_x_G.calls": raw["green_domain.grad_x_G.calls"],
        "reduced_energy.energy.calls": raw["reduced_energy.energy.calls"],
        "reduced_energy.energy.self_s": raw["reduced_energy.energy.self_s"],
        "reduced_energy.grad.calls": raw["reduced_energy.grad.calls"],
        "reduced_energy.grad.self_s": raw["reduced_energy.grad.self_s"],
        "reduced_energy.find_t0_r0.self_s":
            raw["reduced_energy.find_t0_r0.self_s"],
        "saddle_solver.hessian.calls": raw["saddle_solver.hessian.calls"],
        "saddle_solver.hessian.self_s": raw["saddle_solver.hessian.self_s"],
        "saddle_solver.hessian.total_s": raw["saddle_solver.hessian.total_s"],
        "saddle_solver.hessian.grad_calls": raw["hessian.grad_calls"],
        "saddle_solver.newton.iterations": raw["newton.iterations"],
        "saddle_solver.newton.backtracks": raw["newton.backtracks"],
        "saddle_solver.newton.failed": raw["newton.failed"],
        "saddle_solver.coercivity.certified_frac":
            _ratio(ctx["certified"], ctx["drawn"]),
        "saddle_solver.coercivity.energy_calls":
            raw["coercivity.energy_calls"],
        "pde_harness.energy_quadrature.calls":
            raw["pde_harness.energy_quadrature.calls"],
        "pde_harness.energy_quadrature.self_s":
            raw["pde_harness.energy_quadrature.self_s"],
        "pde_harness.residual_quadrature.self_s":
            raw["pde_harness.residual_quadrature.self_s"],
        "pde_harness.bubble_evals": raw["pde_harness.bubble.tag"],
        "pde_harness.grid.first_solve_s": raw["grid.first_solve_s"],
        "pde_harness.grid.solve_s":
            _ratio(raw["grid.reuse_solve_s"], raw["grid.reuse_solves"]),
        "pde_harness.grid.solves":
            raw["grid.first_solves"] + raw["grid.reuse_solves"],
        "pde_harness.grid.lu_nnz": raw["grid.lu_nnz"],
    }
    for cmd in ("constants", "assumptions", "saddle", "verify"):
        m[f"cli.{cmd}.import_s"] = ctx.get(f"cli.{cmd}.import_s", 0.0)
        m[f"cli.{cmd}.main_s"] = ctx.get(f"cli.{cmd}.main_s", 0.0)
    stages = ctx["stages"]
    m["trace.wall_s"] = ctx["traced_wall_s"]
    m["trace.overhead_s"] = ctx["traced_wall_s"] - ctx["wall_s"]
    # The layer-share table.  The Hessian share uses the Hessian's inclusive
    # time, because a finite-difference Hessian spends its time in the
    # gradient calls it makes; its self-time share is listed beside it.
    m["share.hessian_of_saddle"] = _ratio(
        raw["saddle_s.hessian_total_s"], stages.get("saddle_s", 0.0))
    m["share.hessian_self_of_saddle"] = _ratio(
        raw["saddle_s.hessian_self_s"], stages.get("saddle_s", 0.0))
    m["share.axis_g_of_coercivity"] = _ratio(
        raw["coercivity.axis_g_s"], stages.get("coercivity_s", 0.0))
    m["share.import_of_cli_constants"] = _ratio(
        ctx["import_s"], stages.get("cli.constants_s", 0.0))
    m["share.first_solve_of_cli_verify"] = _ratio(
        raw["grid.first_solve_s"], stages.get("cli.verify_s", 0.0))
    return m


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each metric over the traced passes of a run."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
