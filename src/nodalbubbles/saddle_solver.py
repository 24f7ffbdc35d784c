"""Locate and certify critical points of the reduced k-bubble energies.

The alternating four-bubble energy Ψ̃ has, on a ball, a critical point of
saddle type bracketed between an explicit lower bound driven by the Robin
minimum and the attractive-interaction sum at an equally spaced admissible
start.  This module finds critical points of Ψ_k, for any k and any signs,
by a damped Newton iteration on the analytic gradient:

* the Newton direction d = −H⁻¹ ∇Ψ_k (H the exact analytic Hessian) is
  always a descent direction for ½‖∇Ψ_k‖², whatever the inertia of H, so an
  Armijo backtracking line search on that merit function is globally
  well-defined;
* iterates are kept in the admissible set (positive scalings, strictly
  ordered positions inside the chord) by step halving — never by reordering,
  since the ordering is structural;
* at convergence the Hessian inertia (n₊, n₋, n₀) certifies the saddle
  character, and the stationarity identities
  Λ_i² h(t_i) − Σ_{j≠i} a_i a_j Λ_i Λ_j g(t_i,t_j) = 1 are available as an
  independent check.

``solve_saddle_multistart`` runs Newton from perturbed scaling-family
starts and reports all distinct critical points found; nothing falls back
to it (``saddle`` exits 4 when Newton's point is not of max–min type).
The coercivity probe samples the minimum of Ψ̃ on the level sets
{Φ = M/2} of the penalty for increasing M; the minima must increase,
which is the observable trace of the coercivity of the construction.  Its
samples go through one batched evaluator with closed-form level crossings.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (ParameterError, SolverDivergenceError, _require_int,
                     _require_real, _require_reals)
from .green_domain import AxisKernels, AxisSection, BallDomain
from .reduced_energy import (ALTERNATING_SIGNS_4, BoundsReport,
                             Configuration, _psi_terms, _quadratic_form,
                             _require_alternating4, base_spacing_points,
                             find_t0_r0, grad_psi_k, mu_embed, phi_penalty,
                             psi_k, scaling_products)

__all__ = [
    "SaddleReport",
    "hessian_psi_k",
    "hessian_psi_tilde",
    "inertia_of",
    "solve_saddle",
    "solve_saddle_multistart",
    "stationarity_identities",
    "verify_bounds",
    "coercivity_scan",
    "write_trace_csv",
]


@dataclass
class SaddleReport:
    """Converged critical point of Ψ_k with its certification data.

    ``inertia`` counts (positive, negative, zero) Hessian eigenvalues;
    ``bounds_ok`` is None until :func:`verify_bounds` fills it; ``trace``
    rows are (iteration, Ψ_k, ‖∇Ψ_k‖, step).
    """

    config: Configuration
    value: float
    grad_norm: float
    inertia: tuple
    bounds_ok: bool | None
    iterations: int
    trace: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        """The fields in order but ``trace``, which goes to trace.csv."""
        d = asdict(self)
        del d["trace"]
        d.update(config=self.config.to_json_dict(), inertia=list(self.inertia))
        return d


# Admissible-set guards for solver iterates: scalings in [LAM_MIN, LAM_MAX],
# positions in the chord shrunk by T_MARGIN, strict ordering always enforced.
LAM_MIN = 1e-6
LAM_MAX = 1e6
T_MARGIN = 1e-6


def _pack(cfg: Configuration) -> np.ndarray:
    return np.asarray(cfg.Lambda + cfg.t, dtype=float)


def _positions_admissible(t: np.ndarray, sec: AxisSection) -> bool:
    if np.any(t <= sec.a + T_MARGIN) or np.any(t >= sec.b - T_MARGIN):
        return False
    return bool(np.all(np.diff(t) > 0.0))


def _admissible(x: np.ndarray, k: int, sec: AxisSection) -> bool:
    lam = x[:k]
    if np.any(lam < LAM_MIN) or np.any(lam > LAM_MAX):
        return False
    return _positions_admissible(x[k:], sec)


# ---------------------------------------------------------------------------
# Hessian and inertia
# ---------------------------------------------------------------------------

def hessian_psi_k(cfg: Configuration, kern: AxisKernels) -> np.ndarray:
    """Exact 2k×2k Hessian of Ψ_k in (Λ_1..k, t_1..k), exactly symmetric.

    Closed form from the kernels g, ∂g/∂t, ∂²g/∂t², ∂²g/∂t∂s, h, h' and h''.
    """
    return _psi_terms(cfg, kern, 2)[2]


def hessian_psi_tilde(cfg: Configuration, kern: AxisKernels) -> np.ndarray:
    """8×8 Hessian of Ψ̃ (alternating four-bubble case)."""
    _require_alternating4(cfg, "hessian_psi_tilde")
    return hessian_psi_k(cfg, kern)


def inertia_of(H: np.ndarray) -> tuple:
    """Eigenvalue sign counts (n₊, n₋, n₀); zero means |λ| <= 1e-7 max(‖H‖, 1)."""
    w = np.linalg.eigvalsh(0.5 * (H + H.T))
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    thr = 1e-7 * max(scale, 1.0)
    n_plus = int(np.sum(w > thr))
    n_minus = int(np.sum(w < -thr))
    return (n_plus, n_minus, int(w.size) - n_plus - n_minus)


# ---------------------------------------------------------------------------
# Newton solver
# ---------------------------------------------------------------------------

def solve_saddle(domain: BallDomain, section: AxisSection | None,
                 init: Configuration, tol: float = 1e-8, max_iter: int = 50
                 ) -> SaddleReport:
    """Damped Newton iteration on ∇Ψ_k from an admissible start.

    The bubble count k and the signs are those of ``init``; the 2k unknowns
    are (Λ_1..k, t_1..k).  Each step solves H d = −∇Ψ_k with the analytic
    Hessian and backtracks on the merit ½‖∇Ψ_k‖² (Armijo), halving also
    whenever the trial iterate would leave the admissible set.
    Near-singular Hessians are Tikhonov-regularized and noted.  Raises a
    divergence error carrying the iteration trace if the step collapses or
    the iteration cap is hit; on success returns the report with inertia
    counts (a zero count adds a degenerate-critical-point warning).
    """
    tol = _require_real("tol", tol)
    max_iter = _require_int("max_iter", max_iter, 1)
    kern = AxisKernels(domain, section)
    k = init.k

    x = _pack(init)
    if not _admissible(x, k, kern.section):
        raise ParameterError("initial configuration violates the guards")

    warnings: list[str] = []
    cfg = init
    F = grad_psi_k(cfg, kern)
    gnorm = float(np.linalg.norm(F))
    trace = [(0, psi_k(cfg, kern), gnorm, 0.0)]

    it = 0
    while gnorm > tol:
        if it >= max_iter:
            raise SolverDivergenceError(
                f"Newton did not reach |grad| <= {tol:g} in {max_iter} "
                f"iterations (last |grad| = {gnorm:.3e})", trace=trace)
        it += 1

        H = hessian_psi_k(cfg, kern)
        try:
            d = np.linalg.solve(H, -F)
        except np.linalg.LinAlgError:
            d = None
        if d is None or not np.all(np.isfinite(d)):
            reg = 1e-8 * max(float(np.max(np.abs(H))), 1.0)
            d = np.linalg.solve(H + reg * np.eye(2 * k), -F)
            warnings.append(
                f"iteration {it}: Hessian numerically singular, "
                f"regularized by {reg:.3e}")

        phi0 = 0.5 * float(F @ F)
        step = 1.0
        accepted = False
        while step >= 1e-12:
            x_try = x + step * d
            if _admissible(x_try, k, kern.section):
                cfg_try = init.with_params(Lambda=x_try[:k], t=x_try[k:])
                F_try = grad_psi_k(cfg_try, kern)
                phi_try = 0.5 * float(F_try @ F_try)
                # d is exact Newton for F, so d·∇(½|F|²) = −|F|²; Armijo:
                if phi_try <= phi0 - 1e-4 * step * (2.0 * phi0):
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            raise SolverDivergenceError(
                f"line search stalled at iteration {it} "
                f"(|grad| = {gnorm:.3e})", trace=trace)

        x, cfg, F = x_try, cfg_try, F_try
        gnorm = float(np.linalg.norm(F))
        trace.append((it, psi_k(cfg, kern), gnorm, step))

    H = hessian_psi_k(cfg, kern)
    inertia = inertia_of(H)
    if inertia[2] > 0:
        warnings.append(
            f"degenerate critical point: {inertia[2]} Hessian eigenvalue(s) "
            "below the zero threshold")
    return SaddleReport(
        config=cfg, value=trace[-1][1], grad_norm=gnorm,
        inertia=inertia, bounds_ok=None, iterations=it, trace=trace,
        warnings=warnings)


def _draw_mus(rng: np.random.Generator) -> tuple:
    """Log-uniform scaling-family parameters (μ1, μ, μ4), each in [1/4, 4]."""
    return tuple(float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
                 for _ in range(3))


def solve_saddle_multistart(domain: BallDomain, section: AxisSection | None,
                            t_base, n_starts: int = 8, seed: int = 0
                            ) -> list[SaddleReport]:
    """Newton from perturbed scaling-family starts; distinct solutions only.

    Starts are ``mu_embed`` points with log-uniform parameters in [1/4, 4]
    (the first start is the unperturbed (1,1,1)) and the given base
    positions.  Failed starts are dropped; converged configurations closer
    than 1e-4 (max-norm over scalings and positions) count as the same
    point.  Results are sorted by energy.  Base positions that are not four
    reals strictly increasing inside the chord (shrunk by ``T_MARGIN``)
    raise ParameterError.
    """
    n_starts = _require_int("n_starts", n_starts, 1)
    rng = np.random.default_rng(_require_int("seed", seed, 0))
    t_base = _require_reals("t_base", t_base, 4, positive=False)
    if not _positions_admissible(np.array(t_base),
                                 AxisKernels(domain, section).section):
        raise ParameterError(
            f"t_base {t_base} must be strictly increasing inside the chord")
    reports: list[SaddleReport] = []
    for s in range(n_starts):
        mus = (1.0, 1.0, 1.0) if s == 0 else _draw_mus(rng)
        try:
            rep = solve_saddle(domain, section, mu_embed(*mus, t_base))
        except (SolverDivergenceError, ParameterError):
            continue
        x = _pack(rep.config)
        if all(np.max(np.abs(x - _pack(prev.config))) > 1e-4
               for prev in reports):
            reports.append(rep)
    reports.sort(key=lambda r: r.value)
    return reports


def stationarity_identities(cfg: Configuration, kern: AxisKernels
                            ) -> np.ndarray:
    """The k per-bubble stationarity combinations, each 1 at a critical point.

    Entry i is Λ_i² h(t_i) − Σ_{j≠i} a_i a_j Λ_i Λ_j g(t_i, t_j), which is
    Λ_i ∂Ψ/∂Λ_i + 1; the scaling part of the gradient vanishes exactly when
    every entry equals 1.
    """
    g = grad_psi_k(cfg, kern)
    lam = np.asarray(cfg.Lambda, dtype=float)
    return lam * g[:cfg.k] + 1.0


def verify_bounds(report: SaddleReport, bounds: BoundsReport) -> bool:
    """Check lower <= value <= upper; record the outcome on the report.

    A failure is a warning, not an error: the computed critical value and
    the a-priori bracket are reported side by side.
    """
    ok = bool(bounds.lower <= report.value <= bounds.upper)
    report.bounds_ok = ok
    if not ok:
        report.warnings.append(
            f"critical value {report.value:.9g} outside the a-priori "
            f"bracket [{bounds.lower:.9g}, {bounds.upper:.9g}]")
    return ok


def write_trace_csv(report: SaddleReport, path) -> None:
    """Dump the iteration trace as CSV rows (iter, psi_tilde, grad_norm, step);
    the ``psi_tilde`` column, named by the schema, holds Ψ_k for any k."""
    import csv
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iter", "psi_tilde", "grad_norm", "step"])
        for row in report.trace:
            w.writerow([row[0], f"{row[1]:.17g}", f"{row[2]:.17g}",
                        f"{row[3]:.17g}"])


# ---------------------------------------------------------------------------
# coercivity probe
# ---------------------------------------------------------------------------

_PATH = np.linspace(0.0, 1.0, 17)[:, None]   # anchor-to-midpoint path nodes
_NEWTON_CAP = 64
_ALT_C = -np.outer(ALTERNATING_SIGNS_4, ALTERNATING_SIGNS_4).astype(float)


def _anchor_config(kern: AxisKernels, t_base) -> Configuration:
    """Penalty-minimal point of the unit scaling ray at the base positions."""
    base = mu_embed(1.0, 1.0, 1.0, t_base)   # Λ = 1, so Φ(c = 1) = A
    return base.with_params(
        Lambda=(math.sqrt(2.0 / phi_penalty(base, kern)),) * 4)


def _level_crossings(kern: AxisKernels, anchor: Configuration, L, t,
                     level: float) -> tuple:
    """Level crossings of scaling rays, Ψ̃ at them, and their certification.

    ``L`` and ``t`` hold alternating four-bubble rows, shape (..., 4).
    Along the ray Λ ↦ √c Λ the penalty is Φ(c) = cA − 2 log c + B with
    B = −Σ log Λ_i and A = Φ(1) − B.  Writing c = (2/A) y turns Φ(c) = level
    into y − log y = K, K = (level − B)/2 + log(2/A), so the crossings are
    y = −W_b(−e^{−K}) on the Lambert W branches b = 0 and b = −1 (Corless et
    al., Adv. Comput. Math. 5, 1996).  They exist iff K > 1 and are found by
    Newton on e^u − u − K in u = log y, which is convex, so the iterates from
    u = −K and u = log 2K approach the roots monotonically.  Φ is convex
    along the ray, so the segment between the crossings stays in the
    sublevel set; a row is certified when additionally the straight path in
    (log Λ, t) from the anchor to the ray point at the crossings' mean
    scaling stays inside {Φ < level}, checked at 17 points (both position
    vectors are increasing, so every point of the path is ordered too).

    Returns (c, psi, ok): the crossings c_lo < 2/A < c_hi, shape (..., 2);
    Ψ̃ at both, +inf where the row is not certified; and the mask of rows
    that reach the level with a certified path.
    """
    L, t = np.asarray(L, dtype=float), np.asarray(t, dtype=float)
    B = -np.sum(np.log(L), axis=-1)
    A = _quadratic_form(kern, np.ones((4, 4)), L, t)[0] - B
    K = 0.5 * (level - B) + np.log(2.0 / A)
    reach = K > 1.0
    K = np.where(reach, K, 2.0)[..., None]     # rays below the level: unused

    u = np.stack([-K[..., 0], np.log(2.0 * K[..., 0])], axis=-1)
    for _ in range(_NEWTON_CAP):
        e = np.exp(u)
        g = e - u - K
        u = u - g / (e - 1.0)
        if np.all(np.abs(g) <= 1e-15 * (1.0 + np.abs(u)) * (e + K)):
            break      # the residual was at rounding level before this step
    else:
        raise SolverDivergenceError(
            f"level crossings did not converge in {_NEWTON_CAP} Newton steps")
    c = (2.0 / A)[..., None] * np.exp(u)

    lam_mid = np.sqrt(0.5 * (c[..., 0] + c[..., 1]))[..., None] * L
    path_L = np.exp((1.0 - _PATH) * np.log(anchor.Lambda)
                    + _PATH * np.log(lam_mid)[..., None, :])
    path_t = (1.0 - _PATH) * np.asarray(anchor.t) + _PATH * t[..., None, :]
    path_phi = _quadratic_form(kern, np.ones((4, 4)), path_L, path_t)[0]
    ok = reach & np.all(path_phi < level, axis=-1)

    L_cross = np.sqrt(c)[..., None] * L[..., None, :]
    psi = _quadratic_form(kern, _ALT_C, L_cross,
                          np.broadcast_to(t[..., None, :], L_cross.shape))[0]
    return c, np.where(ok[..., None], psi, np.inf), ok


def coercivity_scan(domain: BallDomain, section: AxisSection | None = None,
                    M_list=(10.0, 20.0, 40.0), n_samples: int = 64,
                    seed: int = 0) -> list[dict]:
    """Sampled minima of Ψ̃ on the penalty level sets {Φ = M/2}.

    The window and spacing come from :func:`find_t0_r0`.  For each M the
    scan draws all its scaling-family configurations first (log-uniform
    μ's in [1/4, 4], ordered positions in the window [t0 − 4r0, t0 + 4r0]
    with a minimum gap of r0/8), then evaluates them in one batch: each is
    pushed along its scaling ray to both closed-form crossings of the level
    (the convex ray segment stays in the sublevel set, so the crossings
    remain in the anchored component), kept if its straight path to the
    base family's penalty-minimal anchor stays inside {Φ < M/2}, and the
    smallest Ψ̃ at a kept crossing is recorded; a Nelder-Mead polish of the
    level-set parametrization around the best sample then tightens the
    minimum.  Levels the anchor cannot reach are skipped with a note and
    draw nothing.  The levels M are scales, strictly increasing; minima
    must increase with M — the observable trace of penalty coercivity.
    """
    n_samples = _require_int("n_samples", n_samples, 1)
    rng = np.random.default_rng(_require_int("seed", seed, 0))
    M_list = _require_reals("M_list", M_list)
    if any(b <= a for a, b in zip(M_list, M_list[1:])):
        raise ParameterError(f"M_list must be strictly increasing, got {M_list}")
    kern = AxisKernels(domain, section)
    t0, r0 = find_t0_r0(domain, kern.section)
    t_base = base_spacing_points(t0, r0)
    anchor = _anchor_config(kern, t_base)
    anchor_phi = phi_penalty(anchor, kern)
    window = (t0 - 4.0 * r0, t0 + 4.0 * r0)
    min_gap = r0 / 8.0

    def draw_positions():
        for _ in range(200):
            t = np.sort(rng.uniform(window[0], window[1], 4))
            if np.min(np.diff(t)) >= min_gap:
                return tuple(t)
        return t_base

    results = []
    for M in M_list:
        level = 0.5 * M
        if anchor_phi >= level:
            results.append({
                "M": M, "min_psi_tilde": None, "n_certified": 0,
                "note": (f"level set skipped: anchor penalty "
                         f"{anchor_phi:.6g} >= M/2 = {level:.6g}")})
            continue

        cfgs = [mu_embed(*_draw_mus(rng), draw_positions())
                for _ in range(n_samples)]
        x = np.reshape([_pack(c) for c in cfgs], (-1, 8))
        _, psi, ok = _level_crossings(kern, anchor, x[:, :4], x[:, 4:], level)
        n_cert = int(np.count_nonzero(ok))
        if n_cert == 0:
            results.append({
                "M": M, "min_psi_tilde": None, "n_certified": 0,
                "note": "no certified sample reached the level"})
            continue

        # The first minimum in draw order, lower crossing first.
        best = int(np.argmin(psi))
        best_val, note = _refine_level_min(
            kern, anchor, cfgs[best // 2], level, float(psi.flat[best]),
            window, min_gap)

        results.append({
            "M": M, "min_psi_tilde": float(best_val),
            "n_certified": n_cert, "note": note})
    return results


def _refine_level_min(kern: AxisKernels, anchor: Configuration,
                      cfg0: Configuration, level: float, val0: float,
                      window, min_gap) -> tuple:
    """Nelder-Mead polish of min Ψ̃ on the level set around a best sample.

    Free parameters are (log μ1, log μ, log μ4, t1..t4); each trial point is
    pushed to both level crossings of its scaling ray and must re-certify
    its path to the anchor, so the polish cannot leave the anchored
    component.  Returns (refined value, note).
    """
    mu1, mu, mu4, t = scaling_products(cfg0)
    z0 = np.array([math.log(mu1), math.log(mu), math.log(mu4), *t])

    def objective(z):
        tt = z[3:]
        if np.any(np.diff(tt) < min_gap) or tt[0] < window[0] or tt[-1] > window[1]:
            return 1e6
        try:
            cfg = mu_embed(math.exp(z[0]), math.exp(z[1]), math.exp(z[2]),
                           tuple(tt))
        except ParameterError:
            return 1e6
        _, psi, ok = _level_crossings(kern, anchor, cfg.Lambda, cfg.t, level)
        return float(np.min(psi)) if ok else 1e6

    from scipy import optimize  # on first use: keeps the package scipy-free
    res = optimize.minimize(objective, z0, method="Nelder-Mead",
                            options={"maxiter": 400, "xatol": 1e-8,
                                     "fatol": 1e-10})
    if res.fun < val0:
        return float(res.fun), "refined by level-set polish"
    return float(val0), "polish did not improve the sampled minimum"
