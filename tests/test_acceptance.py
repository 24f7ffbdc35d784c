"""Acceptance suite: every binding criterion, at its stated tolerance.

Each criterion runs as one test whose verbose pytest line is its pass/fail
record.  Runtime budgets are asserted with wall-clock measurements taken
around the computation under test (fixture setup excluded where the
criterion scopes the budget to the computation).
"""

import json
import math
import time

import numpy as np
import pytest

from nodalbubbles import (
    AxisSection,
    AxisymGrid,
    BubbleParams,
    Configuration,
    alpha_N,
    bounds_report,
    bubble_integrals,
    check_boundary_expansion,
    check_directional_monotonicity,
    coercivity_scan,
    compute_constants,
    expansion_gap,
    grad_psi_tilde,
    green_G,
    harmonic_defect_order,
    hessian_psi_tilde,
    mu_embed,
    base_spacing_points,
    project_bubble,
    psi_tilde,
    robin_H,
    solve_saddle,
    stationarity_identities,
    validate_A3,
    verify_bounds,
)
from nodalbubbles.cli import main as cli_main

LAMBDA_STAR = 3.5449077018110321


def test_criterion_01_constants_closed_forms():
    """Quadrature hits the exact N=3 integrals; C identity; under 1 s."""
    start = time.perf_counter()
    ints = bubble_integrals(3)
    table = compute_constants(3)
    elapsed = time.perf_counter() - start
    int_u6_exact = 3.0 ** 1.5 * math.pi ** 2 / 4.0
    int_u5_exact = 3.0 ** 0.25 * 4.0 * math.pi
    assert abs(ints.int_U_2star - int_u6_exact) / int_u6_exact <= 1e-8
    assert abs(ints.int_U_2star_m1 - int_u5_exact) / int_u5_exact <= 1e-8
    assert abs(table.CN - 5.0 / 6.0 * ints.int_U_2star) <= 1e-10
    assert elapsed < 1.0, f"constants took {elapsed:.2f}s"


def test_criterion_02_green_kernel(domain):
    """Symmetry 1e-13 on 1e4 pairs; boundary zero; harmonic order 2±0.3."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    n = 0
    while n < 10_000:
        x = rng.uniform(-1.0, 1.0, size=3)
        y = rng.uniform(-1.0, 1.0, size=3)
        if (np.linalg.norm(x) >= 0.99 or np.linalg.norm(y) >= 0.99
                or np.linalg.norm(x - y) < 1e-3):
            continue
        n += 1
        gxy = green_G(domain, x, y)
        gyx = green_G(domain, y, x)
        worst = max(worst, abs(gxy - gyx) / max(abs(gxy), 1.0))
    assert worst <= 1e-13, f"symmetry defect {worst:.2e}"

    for th in np.linspace(0.0, math.pi, 50):
        x = np.array([math.cos(th), math.sin(th), 0.0])
        assert green_G(domain, x, np.array([0.1, 0.2, 0.0])) == 0.0

    order = harmonic_defect_order(domain, np.array([0.2, -0.15, 0.1]),
                                  np.array([-0.3, 0.05, 0.2]), h0=0.02)
    assert 1.7 <= order <= 2.3, f"harmonic order {order:.3f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"green kernel checks took {elapsed:.2f}s"


def test_criterion_03_axis_hypotheses(domain):
    """min h'' > 0 with h''(0) = 1/(2 pi) ± 1e-6; (t-s) dg/dt < 0; < 5 s."""
    start = time.perf_counter()
    sec = AxisSection.of_ball(domain)
    convexity, monotonicity = validate_A3(domain, sec)
    assert convexity.passed and convexity.worst_value > 0.0
    assert monotonicity.passed and monotonicity.worst_value < 0.0
    from nodalbubbles import axis_h_d2
    assert abs(axis_h_d2(domain, sec, 0.0) - 1.0 / (2.0 * math.pi)) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"axis hypothesis checks took {elapsed:.2f}s"


def test_criterion_04_boundary_expansions(domain):
    """Fitted constants stable (factor 2); leading ratio within 15%;
    directional monotonicity with zero violations on 1e3 pairs."""
    reports = check_boundary_expansion(domain)
    by_prefix = {r.check.split(" ")[0]: r for r in reports}
    for name in ("boundary_expansion_regular_part",
                 "boundary_expansion_normal_derivative"):
        r = by_prefix[name]
        assert r.passed and 0.5 <= r.worst_value <= 2.0, (
            f"{name} ratio {r.worst_value:.3f}")
    lead = by_prefix["boundary_expansion_leading_ratio"]
    assert lead.passed and lead.worst_value <= 0.15, (
        f"leading ratio deviation {lead.worst_value:.3f}")
    mono = check_directional_monotonicity(domain, seed=0)
    assert mono.passed and mono.worst_value < 0.0
    assert mono.sample_count == 1000


def test_criterion_05_gradient_hessian_fidelity(domain, kern):
    """grad vs central differences ≤ 1e-6 relative on 100 configurations;
    analytic Hessian symmetric to 1e-6 relative."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        Lam = tuple(float(v) for v in rng.uniform(0.5, 4.0, size=4))
        t = np.sort(rng.uniform(-0.6, 0.6, size=4))
        while np.min(np.diff(t)) < 0.05:
            t = np.sort(rng.uniform(-0.6, 0.6, size=4))
        cfg = Configuration(k=4, signs=(1, -1, 1, -1), Lambda=Lam,
                            t=tuple(float(v) for v in t))
        g = grad_psi_tilde(cfg, kern)
        h = 1e-6
        fd = np.zeros(8)
        for i in range(4):
            Lp, Lm = list(Lam), list(Lam)
            Lp[i] += h
            Lm[i] -= h
            fd[i] = (psi_tilde(cfg.with_params(Lambda=Lp), kern)
                     - psi_tilde(cfg.with_params(Lambda=Lm), kern)) / (2 * h)
            tp, tm = list(cfg.t), list(cfg.t)
            tp[i] += h
            tm[i] -= h
            fd[4 + i] = (psi_tilde(cfg.with_params(t=tp), kern)
                         - psi_tilde(cfg.with_params(t=tm), kern)) / (2 * h)
        scale = max(float(np.max(np.abs(g))), 1.0)
        worst = max(worst, float(np.max(np.abs(g - fd))) / scale)
    assert worst <= 1e-6, f"worst gradient deviation {worst:.2e}"

    cfg = Configuration(k=4, signs=(1, -1, 1, -1),
                        Lambda=(1.5, 2.5, 1.0, 2.0),
                        t=(-0.5, -0.1, 0.2, 0.55))
    H = hessian_psi_tilde(cfg, kern)
    sym = float(np.max(np.abs(H - H.T))) / float(np.max(np.abs(H)))
    assert sym <= 1e-6, f"Hessian asymmetry {sym:.2e}"


def test_criterion_06_saddle_pipeline(domain, kern):
    """Newton ≤ 1e-8 in ≤ 50 iters from the scaling-family start; identities
    = 1 to 1e-6; mixed inertia; value inside the a-priori bracket; < 30 s."""
    start = time.perf_counter()
    t0, r0 = 0.0, 0.06
    bounds = bounds_report(domain, None, t0, r0)
    init = mu_embed(1.0, 1.0, 1.0, base_spacing_points(t0, r0))
    report = solve_saddle(domain, None, init, tol=1e-8, max_iter=50)
    elapsed = time.perf_counter() - start
    assert report.grad_norm <= 1e-8
    assert report.iterations <= 50
    ids = stationarity_identities(report.config, kern)
    assert float(np.max(np.abs(ids - 1.0))) <= 1e-6
    n_pos, n_neg, _ = report.inertia
    assert n_pos >= 1 and n_neg >= 1
    assert verify_bounds(report, bounds)
    assert -15.67094 - 1e-6 <= report.value <= bounds.upper
    assert elapsed < 30.0, f"saddle pipeline took {elapsed:.2f}s"


def test_criterion_07_penalty_coercivity(domain):
    """Level-set minima strictly increase over M ∈ {10, 20, 40}; each
    stable to 5% under sample doubling."""
    base = coercivity_scan(domain, M_list=(10.0, 20.0, 40.0),
                           n_samples=64, seed=0)
    doubled = coercivity_scan(domain, M_list=(10.0, 20.0, 40.0),
                              n_samples=128, seed=0)
    mins = [row["min_psi_tilde"] for row in base]
    mins2 = [row["min_psi_tilde"] for row in doubled]
    assert all(m is not None for m in mins + mins2)
    assert mins[0] < mins[1] < mins[2], f"not increasing: {mins}"
    for m, m2 in zip(mins, mins2):
        assert abs(m2 - m) / abs(m) <= 0.05, (
            f"doubling shifted a minimum {m:.6f} -> {m2:.6f}")


def test_criterion_08_projection_estimate(domain, grid513):
    """sup|PU - U|/sqrt(eps) stable within factor 2 across the eps triple;
    H-based correction reduces the error by ≥ 5x at eps = 0.05."""
    g = grid513
    consts = {}
    for eps in (0.1, 0.05, 0.025):
        p = BubbleParams(N=3, eps=eps, lam=1.0, xi=np.zeros(3))
        PU = project_bubble(domain, p, g)
        m = p.core_width
        U = alpha_N(3) * (m / (m * m + g.z_nodes ** 2 + g.r_nodes ** 2)) ** 0.5
        active = g.interior | g.boundary
        diff = np.where(active, U - PU.values, 0.0)
        consts[eps] = float(np.max(np.abs(diff))) / math.sqrt(eps)
        if eps == 0.05:
            # H(., 0) = 1/(4 pi) on the unit ball: the leading correction
            # is the constant alpha sqrt(m).
            corr = alpha_N(3) * math.sqrt(m)
            rem = np.where(g.interior, diff - corr, 0.0)
            ratio = float(np.max(np.abs(diff)) / np.max(np.abs(rem)))
            assert ratio >= 5.0, f"H-correction ratio {ratio:.1f}"
    vals = list(consts.values())
    assert max(vals) / min(vals) <= 2.0, f"rate constants {consts}"


def test_criterion_09_energy_expansion(domain, table3, saddle_config):
    """|gap(eps)| decreases monotonically across the eps triple for k=1 at
    the minimizer and k=4 at the saddle; quadrature refinement moves each
    gap by less than the smallest inter-eps decrement; < 5 min total."""
    start = time.perf_counter()
    eps_list = [0.1, 0.05, 0.025]
    k1 = Configuration(k=1, signs=(1,), Lambda=(LAMBDA_STAR,), t=(0.0,))
    for cfg in (k1, saddle_config):
        rep = expansion_gap(cfg, eps_list, table3, domain=domain)
        gaps = [abs(r["gap"]) for r in rep["rows"]]
        assert rep["monotone_decreasing"], f"k={cfg.k} gaps {gaps}"
        assert rep["refinement_below_decrement"], (
            f"k={cfg.k}: refinement delta {rep['max_refinement_delta']:.2e} "
            f"vs decrements {rep['decrements']}")
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"expansion checks took {elapsed:.2f}s"


def test_criterion_10_deterministic_reports(tmp_path):
    """Two identical saddle + verify runs produce byte-identical JSON
    payloads (timestamp metadata excluded)."""
    def run_pair(cmd, sub, extra=()):
        # Separate out dirs keep the runs independent; the out path and the
        # timestamp are the only fields allowed to differ.
        a, b = tmp_path / f"{sub}_a", tmp_path / f"{sub}_b"
        for out in (a, b):
            assert cli_main([cmd, "--out", str(out), *extra]) == 0
        da = json.loads((a / f"{cmd}.json").read_text())
        db = json.loads((b / f"{cmd}.json").read_text())
        for d in (da, db):
            d["meta"].pop("timestamp_utc")
            d["meta"]["effective_config"].pop("out")
        assert da == db, f"{cmd} reports differ beyond timestamp metadata"

    run_pair("saddle", "s")

    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "eps": [0.1, 0.05],
        "configuration": {"k": 1, "signs": [1], "Lambda": [LAMBDA_STAR],
                          "t": [0.0]},
    }))
    run_pair("verify", "v", ("--config", str(cfg_file)))
