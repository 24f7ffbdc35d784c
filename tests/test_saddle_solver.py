"""Newton saddle search: frozen canonical point, identities, coercivity."""

import csv
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nodalbubbles.saddle_solver as saddle_solver
from nodalbubbles import (
    AxisKernels,
    BallDomain,
    BoundsReport,
    Configuration,
    ParameterError,
    SaddleReport,
    SolverDivergenceError,
    base_spacing_points,
    bounds_report,
    coercivity_scan,
    find_t0_r0,
    grad_psi_k,
    grad_psi_tilde,
    hessian_psi_k,
    hessian_psi_tilde,
    inertia_of,
    mu_embed,
    phi_penalty,
    psi_k,
    psi_tilde,
    solve_saddle,
    solve_saddle_multistart,
    stationarity_identities,
    verify_bounds,
    write_trace_csv,
)
from conftest import SADDLE_LAMBDA, SADDLE_T, SADDLE_VALUE

# Sampled minima of the alternating energy on the penalty level sets
# {Phi = M/2}, deterministic seed 0, 64 samples (frozen pipeline output).
COERCIVITY_MINIMA = {10.0: 1.6879081385206236,
                     20.0: 3.5382164952103583,
                     40.0: 6.756219938756882}


def richardson_hessian(cfg, kern, rel_step=1e-4):
    """Independent oracle: finite differences of the analytic gradient.

    Central differences with Richardson extrapolation, (4 D(h/2) − D(h))/3,
    per-coordinate step rel_step·max(|x_i|, 1) capped so that perturbed
    configurations keep positive scalings, their ordering and the chord;
    the result is symmetrized.
    """
    k, sec = cfg.k, kern.section
    x0 = np.asarray(cfg.Lambda + cfg.t, dtype=float)
    t = x0[k:]
    gaps_lo = np.diff(np.concatenate([[sec.a], t]))
    gaps_hi = np.diff(np.concatenate([t, [sec.b]]))
    caps = np.concatenate([0.5 * x0[:k], 0.25 * np.minimum(gaps_lo, gaps_hi)])

    def grad_at(x):
        return grad_psi_k(Configuration(k=k, signs=cfg.signs,
                                        Lambda=tuple(x[:k]),
                                        t=tuple(x[k:])), kern)

    def column(i, step):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += step
        xm[i] -= step
        return (grad_at(xp) - grad_at(xm)) / (2.0 * step)

    H = np.empty((2 * k, 2 * k))
    for i in range(2 * k):
        h = min(rel_step * max(abs(x0[i]), 1.0), caps[i])
        H[:, i] = (4.0 * column(i, h / 2.0) - column(i, h)) / 3.0
    return 0.5 * (H + H.T)


def random_configuration(rng, k, kern, min_gap=0.05):
    a, b = kern.section.a, kern.section.b
    width = b - a
    while True:
        t = np.sort(rng.uniform(a + 0.1 * width, b - 0.1 * width, k))
        if k == 1 or np.min(np.diff(t)) >= min_gap * width:
            break
    return Configuration(
        k=k, signs=tuple(int(v) for v in rng.choice([-1, 1], size=k)),
        Lambda=tuple(float(v) for v in rng.uniform(0.3, 3.0, size=k)),
        t=tuple(float(v) for v in t))


class TestCanonicalSaddle:
    def test_frozen_critical_point(self, saddle_report):
        r = saddle_report
        assert r.value == pytest.approx(SADDLE_VALUE, abs=1e-10)
        assert r.grad_norm <= 1e-8
        assert r.iterations <= 50
        assert tuple(r.inertia) == (7, 1, 0)
        for got, want in zip(r.config.Lambda, SADDLE_LAMBDA):
            assert got == pytest.approx(want, abs=1e-9)
        for got, want in zip(r.config.t, SADDLE_T):
            assert got == pytest.approx(want, abs=1e-9)

    def test_saddle_has_both_curvatures(self, saddle_report):
        n_pos, n_neg, n_zero = saddle_report.inertia
        assert n_pos >= 1 and n_neg >= 1

    def test_stationarity_identities(self, saddle_report, kern):
        ids = stationarity_identities(saddle_report.config, kern)
        assert ids.shape == (4,)
        assert np.max(np.abs(ids - 1.0)) <= 1e-6

    def test_identities_off_critical(self, saddle_config, kern):
        off = saddle_config.with_params(
            Lambda=tuple(L * 1.2 for L in saddle_config.Lambda))
        ids = stationarity_identities(off, kern)
        assert np.max(np.abs(ids - 1.0)) > 1e-3

    def test_bounds_bracket(self, domain, saddle_report):
        bounds = bounds_report(domain, None, 0.0, 0.06)
        assert verify_bounds(saddle_report, bounds)
        assert saddle_report.bounds_ok is True
        assert bounds.lower <= saddle_report.value <= bounds.upper

    def test_gradient_really_vanishes(self, saddle_report, kern):
        g = grad_psi_tilde(saddle_report.config, kern)
        assert np.linalg.norm(g) <= 1e-8

    def test_trace_recorded(self, saddle_report, tmp_path):
        assert len(saddle_report.trace) == saddle_report.iterations + 1
        first, last = saddle_report.trace[0], saddle_report.trace[-1]
        assert first[0] == 0 and last[2] <= 1e-8
        path = tmp_path / "trace.csv"
        write_trace_csv(saddle_report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "psi_tilde", "grad_norm", "step"]
        assert len(rows) == len(saddle_report.trace) + 1

    def test_report_serialization(self, saddle_report):
        d = saddle_report.to_json_dict()
        assert list(d) == ["config", "value", "grad_norm", "inertia",
                           "bounds_ok", "iterations", "warnings"]
        assert d["config"]["signs"] == [1, -1, 1, -1]


class TestHessians:
    def test_hessian_symmetric(self, saddle_config, kern):
        H = hessian_psi_tilde(saddle_config, kern)
        assert H.shape == (8, 8)
        sym_defect = np.max(np.abs(H - H.T)) / np.max(np.abs(H))
        assert sym_defect <= 1e-6

    def test_hessian_matches_gradient_differences(self, saddle_config, kern):
        cfg = saddle_config
        H = hessian_psi_tilde(cfg, kern)
        h = 1e-5
        Lp = list(cfg.Lambda)
        Lm = list(cfg.Lambda)
        Lp[0] += h
        Lm[0] -= h
        fd = (grad_psi_tilde(cfg.with_params(Lambda=Lp), kern)
              - grad_psi_tilde(cfg.with_params(Lambda=Lm), kern)) / (2 * h)
        assert np.allclose(H[:, 0], fd, rtol=1e-4, atol=1e-6)

    def test_hessian_psi_k_on_k1(self, kern):
        from nodalbubbles import Configuration
        cfg = Configuration(k=1, signs=(1,), Lambda=(3.5449077018110321,),
                            t=(0.0,))
        H = hessian_psi_k(cfg, kern)
        assert H.shape == (2, 2)
        evals = np.linalg.eigvalsh(0.5 * (H + H.T))
        assert np.all(evals > 0)   # strict minimum in (Lambda, t)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_richardson_oracle(self, k):
        rng = np.random.default_rng(100 + k)
        for N, R, c1 in ((3, 1.0, 0.0), (4, 2.0, 0.5), (6, 0.5, -0.2)):
            center = np.zeros(N)
            center[0] = c1
            kern = AxisKernels.for_ball(
                BallDomain(N=N, center=center, radius=R))
            for _ in range(4):
                cfg = random_configuration(rng, k, kern)
                H = hessian_psi_k(cfg, kern)
                assert H.shape == (2 * k, 2 * k)
                assert np.array_equal(H, H.T)
                fd = richardson_hessian(cfg, kern)
                rel = np.max(np.abs(H - fd)) / np.max(np.abs(fd))
                assert rel <= 1e-7, f"k={k}, N={N}: deviation {rel:.2e}"

    def test_hessians_cost_no_gradient_calls(self, domain, monkeypatch):
        # The Hessian is analytic: the only gradient evaluations of a solve
        # are the start and one per admissible line-search trial.
        calls = []
        grad = saddle_solver.grad_psi_k

        def counted(cfg, kern):
            calls.append(cfg)
            return grad(cfg, kern)

        monkeypatch.setattr(saddle_solver, "grad_psi_k", counted)
        init = mu_embed(1.0, 1.0, 1.0, base_spacing_points(0.0, 0.06))
        report = solve_saddle(domain, None, init)
        halvings = sum(round(-math.log2(row[3])) for row in report.trace[1:])
        assert (report.iterations, halvings) == (10, 4)
        # Two of the four halvings left the admissible set and cost no
        # gradient: 1 start + 10 accepted trials + 2 backtracks = 13.
        assert len(calls) <= 13

    def test_inertia_of(self):
        H = np.diag([2.0, 1.0, -3.0, 1e-12])
        assert inertia_of(H) == (2, 1, 1)
        assert inertia_of(np.eye(3)) == (3, 0, 0)


class TestAnyK:
    # From mirror-symmetric starts on the N = 3 unit ball, Newton lands on
    # the mirror-symmetric local minimum for k = 2 and k = 3.
    @pytest.mark.parametrize("signs, Lambda, t, value", [
        ((1, -1), (1.0, 1.0), (-0.3, 0.3), -1.1070087189467628),
        ((1, -1, 1), (1.0, 1.0, 1.0), (-0.3, 0.0, 0.3), -1.143775065078691)],
        ids=["k2", "k3"])
    def test_converges_to_mirror_symmetric_point(self, domain, kern, signs,
                                                 Lambda, t, value):
        k = len(signs)
        init = Configuration(k=k, signs=signs, Lambda=Lambda, t=t)
        report = solve_saddle(domain, None, init)
        assert report.grad_norm <= 1e-8
        assert np.linalg.norm(grad_psi_k(report.config, kern)) <= 1e-8
        assert report.value == pytest.approx(value, abs=1e-10)
        assert report.inertia == (2 * k, 0, 0)
        L, tt = np.array(report.config.Lambda), np.array(report.config.t)
        assert np.allclose(L, L[::-1], rtol=1e-8, atol=0.0)
        assert np.allclose(tt, -tt[::-1], rtol=0.0, atol=1e-8)
        if k == 2:
            assert tt[1] == pytest.approx(0.4749646535, abs=1e-9)


@st.composite
def covariance_cases(draw):
    """N, a random-sign configuration with t in (−0.8, 0.8) and gaps
    >= 0.05, a radius R and a center offset c₁."""
    N = draw(st.integers(3, 8))
    k = draw(st.integers(1, 4))
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=k, max_size=k))
    Lambda = draw(st.lists(st.floats(0.3, 3.0), min_size=k, max_size=k))
    lo, hi = -0.8, 0.8 - 0.05 * (k - 1)
    s = draw(st.lists(st.floats(lo, hi, exclude_min=True, exclude_max=True),
                      min_size=k, max_size=k))
    t = np.sort(s) + 0.05 * np.arange(k)
    R = draw(st.floats(0.1, 10.0))
    c1 = draw(st.floats(-2.0, 2.0))
    cfg = Configuration(k=k, signs=tuple(signs), Lambda=tuple(Lambda),
                        t=tuple(t))
    return N, cfg, R, c1


class TestDilationCovariance:
    @settings(max_examples=150, deadline=None, database=None,
              derandomize=True)
    @given(covariance_cases())
    def test_psi_k_is_covariant(self, case):
        # On B_R(c₁e₁) at (R^{(N−2)/2} Λ, c₁ + R t): the unit-ball value
        # − k(N−2)/2 log R, gradient D⁻¹∇ and Hessian D⁻¹HD⁻¹ with
        # D = diag(R^{(N−2)/2} I_k, R I_k).
        N, cfg, R, c1 = case
        k, p = cfg.k, 0.5 * (N - 2)
        unit = AxisKernels.for_ball(BallDomain.unit(N))
        center = np.zeros(N)
        center[0] = c1
        ball = AxisKernels.for_ball(BallDomain(N=N, center=center, radius=R))
        image = cfg.with_params(Lambda=[R ** p * v for v in cfg.Lambda],
                                t=[c1 + R * v for v in cfg.t])
        d_inv = 1.0 / np.concatenate([np.full(k, R ** p), np.full(k, R)])

        value = psi_k(cfg, unit) - k * p * math.log(R)
        grad = d_inv * grad_psi_k(cfg, unit)
        hess = d_inv[:, None] * hessian_psi_k(cfg, unit) * d_inv[None, :]
        for got, want in ((psi_k(image, ball), value),
                          (grad_psi_k(image, ball), grad),
                          (hessian_psi_k(image, ball), hess)):
            err = np.linalg.norm(np.asarray(got) - want)
            assert err <= 1e-10 * max(np.linalg.norm(want), 1.0)


def _pack(cfg):
    return np.asarray(cfg.Lambda + cfg.t)


def quadratic_model(monkeypatch, x_star, H):
    """Give the solver the gradient F(x) = x − x* and the fixed Hessian H."""
    monkeypatch.setattr(saddle_solver, "grad_psi_k",
                        lambda cfg, kern: _pack(cfg) - x_star)
    monkeypatch.setattr(saddle_solver, "hessian_psi_k", lambda cfg, kern: H)


class TestSolverBehavior:
    def test_start_is_admissible_embedding(self):
        start = mu_embed(1.0, 1.0, 1.0, base_spacing_points(0.0, 0.06))
        assert start.k == 4
        assert start.signs == (1, -1, 1, -1)

    def test_divergence_raises_with_trace(self, domain):
        # One iteration cannot reach 1e-8 from the cold start.
        init = mu_embed(1.0, 1.0, 1.0, base_spacing_points(0.0, 0.06))
        with pytest.raises(SolverDivergenceError) as exc_info:
            solve_saddle(domain, None, init, max_iter=1)
        assert exc_info.value.trace

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf, "1e-8"])
    def test_tolerance_guard(self, domain, tol):
        init = mu_embed(1.0, 1.0, 1.0, base_spacing_points(0.0, 0.06))
        with pytest.raises(ParameterError, match="tol"):
            solve_saddle(domain, None, init, tol=tol)

    @pytest.mark.parametrize("solver, name, value", [
        *(("newton", "max_iter", v) for v in (0, 2.5, 50.0, True, "50")),
        *(("multistart", "n_starts", v) for v in (0, 2.0, True, "8")),
        *(("multistart", "seed", v) for v in (-1, 0.0, True, "0")),
        *(("coercivity", "n_samples", v) for v in (0, 64.0, True, "64")),
        *(("coercivity", "seed", v) for v in (-1, 1.5, True, "0")),
        *(("coercivity", "M_list", v) for v in (["10", "20"], 10.0)),
    ])
    def test_count_and_seed_guards(self, domain, solver, name, value):
        # Counts and seeds are integers >= their minimum, and the levels a
        # list, tuple or 1-D array of scales, checked before any work:
        # max_iter=2.5 ran, seed=-1 raised numpy's ValueError, string
        # levels were parsed and a scalar M_list raised TypeError.
        with pytest.raises(ParameterError, match=name):
            if solver == "newton":
                init = mu_embed(1.0, 1.0, 1.0, base_spacing_points(0.0, 0.06))
                solve_saddle(domain, None, init, **{name: value})
            elif solver == "multistart":
                solve_saddle_multistart(domain, None, (-0.1, 0.0, 0.1, 0.2),
                                        **{name: value})
            else:
                coercivity_scan(domain, **{name: value})

    def test_singular_hessian_is_regularized(self, domain, monkeypatch):
        # A quadratic model F = x − x* with a Hessian that is singular in
        # t₄, where F vanishes: the Tikhonov step converges in one
        # iteration, and the singular direction is reported as degenerate.
        init = mu_embed(1.0, 1.0, 1.0, base_spacing_points(0.0, 0.06))
        quadratic_model(monkeypatch, _pack(init) + np.eye(8)[0],
                        np.diag([1.0] * 7 + [0.0]))
        rep = solve_saddle(domain, None, init)
        assert rep.iterations == 1 and rep.inertia == (7, 0, 1)
        assert rep.warnings == [
            "iteration 1: Hessian numerically singular, regularized by "
            "1.000e-08",
            "degenerate critical point: 1 Hessian eigenvalue(s) below the "
            "zero threshold"]

    def test_line_search_stall_raises_with_trace(self, domain, monkeypatch):
        # With H = −I the Newton direction of F = x − x* is +F, along which
        # |F| grows at every step length.
        init = mu_embed(1.0, 1.0, 1.0, base_spacing_points(0.0, 0.06))
        quadratic_model(monkeypatch, _pack(init) + 0.1, -np.eye(8))
        with pytest.raises(SolverDivergenceError,
                           match="line search stalled at iteration 1") as e:
            solve_saddle(domain, None, init)
        assert [row[0] for row in e.value.trace] == [0]

    def test_multistart_skips_failed_starts(self, domain, monkeypatch):
        calls = []

        def fails(*args):
            calls.append(args)
            raise SolverDivergenceError("no convergence", trace=[])

        monkeypatch.setattr(saddle_solver, "solve_saddle", fails)
        assert solve_saddle_multistart(
            domain, None, base_spacing_points(0.0, 0.06), n_starts=3) == []
        assert len(calls) == 3

    def test_value_outside_the_bracket_is_a_warning(self, saddle_config):
        rep = SaddleReport(config=saddle_config, value=5.0, grad_norm=0.0,
                           inertia=(7, 1, 0), bounds_ok=None, iterations=0)
        bounds = BoundsReport(H0=1.0, lower=-1.0, upper=4.0, t0=0.0, r0=0.06)
        assert verify_bounds(rep, bounds) is False
        assert rep.bounds_ok is False
        assert rep.warnings == [
            "critical value 5 outside the a-priori bracket [-1, 4]"]

    def test_start_below_scaling_guard_rejected(self, domain):
        # Λ₁ = 1e-7 lies below the 1e-6 scaling guard.
        init = Configuration(k=4, signs=(1, -1, 1, -1),
                             Lambda=(1e-7, 1.0, 1.0, 1.0),
                             t=base_spacing_points(0.0, 0.06))
        with pytest.raises(ParameterError, match="violates the guards"):
            solve_saddle(domain, None, init)

    def test_start_at_chord_end_rejected(self, domain):
        # t₁ within 1e-7 of the chord end a = −1, inside the 1e-6 margin.
        init = mu_embed(1.0, 1.0, 1.0, (-1.0 + 1e-7, 0.0, 0.06, 0.12))
        with pytest.raises(ParameterError, match="violates the guards"):
            solve_saddle(domain, None, init)

    @pytest.mark.parametrize("t_base", [(2.0, 3.0, 4.0, 5.0),
                                        (0.0, 0.2, 0.1, 0.3),
                                        (-1.0, 0.0, 0.1, 0.2),
                                        # Three positions made every
                                        # start fail and returned [], and
                                        # a scalar raised TypeError.
                                        (-0.1, 0.0, 0.1), 0.1])
    def test_multistart_rejects_bad_base_positions(self, domain, t_base):
        with pytest.raises(ParameterError, match="t_base"):
            solve_saddle_multistart(domain, None, t_base, n_starts=3)

    def test_multistart_contains_canonical(self, domain):
        reports = solve_saddle_multistart(
            domain, None, base_spacing_points(0.0, 0.06), n_starts=4, seed=0)
        assert len(reports) >= 1
        values = [r.value for r in reports]
        assert any(abs(v - SADDLE_VALUE) <= 1e-8 for v in values)
        assert values == sorted(values)
        # Distinctness: pairwise separation above the 1e-4 threshold.
        for i in range(len(reports)):
            for j in range(i + 1, len(reports)):
                a, b = reports[i].config, reports[j].config
                delta = max(max(abs(x - y) for x, y in zip(a.Lambda, b.Lambda)),
                            max(abs(x - y) for x, y in zip(a.t, b.t)))
                assert delta > 1e-4


@pytest.fixture(scope="module")
def scan(domain):
    return coercivity_scan(domain, M_list=(10.0, 20.0, 40.0),
                           n_samples=64, seed=0)


class TestCoercivity:
    def test_frozen_minima(self, scan):
        for row in scan:
            assert row["min_psi_tilde"] == pytest.approx(
                COERCIVITY_MINIMA[row["M"]], rel=1e-9)

    def test_frozen_certified_counts(self, scan):
        # Samples whose path to the anchor stays inside {Phi < M/2}.
        assert [row["n_certified"] for row in scan] == [43, 64, 64]

    def test_strictly_increasing_in_M(self, scan):
        mins = [row["min_psi_tilde"] for row in scan]
        assert mins[0] < mins[1] < mins[2]

    @pytest.mark.parametrize("M_list", [(20.0, 10.0), (10.0, 10.0)])
    def test_levels_must_increase(self, domain, M_list):
        with pytest.raises(ParameterError, match="M_list"):
            coercivity_scan(domain, M_list=M_list)

    def test_level_below_the_anchor_is_skipped(self, domain):
        # The anchor's penalty on the unit ball is 3.9968 >= 7/2.
        (row,) = coercivity_scan(domain, M_list=(7.0,))
        assert row["M"] == 7.0 and row["min_psi_tilde"] is None
        assert row["n_certified"] == 0
        assert row["note"].startswith("level set skipped: anchor penalty 3.99")

    def test_minima_exceed_saddle_value(self, scan):
        # The max-min protection: min over the level set (the K_0 boundary
        # piece) sits strictly above the interior saddle level.
        assert min(row["min_psi_tilde"] for row in scan) > SADDLE_VALUE

    def test_level_without_certified_samples(self, domain, monkeypatch):
        crossings = saddle_solver._level_crossings

        def uncertified(*args):
            c, psi, ok = crossings(*args)
            return c, np.full_like(psi, np.inf), np.zeros_like(ok)

        monkeypatch.setattr(saddle_solver, "_level_crossings", uncertified)
        (row,) = coercivity_scan(domain, M_list=(10.0,))
        assert row == {"M": 10.0, "min_psi_tilde": None, "n_certified": 0,
                       "note": "no certified sample reached the level"}

    def test_positions_fall_back_to_the_base_points(self, domain,
                                                    monkeypatch):
        # Four equal positions never keep the minimum gap, so after 200
        # draws every sample takes the base spacing points.
        rng = np.random.default_rng

        class EqualPositions:
            def __init__(self, seed):
                self.rng = rng(seed)

            def uniform(self, low, high, size=None):
                if size == 4:
                    return np.full(4, low)
                return self.rng.uniform(low, high, size)

        calls = record_level_crossings(monkeypatch)
        monkeypatch.setattr(np.random, "default_rng", EqualPositions)
        coercivity_scan(domain, M_list=(10.0,), n_samples=4)
        ((_, t, *_),) = calls
        t_base = base_spacing_points(*find_t0_r0(domain))
        assert np.array_equal(t, np.tile(t_base, (4, 1)))

    def test_polish_without_improvement_keeps_the_sample(self, domain,
                                                         monkeypatch):
        from scipy import optimize
        sampled = []
        crossings = saddle_solver._level_crossings

        def recorded(*args):
            out = crossings(*args)
            sampled.append(out[1])
            return out

        monkeypatch.setattr(saddle_solver, "_level_crossings", recorded)
        monkeypatch.setattr(optimize, "minimize",
                            lambda *a, **k: SimpleNamespace(fun=math.inf))
        (row,) = coercivity_scan(domain, M_list=(10.0,))
        assert row["note"] == "polish did not improve the sampled minimum"
        assert len(sampled) == 1 and row["n_certified"] == 43
        assert row["min_psi_tilde"] == float(np.min(sampled[0]))
        assert row["min_psi_tilde"] > COERCIVITY_MINIMA[10.0]

    def test_polish_rejects_points_mu_embed_refuses(self, domain,
                                                     monkeypatch):
        # The polish gets the default scan's real anchor and best sample;
        # every trial point mu_embed refuses scores 1e6, so the sampled
        # minimum stands.
        args = []
        monkeypatch.setattr(saddle_solver, "_refine_level_min",
                            lambda *a: args.append(a) or (a[4], ""))
        coercivity_scan(domain, M_list=(10.0,))
        (kern, anchor, cfg0, level, val0, window, min_gap), = args
        monkeypatch.undo()
        refused = []

        def refuse(*a):
            refused.append(a)
            raise ParameterError("refused")

        monkeypatch.setattr(saddle_solver, "mu_embed", refuse)
        assert saddle_solver._refine_level_min(
            kern, anchor, cfg0, level, val0, window, min_gap) == (
            val0, "polish did not improve the sampled minimum")
        assert refused


def record_level_crossings(monkeypatch):
    """Record every batch the scan evaluates, with the polish switched off."""
    calls = []
    crossings = saddle_solver._level_crossings

    def recorded(kern, anchor, L, t, level):
        out = crossings(kern, anchor, L, t, level)
        calls.append((np.asarray(L), np.asarray(t), level) + out)
        return out

    monkeypatch.setattr(saddle_solver, "_level_crossings", recorded)
    monkeypatch.setattr(saddle_solver, "_refine_level_min",
                        lambda kern, anchor, cfg, level, val, *a: (val, ""))
    return calls


class TestLevelCrossings:
    def test_crossings_hit_the_level(self, domain, kern, monkeypatch):
        # Every certified sample of the default scan: Φ(√c Λ, t) equals the
        # level at both crossings, and both match a brentq oracle on Φ.
        from scipy import optimize
        calls = record_level_crossings(monkeypatch)
        coercivity_scan(domain, M_list=(10.0, 20.0, 40.0), n_samples=64,
                        seed=0)
        assert [int(np.sum(ok)) for *_, ok in calls] == [43, 64, 64]
        for L, t, level, c, psi, ok in calls:
            assert c.shape == (64, 2) and psi.shape == (64, 2)
            assert np.all(np.isinf(psi[~ok])) and np.all(np.isfinite(psi[ok]))
            for Li, ti, ci in zip(L[ok], t[ok], c[ok]):
                cfg = Configuration(k=4, signs=(1, -1, 1, -1), Lambda=Li,
                                    t=ti)

                def excess(s):
                    return phi_penalty(cfg.with_params(
                        Lambda=math.sqrt(s) * Li), kern) - level

                c_star = 2.0 / (phi_penalty(cfg, kern) + np.sum(np.log(Li)))
                lo, hi = c_star, c_star
                while excess(lo) < 0.0:
                    lo *= 0.5
                while excess(hi) < 0.0:
                    hi *= 2.0
                oracle = (optimize.brentq(excess, lo, c_star, xtol=1e-300),
                          optimize.brentq(excess, c_star, hi, xtol=1e-300))
                assert ci[0] < c_star < ci[1]
                for cj, oj in zip(ci, oracle):
                    assert excess(cj) == pytest.approx(0.0, abs=1e-12 * level)
                    assert cj == pytest.approx(oj, rel=1e-12)

    def test_sampling_cost_is_independent_of_sample_count(self, domain,
                                                          monkeypatch):
        # One level's sampling stage is one batch: a fixed number of
        # _quadratic_form calls, whatever n_samples is.
        record_level_crossings(monkeypatch)
        counts = []
        for n in (64, 128):
            calls = []
            form = saddle_solver._quadratic_form

            def counted(*args, **kwargs):
                calls.append(args[2])
                return form(*args, **kwargs)

            monkeypatch.setattr(saddle_solver, "_quadratic_form", counted)
            coercivity_scan(domain, M_list=(10.0,), n_samples=n, seed=0)
            monkeypatch.setattr(saddle_solver, "_quadratic_form", form)
            counts.append(len(calls))
        assert counts[0] == counts[1] == 3

    def test_single_row(self, kern):
        # The polish's call shape: one row in, one pair of crossings out.
        anchor = saddle_solver._anchor_config(
            kern, base_spacing_points(0.0, 0.06))
        cfg = mu_embed(1.0, 1.0, 1.0, base_spacing_points(-0.05, 0.04))
        c, psi, ok = saddle_solver._level_crossings(
            kern, anchor, cfg.Lambda, cfg.t, 10.0)
        assert c.shape == psi.shape == (2,) and ok.shape == ()
        assert bool(ok)
        for cj, pj in zip(c, psi):
            scaled = cfg.with_params(Lambda=[math.sqrt(cj) * v
                                             for v in cfg.Lambda])
            assert phi_penalty(scaled, kern) == pytest.approx(10.0, rel=1e-12)
            assert pj == pytest.approx(psi_tilde(scaled, kern), rel=1e-12)

    def test_newton_cap_reached_raises(self, kern, monkeypatch):
        monkeypatch.setattr(saddle_solver, "_NEWTON_CAP", 0)
        anchor = saddle_solver._anchor_config(
            kern, base_spacing_points(0.0, 0.06))
        cfg = mu_embed(1.0, 1.0, 1.0, base_spacing_points(-0.05, 0.04))
        with pytest.raises(SolverDivergenceError,
                           match="did not converge in 0 Newton steps"):
            saddle_solver._level_crossings(kern, anchor, cfg.Lambda, cfg.t,
                                           10.0)

    def test_ray_below_the_level_is_masked(self, kern):
        anchor = saddle_solver._anchor_config(
            kern, base_spacing_points(0.0, 0.06))
        cfg = mu_embed(1.0, 1.0, 1.0, base_spacing_points(0.0, 0.06))
        _, psi, ok = saddle_solver._level_crossings(
            kern, anchor, [cfg.Lambda], [cfg.t], 1.0)
        assert not ok[0] and np.all(np.isinf(psi))
