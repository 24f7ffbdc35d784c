"""Verification harness: exact projections, quadrature energies, FV grid.

Energy literals for the centered single bubble were computed by an
independent one-dimensional radial integration (adaptive quadrature of the
exact closed-form projected profile) and frozen here; the engine has to
reproduce them through its own spherical-panel route.
"""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

import nodalbubbles.pde_harness as pde_harness
from nodalbubbles import (
    AxisymGrid,
    BallDomain,
    BubbleParams,
    Configuration,
    DomainError,
    Field,
    ParameterError,
    ProjectedBubbleExact,
    ResolutionError,
    SolverDivergenceError,
    alpha_N,
    assemble_V,
    base_spacing_points,
    bubble_profile,
    compute_constants,
    energy_I,
    energy_gradient_quadrature,
    energy_quadrature,
    expansion_gap,
    find_t0_r0,
    mu_embed,
    project_bubble,
    projected_bubbles_of_config,
    residual_norm,
    residual_quadrature,
    robin_H,
    solve_dirichlet_laplace,
    solve_poisson,
    solve_saddle,
)
from nodalbubbles.errors import _require_array
from conftest import SADDLE_LAMBDA, SADDLE_T, SADDLE_VALUE

# Exact-projection energies of a single centered bubble at the reduced-energy
# minimizer scale (Lambda = sqrt(4 pi), quadratic scale map), from the
# independent radial oracle.
I_CENTERED = {0.1: 4.715063547038279,
              0.05: 4.546818488036898,
              0.025: 4.434120691399855}
# Off-center regression value (refinement-stable to 2e-15).
I_OFFCENTER_2_037_005 = 4.575391233827597

LAMBDA_STAR = 3.5449077018110321
PSI1_MIN = -0.7655121234846454

# k=4 saddle energies/gaps (regression literals, refinement delta < 1e-7).
I_SADDLE = {0.1: 19.195398136604595,
            0.05: 18.382666650842555,
            0.025: 17.842934516309512}
GAP_SADDLE = {0.1: -2.285213753716852,
              0.05: -1.447286069350343,
              0.025: -0.8816618411728154}

# Raw terms (grad_sq, nonlinear) of the k=4 saddle energy at eps = 0.025, by
# quadrature refinement, as the per-pair section integrals produced them.
# Those integrated row i of K on full-ball nodes about center i, which
# under-resolve the other cores: their grad_sq moves by 6.1e-10 from refine
# 1 to 2 (and on toward 51.0702880621287 at refine 3 and 4).  The slab nodes
# give that value at every refine, 5.3e-10 from the refine-2 literal.
SADDLE_RAW_TERMS_0025 = {1: (51.07028806326982, 45.96095185224311),
                         2: (51.07028806265856, 45.960951852243156)}


def centered1(L=LAMBDA_STAR):
    return Configuration(k=1, signs=(1,), Lambda=(L,), t=(0.0,))


def ball_at(z, radius=1.0):
    return BallDomain(N=3, center=np.array([z, 0.0, 0.0]), radius=radius)


def sparse_operator(g):
    """The interior operator of ``g`` as a sparse matrix, assembled node by
    node from the face coefficients (the reference for the grid solver)."""
    ii, jj = np.nonzero(g.interior)
    index = np.zeros((g.nz, g.nr), dtype=np.int64)
    p = index[ii, jj] = np.arange(ii.size)
    rows, cols, vals = [p], [p], [np.zeros(p.size)]
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        keep = jj > 0 if dj == -1 else np.ones_like(jj, dtype=bool)
        i2, j2, pk = ii[keep] + di, jj[keep] + dj, p[keep]
        c = (g.coeff_axial[jj[keep]] if dj == 0
             else g.coeff_radial[jj[keep] - (dj == -1)])
        np.add.at(vals[0], pk, c)
        inner = g.interior[i2, j2]
        rows.append(pk[inner])
        cols.append(index[i2[inner], j2[inner]])
        vals.append(-c[inner])
    return sparse.csc_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                      np.concatenate(cols))),
                             shape=(ii.size, ii.size))


class TestExactProjection:
    def test_zero_on_sphere(self):
        b = ProjectedBubbleExact(N=3, R=1.0, m=0.03, t=0.25)
        # Sample the boundary circle of the half-section.
        for th in np.linspace(0.0, math.pi, 17):
            z, r = math.cos(th), math.sin(th)
            assert abs(b.pu(np.array([z]), np.array([r]))[0]) <= 1e-13

    def test_correction_is_harmonic(self):
        b = ProjectedBubbleExact(N=3, R=1.0, m=0.05, t=0.3)

        def w3(x):
            z = np.array([x[0]])
            r = np.array([math.hypot(x[1], x[2])])
            return float(b.w(z, r)[0])

        x0 = np.array([-0.2, 0.15, 0.1])
        h = 1e-3
        lap = 0.0
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            lap += (w3(x0 + e) - 2.0 * w3(x0) + w3(x0 - e)) / h ** 2
        assert abs(lap) <= 1e-5 * abs(w3(x0)) / h  # pure truncation scale

    def test_centered_correction_constant(self):
        # t = 0: the harmonic extension of a radial trace is constant.
        m = 0.04
        b = ProjectedBubbleExact(N=3, R=1.0, m=m, t=0.0)
        z = np.array([0.0, 0.3, -0.5])
        r = np.array([0.2, 0.0, 0.4])
        w = b.w(z, r)
        const = alpha_N(3) * math.sqrt(m) / math.sqrt(m * m + 1.0)
        assert np.allclose(w, const, rtol=1e-13)

    def test_maximum_principle(self):
        b = ProjectedBubbleExact(N=3, R=1.0, m=0.05, t=0.2)
        rng = np.random.default_rng(5)
        z = rng.uniform(-0.9, 0.9, 200)
        r = rng.uniform(0.0, 0.9, 200)
        inside = z * z + r * r < 0.96
        pu = b.pu(z[inside], r[inside])
        u = b.u(z[inside], r[inside])
        assert np.all(pu <= u + 1e-14)
        assert np.all(pu > 0.0)

    def test_matches_robin_leading_order(self, domain):
        # w -> alpha_N m^{1/2} 4 pi H(x, xi) as m -> 0 (N=3).
        t = 0.3
        x = np.array([-0.4, 0.0, 0.2])
        xi = np.array([t, 0.0, 0.0])
        Hval = robin_H(domain, x, xi)
        for m, tol in ((1e-3, 2e-5), (1e-4, 2e-7)):
            b = ProjectedBubbleExact(N=3, R=1.0, m=m, t=t)
            w = float(b.w(np.array([x[0]]),
                          np.array([math.hypot(x[1], x[2])]))[0])
            lead = alpha_N(3) * math.sqrt(m) * 4.0 * math.pi * Hval
            assert abs(w - lead) <= tol * abs(lead)

    def test_config_bubbles(self, domain, table3, saddle_config):
        fam = projected_bubbles_of_config(domain, saddle_config, table3, 0.05)
        assert fam.m.shape == fam.t.shape == (4, 1)
        assert fam.t[:, 0] == pytest.approx(saddle_config.t)
        assert fam.m[:, 0] == pytest.approx(
            [table3.cN * L * L * 0.05 for L in saddle_config.Lambda], rel=1e-12)

    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    @pytest.mark.parametrize("m, t", [(0.03, 0.0), (0.03, 0.4), (0.2, -0.7),
                                      (0.01, 0.9)])
    def test_tangents_match_central_differences(self, N, m, t):
        # pu_tangents against central differences of pu in m and in t, on
        # random points inside 0.98 R: the worst error over these cases is
        # 2.1e-9 of the largest tangent.
        R, h = 1.3, 1e-6 * max(m, 1e-3)
        rng = np.random.default_rng(N)
        rho = 0.98 * R * np.sqrt(rng.uniform(0.0, 1.0, 200))
        th = rng.uniform(0.0, math.pi, 200)
        z, r = rho * np.cos(th), rho * np.sin(th)
        b = ProjectedBubbleExact(N=N, R=R, m=m, t=t)
        d_m, d_t = b.pu_tangents(z, r)
        assert b.pu_tangents(z[0], r[0]) == (d_m[0], d_t[0])    # scalars
        scale = max(np.max(np.abs(d_m)), np.max(np.abs(d_t)))
        for got, dm, dt in ((d_m, h, 0.0), (d_t, 0.0, h)):
            fd = (ProjectedBubbleExact(N=N, R=R, m=m + dm, t=t + dt).pu(z, r)
                  - ProjectedBubbleExact(N=N, R=R, m=m - dm, t=t - dt).pu(z, r))
            assert np.max(np.abs(got - fd / (2.0 * h))) <= 1e-6 * scale

    def test_w_and_pu_broadcast_the_points(self):
        # z of shape (2, 1) against r of shape (1, 3) evaluates as the six
        # points one by one, as u does.
        b = ProjectedBubbleExact(N=3, R=1.0, m=0.1, t=0.5)
        z, r = np.array([[0.1], [0.2]]), np.array([[0.1, 0.2, 0.3]])
        for f in (b.u, b.w, b.pu):
            grid = f(z, r)
            assert grid.shape == (2, 3)
            for i, j in np.ndindex(2, 3):
                assert grid[i, j] == f(z[i, 0], r[0, j])


class TestEnergyQuadrature:
    def test_centered_oracle(self, domain, table3):
        for eps, expect in I_CENTERED.items():
            val, info = energy_quadrature(domain, centered1(), table3, eps,
                                          refine=2)
            assert val == pytest.approx(expect, abs=2e-8)
            assert info["K_sym_defect"] <= 1e-8

    def test_offcenter_regression(self, domain, table3):
        cfg = Configuration(k=1, signs=(1,), Lambda=(2.0,), t=(0.37,))
        val, _ = energy_quadrature(domain, cfg, table3, 0.05, refine=1)
        assert val == pytest.approx(I_OFFCENTER_2_037_005, abs=1e-9)

    def test_saddle_regression(self, domain, table3, saddle_config):
        for eps, expect in I_SADDLE.items():
            val, info = energy_quadrature(domain, saddle_config, table3, eps,
                                          refine=2)
            coarse, _ = energy_quadrature(domain, saddle_config, table3, eps,
                                          refine=1)
            assert val == pytest.approx(expect, abs=1e-6)
            assert abs(coarse - val) <= 1e-12 * abs(val)
            assert info["K_sym_defect"] <= 1e-14

    def test_wide_core_against_radial_oracle(self, domain, table3,
                                             monkeypatch):
        # A core wider than four ball radii (Lambda = 40, eps = 0.5 give
        # m = 6.25 on the unit ball) needs no geometric grading, so the
        # radial panels are [0, 1/2, 1].  The centered PU = U - U(R) is
        # radial: a 1-D Gauss-Legendre rule in rho is the oracle, with the
        # gradient term from U' in place of the quadrature's K identity.
        scales = []

        def recorded(scale, refine):
            scales.append(scale)
            return real(scale, refine)

        real = pde_harness._geometric_breaks
        monkeypatch.setattr(pde_harness, "_geometric_breaks", recorded)
        cfg, eps = centered1(40.0), 0.5
        fam = projected_bubbles_of_config(domain, cfg, table3, eps)
        m = float(fam.m[0, 0])
        assert m == pytest.approx(6.25, rel=1e-12)
        x, w = np.polynomial.legendre.leggauss(64)
        rho, w = 0.5 * (x + 1.0), 0.5 * w
        a = alpha_N(3)
        pu = a * ((m / (m * m + rho * rho)) ** 0.5 - (m / (m * m + 1.0)) ** 0.5)
        du = -a * math.sqrt(m) * rho * (m * m + rho * rho) ** -1.5
        p = 6.0 - eps
        oracle = 4.0 * math.pi * (0.5 * (w @ (du * du * rho * rho))
                                  - (w @ (pu ** p * rho * rho)) / p)
        for refine in (1, 2):
            val, _ = energy_quadrature(domain, cfg, table3, eps, refine=refine)
            assert val == pytest.approx(oracle, rel=1e-13)
        assert scales and min(scales) >= 0.5

    def test_gradient_scale_at_saddle(self, domain, table3, saddle_config):
        # dI/d(Lambda, t) = omega eps dPsi + O(eps^2 log^2 eps): near zero
        # at the saddle, O(omega eps) at a 10% perturbation.
        eps = 0.0125
        g0 = energy_gradient_quadrature(domain, saddle_config, table3, eps)
        pert = Configuration(
            k=4, signs=saddle_config.signs,
            Lambda=tuple(v * 1.1 for v in saddle_config.Lambda),
            t=tuple(v * 1.1 for v in saddle_config.t))
        g1 = energy_gradient_quadrature(domain, pert, table3, eps)
        ratio = np.linalg.norm(g0) / np.linalg.norm(g1)
        assert ratio <= 0.1

    def test_saddle_raw_terms_frozen(self, domain, table3, saddle_config):
        # The nonlinear term ran on the same slab nodes before, so only the
        # summation order moves it.  grad_sq must stay within the frozen
        # values' own refinement delta of the refine-2 value, and the two
        # refinements must now agree.
        grad_ref = SADDLE_RAW_TERMS_0025[2][0]
        delta = abs(SADDLE_RAW_TERMS_0025[1][0] - grad_ref)
        grads = []
        for refine, (_, nonlin) in SADDLE_RAW_TERMS_0025.items():
            _, info = energy_quadrature(domain, saddle_config, table3, 0.025,
                                        refine=refine)
            assert abs(info["grad_sq"] - grad_ref) <= delta
            assert info["nonlinear"] == pytest.approx(nonlin, rel=1e-12)
            grads.append(info["grad_sq"])
        assert grads[0] == pytest.approx(grads[1], rel=1e-13)

    def test_streams_one_panel_at_a_time(self, domain, table3, saddle_config):
        # The largest refine-2 slab holds 115k nodes, its largest angular
        # panel 8192; only one panel of fields may be alive at a time.
        for quadrature in (energy_quadrature, energy_gradient_quadrature,
                           residual_quadrature):
            tracemalloc.start()
            try:
                quadrature(domain, saddle_config, table3, 0.025, refine=2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4_000_000, (quadrature.__name__, peak)

    @pytest.mark.parametrize("quadrature", [
        energy_quadrature, energy_gradient_quadrature, residual_quadrature])
    @pytest.mark.parametrize("refine", [0, 1.5, True, "2", 2.0])
    def test_refine_must_be_a_positive_integer(self, domain, table3,
                                               quadrature, refine):
        with pytest.raises(ParameterError, match="refine"):
            quadrature(domain, centered1(), table3, 0.05, refine=refine)

    def test_residual_quadrature_trend(self, domain, table3, saddle_config):
        vals = [residual_quadrature(domain, saddle_config, table3, eps)
                for eps in (0.1, 0.05, 0.025)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[0] == pytest.approx(0.34665730611964873, rel=1e-6)
        assert vals[2] == pytest.approx(0.1165717851788002, rel=1e-6)


def richardson_gradient(domain, cfg, table, eps, refine, h=1e-3):
    """Independent oracle: central differences of energy_quadrature.

    Richardson-extrapolated, (4 D(h/2) - D(h))/3, with step h relative in
    each Lambda_i and absolute in each t_i.
    """
    k = cfg.k
    x = np.array(cfg.Lambda + cfg.t, dtype=float)
    scale = np.concatenate([x[:k], np.ones(k)])

    def energy(y):
        c = cfg.with_params(Lambda=y[:k], t=y[k:])
        return energy_quadrature(domain, c, table, eps, refine=refine)[0]

    def central(step):
        out = np.zeros(2 * k)
        for n in range(2 * k):
            e = np.zeros(2 * k)
            e[n] = step * scale[n]
            out[n] = (energy(x + e) - energy(x - e)) / (2.0 * e[n])
        return out

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def perturbed(cfg):
    """The 5% perturbation: scalings times 1.05, positions moved by 0.05."""
    return cfg.with_params(Lambda=[1.05 * v for v in cfg.Lambda],
                           t=[v + 0.05 for v in cfg.t])


def newton_point(N):
    """Newton's critical point of Ψ_4 from the canonical start on the unit
    ball of R^N (the configuration ``saddle`` reports, before its check of
    the inertia)."""
    d = BallDomain.unit(N)
    init = mu_embed(1.0, 1.0, 1.0, base_spacing_points(*find_t0_r0(d)))
    return solve_saddle(d, None, init).config


_SADDLE4 = Configuration(k=4, signs=(1, -1, 1, -1), Lambda=SADDLE_LAMBDA,
                         t=SADDLE_T)
_K2 = Configuration(k=2, signs=(1, -1), Lambda=(1.3, 0.8), t=(-0.3, 0.25))


class TestConfigFamily:
    """One ProjectedBubbleExact with (k, 1) columns is the k single bubbles."""

    @pytest.mark.parametrize("N", [3, 4, 5])
    @pytest.mark.parametrize("cfg", [_SADDLE4, _K2], ids=["k4-saddle", "k2"])
    def test_rows_are_single_bubbles(self, N, cfg):
        fam = projected_bubbles_of_config(BallDomain.unit(N), cfg,
                                          compute_constants(N), 0.025)
        rng = np.random.default_rng(N)
        z = rng.uniform(-0.95, 0.95, 300)
        r = rng.uniform(0.0, 0.3, 300)
        us, ws = fam.u(z, r), fam.w(z, r)
        tangents = fam.pu_tangents(z, r)
        assert us.shape == ws.shape == tangents[0].shape == (cfg.k, z.size)
        for i in range(cfg.k):
            b = ProjectedBubbleExact(N=N, R=1.0, m=float(fam.m[i, 0]),
                                     t=float(fam.t[i, 0]))
            u, w = b.u(z, r), b.w(z, r)
            assert np.array_equal(us[i], u) and np.array_equal(ws[i], w)
            for rows, single in zip(tangents, b.pu_tangents(z, r)):
                assert np.array_equal(rows[i], single)

    @pytest.mark.parametrize("N", [3, 4, 5])
    @pytest.mark.parametrize("cfg", [_SADDLE4, _K2], ids=["k4-saddle", "k2"])
    def test_kernel_rows_are_single_bubbles(self, N, cfg):
        # The panel kernel broadcasts coefficient columns elementwise, so in
        # every slab frame each row of the family's fields and tangents has
        # the bits of that bubble's kernel alone.
        fam = projected_bubbles_of_config(BallDomain.unit(N), cfg,
                                          compute_constants(N), 0.025)
        ts = fam.t[:, 0].tolist()
        singles = [ProjectedBubbleExact(N=N, R=1.0, m=float(m), t=t)
                   for m, t in zip(fam.m[:, 0], ts)]
        for t, m in zip(ts, fam.m[:, 0]):
            frame = pde_harness._SlabFrame(fam, t)
            alone = [pde_harness._SlabFrame(b, t) for b in singles]
            panels = list(pde_harness._section_nodes(N, 1.0, t, m, None, None,
                                                     1))
            for rho2, zeta, _ in panels[::7]:
                rows = frame.fields(rho2, zeta)
                rows += frame.tangents(rho2, zeta, *rows[1:])
                assert rows[0].shape == (cfg.k, rho2.size)
                for i, f in enumerate(alone):
                    single = f.fields(rho2, zeta)
                    single += f.tangents(rho2, zeta, *single[1:])
                    for a, b in zip(rows, single):
                        assert np.array_equal(a[i], b)

    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    def test_kernel_matches_the_evaluators(self, N):
        # On panel nodes snapped to dyadics z = t + ζ is exact, so the slab
        # frame and the pointwise evaluators differ by rounding alone: at
        # most 2.6e-15 relative for N = 3..6.  u and w enter through
        # su = u^{N/(N-2)} and mw = w^{N/(N-2)} (all over alpha_N).
        cfg = Configuration(k=2, signs=(1, -1), Lambda=(1.3, 0.8),
                            t=(-0.25, 0.375))
        fam = projected_bubbles_of_config(BallDomain.unit(N), cfg,
                                          compute_constants(N), 0.025)
        a = alpha_N(N)
        ts = fam.t[:, 0].tolist()
        cuts = [(None, 0.0625), (0.0625, None)]    # the midpoint of the ts
        for t, m, cut in zip(ts, fam.m[:, 0], cuts):
            frame = pde_harness._SlabFrame(fam, t)
            for rho2, zeta, _ in pde_harness._section_nodes(N, 1.0, t, m,
                                                            *cut, 1):
                zeta = np.round(zeta * 2.0 ** 20) / 2.0 ** 20
                r = np.sqrt(np.maximum(rho2 - zeta * zeta, 0.0))
                r = np.round(r * 2.0 ** 20) / 2.0 ** 20
                src, pu, su, mw = frame.fields(zeta * zeta + r * r, zeta)
                u, w = fam.u(t + zeta, r) / a, fam.w(t + zeta, r) / a
                for got, want in ((src, u ** ((N + 2) / (N - 2))),
                                  (su, u ** (N / (N - 2))),
                                  (mw, w ** (N / (N - 2)))):
                    assert np.max(np.abs(got - want) / want) <= 1e-14
                assert np.max(np.abs(pu - (u - w)) / u) <= 1e-14

    def test_one_field_call_per_panel(self, domain, table3, saddle_config,
                                      monkeypatch):
        # No loop over the bubbles: the panel kernel and its tangents are
        # evaluated once per angular panel for all four bubbles together.
        calls = {"panel": 0, "fields": 0, "tangents": 0}
        nodes = pde_harness._section_nodes

        def counted_nodes(*args):
            for panel in nodes(*args):
                calls["panel"] += 1
                yield panel

        monkeypatch.setattr(pde_harness, "_section_nodes", counted_nodes)
        for name in ("fields", "tangents"):
            def counted(self, *args, _name=name,
                        _real=getattr(pde_harness._SlabFrame, name)):
                calls[_name] += 1
                return _real(self, *args)
            monkeypatch.setattr(pde_harness._SlabFrame, name, counted)
        energy_gradient_quadrature(domain, saddle_config, table3, 0.025)
        assert calls["panel"] > 0
        assert calls["fields"] == calls["tangents"] == calls["panel"]


class TestEnergyGradient:
    """The residual pairing against central differences of the energy."""

    @pytest.mark.parametrize("N, cfg", [
        (3, centered1()),                   # the k = 1 critical point
        (5, perturbed(centered1())),
        (3, perturbed(_K2)),
        (5, _K2),
    ], ids=["N3-k1-critical", "N5-k1-perturbed",
            "N3-k2-perturbed", "N5-k2"])
    def test_matches_oracle(self, N, cfg):
        # The oracle's own refine 1/2 delta bounds its quadrature noise.
        d, table = BallDomain.unit(N), compute_constants(N)
        eps = 0.025
        g = energy_gradient_quadrature(d, cfg, table, eps)
        o1 = richardson_gradient(d, cfg, table, eps, refine=1)
        o2 = richardson_gradient(d, cfg, table, eps, refine=2)
        tol = np.max(np.abs(o1 - o2)) + 1e-6 * np.max(np.abs(g))
        assert np.max(np.abs(g - o1)) <= tol

    @pytest.mark.parametrize("N, cfg", [(3, _SADDLE4), (5, perturbed(_SADDLE4))],
                             ids=["N3-saddle", "N5-perturbed"])
    def test_k4_matches_oracle(self, N, cfg):
        # A refine-2 oracle costs 32 refine-2 energies, so the oracle's
        # quadrature noise is bounded instead from the energy's refine 1/2
        # delta: an error of size delta in each energy moves the
        # extrapolated difference by at most 3 delta / step.
        d, table = BallDomain.unit(N), compute_constants(N)
        eps = 0.025
        g = energy_gradient_quadrature(d, cfg, table, eps)
        o1 = richardson_gradient(d, cfg, table, eps, refine=1)
        delta = abs(energy_quadrature(d, cfg, table, eps, refine=1)[0]
                    - energy_quadrature(d, cfg, table, eps, refine=2)[0])
        step = 1e-3 * min(min(cfg.Lambda), 1.0)
        tol = 3.0 * delta / step + 1e-6 * np.max(np.abs(g))
        assert np.max(np.abs(g - o1)) <= tol

    def test_even_N_within_its_refinement_delta(self):
        # The angular weight sin^{N-2}θ is smooth for even N too, so for
        # N = 4 refine 1 and 2 agree as closely as for N = 3 (3.8e-13 of
        # max|g| here), and the oracle agrees with refine 1 to 4.3e-11.
        d, table = BallDomain.unit(4), compute_constants(4)
        eps = 0.025
        g1 = energy_gradient_quadrature(d, _K2, table, eps)
        g2 = energy_gradient_quadrature(d, _K2, table, eps, refine=2)
        o1 = richardson_gradient(d, _K2, table, eps, refine=1)
        delta = np.max(np.abs(g1 - g2))
        assert delta <= 1e-9 * np.max(np.abs(g2))
        assert np.max(np.abs(g1 - o1)) <= delta + 1e-6 * np.max(np.abs(g1))

    @pytest.mark.parametrize("N, energy_tol, grad_tol", [(4, 1e-12, 1e-7),
                                                         (6, 1e-10, 1e-5)])
    def test_even_N_refinements_agree_at_the_newton_point(self, N, energy_tol,
                                                          grad_tol):
        # At the Newton point of the k = 4 start (a saddle for N = 4, the
        # local minimum for N = 6) the worst relative refine 1/2 deltas over
        # the default triple read 2.3e-14 and 5.1e-9 (N = 4), 2.2e-11 and
        # 1.7e-6 (N = 6).
        cfg = newton_point(N)
        d, table = BallDomain.unit(N), compute_constants(N)
        for eps in (0.1, 0.05, 0.025):
            I1, I2 = (energy_quadrature(d, cfg, table, eps, refine=n)[0]
                      for n in (1, 2))
            g1, g2 = (energy_gradient_quadrature(d, cfg, table, eps, refine=n)
                      for n in (1, 2))
            assert abs(I1 - I2) <= energy_tol * abs(I2)
            assert np.max(np.abs(g1 - g2)) <= grad_tol * np.max(np.abs(g2))

    @pytest.mark.parametrize("cfg", [perturbed(_SADDLE4), perturbed(_K2)],
                             ids=["k4-perturbed", "k2-perturbed"])
    def test_refinements_agree(self, domain, table3, cfg):
        g1 = energy_gradient_quadrature(domain, cfg, table3, 0.025)
        g2 = energy_gradient_quadrature(domain, cfg, table3, 0.025, refine=2)
        assert np.max(np.abs(g1 - g2)) <= 1e-9 * np.max(np.abs(g2))

    @pytest.mark.parametrize("m, t", [(0.03, 0.0), (0.03, 0.4), (0.2, -0.7),
                                      (1e-3, 0.9)])
    def test_coefficient_tangents_complex_step(self, m, t):
        R, hs = 1.3, 1e-30
        b = ProjectedBubbleExact(N=3, R=R, m=m, t=t)
        jet = ProjectedBubbleExact._kelvin.func
        along_m = jet(SimpleNamespace(R=R, m=m + 1j * hs, t=t))[0]
        along_t = jet(SimpleNamespace(R=R, m=m, t=t + 1j * hs))[0]
        for exact, stepped in zip(b._kelvin[1:], (along_m, along_t)):
            cs = [v.imag / hs for v in stepped]
            assert exact == pytest.approx(cs, rel=1e-13, abs=1e-15)

    def test_makes_no_energy_calls(self, domain, table3, saddle_config,
                                   monkeypatch):
        calls = []
        real = pde_harness.energy_quadrature

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pde_harness, "energy_quadrature", counted)
        energy_gradient_quadrature(domain, saddle_config, table3, 0.025)
        assert calls == []


class TestExpansionGap:
    def test_k1_minimizer(self, table3, domain):
        rep = expansion_gap(centered1(), [0.1, 0.05, 0.025], table3,
                            domain=domain)
        assert rep["k"] == 1
        assert rep["psi"] == pytest.approx(PSI1_MIN, abs=1e-12)
        gaps = [row["gap"] for row in rep["rows"]]
        assert gaps[0] == pytest.approx(-0.41096245911907336, abs=1e-6)
        assert gaps[1] == pytest.approx(-0.26657859913953785, abs=1e-6)
        assert gaps[2] == pytest.approx(-0.16614880242346937, abs=1e-4)
        assert rep["monotone_decreasing"]
        assert rep["refinement_below_decrement"]

    def test_k4_saddle(self, table3, domain, saddle_config):
        rep = expansion_gap(saddle_config, [0.1, 0.05, 0.025], table3,
                            domain=domain)
        assert rep["psi"] == pytest.approx(SADDLE_VALUE, abs=1e-10)
        for row in rep["rows"]:
            assert row["gap"] == pytest.approx(GAP_SADDLE[row["eps"]],
                                               abs=1e-5)
        assert rep["monotone_decreasing"]
        assert rep["max_refinement_delta"] < 1e-10
        assert rep["refinement_below_decrement"]

    def test_eps_list_validation(self, table3):
        with pytest.raises(ParameterError):
            expansion_gap(centered1(), [0.1], table3)
        with pytest.raises(ParameterError):
            expansion_gap(centered1(), [0.05, 0.1], table3)


class TestAxisymGrid:
    def test_shapes_and_steps(self, grid257, domain):
        g = grid257
        assert g.nz == 257 and g.nr == 129
        assert g.hz == pytest.approx(2.0 / 256.0)
        assert g.hr == pytest.approx(1.0 / 128.0)
        assert g.interior.sum() > 0
        # Interior and boundary node sets are disjoint.
        assert not np.any(g.interior & g.boundary)

    def test_discrete_laplacian_consistency(self, grid257):
        # Δ(z^2 + r^2) = 6 in 3D, so -Δ_num of (z^2+r^2)/6 should be -1...
        # use rho^2 = z^2 + r^2: -Δ rho^2 = -6 exactly for the FV scheme on
        # interior nodes whose full stencil is interior.
        g = grid257
        rho2 = g.z_nodes ** 2 + g.r_nodes ** 2
        lap = g.minus_laplacian(rho2)
        deep = g.interior.copy()
        deep[1:, :] &= g.interior[:-1, :]
        deep[:-1, :] &= g.interior[1:, :]
        deep[:, 1:] &= g.interior[:, :-1]
        deep[:, :-1] &= g.interior[:, 1:]
        assert np.allclose(lap[deep], -6.0, atol=1e-9)

    def test_constant_boundary_data(self, grid257):
        g = grid257
        data = Field(g, np.full((g.nz, g.nr), 3.7))
        sol = solve_dirichlet_laplace(g, data)
        assert np.allclose(sol.values[g.interior], 3.7, atol=1e-10)

    def test_exterior_charge_oracle_order(self, domain):
        # Harmonic oracle 1/|x - q| for an axis point q outside the ball:
        # the discrete solution converges at second order under doubling.
        qz = 1.7

        def exact(g):
            return 1.0 / np.sqrt((g.z_nodes - qz) ** 2 + g.r_nodes ** 2)

        errs = []
        for nz, nr in ((65, 33), (129, 65), (257, 129)):
            g = AxisymGrid.for_ball(domain, nz=nz, nr=nr)
            ex = exact(g)
            sol = solve_dirichlet_laplace(g, Field(g, ex))
            errs.append(float(np.max(np.abs(
                np.where(g.interior, sol.values - ex, 0.0)))))
        order1 = math.log2(errs[0] / errs[1])
        order2 = math.log2(errs[1] / errs[2])
        assert 1.7 <= order1 <= 2.3
        assert 1.7 <= order2 <= 2.3

    def test_poisson_manufactured(self, grid257):
        # -Δu = 6 with u = R^2 - rho^2; boundary nodes carry the globally
        # defined trace (the staircase convention), keeping second order.
        g = grid257
        src = Field(g, np.full((g.nz, g.nr), 6.0))
        trace = Field(g, 1.0 - g.z_nodes ** 2 - g.r_nodes ** 2)
        sol = solve_poisson(g, src, boundary_data=trace)
        err = np.max(np.abs((sol.values - trace.values)[g.interior]))
        assert err <= 1e-9  # quadratic solution: FV scheme is exact

    def test_factor_fill_and_residual(self, grid513):
        # The capacitance solver against SuperLU on an independently
        # assembled sparse operator, on square, flat, tall and long grids,
        # on an even nz (no center row), on a tiny grid and on shifted balls.
        others = [(ball_at(0.0), 513, 33), (ball_at(0.0), 33, 513),
                  (ball_at(0.0), 1025, 65), (ball_at(0.0), 64, 33),
                  (ball_at(0.0), 9, 5), (ball_at(-1.8), 513, 257),
                  (ball_at(-1.7), 513, 257), (ball_at(3.22, 0.3), 513, 257)]
        for g in [grid513] + [AxisymGrid.for_ball(d, nz=nz, nr=nr)
                              for d, nz, nr in others]:
            A = sparse_operator(g)
            b = np.random.default_rng(0).normal(size=g.n_interior)
            x = g._solve(b)
            ref = splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True}).solve(b)
            assert np.linalg.norm(x - ref) <= 1e-11 * np.linalg.norm(ref)
            assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)
        # The two mirror blocks' inverses and the pivots: 0.33M entries where
        # SuperLU stored 5.88M.
        assert grid513._lu.L.nnz + grid513._lu.U.nnz <= 350_000

    def test_factor_memory(self, domain):
        # The set-up of the default grid allocates two 318-square mirror
        # blocks, not one 636-square capacitance matrix, factors each once
        # and keeps no ratio array beside the reciprocal pivots.
        g = AxisymGrid.for_ball(domain, nz=513, nr=257)
        tracemalloc.start()
        try:
            g._factor()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7_500_000, peak

    def test_factor_stores_each_number_once(self, grid513):
        # Two 318-square inverse Cholesky factors and the 256 x 511
        # reciprocal pivots; the mirror index pairs are integers.
        grid513._factor()
        fac = grid513._lu
        stored = [v for v in vars(fac).values() if v.dtype.kind == "f"]
        assert sum(v.size for v in stored) == 2 * 318 ** 2 + 256 * 511
        assert fac.L.nnz + fac.U.nnz == 333_064
        for linv in (fac.even_linv, fac.odd_linv):
            assert not np.triu(linv, 1).any()

    def test_solve_memory(self, grid513, domain):
        # One solve holds two full-grid arrays and one 32-row transform
        # scratch, not a full-grid odd extension and spectrum per transform.
        grid513._factor()
        rhs = np.random.default_rng(0).normal(size=grid513.n_interior)
        p = BubbleParams(N=3, eps=0.1, lam=1.0, xi=np.zeros(3))
        peaks = []
        for call in (lambda: grid513._solve(rhs),
                     lambda: project_bubble(domain, p, grid513)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 4_500_000, peaks
        assert peaks[1] <= 7_500_000, peaks

    @pytest.mark.parametrize("shape", [(256, 511), (33, 63), (64, 31), (1, 7)],
                             ids=["256x511", "33x63", "64x31", "1x7"])
    def test_dst1_in_place_blocks(self, shape):
        # The blocked in-place transform against the one-FFT formula on the
        # full odd extension, for row counts off the 32-row block and one row.
        x = np.random.default_rng(1).normal(size=shape)
        n = shape[1]
        ext = np.zeros((shape[0], 2 * n + 2))
        ext[:, 1:n + 1] = x
        ext[:, n + 2:] = -x[:, ::-1]
        oracle = np.fft.rfft(ext)[:, 1:n + 1].imag * (-1.0 / math.sqrt(2 * n + 2))
        y = x.copy()
        assert pde_harness._dst1(y) is y
        assert np.array_equal(y, oracle)
        pde_harness._dst1(y)
        assert np.linalg.norm(y - x) <= 1e-15 * np.linalg.norm(x)

    @pytest.mark.parametrize("row", [2, 32], ids=["unpaired", "center-row"])
    def test_boundary_without_mirror_raises(self, domain, row):
        # The mirror split needs every node of Γ paired with another; a node
        # without a mirror image, or one on the center row, stops the set-up.
        g = AxisymGrid.for_ball(domain, nz=65, nr=33)
        g.boundary[row, 0] = True
        with pytest.raises(SolverDivergenceError, match="mirror"):
            solve_dirichlet_laplace(g, Field(g, np.ones((g.nz, g.nr))))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scale", [math.nan, -1.0])
    def test_broken_operator_raises(self, domain, scale):
        # A non-finite or an indefinite capacitance matrix stops the set-up.
        g = AxisymGrid.for_ball(domain, nz=65, nr=33)
        g.coeff_axial = scale * g.coeff_axial
        with pytest.raises(SolverDivergenceError):
            solve_dirichlet_laplace(g, Field(g, np.ones((g.nz, g.nr))))

    def test_inaccurate_solve_raises(self, domain):
        # A factor that no longer solves the system fails the residual check.
        g = AxisymGrid.for_ball(domain, nz=65, nr=33)
        g._factor()
        g._lu.inv_pivots[...] *= 1.5
        with pytest.raises(SolverDivergenceError,
                           match=r"grid solve residual .* exceeds tolerance"):
            solve_dirichlet_laplace(g, Field(g, np.ones((g.nz, g.nr))))


class TestGridProjection:
    def test_boundary_exactly_zero(self, domain, grid257):
        p = BubbleParams(N=3, eps=0.1, lam=1.0, xi=np.zeros(3))
        PU = project_bubble(domain, p, grid257)
        assert np.all(PU.values[grid257.boundary] == 0.0)
        assert np.all(PU.values[~(grid257.interior | grid257.boundary)]
                      == 0.0)

    def test_below_bubble_pointwise(self, domain, grid257):
        p = BubbleParams(N=3, eps=0.1, lam=1.0, xi=np.zeros(3))
        PU = project_bubble(domain, p, grid257)
        m = p.core_width
        U = alpha_N(3) * (m / (m * m
                               + grid257.z_nodes ** 2
                               + grid257.r_nodes ** 2)) ** 0.5
        mask = grid257.interior
        assert np.all(PU.values[mask] <= U[mask] + 1e-12)

    def test_sqrt_eps_rate(self, domain, grid257):
        consts = []
        for eps in (0.1, 0.05, 0.025):
            p = BubbleParams(N=3, eps=eps, lam=1.0, xi=np.zeros(3))
            PU = project_bubble(domain, p, grid257)
            m = p.core_width
            U = alpha_N(3) * (m / (m * m + grid257.z_nodes ** 2
                                   + grid257.r_nodes ** 2)) ** 0.5
            active = grid257.interior | grid257.boundary
            diff = float(np.max(np.abs(
                np.where(active, PU.values - U, 0.0))))
            consts.append(diff / math.sqrt(eps))
        assert max(consts) / min(consts) <= 1.05  # far inside the factor-2 bar

    def test_h_correction_reduces_error(self, domain, grid257, table3):
        # Subtracting alpha_3 sqrt(lam eps) 4 pi H(., 0) from U - PU kills
        # the leading term: the remainder drops by well over 5x.
        eps = 0.05
        p = BubbleParams(N=3, eps=eps, lam=1.0, xi=np.zeros(3))
        PU = project_bubble(domain, p, grid257)
        g = grid257
        m = p.core_width
        U = alpha_N(3) * (m / (m * m + g.z_nodes ** 2 + g.r_nodes ** 2)) ** 0.5
        # On the unit ball H(x, 0) = 1/(4 pi) for every x, so the leading
        # correction alpha sqrt(m) 4 pi H(., 0) is the constant alpha sqrt(m).
        base = np.where(g.interior, U - PU.values, 0.0)
        corr = alpha_N(3) * math.sqrt(m)
        rem = np.where(g.interior, base - corr, 0.0)
        assert np.max(np.abs(base)) / np.max(np.abs(rem)) >= 5.0

    def test_off_axis_center_rejected(self, domain, grid257):
        p = BubbleParams(N=3, eps=0.1, lam=1.0, xi=np.array([0.0, 0.2, 0.0]))
        with pytest.raises(ParameterError):
            project_bubble(domain, p, grid257)

    @pytest.mark.parametrize("center, radius", [(-1.8, 1.0), (-1.7, 1.0),
                                                (3.22, 0.3)])
    def test_shifted_ball_matches_centered(self, center, radius):
        # Translating the ball translates the grid: the frame rows and the
        # last column never enter the interior, whatever the rounding.
        pus = []
        for c in (0.0, center):
            d = ball_at(c, radius)
            p = BubbleParams(N=3, eps=0.1, lam=radius, xi=d.center)
            pus.append(project_bubble(d, p, AxisymGrid.for_ball(d)).values)
        assert np.max(np.abs(pus[1] - pus[0])) <= 1e-12

    def test_near_boundary_center_rejected(self, domain, grid257):
        p = BubbleParams(N=3, eps=0.1, lam=1.0,
                         xi=np.array([0.999, 0.0, 0.0]))
        with pytest.raises(ResolutionError):
            project_bubble(domain, p, grid257)

    @pytest.mark.parametrize("x1", [1.0, 1.5])
    def test_outside_center_is_a_domain_error(self, domain, x1):
        # The ball's own inside check runs before the 4-cell margin rule,
        # which would ask for a grid of about 8.0e300 nodes at x1 = 1.5.
        p = BubbleParams(N=3, eps=0.1, lam=1.0, xi=np.array([x1, 0.0, 0.0]))
        with pytest.raises(DomainError):
            project_bubble(domain, p, AxisymGrid.for_ball(domain, nz=65,
                                                          nr=33))

    def test_boundary_margin_names_the_grid(self, domain):
        # 1e-3 from the boundary spans 4 cells from 8001 x 4001 nodes on.
        p = BubbleParams(N=3, eps=0.1, lam=1.0,
                         xi=np.array([0.999, 0.0, 0.0]))
        with pytest.raises(ResolutionError) as exc_info:
            project_bubble(domain, p, AxisymGrid.for_ball(domain, nz=65,
                                                          nr=33))
        err = exc_info.value
        assert (err.required_nz, err.required_nr) == (8001, 4001)


class TestGridInEveryDimension:
    """The grid instrument takes N, R and the center from its ball."""

    SIZES = ((129, 65), (257, 129), (513, 257))
    EPS = 0.2   # lam = 1: core width 0.2^{1/(N-2)}, resolved on every grid

    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    def test_projection_converges(self, N):
        # The sup error against the closed-form projection falls under
        # h-refinement (first order: the staircase boundary).
        d = BallDomain.unit(N)
        p = BubbleParams(N=N, eps=self.EPS, lam=1.0, xi=np.zeros(N))
        exact = ProjectedBubbleExact(N, 1.0, p.core_width, 0.0)
        errs = []
        for nz, nr in self.SIZES:
            g = AxisymGrid.for_ball(d, nz=nz, nr=nr)
            PU = project_bubble(d, p, g)
            diff = PU.values - exact.pu(g.z_nodes, g.r_nodes)
            errs.append(float(np.max(np.abs(diff[g.interior]))))
        assert errs[0] > errs[1] > errs[2]
        assert errs[0] / errs[2] >= 2.5

    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    def test_energy_approaches_quadrature(self, N):
        # The same bubble (Lambda = 1/sqrt(c_N) gives lam = 1): its grid
        # energy approaches the exact-projection quadrature.
        d, table = BallDomain.unit(N), compute_constants(N)
        cfg = centered1(1.0 / math.sqrt(table.cN))
        quad, _ = energy_quadrature(d, cfg, table, self.EPS)
        gaps = [abs(energy_I(assemble_V(cfg, self.EPS, table,
                                        AxisymGrid.for_ball(d, nz, nr)),
                             self.EPS) / quad - 1.0)
                for nz, nr in self.SIZES]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[0] / gaps[2] >= 2.5

    def test_rejects_another_dimension(self):
        g = AxisymGrid.for_ball(BallDomain.unit(4), nz=65, nr=33)
        for N in (3, 5):
            p = BubbleParams(N=N, eps=0.1, lam=1.0, xi=np.zeros(N))
            with pytest.raises(ParameterError, match="dimension"):
                project_bubble(g.domain, p, g)

    def test_rejects_another_center(self, grid257):
        p = BubbleParams(N=3, eps=0.1, lam=1.0, xi=np.zeros(3))
        with pytest.raises(ParameterError, match="domain"):
            project_bubble(ball_at(0.5), p, grid257)

    def test_transverse_center_matches_centered(self, domain, grid257):
        # The symmetry axis runs through the ball's center, wherever it is.
        d = BallDomain(N=3, center=np.array([0.2, 0.3, -0.1]), radius=1.0)
        pus = [project_bubble(b, BubbleParams(N=3, eps=0.1, lam=1.0,
                                              xi=b.center), g).values
               for b, g in ((domain, grid257),
                            (d, AxisymGrid.for_ball(d, nz=257, nr=129)))]
        assert np.max(np.abs(pus[1] - pus[0])) <= 1e-12


class TestAssembleV:
    def test_k1_equals_project_bubble(self, domain, grid257, table3):
        # Lambda with lam = 1 reproduces the single projected bubble.
        cfg = centered1(L=math.sqrt(128.0))
        eps = 0.1
        V = assemble_V(cfg, eps, table3, grid257)
        p = BubbleParams(N=3, eps=eps, lam=1.0, xi=np.zeros(3))
        PU = project_bubble(domain, p, grid257)
        assert np.allclose(V.values, PU.values, atol=1e-12)

    def test_reflection_odd_symmetry(self, domain, grid257, table3):
        L = math.sqrt(128.0)
        cfg = Configuration(k=4, signs=(1, -1, 1, -1),
                            Lambda=(L, 0.9 * L, 0.9 * L, L),
                            t=(-0.45, -0.15, 0.15, 0.45))
        V = assemble_V(cfg, 0.1, table3, grid257)
        flipped = V.values[::-1, :]
        assert np.max(np.abs(V.values + flipped)) <= 1e-10
        # Energy invariance under the reflection.
        Ef = energy_I(Field(grid257, np.ascontiguousarray(flipped)), 0.1)
        assert energy_I(V, 0.1) == pytest.approx(Ef, abs=1e-10)

    def test_sup_norm_near_peak_value(self, domain, grid257, table3):
        cfg = centered1(L=math.sqrt(128.0))
        eps = 0.05
        V = assemble_V(cfg, eps, table3, grid257)
        peak = alpha_N(3) / math.sqrt(eps)   # alpha lam^{-1/2} eps^{-1/2}
        assert abs(np.max(np.abs(V.values)) - peak) / peak <= 0.1

    def test_shares_the_scale_map(self, grid257, saddle_config):
        # The core widths come from projected_bubbles_of_config, with its
        # dimension and position checks.
        with pytest.raises(ParameterError, match="dimension mismatch"):
            assemble_V(saddle_config, 0.1, compute_constants(4), grid257)
        outside = centered1(L=math.sqrt(128.0)).with_params(t=[1.2])
        with pytest.raises(DomainError):
            assemble_V(outside, 0.1, compute_constants(3), grid257)

    def test_resolution_guard(self, table3, grid257, saddle_config):
        with pytest.raises(ResolutionError) as exc_info:
            assemble_V(saddle_config, 0.05, table3, grid257)
        err = exc_info.value
        assert err.required_nz is not None and err.required_nz > grid257.nz
        assert err.required_nr is not None and err.required_nr > grid257.nr


class TestResidualNorm:
    def test_decreasing_in_eps(self, domain, grid513, table3):
        vals = []
        for eps in (0.1, 0.05, 0.025):
            p = BubbleParams(N=3, eps=eps, lam=1.0, xi=np.zeros(3))
            PU = project_bubble(domain, p, grid513)
            vals.append(residual_norm(PU, eps, relative=True))
        assert vals[0] > vals[1] > vals[2]

    def test_near_solution_vs_random(self, domain, grid257, table3):
        eps = 0.1
        p = BubbleParams(N=3, eps=eps, lam=1.0, xi=np.zeros(3))
        PU = project_bubble(domain, p, grid257)
        res_pu = residual_norm(PU, eps, relative=True)
        rng = np.random.default_rng(0)
        noise = np.where(PU.grid.interior,
                         rng.normal(size=PU.values.shape), 0.0)
        noise *= np.max(np.abs(PU.values)) / np.max(np.abs(noise))
        res_rand = residual_norm(Field(PU.grid, noise), eps, relative=True)
        assert res_rand / res_pu >= 100.0

    def test_linear_solve_splits_residual(self, grid257):
        # V solving -Δ V = f exactly leaves only the nonlinear mismatch.
        g = grid257
        eps = 0.1
        rng = np.random.default_rng(3)
        f = np.where(g.interior, 1.0 + 0.1 * rng.normal(size=(g.nz, g.nr)),
                     0.0)
        V = solve_poisson(g, Field(g, f))
        u = V.values
        nl = np.abs(u) ** (4.0 - eps) * u
        vol = g.cell_volumes
        mask = g.interior
        expected = math.sqrt(float(np.sum(vol[mask] * (f[mask] - nl[mask]) ** 2)))
        assert residual_norm(V, eps) == pytest.approx(expected, rel=1e-6)


class TestEnergyI:
    def test_zero_field(self, grid257):
        z = Field(grid257, np.zeros((grid257.nz, grid257.nr)))
        assert energy_I(z, 0.1) == 0.0

    def test_scaling_homogeneity(self, domain, grid257):
        # I(cu) = (c^2/2) grad-part - (c^{2*-eps}/(2*-eps)) nonlinear-part:
        # three direct evaluations (c = 1, 2, 3) are consistent with a
        # single (A, B) pair in I(cu) = c^2 A - c^{2*-eps} B.
        eps = 0.1
        p = BubbleParams(N=3, eps=eps, lam=1.0, xi=np.zeros(3))
        u = project_bubble(domain, p, grid257)
        pexp = 6.0 - eps
        I1 = energy_I(u, eps)
        I2 = energy_I(Field(grid257, 2.0 * u.values), eps)
        I3 = energy_I(Field(grid257, 3.0 * u.values), eps)
        cp2, cp3 = 2.0 ** pexp, 3.0 ** pexp
        A = (cp2 * I1 - I2) / (cp2 - 4.0)
        B = A - I1
        assert A > 0 and B > 0
        assert I2 == pytest.approx(4.0 * A - cp2 * B, rel=1e-12)
        assert I3 == pytest.approx(9.0 * A - cp3 * B, rel=1e-10)

    def test_grid_matches_quadrature(self, domain, grid257, grid513, table3):
        # Cross-instrument agreement at a resolvable scale, improving ~4x
        # under grid doubling (second-order discretization).
        cfg = centered1(L=math.sqrt(128.0))
        eps = 0.05
        quad_val, _ = energy_quadrature(domain, cfg, table3, eps, refine=2)
        diffs = []
        for g in (grid257, grid513):
            V = assemble_V(cfg, eps, table3, g)
            diffs.append(energy_I(V, eps) - quad_val)
        assert abs(diffs[0]) < 0.01
        assert abs(diffs[1]) < abs(diffs[0])
        assert 2.0 <= diffs[0] / diffs[1] <= 8.0

    @pytest.mark.parametrize("N", (3, 4))
    def test_gradient_part_is_the_face_sum(self, N):
        # Summation by parts: v·Av is the face sum of every field, boundary
        # data included.  The oracle is the face loop written out.
        g = AxisymGrid.for_ball(BallDomain.unit(N))
        rng = np.random.default_rng(N)
        v = np.where(g.interior | g.boundary,
                     1.0 + rng.normal(size=(g.nz, g.nr)), 0.0)
        assert np.any(v[g.boundary] != 0.0)
        eps = 0.1
        faces = 0.0
        for i in range(g.nz - 1):
            faces += np.sum(g.coeff_axial * (v[i + 1] - v[i]) ** 2)
        for j in range(g.nr - 1):
            faces += g.coeff_radial[j] * np.sum((v[:, j + 1] - v[:, j]) ** 2)
        p = 2.0 * N / (N - 2.0) - eps
        vol = g.cell_volumes[g.interior]
        nonlin = np.sum(vol * np.abs(v[g.interior]) ** p)
        assert energy_I(Field(g, v), eps) == pytest.approx(
            0.5 * faces - nonlin / p, rel=1e-12)


class TestOneStencil:
    def test_flux_calls(self, domain, monkeypatch):
        # The lift and the residual check per projection, one per norm and
        # per energy: no other path applies the stencil.
        g = AxisymGrid.for_ball(domain, nz=65, nr=33)
        calls = []
        flux = AxisymGrid._flux

        def counted(self, values):
            calls.append(values.shape)
            return flux(self, values)

        monkeypatch.setattr(AxisymGrid, "_flux", counted)
        p = BubbleParams(N=3, eps=0.1, lam=1.0, xi=np.zeros(3))
        PU = project_bubble(domain, p, g)
        assert len(calls) == 2
        residual_norm(PU, 0.1)
        assert len(calls) == 3
        energy_I(PU, 0.1)
        assert len(calls) == 4


class TestFieldIO:
    def test_validation(self, grid257):
        with pytest.raises(ParameterError):
            Field(grid257, np.zeros((3, 3)))
        bad = np.zeros((grid257.nz, grid257.nr))
        bad[0, 0] = np.nan
        with pytest.raises(ParameterError):
            Field(grid257, bad)


_CONFIG3 = Configuration(k=1, signs=(1,), Lambda=(1.0,), t=(0.0,))


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda g: ProjectedBubbleExact(N=2, R=1.0, m=0.1, t=0.0),
                 ParameterError, id="exact-N"),
    pytest.param(lambda g: ProjectedBubbleExact(N=3, R=0.0, m=0.1, t=0.0),
                 ParameterError, id="exact-R"),
    pytest.param(lambda g: ProjectedBubbleExact(N=3, R=1.0, m=0.0, t=0.0),
                 ParameterError, id="exact-m"),
    pytest.param(lambda g: ProjectedBubbleExact(N=3, R=1.0, m=0.1, t=-1.0),
                 DomainError, id="exact-t"),
    pytest.param(lambda g: projected_bubbles_of_config(
        g.domain, _CONFIG3, compute_constants(3), 0.0),
                 ParameterError, id="family-eps"),
    pytest.param(lambda g: residual_norm(
        Field(g, np.zeros((g.nz, g.nr))), 0.0),
                 ParameterError, id="residual-eps"),
    pytest.param(lambda g: energy_I(Field(g, np.zeros((g.nz, g.nr))), -0.1),
                 ParameterError, id="energy-eps"),
    pytest.param(lambda g: AxisymGrid.for_ball(g.domain, nz=4, nr=5),
                 ParameterError, id="grid-nz"),
    pytest.param(lambda g: AxisymGrid.for_ball(g.domain, nz=5, nr=4),
                 ParameterError, id="grid-nr"),
    pytest.param(lambda g: AxisymGrid.for_ball(g.domain, nz=64.9, nr=33),
                 ParameterError, id="grid-nz-float"),
    pytest.param(lambda g: AxisymGrid.for_ball(g.domain, nz="65", nr=33),
                 ParameterError, id="grid-nz-string"),
    pytest.param(lambda g: solve_dirichlet_laplace(g, Field(
        AxisymGrid.for_ball(g.domain, nz=17, nr=9), np.zeros((17, 9)))),
                 ParameterError, id="dirichlet-field-shape"),
    pytest.param(lambda g: solve_poisson(g, Field(
        AxisymGrid.for_ball(g.domain, nz=17, nr=9), np.zeros((17, 9)))),
                 ParameterError, id="poisson-field-shape"),
    pytest.param(lambda g: solve_poisson(g, Field(
        AxisymGrid.for_ball(ball_at(0.0, 2.0), nz=9, nr=5), np.zeros((9, 5)))),
                 ParameterError, id="poisson-field-domain"),
    # Counts are integers >= their minimum, scales positive finite reals:
    # eps = inf gave a NaN energy, a string eps raised TypeError and a
    # string in eps_list was parsed.
    *(pytest.param(lambda g, n=n: AxisymGrid.for_ball(g.domain, nz=n, nr=33),
                   ParameterError, id=f"grid-nz-{n!r}") for n in (True, 65.0)),
    *(pytest.param(lambda g, n=n: AxisymGrid.for_ball(g.domain, nz=65, nr=n),
                   ParameterError, id=f"grid-nr-{n!r}")
      for n in (33.0, True, "33")),
    *(pytest.param(lambda g, N=N: ProjectedBubbleExact(N=N, R=1.0, m=0.1,
                                                       t=0.0),
                   ParameterError, id=f"exact-N-{N!r}")
      for N in (3.0, True, "3")),
    *(pytest.param(lambda g, R=R: ProjectedBubbleExact(N=3, R=R, m=0.1, t=0.0),
                   ParameterError, id=f"exact-R-{R!r}")
      for R in (math.inf, math.nan, "1")),
    *(pytest.param(lambda g, m=m: ProjectedBubbleExact(N=3, R=1.0, m=m, t=0.0),
                   ParameterError, id=f"exact-m-{m!r}")
      for m in (math.inf, math.nan)),
    *(pytest.param(lambda g, e=e: projected_bubbles_of_config(
        g.domain, _CONFIG3, compute_constants(3), e),
                   ParameterError, id=f"family-eps-{e!r}")
      for e in (math.inf, math.nan, "0.1")),
    *(pytest.param(lambda g, e=e: energy_quadrature(
        g.domain, _CONFIG3, compute_constants(3), e),
                   ParameterError, id=f"quadrature-eps-{e!r}")
      for e in (math.inf, True)),
    *(pytest.param(lambda g, e=e: residual_norm(
        Field(g, np.zeros((g.nz, g.nr))), e),
                   ParameterError, id=f"residual-eps-{e!r}")
      for e in (math.inf, math.nan, "0.1")),
    *(pytest.param(lambda g, e=e: energy_I(Field(g, np.zeros((g.nz, g.nr))), e),
                   ParameterError, id=f"energy-eps-{e!r}")
      for e in (math.inf, math.nan, "0.1")),
    # eps lies below 2* - 2 = 4 at N = 3, where the exponent 2* - 2 - eps
    # is positive: energy_I raised ZeroDivisionError at eps = 6 and
    # residual_norm returned a number.
    pytest.param(lambda g: projected_bubbles_of_config(
        g.domain, _CONFIG3, compute_constants(3), 4.0),
                 ParameterError, id="family-eps-2*-2"),
    pytest.param(lambda g: residual_norm(
        Field(g, np.zeros((g.nz, g.nr))), 6.0),
                 ParameterError, id="residual-eps-6.0"),
    pytest.param(lambda g: energy_I(Field(g, np.zeros((g.nz, g.nr))), 6.0),
                 ParameterError, id="energy-eps-6.0"),
    # A bubble's eps obeys the same rule: at N = 10, where 2* - 2 = 0.5,
    # eps = 0.9 was accepted and project_bubble ran on it.
    *(pytest.param(lambda g, N=N, eps=eps: BubbleParams(
        N=N, eps=eps, lam=1.0, xi=np.zeros(N)),
                   (ParameterError, "eps"), id=f"bubble-eps-N{N}-{eps!r}")
      for N, eps in ((3, 4.0), (10, 0.5), (10, 0.9))),
    *(pytest.param(lambda g, eps=eps: expansion_gap(
        _CONFIG3, eps, compute_constants(3)),
                   ParameterError, id=f"gap-eps-{label}")
      for label, eps in (("strings", ["0.1", "0.05"]), ("inf", [0.1, math.inf]),
                         ("nan", [math.nan, 0.05]), ("bool", [0.1, True]))),
    # Sequences are lists, tuples or 1-D arrays of finite reals, and a core
    # width is positive and finite: a string xi raised numpy's ValueError,
    # an infinite xi was kept, bubble_profile returned NaN with a
    # RuntimeWarning and a scalar eps_list raised TypeError.
    *(pytest.param(lambda g, xi=xi: BubbleParams(N=3, eps=0.1, lam=1.0, xi=xi),
                   ParameterError, id=f"xi-{label}")
      for label, xi in (("string", "abc"), ("string-entry", ["a", 0, 0]),
                        ("infinite", [math.inf, 0.0, 0.0]))),
    *(pytest.param(lambda g, m=m: bubble_profile(3, m, 0.0),
                   ParameterError, id=f"profile-m-{m!r}")
      for m in (0.0, -1.0, math.inf)),
    pytest.param(lambda g: expansion_gap(_CONFIG3, 0.1, compute_constants(3)),
                 ParameterError, id="gap-eps-scalar"),
    # Array arguments are arrays of finite reals, core widths positive: a
    # NaN d2 or coordinate gave NaN, a string raised numpy's ValueError or
    # UFuncTypeError, and bools were read as numbers.
    pytest.param(lambda g: bubble_profile(3, 0.1, math.nan),
                 ParameterError, id="profile-d2-nan"),
    pytest.param(lambda g: bubble_profile(3, True, 0.0),
                 ParameterError, id="profile-m-True"),
    pytest.param(lambda g: ProjectedBubbleExact(N=3, R=1.0, m=0.1, t="a"),
                 ParameterError, id="exact-t-string"),
    pytest.param(lambda g: ProjectedBubbleExact(N=3, R=1.0, m=True, t=0.0),
                 ParameterError, id="exact-m-True"),
    *(pytest.param(lambda g, f=f, zr=zr: getattr(ProjectedBubbleExact(
        N=3, R=1.0, m=0.1, t=0.0), f)(*zr),
                   ParameterError, id=f"exact-{f}-{label}")
      for f in ("u", "w")
      for label, zr in (("z-nan", (math.nan, 0.0)), ("r-nan", (0.0, math.nan)),
                        ("z-string", ("a", 0.0)), ("r-string", (0.0, "a")))),
    *(pytest.param(lambda g, v=v: Field(g, np.full((g.nz, g.nr), v)),
                   ParameterError, id=f"field-{label}")
      for label, v in (("string", "a"), ("bool", True))),
    # Arrays taken together broadcast: arrays of shapes that do not raised
    # numpy's ValueError (m and t were accepted and failed at the first
    # evaluation).
    *(pytest.param(lambda g, f=f: getattr(ProjectedBubbleExact(
        N=3, R=1.0, m=0.1, t=0.0), f)([0.1, 0.2, 0.3], [0.1, 0.2]),
                   (ParameterError, r"z of shape \(3,\), r of shape \(2,\)"),
                   id=f"exact-{f}-z-r-shapes")
      for f in ("u", "w", "pu_tangents")),
    pytest.param(lambda g: ProjectedBubbleExact(N=3, R=1.0, m=[0.1, 0.2],
                                                t=[0.0, 0.1, 0.2]),
                 (ParameterError, r"m of shape \(2,\), t of shape \(3,\)"),
                 id="exact-m-t-shapes"),
    pytest.param(lambda g: bubble_profile(3, [0.1, 0.2], [0.1, 0.2, 0.3]),
                 (ParameterError, r"m of shape \(2,\), d2 of shape \(3,\)"),
                 id="profile-m-d2-shapes"),
    # A squared distance is not negative: at N = 3 d2 = -0.02 gave NaN with
    # a RuntimeWarning and -0.01 gave 3.16e8, at N = 4 -0.02 gave -28.28.
    *(pytest.param(lambda g, N=N: bubble_profile(N, 0.1, [0.0, -0.02]),
                   (ParameterError, "d2"), id=f"profile-d2-negative-N{N}")
      for N in (3, 4)),
])
def test_input_guards(domain, call, error):
    # an error class, or one with the pattern its message matches
    error, match = error if isinstance(error, tuple) else (error, None)
    with pytest.raises(error, match=match):
        call(AxisymGrid.for_ball(domain, nz=9, nr=5))


def test_array_rule_keeps_float64_arrays():
    # A float64 array comes back as itself, so the grid traces of
    # project_bubble (131,841 nodes at 513x257) gain no copy; an integer
    # list comes back as equal floats.
    nodes = np.linspace(0.0, 1.0, 513 * 257)
    assert _require_array("z", nodes) is nodes
    ints = _require_array("z", [[1, 2], [3, 4]])
    assert ints.dtype == np.float64
    assert np.array_equal(ints, [[1.0, 2.0], [3.0, 4.0]])


def test_numpy_integer_grid_sizes(domain):
    # nz and nr are counts: numpy integers are taken (np.int64(65) raised
    # before) and stored as int, so the grid is the int-sized grid.
    g = AxisymGrid(domain, np.int64(65), np.int32(33))
    assert (type(g.nz), type(g.nr)) == (int, int)
    ref = AxisymGrid(domain, 65, 33)
    assert np.array_equal(g.interior, ref.interior) and g.hz == ref.hz
