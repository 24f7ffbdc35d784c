"""Standard-bubble constants: closed-form oracles, identities, scale maps.

Frozen literals are exact closed forms (Beta/digamma evaluations of the
radial integrals), independently cross-checked with 50-digit mpmath
quadrature before being written down here.  The library evaluates the same
closed forms; the oracles below integrate the radial integrals numerically
instead (adaptive quadrature, a compactified Gauss-Legendre rule, and mpmath
quadrature) and so share no code with it.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from nodalbubbles import (
    BubbleParams,
    ParameterError,
    alpha_N,
    bubble_integrals,
    bubble_profile,
    compute_constants,
    lambda_of_Lambda_quadratic,
    sigma_N,
    single_bubble_energy_limit,
    two_star,
)

# N=3 closed forms: int U^6 = 3^{3/2} pi^2 / 4, int U^5 = 3^{1/4} * 4 pi.
INT_U6_N3 = 12.820992204969127
INT_U5_N3 = 16.538273802687954
INT_U6_LOGU_N3 = -2.1602616502888234
OMEGA3 = 2.1368320341615211
C3 = 10.684160170807606
GAMMA3 = -4.4678045685905848

# Higher dimensions, same derivation route (frozen before implementation).
OMEGA4 = 26.318945069571623
C4 = 78.956835208714869
C_SMALL_4 = 0.0021108579925487036
GAMMA4 = -79.923209728237358
OMEGA5 = 253.30807942882157
C5 = 591.05218533391699
C_SMALL_5 = 0.00069941137100930567
GAMMA5 = -1053.5670310027475


def rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# Quadrature oracles for I(n, p) = ∫_0^∞ r^{n-1} (1+r^2)^{-p} [log(1+r^2)] dr
# ---------------------------------------------------------------------------

def radial_adaptive(n, p, log_factor=False):
    """Adaptive quadrature on (0, 1] and, through r = 1/s, on [1, ∞)."""
    def f(r):
        v = r ** (n - 1) * (1.0 + r * r) ** (-p)
        return v * math.log1p(r * r) if log_factor else v

    def f_inv(s):
        return 0.0 if s == 0.0 else f(1.0 / s) / (s * s)

    near, _ = integrate.quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-13,
                             limit=200)
    far, _ = integrate.quad(f_inv, 0.0, 1.0, epsabs=0.0, epsrel=1e-13,
                            limit=200)
    return near + far


_GL_U, _GL_W = np.polynomial.legendre.leggauss(400)


def radial_gauss(n, p, log_factor=False):
    """400-node Gauss-Legendre on u in (0, 1), r = u/(1-u)."""
    u = 0.5 * (_GL_U + 1.0)
    r = u / (1.0 - u)
    g = r ** (n - 1) * (1.0 + r * r) ** (-p) / (1.0 - u) ** 2
    if log_factor:
        g = g * np.log1p(r * r)
    return float(np.sum(0.5 * _GL_W * g))


def radial_mpmath(n, p, log_factor=False):
    """30-digit tanh-sinh quadrature, split at r = 1."""
    with mpmath.workdps(30):
        def f(r):
            v = r ** (n - 1) * (1 + r * r) ** (-mpmath.mpf(p))
            return v * mpmath.log(1 + r * r) if log_factor else v
        return mpmath.quad(f, [0, 1, mpmath.inf])


def oracle_constants(N, radial):
    """Integrals and constants from the radial integrals of ``radial``.

    The prefactors alpha_N, sigma_N and 2* are taken at 30 digits, so the
    result is as accurate as the radial integrals are.
    """
    with mpmath.workdps(30):
        n = mpmath.mpf(N)
        a = (n * (n - 2)) ** ((n - 2) / 4)
        s = 2 * mpmath.pi ** (n / 2) / mpmath.gamma(n / 2)
        ts = 2 * n / (n - 2)

        def rad(dim, p, log_factor=False):
            return mpmath.mpf(radial(dim, p, log_factor))

        i_2star = a ** ts * s * rad(N, N)
        i_2star_m1 = a ** (ts - 1) * s * rad(N, (N + 2) / 2.0)
        i_log = (mpmath.log(a) * i_2star
                 - (n - 2) / 2 * a ** ts * s * rad(N, N, True))
        i_grad = a ** 2 * (n - 2) ** 2 * s * rad(N + 2, N)
        omega = i_2star / ts
        c = omega / i_2star_m1 ** 2
        gamma = i_2star / ts ** 2 - i_log / ts + omega * mpmath.log(c) / 2
        return {
            "integrals": [float(v) for v in (i_2star, i_2star_m1, i_log,
                                             i_grad)],
            "CN": float(i_grad - omega),
            "cN": float(c),
            "omegaN": float(omega),
            "gammaN": float(gamma),
        }


class TestBasicScalars:
    def test_two_star(self):
        assert two_star(3) == 6.0
        assert two_star(4) == 4.0
        assert two_star(6) == 3.0

    def test_alpha_N_closed_form(self):
        assert alpha_N(3) == pytest.approx(3.0 ** 0.25, rel=1e-15)
        assert alpha_N(4) == pytest.approx(8.0 ** 0.5, rel=1e-15)
        assert alpha_N(5) == pytest.approx(15.0 ** 0.75, rel=1e-15)

    def test_sigma_N(self):
        assert sigma_N(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
        assert sigma_N(4) == pytest.approx(2.0 * math.pi ** 2, rel=1e-15)

    def test_sigma_N_overflow_names_N(self):
        with pytest.raises(ParameterError, match="N=400"):
            sigma_N(400)

    @pytest.mark.parametrize("fn, N", [
        (alpha_N, 2), (two_star, 2), (sigma_N, 0),
        # A dimension is an integer: no float, bool or string stands for one.
        *((fn, N) for fn in (alpha_N, two_star, bubble_integrals, sigma_N,
                             compute_constants)
          for N in (3.0, 3.5, True, "3")),
        (bubble_integrals, 2), (compute_constants, 2), (alpha_N, np.int64(2)),
        pytest.param(lambda N: BubbleParams(N=N, eps=0.1, lam=1.0,
                                            xi=np.zeros(3)), 3.0,
                     id="BubbleParams-3.0"),
        pytest.param(lambda N: BubbleParams(N=N, eps=0.1, lam=1.0,
                                            xi=np.zeros(3)), True,
                     id="BubbleParams-True"),
        pytest.param(lambda N: BubbleParams(N=N, eps=0.1, lam=1.0,
                                            xi=np.zeros(2)), 2,
                     id="BubbleParams-2"),
    ])
    def test_dimension_guards(self, fn, N):
        with pytest.raises(ParameterError, match="dimension"):
            fn(N)

    @pytest.mark.parametrize("N", [np.int64(4), np.int32(4), np.array(4)])
    def test_numpy_integer_dimensions_are_ints(self, N):
        table = compute_constants(N)
        assert type(table.N) is int and table == compute_constants(4)
        assert alpha_N(N) == alpha_N(4) and sigma_N(N) == sigma_N(4)
        p = BubbleParams(N=N, eps=np.float32(0.25), lam=1, xi=np.zeros(4))
        assert (type(p.N), type(p.eps), type(p.lam)) == (int, float, float)


class TestBubbleIntegralsN3:
    def test_closed_forms(self):
        ints = bubble_integrals(3)
        assert rel(ints.int_U_2star, INT_U6_N3) <= 1e-10
        assert rel(ints.int_U_2star_m1, INT_U5_N3) <= 1e-10
        assert rel(ints.int_U_2star_logU, INT_U6_LOGU_N3) <= 1e-8

    def test_gradient_energy_identity(self):
        # int |grad U|^2 = int U^{2*} (the bubble solves -ΔU = U^{2*-1}).
        ints = bubble_integrals(3)
        assert rel(ints.int_grad_sq, ints.int_U_2star) <= 1e-8

    def test_flux_identity_all_dims(self):
        # int U^{2*-1} = alpha_N (N-2) sigma_N: total flux of -ΔU.
        for N in (3, 4, 5):
            ints = bubble_integrals(N)
            exact = alpha_N(N) * (N - 2) * sigma_N(N)
            assert rel(ints.int_U_2star_m1, exact) <= 1e-9

    def test_quad_error_bar(self):
        ints = bubble_integrals(3)
        assert 0 < ints.quad_error < 1e-9
        assert abs(ints.int_U_2star - INT_U6_N3) <= 10 * ints.quad_error


class TestConstantsTable:
    def test_n3_values(self, table3):
        assert rel(table3.omegaN, OMEGA3) <= 1e-10
        assert rel(table3.CN, C3) <= 1e-10
        assert table3.cN == pytest.approx(1.0 / 128.0, rel=1e-12)
        assert rel(table3.gammaN, GAMMA3) <= 1e-8
        assert table3.alphaN == pytest.approx(3.0 ** 0.25, rel=1e-15)

    def test_cn_identity(self, table3):
        # C_N = (1 - 1/2*) int U^{2*}; for N=3 that is (5/6) int U^6.
        assert abs(table3.CN - 5.0 / 6.0 * INT_U6_N3) <= 1e-10 * abs(C3)

    def test_omega_identity(self, table3):
        # omega_N = int U^{2*} / 2*.
        assert rel(table3.omegaN, INT_U6_N3 / 6.0) <= 1e-12

    def test_small_c_identity(self, table3):
        # c_N = omega_N / (int U^{2*-1})^2; equals 1/128 exactly for N=3.
        assert rel(table3.cN, OMEGA3 / INT_U5_N3 ** 2) <= 1e-12

    def test_n4_n5_values(self):
        t4 = compute_constants(4)
        assert rel(t4.omegaN, OMEGA4) <= 1e-9
        assert rel(t4.CN, C4) <= 1e-9
        assert rel(t4.cN, C_SMALL_4) <= 1e-9
        assert rel(t4.gammaN, GAMMA4) <= 1e-8
        assert t4.quad_error < 1e-9
        t5 = compute_constants(5)
        assert rel(t5.omegaN, OMEGA5) <= 1e-9
        assert rel(t5.CN, C5) <= 1e-9
        assert rel(t5.cN, C_SMALL_5) <= 1e-9
        assert rel(t5.gammaN, GAMMA5) <= 1e-8

    def test_rejects_low_dimension(self):
        with pytest.raises(ParameterError):
            compute_constants(2)

    def test_json_dict_flags_derived_values(self, table3):
        d = table3.to_json_dict()
        assert d["values_implementer_derived"] is True
        assert list(d) == ["N", "alphaN", "CN", "cN", "omegaN", "gammaN",
                           "quad_error", "values_implementer_derived"]


class TestScaleMaps:
    def test_quadratic_map(self, table3):
        # lam = (c_N Lambda^2)^{1/(N-2)}: the map under which the energy
        # expansion holds (interaction weights Lambda_i Lambda_j).
        assert lambda_of_Lambda_quadratic(1.0, table3) == pytest.approx(
            table3.cN, rel=1e-14)
        assert lambda_of_Lambda_quadratic(3.0, table3) == pytest.approx(
            9.0 * table3.cN, rel=1e-14)

    def test_maps_reject_nonpositive(self, table3):
        with pytest.raises(ParameterError):
            lambda_of_Lambda_quadratic(-1.0, table3)

    @pytest.mark.parametrize("value", [math.inf, math.nan, "1.0", True, 0,
                                       np.array([1.0]), 10 ** 400])
    @pytest.mark.parametrize("scale", ["Lambda", "eps", "lam"])
    def test_scales_are_positive_finite_reals(self, table3, scale, value):
        # Before, inf and nan passed (lam inf, a NaN core width), a string
        # raised TypeError and True counted as 1.
        with pytest.raises(ParameterError, match=scale):
            if scale == "Lambda":
                lambda_of_Lambda_quadratic(value, table3)
            else:
                BubbleParams(N=3, xi=np.zeros(3),
                             **{"eps": 0.1, "lam": 1.0, scale: value})

    def test_single_bubble_energy_limit(self, table3):
        # E_N = (1/2 - 1/2*) int U^{2*} = (2/(N-2)) omega_N.
        E = single_bubble_energy_limit(table3)
        assert rel(E, 2.0 * OMEGA3) <= 1e-12
        assert rel(E, (0.5 - 1.0 / 6.0) * INT_U6_N3) <= 1e-10


class TestBubbleEvaluation:
    def test_peak_value(self):
        p = BubbleParams(N=3, eps=0.04, lam=1.0, xi=np.zeros(3))
        m = p.core_width
        assert m == pytest.approx(0.04, rel=1e-15)
        # U(xi) = alpha_N m^{-(N-2)/2}.
        assert bubble_profile(3, m, 0.0) == pytest.approx(
            alpha_N(3) / math.sqrt(m), rel=1e-13)

    def test_far_field_decay(self):
        p = BubbleParams(N=3, eps=0.01, lam=1.0, xi=np.zeros(3))
        x = np.array([10.0, 0.0, 0.0])
        # U ~ alpha_N m^{(N-2)/2} |x|^{2-N} far from the core.
        expected = alpha_N(3) * math.sqrt(p.core_width) / 10.0
        d2 = float(np.sum((x - p.xi) ** 2))
        assert bubble_profile(3, p.core_width, d2) == pytest.approx(
            expected, rel=1e-3)

    def test_vectorized_evaluation(self):
        p = BubbleParams(N=3, eps=0.05, lam=2.0, xi=np.array([0.1, 0.0, 0.0]))
        xs = np.array([[0.1, 0.0, 0.0], [0.5, 0.2, -0.1], [0.0, 0.0, 0.9]])
        d2 = np.sum((xs - p.xi) ** 2, axis=-1)
        vals = bubble_profile(3, p.core_width, d2)
        assert vals.shape == (3,)
        for i in range(3):
            assert vals[i] == pytest.approx(
                bubble_profile(3, p.core_width, float(d2[i])), rel=1e-14)

    def test_solves_critical_equation(self):
        # -ΔU = U^{2*-1} checked by a second-difference stencil.
        p = BubbleParams(N=3, eps=0.05, lam=1.0, xi=np.zeros(3))
        x = np.array([0.3, 0.1, -0.05])
        h = 1e-4

        def U(y):
            return bubble_profile(3, p.core_width, float(np.sum((y - p.xi) ** 2)))

        lap = 0.0
        u0 = U(x)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            lap += (U(x + e) - 2.0 * u0 + U(x - e)) / h ** 2
        assert -lap == pytest.approx(u0 ** 5, rel=1e-4)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            BubbleParams(N=2, eps=0.1, lam=1.0, xi=np.zeros(2))
        with pytest.raises(ParameterError):
            BubbleParams(N=3, eps=-0.1, lam=1.0, xi=np.zeros(3))
        with pytest.raises(ParameterError):
            BubbleParams(N=3, eps=0.1, lam=0.0, xi=np.zeros(3))
        with pytest.raises(ParameterError):
            BubbleParams(N=3, eps=0.1, lam=1.0, xi=np.zeros(4))

    def test_core_width_n4(self):
        p = BubbleParams(N=4, eps=0.04, lam=3.0, xi=np.zeros(4))
        assert p.core_width == pytest.approx(3.0 * 0.2, rel=1e-14)


class TestConstantsOracles:
    """compute_constants against three quadratures of the radial integrals."""

    @pytest.mark.parametrize("N", range(3, 13))
    @pytest.mark.parametrize("radial", [radial_adaptive, radial_gauss,
                                        radial_mpmath])
    def test_matches_quadrature(self, N, radial):
        table = compute_constants(N)
        ref = oracle_constants(N, radial)
        for key in ("CN", "cN", "omegaN", "gammaN"):
            assert rel(getattr(table, key), ref[key]) <= 1e-12, key

    @pytest.mark.parametrize("N", range(3, 17))
    def test_error_bars_bound_the_rounding(self, N):
        # 30-digit references: the reported bars must cover the actual
        # error, and stay a rounding-size fraction of the values.
        ref = oracle_constants(N, radial_mpmath)
        ints = bubble_integrals(N)
        got = (ints.int_U_2star, ints.int_U_2star_m1, ints.int_U_2star_logU,
               ints.int_grad_sq)
        for value, exact in zip(got, ref["integrals"]):
            assert abs(value - exact) <= ints.quad_error
        assert 0 < ints.quad_error <= 1e-11 * max(map(abs, got))
        table = compute_constants(N)
        for key in ("CN", "cN", "omegaN", "gammaN"):
            assert abs(getattr(table, key) - ref[key]) <= table.quad_error
        assert 0 < table.quad_error <= 1e-10 * abs(table.gammaN)
