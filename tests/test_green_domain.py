"""Ball Green/Robin kernels: image-formula oracles and hypothesis checks."""

import dataclasses
import math

import numpy as np
import pytest

from nodalbubbles import (
    AxisKernels,
    AxisSection,
    BallDomain,
    DomainError,
    ParameterError,
    ProjectedBubbleExact,
    SingularityError,
    axis_g,
    axis_g_dt,
    axis_h,
    axis_h_d1,
    axis_h_d2,
    check_boundary_expansion,
    check_directional_monotonicity,
    grad_x_G,
    green_G,
    harmonic_defect_order,
    robin_H,
    validate_A3,
)
from nodalbubbles.green_domain import _boundary_samples, grad_x_H

FOUR_PI = 4.0 * math.pi


def boundary_expansion_by_point(d):
    """The worst values of :func:`check_boundary_expansion`, one scalar
    kernel call per sample point and halving (the reference for the batched
    check)."""
    R, c, N = d.radius, d.center, d.N
    ratios1, ratios2, lead_dev = [], [], []
    for x, y in zip(*_boundary_samples(d)):
        xdir = (x - c) / np.linalg.norm(x - c)
        p = c + R * xdir
        fits1, fits2 = [], []
        for k in range(3):
            dk = (R - float(np.linalg.norm(x - c))) / 2 ** k
            xk = c + (R - dk) * xdir
            xbar = 2.0 * p - xk
            nu = (xk - p) / np.linalg.norm(xk - p)
            rbar = float(np.linalg.norm(xbar - y))
            H = robin_H(d, xk, y)
            lead1 = d.kappa * rbar ** (2.0 - N)
            fits1.append(abs(H - lead1) * rbar ** (N - 2.0) / dk)
            lead2 = float((xbar - y) @ nu) / (d.sigma * rbar ** N)
            fits2.append(abs(float(grad_x_H(d, xk, y) @ nu) - lead2)
                         * rbar ** (N - 2.0))
        ratios1 += [b / a for a, b in zip(fits1, fits1[1:])]
        ratios2 += [b / a for a, b in zip(fits2, fits2[1:])]
        lead_dev.append(abs(H / lead1 - 1.0))

    def extreme(rs):
        return max(rs, key=lambda r: abs(math.log(r)))

    return extreme(ratios1), extreme(ratios2), max(lead_dev)


class TestGreenFunction:
    def test_center_oracle(self, domain):
        # G(0, y) = (1/(4 pi)) (1/|y| - 1) on the unit ball.
        y = np.array([0.5, 0.0, 0.0])
        assert green_G(domain, np.zeros(3), y) == pytest.approx(
            (1.0 / 0.5 - 1.0) / FOUR_PI, rel=1e-14)
        y2 = np.array([0.0, 0.25, 0.0])
        assert green_G(domain, np.zeros(3), y2) == pytest.approx(
            (1.0 / 0.25 - 1.0) / FOUR_PI, rel=1e-14)

    def test_symmetry_sampled(self, domain):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            x = rng.uniform(-0.57, 0.57, size=3)
            y = rng.uniform(-0.57, 0.57, size=3)
            if np.linalg.norm(x - y) < 1e-3:
                continue
            gxy, gyx = green_G(domain, x, y), green_G(domain, y, x)
            worst = max(worst, abs(gxy - gyx) / max(abs(gxy), 1.0))
        assert worst <= 1e-13

    def test_boundary_exact_zero(self, domain):
        rng = np.random.default_rng(11)
        y = np.array([0.2, 0.1, -0.3])
        for _ in range(64):
            v = rng.normal(size=3)
            x = v / np.linalg.norm(v)
            assert green_G(domain, x, y) == 0.0

    def test_positive_inside(self, domain):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = rng.uniform(-0.5, 0.5, size=3)
            y = rng.uniform(-0.5, 0.5, size=3)
            if np.linalg.norm(x - y) < 1e-2:
                continue
            assert green_G(domain, x, y) > 0.0

    def test_coincident_points_rejected(self, domain):
        x = np.array([0.1, 0.2, 0.3])
        with pytest.raises(SingularityError):
            green_G(domain, x, x.copy())

    def test_outside_rejected(self, domain):
        with pytest.raises(DomainError):
            green_G(domain, np.array([1.5, 0.0, 0.0]), np.zeros(3))

    def test_gradient_matches_finite_differences(self, domain):
        x = np.array([0.25, -0.1, 0.3])
        y = np.array([-0.2, 0.15, 0.05])
        g = grad_x_G(domain, x, y)
        h = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (green_G(domain, x + e, y) - green_G(domain, x - e, y)) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=2e-8, abs=1e-11)

    @pytest.mark.parametrize("kernel", (green_G, robin_H, grad_x_G, grad_x_H),
                             ids=lambda f: f.__name__)
    def test_one_point_check_per_call(self, domain, kernel, monkeypatch):
        # Each kernel checks, centers and pairs its two points in one call,
        # on the closed ball for G and on the open one for H.
        from nodalbubbles import green_domain
        calls = []
        real = green_domain._pair

        def counted(*args, **kwargs):
            calls.append(kwargs["closed"])
            return real(*args, **kwargs)

        monkeypatch.setattr(green_domain, "_pair", counted)
        x, y = np.full((4, 3), 0.2), np.array([-0.1, 0.3, 0.0])
        kernel(domain, x, y)
        kernel(domain, x[0], y)
        assert calls == [kernel in (green_G, grad_x_G)] * 2


class TestRobinFunction:
    def test_center_diagonal(self, domain):
        # H(x, x) = 1/(4 pi (1 - |x|^2)) on the unit ball.
        assert robin_H(domain, np.zeros(3), np.zeros(3)) == pytest.approx(
            1.0 / FOUR_PI, rel=1e-13)
        x = np.array([0.5, 0.0, 0.0])
        assert robin_H(domain, x, x) == pytest.approx(
            1.0 / (FOUR_PI * 0.75), rel=1e-13)

    def test_dilation_scaling(self):
        # H_{R Omega}(R x, R x) = R^{2-N} H_Omega(x, x).
        big = BallDomain(N=3, center=np.zeros(3), radius=2.0)
        x = np.array([0.3, 0.1, 0.0])
        small_val = robin_H(BallDomain.unit(3), x, x)
        assert robin_H(big, 2.0 * x, 2.0 * x) == pytest.approx(
            small_val / 2.0, rel=1e-13)

    def test_fundamental_solution_split(self, domain):
        # G = kappa |x-y|^{2-N} - H with kappa = 1/((N-2) sigma_N).
        x = np.array([0.2, 0.0, 0.1])
        y = np.array([-0.1, 0.3, 0.0])
        kappa = 1.0 / FOUR_PI
        lhs = green_G(domain, x, y)
        rhs = kappa / np.linalg.norm(x - y) - robin_H(domain, x, y)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_harmonicity_order(self, domain):
        # Discrete Laplacian of H in x vanishes at measured order ~2.
        x = np.array([0.2, -0.15, 0.1])
        y = np.array([-0.3, 0.05, 0.2])
        order = harmonic_defect_order(domain, x, y, h0=0.02)
        assert 1.7 <= order <= 2.3

    def test_harmonicity_order_of_a_zero_defect(self, domain, monkeypatch):
        # An affine H at dyadic points has a stencil defect of exactly 0 at
        # both steps, which the measurement reports as an infinite order.
        from nodalbubbles import green_domain
        monkeypatch.setattr(green_domain, "robin_H",
                            lambda d, x, y: 1.0 + 2.0 * y[:, 0] - y[:, 2])
        x = np.array([0.25, 0.0, 0.0])
        y = np.array([-0.25, 0.125, 0.5])
        assert harmonic_defect_order(domain, x, y, h0=0.125) == math.inf


class TestAxisKernels:
    def test_axis_values(self, domain, kern):
        sec = AxisSection.of_ball(domain)
        assert axis_h(domain, sec, 0.0) == pytest.approx(1.0 / FOUR_PI,
                                                         rel=1e-13)
        assert axis_h(domain, sec, 0.5) == pytest.approx(
            1.0 / (3.0 * math.pi), rel=1e-13)
        assert axis_g(domain, sec, 0.0, 0.5) == pytest.approx(
            1.0 / FOUR_PI, rel=1e-13)
        assert kern.h(0.0) == pytest.approx(1.0 / FOUR_PI, rel=1e-13)

    def test_h_second_derivative_closed_form(self, domain):
        # h(t) = 1/(4 pi (1-t^2)) gives
        # h''(t) = (1/(4 pi)) (2 (1-t^2)^{-2} + 8 t^2 (1-t^2)^{-3}).
        sec = AxisSection.of_ball(domain)
        for t in (-0.6, -0.25, 0.0, 0.3, 0.7):
            s = 1.0 - t * t
            exact = (2.0 / s ** 2 + 8.0 * t * t / s ** 3) / FOUR_PI
            assert axis_h_d2(domain, sec, t) == pytest.approx(exact, rel=1e-6)

    def test_h_second_derivative_at_center(self, domain):
        sec = AxisSection.of_ball(domain)
        assert abs(axis_h_d2(domain, sec, 0.0) - 1.0 / (2.0 * math.pi)) <= 1e-6

    def test_h_first_derivative(self, domain):
        sec = AxisSection.of_ball(domain)
        t, h = 0.35, 1e-6
        fd = (axis_h(domain, sec, t + h) - axis_h(domain, sec, t - h)) / (2 * h)
        assert axis_h_d1(domain, sec, t) == pytest.approx(fd, rel=1e-7)

    def test_g_dt_matches_finite_differences(self, domain):
        sec = AxisSection.of_ball(domain)
        t, s, h = 0.2, -0.4, 1e-6
        fd = (axis_g(domain, sec, t + h, s) - axis_g(domain, sec, t - h, s)) / (2 * h)
        assert axis_g_dt(domain, sec, t, s) == pytest.approx(fd, rel=1e-7)

    def test_positions_outside_chord_rejected(self, domain):
        sec = AxisSection.of_ball(domain)
        with pytest.raises((ParameterError, DomainError)):
            axis_h(domain, sec, 1.5)


class TestAxisSecondDerivatives:
    """∂²g/∂t² and ∂²g/∂t∂s, entries 3 and 5 of the order-2 g jet, against
    central differences of ∂g/∂t."""

    @pytest.mark.parametrize("N", range(3, 9))
    @pytest.mark.parametrize("R", (0.5, 1.0, 3.0))
    def test_match_differences_of_g_dt(self, N, R):
        center = np.zeros(N)
        center[0], center[1] = 0.37 * R, -0.8 * R   # shifted off the origin
        d = BallDomain(N=N, center=center, radius=R)
        sec = AxisSection.of_ball(d)
        kern = AxisKernels(d, sec)
        c1, h = center[0], 1e-5 * R
        pairs = [(-0.7, -0.2), (-0.3, 0.4), (0.1, 0.15), (0.6, -0.5),
                 (0.85, 0.2)]
        for u, v in pairs:
            t, s = c1 + u * R, c1 + v * R
            fd_tt = (axis_g_dt(d, sec, t + h, s)
                     - axis_g_dt(d, sec, t - h, s)) / (2 * h)
            fd_ts = (axis_g_dt(d, sec, t, s + h)
                     - axis_g_dt(d, sec, t, s - h)) / (2 * h)
            jet = kern.g_jet(t, s, order=2)
            assert jet[3][0] == pytest.approx(fd_tt, rel=1e-6)
            assert jet[5][0] == pytest.approx(fd_ts, rel=1e-6)
            assert jet[5][0] == pytest.approx(
                kern.g_jet(s, t, order=2)[5][0], rel=1e-14)

    @pytest.mark.parametrize("N", range(3, 9))
    @pytest.mark.parametrize("R", (0.5, 1.0, 3.0))
    def test_vectorized_and_kernel_methods(self, N, R):
        # Each public kernel is one entry of a jet, bit for bit, and the
        # default section's jets are those of the explicit whole chord.
        center = np.zeros(N)
        center[0], center[1] = 0.37 * R, -0.8 * R   # shifted off the origin
        d = BallDomain(N=N, center=center, radius=R)
        sec, kern = AxisSection.of_ball(d), AxisKernels.for_ball(d)
        chord = AxisKernels(d, sec)
        t = center[0] + R * np.array([-0.4, 0.1, 0.6, 0.85])
        s = center[0] + R * np.array([0.2, -0.3, 0.0, -0.7])
        g_jet = chord.g_jet(t, s, order=2)
        h_jet = chord.h_jet(t, order=2)
        for f, entry in ((axis_g, 0), (axis_g_dt, 1)):
            vec = f(d, sec, t, s)
            assert vec.shape == (4,)
            assert np.array_equal(vec, g_jet[entry]), f.__name__
        for f, entry in ((axis_h, 0), (axis_h_d1, 1), (axis_h_d2, 2)):
            vec = f(d, sec, t)
            assert vec.shape == (4,)
            assert np.array_equal(vec, h_jet[entry]), f.__name__
        # ∂g/∂s and ∂²g/∂s² are the t-derivatives with t and s swapped.
        assert np.array_equal(g_jet[2], axis_g_dt(d, sec, s, t))
        assert np.array_equal(g_jet[4], chord.g_jet(s, t, order=2)[3])
        assert np.array_equal(kern.g(t, s), g_jet[0])
        assert np.array_equal(kern.h(t), h_jet[0])
        for order in (0, 1, 2):
            for mine, module, full, n in (
                    (kern.g_jet(t, s, order), chord.g_jet(t, s, order),
                     g_jet, (1, 3, 6)[order]),
                    (kern.h_jet(t, order), chord.h_jet(t, order),
                     h_jet, order + 1)):
                # each order is a prefix of the order-2 jet, bit for bit
                assert len(mine) == len(module) == n
                assert all(np.array_equal(a, b) and np.array_equal(a, c)
                           for a, b, c in zip(mine, module, full))

    @pytest.mark.parametrize("N", range(3, 9))
    @pytest.mark.parametrize("R", (0.5, 1.0, 3.0))
    def test_scalar_call_is_a_batch_of_one(self, N, R):
        # Every kernel evaluates a scalar argument as a batch of one, so a
        # scalar call returns the bits of the same point inside a batch
        # (as a Python float; a gradient as an (N,) vector).
        center = np.zeros(N)
        center[0], center[1] = 0.37 * R, -0.8 * R   # shifted off the origin
        d = BallDomain(N=N, center=center, radius=R)
        sec = AxisSection.of_ball(d)
        rng = np.random.default_rng(N)
        t, s = center[0] + R * rng.uniform(-0.95, 0.95, (2, 64))
        # inside the cube of half-width 0.95 R/sqrt(N), so |x - center| < R
        x, y = center + R / math.sqrt(N) * rng.uniform(-0.95, 0.95, (2, 64, N))
        # a bubble about 0.3 R on the axis, at half-section points (z, r)
        bubble = ProjectedBubbleExact(N=N, R=R, m=0.05 * R, t=0.3 * R)
        z, r = t - center[0], 0.3 * np.abs(s - center[0])
        calls = ([(f, (d, sec), (t, s)) for f in (axis_g, axis_g_dt)]
                 + [(f, (d, sec), (t,)) for f in (axis_h, axis_h_d1,
                                                  axis_h_d2)]
                 + [(f, (d,), (x, y)) for f in (green_G, robin_H,
                                                grad_x_G, grad_x_H)]
                 + [(f, (), (z, r)) for f in (bubble.u, bubble.w, bubble.pu)])
        for f, fixed, batch in calls:
            vec = f(*fixed, *batch)
            for n in range(64):
                one = f(*fixed, *(b[n] if b.ndim == 2 else float(b[n])
                                  for b in batch))
                if f in (grad_x_G, grad_x_H):
                    assert one.shape == (N,)
                    assert np.array_equal(one, vec[n]), (f.__name__, n)
                else:
                    # the bubble evaluators return numpy floats, as
                    # bubble_profile does
                    assert type(one) is (np.float64 if fixed == () else float)
                    assert one == vec[n], (f.__name__, n)
        # A jet returns a scalar point as a batch of one: ∂²g/∂t² and
        # ∂²g/∂t∂s, entries 3 and 5, carry the bits of the batched jet.
        kern = AxisKernels(d, sec)
        jet = kern.g_jet(t, s, order=2)
        for n in range(64):
            one = kern.g_jet(float(t[n]), float(s[n]), order=2)
            for entry in (3, 5):
                assert one[entry].shape == (1,)
                assert one[entry][0] == jet[entry][n], (entry, n)

    def test_coincident_and_outside_rejected(self, domain):
        kern = AxisKernels(domain, AxisSection.of_ball(domain))
        with pytest.raises(SingularityError):
            kern.g_jet(0.2, 0.2, order=2)
        with pytest.raises(DomainError):
            kern.g_jet(1.2, 0.2, order=2)


class TestHypothesisChecks:
    def test_validate_a3_passes(self, domain):
        sec = AxisSection.of_ball(domain)
        convexity, monotonicity = validate_A3(domain, sec)
        assert convexity.passed and convexity.worst_value > 0.0
        assert monotonicity.passed and monotonicity.worst_value < 0.0
        assert convexity.sample_count == 256
        assert monotonicity.sample_count == 9900

    @pytest.mark.parametrize("center", [(0.0, 0.0, 0.0), (0.3, 0.1, 0.0)])
    def test_validate_a3_none_is_the_whole_chord(self, center):
        # As for AxisKernels and the reduced layer, no section is the chord.
        d = BallDomain(N=3, center=center, radius=1.5)
        assert validate_A3(d, None) == validate_A3(d, AxisSection.of_ball(d))

    def test_boundary_expansion_passes(self, domain):
        reports = check_boundary_expansion(domain)
        assert len(reports) >= 2
        assert all(r.passed for r in reports)
        # Fitted constants stable within a factor 2 across distance halvings.
        for r in reports[:2]:
            assert 0.5 <= r.worst_value <= 2.0

    @pytest.mark.parametrize("N", range(3, 17))
    def test_boundary_expansion_passes_in_every_dimension(self, N):
        # The sample depth 0.1 R/(N-2) keeps the (N-2) d(x) correction to
        # the leading reflection term small in high dimensions.
        reports = check_boundary_expansion(BallDomain.unit(N))
        failed = [(r.check, r.worst_value) for r in reports if not r.passed]
        assert failed == []

    @pytest.mark.parametrize("N", [3, 4, 7, 16])
    @pytest.mark.parametrize("c1, radius", [(0.0, 1.0), (0.3, 2.5)])
    def test_boundary_expansion_matches_scalar_loop(self, N, c1, radius):
        # The 54 points in one batch give the worst values of the scalar
        # loop up to summation order (1e-12 relative, set beforehand).
        d = BallDomain(N=N, center=np.r_[c1, np.zeros(N - 1)], radius=radius)
        worst = [r.worst_value for r in check_boundary_expansion(d)]
        assert worst == pytest.approx(boundary_expansion_by_point(d),
                                      rel=1e-12)

    def test_directional_monotonicity_passes(self, domain):
        report = check_directional_monotonicity(domain, seed=0)
        assert report.passed
        assert report.worst_value < 0.0
        assert report.sample_count == 1000

    def test_directional_monotonicity_counts_the_pairs_kept(self, domain,
                                                            monkeypatch):
        # One draw of 1,000 pairs: pairs closer than 1e-6 R are dropped,
        # not re-drawn, and the report counts the pairs kept.  Here the y
        # draw repeats the x draw in its first three rows.
        rng = np.random.default_rng

        class RepeatsThreeRows:
            def __init__(self, seed):
                self.rng, self.drawn = rng(seed), []

            def _next(self, out):
                if len(self.drawn) in (2, 3):   # the y draw
                    out[:3] = self.drawn[-2][:3]
                self.drawn.append(out)
                return out

            def standard_normal(self, shape):
                return self._next(self.rng.standard_normal(shape))

            def random(self, m):
                return self._next(self.rng.random(m))

        monkeypatch.setattr(np.random, "default_rng", RepeatsThreeRows)
        report = check_directional_monotonicity(domain, seed=0)
        assert report.sample_count == 997
        assert report.passed and report.worst_value < 0.0

    @pytest.mark.parametrize("N", [143, 144, 343])
    def test_overflowed_samples_rejected(self, N):
        # From N = 143 on, (t-s) dg/dt overflows a double on the lattice, and
        # the finite maximum of a sample holding -inf passed the check.
        d = BallDomain.unit(N)
        with pytest.raises(ParameterError, match=f"N={N}"):
            validate_A3(d, AxisSection.of_ball(d))

    def test_report_serialization(self, domain):
        report = check_directional_monotonicity(domain, seed=1)
        d = report.to_json_dict()
        assert d["pass"] is report.passed
        assert list(d) == ["check", "sample_count", "worst_value", "pass"]


class TestDomainValidation:
    def test_bad_radius(self):
        with pytest.raises(ParameterError):
            BallDomain(N=3, center=np.zeros(3), radius=-1.0)

    def test_bad_dimension(self):
        with pytest.raises(ParameterError):
            BallDomain(N=2, center=np.zeros(2), radius=1.0)

    def test_bad_section(self):
        with pytest.raises(ParameterError):
            AxisSection(a=1.0, b=-1.0)

    def test_equal_balls_compare_and_hash_equal(self):
        a = BallDomain(N=3, center=[0.2, 0.0, -0.1], radius=2)
        b = BallDomain(N=3, center=np.array([0.2, 0.0, -0.1]), radius=2.0)
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert BallDomain.unit(3) == BallDomain.unit(3)
        assert {a: "ball"}[b] == "ball"
        assert len({a, b, BallDomain.unit(3), BallDomain.unit(3)}) == 2

    @pytest.mark.parametrize("other", [
        BallDomain.unit(4),
        BallDomain(N=3, center=np.zeros(3), radius=2.0),
        BallDomain(N=3, center=np.array([0.5, 0.0, 0.0]), radius=1.0),
        BallDomain(N=3, center=np.array([0.0, 0.0, 1e-12]), radius=1.0),
    ], ids=["N", "radius", "center", "transverse-center"])
    def test_balls_that_differ_compare_unequal(self, other):
        unit = BallDomain.unit(3)
        assert unit != other and not unit == other
        assert len({unit, other}) == 2

    def test_ball_is_not_equal_to_its_fields(self):
        unit = BallDomain.unit(3)
        assert unit != (3, (0.0, 0.0, 0.0), 1.0)
        assert unit != "unit ball"

    @pytest.mark.parametrize("call, error", [
        pytest.param(lambda: BallDomain(N=3, center=np.zeros(2), radius=1.0),
                     ParameterError, id="center-length"),
        pytest.param(lambda: grad_x_G(BallDomain.unit(3), np.full(3, 0.2),
                                      np.full(3, 0.2)),
                     SingularityError, id="grad_x_G-diagonal"),
        # Past the chord the kernels are not the ball's: h(1.5) would be
        # negative on the unit ball.
        pytest.param(lambda: axis_h(BallDomain.unit(3), AxisSection(-2.0, 2.0),
                                    1.5),
                     DomainError, id="section-beyond-chord"),
        pytest.param(lambda: validate_A3(BallDomain.unit(3),
                                         AxisSection(-2.0, 2.0)),
                     DomainError, id="validate-section-beyond-chord"),
        pytest.param(lambda: AxisKernels(BallDomain.unit(3),
                                         AxisSection(-1.0, 1.5)),
                     DomainError, id="kernels-section-beyond-chord"),
        pytest.param(lambda: BallDomain(N=3, center=np.zeros(3),
                                        radius=math.inf),
                     ParameterError, id="radius-infinite"),
        pytest.param(lambda: BallDomain(N=3, center=[0.0, math.nan, 0.0],
                                        radius=1.0),
                     ParameterError, id="center-nan"),
        pytest.param(lambda: harmonic_defect_order(
            BallDomain.unit(3), np.full(3, 0.1), np.full(3, -0.1), h0=0.0),
                     ParameterError, id="defect-step-zero"),
        # The dimension is an integer >= 3 (N=4.0 was kept as a float, a
        # string raised TypeError), the radius a positive finite real.
        *(pytest.param(lambda N=N: BallDomain(N=N, center=np.zeros(4),
                                              radius=1.0),
                       ParameterError, id=f"N-{N!r}")
          for N in (4.0, True, "4", 2)),
        *(pytest.param(lambda N=N: BallDomain.unit(N), ParameterError,
                       id=f"unit-N-{N!r}") for N in (4.0, True, "4", 2)),
        *(pytest.param(lambda r=r: BallDomain(N=3, center=np.zeros(3),
                                              radius=r),
                       ParameterError, id=f"radius-{r!r}")
          for r in (math.nan, "1", True, 0)),
        *(pytest.param(lambda a=a: AxisSection(a, 1.0), ParameterError,
                       id=f"section-a-{a!r}")
          for a in (-math.inf, math.nan, "-1")),
        *(pytest.param(lambda b=b: AxisSection(-1.0, b), ParameterError,
                       id=f"section-b-{b!r}") for b in (math.inf, "1")),
        *(pytest.param(lambda h=h: harmonic_defect_order(
            BallDomain.unit(3), np.full(3, 0.1), np.full(3, -0.1), h0=h),
                       ParameterError, id=f"defect-step-{h!r}")
          for h in (math.inf, math.nan, "0.01")),
        # The seed is an integer >= 0 (-1 raised numpy's ValueError).
        *(pytest.param(lambda s=s: check_directional_monotonicity(
            BallDomain.unit(3), seed=s),
                       ParameterError, id=f"directional-seed-{s!r}")
          for s in (-1, 1.0, True, "0")),
        # The center is a list, tuple or 1-D array of N finite reals: a
        # string raised numpy's ValueError, a nested list was flattened and
        # an integer past a double raised OverflowError.
        *(pytest.param(lambda c=c: BallDomain(N=3, center=c, radius=1.0),
                       ParameterError, id=f"center-{label}")
          for label, c in (("string", "abc"), ("string-entry", ["a", 0, 0]),
                           ("nested", [[0.0, 0.0, 0.0]]),
                           ("nested-array", np.zeros((1, 3))),
                           ("short-scalar", 0.0),
                           ("infinite", [math.inf, 0.0, 0.0]),
                           ("past-a-double", [10 ** 400, 0, 0]))),
        # Kernel points are arrays of finite reals with N coordinates on
        # the last axis: a short or scalar point was broadcast, NaN gave
        # NaN, a string or ragged point raised numpy's ValueError and a
        # bool point was read as numbers.
        *(pytest.param(lambda f=f, x=x: f(BallDomain.unit(3), x,
                                          np.full(3, -0.1)),
                       ParameterError, id=f"{f.__name__}-point-{label}")
          for f in (green_G, robin_H, grad_x_G)
          for label, x in (("short", [0.3]), ("scalar", 0.3),
                           ("nan", [math.nan, 0.0, 0.0]),
                           ("string", ["a", 0.0, 0.0]),
                           ("bool", [True, False, False]),
                           ("ragged", [[0.1, 0.0, 0.0], [0.1, 0.0]]))),
        # Axis coordinates are arrays of finite reals: NaN gave NaN and a
        # string raised numpy's ValueError.
        *(pytest.param(lambda f=f, args=args: f(
            BallDomain.unit(3), AxisSection(-1.0, 1.0), *args),
                       ParameterError, id=f"{f.__name__}-{label}")
          for f, label, args in (
              (axis_g, "t-nan", (math.nan, 0.1)),
              (axis_g, "s-nan", (0.1, math.nan)),
              (axis_g, "t-string", ("a", 0.1)),
              (axis_g, "s-string", (0.1, "a")),
              (axis_h, "t-nan", (math.nan,)),
              (axis_h, "t-string", ("a",)))),
        pytest.param(lambda: harmonic_defect_order(
            BallDomain.unit(3), np.full(3, 0.1), [math.nan, 0.0, 0.0],
            h0=0.01),
                     ParameterError, id="defect-y-nan"),
        # Arrays taken together broadcast: points or coordinates of shapes
        # that do not raised numpy's ValueError.
        *(pytest.param(lambda f=f: f(BallDomain.unit(3), np.full((2, 3), 0.1),
                                     np.full((3, 3), -0.1)),
                       (ParameterError, r"x of shape \(2, 3\), y of shape"),
                       id=f"{f.__name__}-pair-shapes")
          for f in (green_G, robin_H, grad_x_G, grad_x_H)),
        pytest.param(lambda: axis_g(BallDomain.unit(3), AxisSection(-1.0, 1.0),
                                    [0.1, 0.2], [0.3, 0.4, 0.5]),
                     (ParameterError, r"t of shape \(2,\), s of shape"),
                     id="axis_g-t-s-shapes"),
    ])
    def test_input_guards(self, call, error):
        # an error class, or one with the pattern its message matches
        error, match = error if isinstance(error, tuple) else (error, None)
        with pytest.raises(error, match=match):
            call()

    def test_numpy_numbers_are_stored_as_python_numbers(self):
        d = BallDomain(N=np.int64(3), center=np.zeros(3),
                       radius=np.float32(2.0))
        sec = AxisSection(np.float32(-0.5), np.int64(1))
        assert (type(d.N), type(d.radius)) == (int, float)
        assert (type(sec.a), type(sec.b)) == (float, float)
        assert d == BallDomain(N=3, center=np.zeros(3), radius=2.0)
        assert BallDomain.unit(np.int64(3)) == BallDomain.unit(3)

    def test_sphere_area_computed_once_per_domain(self, monkeypatch):
        # sigma and kappa are cached on the domain: 100 kernel calls on one
        # ball evaluate sigma_N once, and the cache adds no field.
        from nodalbubbles import green_domain
        calls = []
        real = green_domain.sigma_N

        def counted(N):
            calls.append(N)
            return real(N)

        monkeypatch.setattr(green_domain, "sigma_N", counted)
        d = BallDomain.unit(5)
        sec = AxisSection.of_ball(d)
        vals = [axis_g(d, sec, 0.1, -0.2 + 1e-3 * i) for i in range(50)]
        vals += [green_G(d, np.full(5, 0.1), np.full(5, -0.1 + 1e-3 * i))
                 for i in range(50)]
        assert calls == [5]
        assert d.kappa == 1.0 / (3 * real(5))
        assert [f.name for f in dataclasses.fields(d)] == ["N", "center",
                                                           "radius"]
        assert vals[0] == axis_g(BallDomain.unit(5), sec, 0.1, -0.2)
