"""Reduced interaction energies: closed-form k=1 oracle, signs, gradients."""

import math

import numpy as np
import pytest

import nodalbubbles.reduced_energy as reduced_energy
from nodalbubbles import (
    ALTERNATING_SIGNS_4,
    AxisKernels,
    AxisSection,
    BallDomain,
    Configuration,
    ParameterError,
    SearchError,
    base_spacing_points,
    bounds_report,
    find_t0_r0,
    grad_psi_k,
    grad_psi_tilde,
    log_plus,
    mu_embed,
    phi_penalty,
    psi_k,
    psi_tilde,
    robin_min,
    scaling_products,
    spacing_margin,
)

FOUR_PI = 4.0 * math.pi

# k=1 oracle on the unit ball: Psi_1(L) = L^2 h(0)/2 - log L with
# h(0) = 1/(4 pi); minimized at L* = sqrt(4 pi) with value (1 - log(4 pi))/2.
LAMBDA_STAR = 3.5449077018110321
PSI1_MIN = -0.7655121234846454

# Frozen a-priori bracket at the canonical spacing (t0, r0) = (0, 0.06).
LOWER_BOUND = -15.669274432356726
UPPER_BOUND = 4.100326821536164


# Balls of four radii, centered and shifted along and across the axis.
BALLS = ((0.1, 0.0), (1.0, 0.0), (2.5, 0.0), (10.0, 0.0),
         (0.1, 3.22), (1.0, -1.8), (2.5, 0.3), (10.0, -7.0))


def ball(N, radius, c1):
    center = np.zeros(N)
    center[0], center[-1] = c1, 0.5 * c1
    return BallDomain(N=N, center=center, radius=radius)


def ordered_pair_margin(kern, t0, r0, n_check=33):
    """min g(t,s) − ½h(t) − ½h(s) over the ordered pairs t ≠ s of the
    n_check × n_check window lattice (the reference for spacing_margin)."""
    t0, r0 = np.asarray(t0, dtype=float), np.asarray(r0, dtype=float)
    ts = np.linspace(t0 - 4.0 * r0, t0 + 4.0 * r0, n_check, axis=-1)
    T, S = np.broadcast_arrays(ts[..., :, None], ts[..., None, :])
    off = ~np.eye(n_check, dtype=bool)
    T, S = T[..., off], S[..., off]
    margin = np.min(kern.g(T, S) - 0.5 * kern.h(T) - 0.5 * kern.h(S),
                    axis=-1)
    return float(margin) if margin.ndim == 0 else margin


def scalar_search(domain, margin):
    """The spacing search one candidate at a time, one scalar margin each."""
    sec = AxisSection.of_ball(domain)
    kern = AxisKernels(domain, sec)
    width = sec.b - sec.a
    guard = 0.01 * width
    step = width / 200.0
    r_cands = np.arange(math.floor((width / 2.0 - guard) / 4.0 / step),
                        0, -1) * step
    offsets = [0.0]
    for i in range(1, 5):
        offsets.extend([0.025 * i * width, -0.025 * i * width])
    t_cands = [0.5 * (sec.a + sec.b) + o for o in offsets]
    for r0 in r_cands:
        for t0 in t_cands:
            if (t0 - 4.0 * r0 > sec.a + guard
                    and t0 + 4.0 * r0 < sec.b - guard
                    and margin(kern, t0, r0) > 0.0
                    and margin(kern, t0, r0, 330) > 0.0):
                return (float(t0), float(r0))


def config1(L, t=0.0):
    return Configuration(k=1, signs=(1,), Lambda=(L,), t=(t,))


class TestPsiK:
    def test_k1_closed_form(self, kern):
        for L in (0.5, 1.0, 2.0, LAMBDA_STAR):
            expected = 0.5 * L * L / FOUR_PI - math.log(L)
            assert psi_k(config1(L), kern) == pytest.approx(expected,
                                                            rel=1e-12)

    def test_k1_minimum(self, kern):
        assert psi_k(config1(LAMBDA_STAR), kern) == pytest.approx(
            PSI1_MIN, abs=1e-12)
        # Dense-scan confirmation that L* is the 1D minimizer at t = 0.
        Ls = np.linspace(1.0, 8.0, 2001)
        vals = [psi_k(config1(L), kern) for L in Ls]
        assert min(vals) >= PSI1_MIN - 1e-12
        assert abs(Ls[int(np.argmin(vals))] - LAMBDA_STAR) < 0.01

    def test_k2_pair_structure(self, kern):
        # Psi_2 = sum_i (L_i^2 h(t_i)/2 - log L_i) - a1 a2 L1 L2 g(t1,t2):
        # equal signs subtract the attractive interaction.
        cfg = Configuration(k=2, signs=(1, 1), Lambda=(1.5, 2.0),
                            t=(-0.2, 0.3))
        singles = sum(0.5 * L * L * kern.h(t) - math.log(L)
                      for L, t in zip(cfg.Lambda, cfg.t))
        inter = 1.5 * 2.0 * kern.g(-0.2, 0.3)
        assert psi_k(cfg, kern) == pytest.approx(singles - inter, rel=1e-12)

    def test_opposite_signs_flip_interaction(self, kern):
        same = Configuration(k=2, signs=(1, 1), Lambda=(1.5, 2.0),
                             t=(-0.2, 0.3))
        opp = Configuration(k=2, signs=(1, -1), Lambda=(1.5, 2.0),
                            t=(-0.2, 0.3))
        inter = 1.5 * 2.0 * kern.g(-0.2, 0.3)
        assert psi_k(opp, kern) - psi_k(same, kern) == pytest.approx(
            2.0 * inter, rel=1e-10)


class TestPsiTilde:
    def test_requires_alternating_four(self, kern):
        bad = Configuration(k=4, signs=(1, 1, -1, 1),
                            Lambda=(1.0,) * 4, t=(-0.3, -0.1, 0.1, 0.3))
        with pytest.raises(ParameterError):
            psi_tilde(bad, kern)
        too_few = Configuration(k=2, signs=(1, -1), Lambda=(1.0, 1.0),
                                t=(-0.1, 0.1))
        with pytest.raises(ParameterError):
            psi_tilde(too_few, kern)

    def test_equals_psi_k_on_alternating(self, kern, saddle_config):
        assert psi_tilde(saddle_config, kern) == pytest.approx(
            psi_k(saddle_config, kern), rel=1e-12)

    def test_adjacent_interaction_enters_positively(self, domain,
                                                    saddle_config):
        # Bumping g(t2, t3) by delta raises the alternating energy by
        # exactly Lambda_2 Lambda_3 delta (the 2-3 pair has opposite signs,
        # so -a2 a3 L2 L3 g = +L2 L3 g).
        kern = AxisKernels.for_ball(domain)
        base = psi_tilde(saddle_config, kern)
        delta = 1e-3
        t2, t3 = saddle_config.t[1], saddle_config.t[2]
        orig_jet = kern.g_jet

        class Bumped:
            def __init__(self, inner):
                self._inner = inner

            def g_jet(self, t, s, order=0):
                # Elementwise: bump g of every pair whose {t, s} is {t2, t3}.
                rt, rs = np.round(t, 12), np.round(s, 12)
                r2, r3 = round(t2, 12), round(t3, 12)
                hit = ((rt == r2) & (rs == r3)) | ((rt == r3) & (rs == r2))
                g, *derivatives = orig_jet(t, s, order)
                return (g + delta * hit, *derivatives)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        bumped = psi_tilde(saddle_config, Bumped(kern))
        L2, L3 = saddle_config.Lambda[1], saddle_config.Lambda[2]
        assert bumped - base == pytest.approx(L2 * L3 * delta, rel=1e-9)


class TestGradients:
    @pytest.mark.parametrize("order", (0, 1, 2))
    def test_one_jet_call_each_per_evaluation(self, kern, saddle_config,
                                              order, monkeypatch):
        # Value, gradient and Hessian come from one g jet on the pairs and
        # one h jet on the positions; no public kernel is called.
        calls = []

        def counted(name, real):
            def f(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return f

        for name in ("_g_jet", "_h_jet", "axis_g", "axis_h"):
            monkeypatch.setattr(reduced_energy, name,
                                counted(name, getattr(reduced_energy, name)))
        out = reduced_energy._quadratic_form(
            kern, np.ones((4, 4)), saddle_config.Lambda, saddle_config.t,
            order)
        assert len(out) == order + 1
        assert sorted(calls) == ["_g_jet", "_h_jet"]

    def test_grad_psi_k_matches_fd(self, kern):
        cfg = Configuration(k=2, signs=(1, -1), Lambda=(1.3, 2.1),
                            t=(-0.25, 0.2))
        g = grad_psi_k(cfg, kern)
        assert g.shape == (4,)
        h = 1e-6
        for i in range(2):
            Lp = list(cfg.Lambda)
            Lm = list(cfg.Lambda)
            Lp[i] += h
            Lm[i] -= h
            fd = (psi_k(cfg.with_params(Lambda=Lp), kern)
                  - psi_k(cfg.with_params(Lambda=Lm), kern)) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=1e-6)
        for i in range(2):
            tp = list(cfg.t)
            tm = list(cfg.t)
            tp[i] += h
            tm[i] -= h
            fd = (psi_k(cfg.with_params(t=tp), kern)
                  - psi_k(cfg.with_params(t=tm), kern)) / (2 * h)
            assert g[2 + i] == pytest.approx(fd, rel=1e-6)

    def test_grad_psi_tilde_matches_fd(self, kern, saddle_config):
        cfg = saddle_config.with_params(
            Lambda=tuple(L * 1.1 for L in saddle_config.Lambda))
        g = grad_psi_tilde(cfg, kern)
        assert g.shape == (8,)
        h = 1e-6
        for i in range(4):
            Lp = list(cfg.Lambda)
            Lm = list(cfg.Lambda)
            Lp[i] += h
            Lm[i] -= h
            fd = (psi_tilde(cfg.with_params(Lambda=Lp), kern)
                  - psi_tilde(cfg.with_params(Lambda=Lm), kern)) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_gradient_vanishes_at_k1_minimizer(self, kern):
        g = grad_psi_k(config1(LAMBDA_STAR), kern)
        assert abs(g[0]) <= 1e-12   # dPsi/dLambda at the minimizer
        assert abs(g[1]) <= 1e-12   # dPsi/dt at the Robin minimum t = 0


class TestPenaltyAndEmbedding:
    def test_phi_dominates_psi_tilde(self, kern, saddle_config):
        # Phi flips every interaction attractive, so Phi >= Psi-tilde
        # pointwise on alternating configurations.
        assert phi_penalty(saddle_config, kern) >= psi_tilde(saddle_config,
                                                             kern)

    def test_log_plus(self):
        assert log_plus(0.5) == 0.0
        assert log_plus(1.0) == 0.0
        assert log_plus(math.e) == pytest.approx(1.0, rel=1e-15)

    def test_mu_embed_structure(self):
        t = base_spacing_points(0.0, 0.06)
        cfg = mu_embed(1.0, 1.0, 1.0, t)
        assert cfg.k == 4
        assert cfg.signs == ALTERNATING_SIGNS_4
        assert cfg.t == t
        assert len(set(cfg.Lambda)) <= 2  # inner pair shares one scaling

    def test_scaling_products(self, saddle_config):
        prods = scaling_products(saddle_config)
        L = saddle_config.Lambda
        assert prods[0] == pytest.approx(L[0] * L[1], rel=1e-14)

    def test_base_spacing_points(self):
        # Left-anchored ladder: (t0, t0 + r0, t0 + 2 r0, t0 + 3 r0).
        pts = base_spacing_points(0.1, 0.05)
        assert pts == (pytest.approx(0.1), pytest.approx(0.15),
                       pytest.approx(0.2), pytest.approx(0.25))
        with pytest.raises(ParameterError):
            base_spacing_points(0.0, -0.01)


class TestSearchAndBounds:
    def test_find_t0_r0_canonical(self, domain):
        t0, r0 = find_t0_r0(domain)
        assert t0 == pytest.approx(0.0, abs=1e-12)
        assert r0 == pytest.approx(0.06, abs=1e-12)

    def test_spacing_margin_positive(self, kern):
        assert spacing_margin(kern, 0.0, 0.06) > 0.0

    @pytest.mark.parametrize("n_check", [0, 1, 33.0, True, "33"])
    def test_margin_of_no_pairs_rejected(self, kern, n_check):
        # Fewer than two lattice points leave no off-diagonal pair, so no
        # window may count as admissible.
        with pytest.raises(ParameterError, match="n_check"):
            spacing_margin(kern, 0.0, 0.1, n_check=n_check)

    def test_batched_margins_are_the_scalar_margins(self, kern):
        t0 = np.array([0.0, 0.05, -0.1, 0.2])
        for r0 in (0.01, 0.06, 0.1):
            batch = spacing_margin(kern, t0, r0)
            assert batch.shape == t0.shape
            assert batch.tolist() == [spacing_margin(kern, t, r0) for t in t0]
        assert isinstance(spacing_margin(kern, 0.0, 0.06), float)

    @pytest.mark.parametrize("domain", (
        *(BallDomain.unit(N) for N in range(3, 17)),
        BallDomain(N=3, center=np.array([0.3, 0.0, 0.0]), radius=2.0)),
        ids=lambda d: f"N{d.N}-R{d.radius}")
    def test_find_t0_r0_matches_the_scalar_search(self, domain):
        assert find_t0_r0(domain) == scalar_search(domain, spacing_margin)

    @pytest.mark.parametrize("N", range(3, 11))
    def test_spacing_margin_is_the_ordered_pair_margin(self, N):
        # One g per unordered pair and one ½h per point, with the minimum
        # over both subtraction orders, give the ordered-pair margin's bits.
        for radius, c1 in BALLS:
            kern = AxisKernels.for_ball(ball(N, radius, c1))
            t0 = c1 + radius * np.array([0.0, 0.1, -0.2])
            for n_check, spacings in ((2, (0.01, 0.06, 0.15)),
                                      (3, (0.01, 0.06, 0.15)),
                                      (33, (0.01, 0.06, 0.15)), (330, (0.06,))):
                for r0 in radius * np.array(spacings):
                    batch = spacing_margin(kern, t0, r0, n_check)
                    assert np.array_equal(
                        batch, ordered_pair_margin(kern, t0, r0, n_check))
                    scalar = spacing_margin(kern, t0[1], r0, n_check)
                    assert type(scalar) is float and scalar == batch[1]

    @pytest.mark.parametrize("N", range(3, 11))
    def test_search_and_bounds_match_the_ordered_pair_oracle(self, N):
        # The search on ordered-pair margins, and the bracket from four
        # scalar g calls.
        for radius, c1 in BALLS:
            d = ball(N, radius, c1)
            expected = scalar_search(d, ordered_pair_margin)
            assert find_t0_r0(d) == expected
            kern = AxisKernels.for_ball(d)
            t1, t2, t3, t4 = base_spacing_points(*expected)
            upper = (kern.g(t1, t2) + kern.g(t2, t3)
                     + kern.g(t3, t4) + kern.g(t1, t4))
            assert bounds_report(d, None, *expected).upper == upper

    @pytest.mark.parametrize("r0", [0.0, -0.1, math.nan, math.inf])
    def test_spacing_of_no_width_rejected(self, kern, r0):
        # r0 = 0 collapses the window to one point, which left no pair and
        # a margin of +inf: a pass on no evidence.
        with pytest.raises(ParameterError, match="r0"):
            spacing_margin(kern, 0.0, r0)
        with pytest.raises(ParameterError, match="r0"):
            spacing_margin(kern, [0.0, 0.1], [0.06, r0])

    @pytest.mark.parametrize("t0, r0, match", [
        pytest.param(math.inf, 0.06, "t0", id="t0-inf"),
        pytest.param(math.nan, 0.06, "t0", id="t0-nan"),
        pytest.param([0.0, 0.01], [0.01, 0.02, 0.03],
                     r"t0 of shape \(2,\), r0 of shape \(3,\)",
                     id="t0-r0-shapes"),
    ])
    def test_spacing_off_the_reals_rejected(self, kern, t0, r0, match):
        # An infinite base point raised numpy's RuntimeWarning, a NaN one
        # returned a NaN margin, and arrays that do not broadcast raised
        # numpy's ValueError.
        with pytest.raises(ParameterError, match=match):
            spacing_margin(kern, t0, r0)

    def test_search_without_admissible_candidate(self, domain, monkeypatch):
        monkeypatch.setattr(
            reduced_energy, "spacing_margin",
            lambda kern, t0, r0, n_check=33: np.full(np.shape(t0), -1.0))
        with pytest.raises(SearchError, match="33 window points"):
            find_t0_r0(domain)

    def test_robin_min(self, kern):
        assert robin_min(kern) == pytest.approx(1.0 / FOUR_PI, rel=1e-9)

    @pytest.mark.parametrize("N", (3, 5))
    def test_robin_min_off_center_ball(self, N):
        center = np.zeros(N)
        center[0], center[-1] = 3.7, -2.0
        kern = AxisKernels.for_ball(BallDomain(N=N, center=center,
                                               radius=10.0))
        a, b = kern.section.a, kern.section.b
        m = 1e-3 * (b - a)
        grid_min = float(np.min(kern.h(np.linspace(a + m, b - m, 20001))))
        assert robin_min(kern) == pytest.approx(grid_min, rel=1e-12)
        assert robin_min(kern) == pytest.approx(
            kern.domain.kappa * 10.0 ** (2 - N), rel=1e-12)

    def test_robin_min_sub_chord_without_center(self, domain):
        # The sub-chord (0.2, 0.9) excludes the center: the minimum sits at
        # its clipped left end a + m.
        kern = AxisKernels(domain, AxisSection(a=0.2, b=0.9))
        m = 1e-3 * 0.7
        grid_min = float(np.min(kern.h(np.linspace(0.2 + m, 0.9 - m,
                                                   20001))))
        assert robin_min(kern) == pytest.approx(grid_min, rel=1e-12)
        assert robin_min(kern) == kern.h(0.2 + m)
        flipped = AxisKernels(domain, AxisSection(a=-0.9, b=-0.2))
        assert robin_min(flipped) == pytest.approx(grid_min, rel=1e-12)

    def test_bounds_report_frozen(self, domain):
        rep = bounds_report(domain, None, 0.0, 0.06)
        assert rep.H0 == pytest.approx(1.0 / FOUR_PI, rel=1e-9)
        assert rep.lower == pytest.approx(LOWER_BOUND, abs=1e-9)
        assert rep.upper == pytest.approx(UPPER_BOUND, abs=1e-9)
        assert rep.lower < rep.upper
        d = rep.to_json_dict()
        assert list(d) == ["H0", "lower", "upper", "t0", "r0"]


class TestConfigurationType:
    def test_json_round_trip(self, saddle_config):
        d = saddle_config.to_json_dict()
        assert list(d) == ["k", "signs", "Lambda", "t"]
        back = Configuration.from_json_dict(d)
        assert back == saddle_config

    @pytest.mark.parametrize("data", [None, [1, 2], "x"])
    def test_from_json_dict_needs_an_object(self, data):
        with pytest.raises(ParameterError, match="JSON object"):
            Configuration.from_json_dict(data)

    def test_from_json_dict_rejects_unknown_keys(self, saddle_config):
        d = dict(saddle_config.to_json_dict(), extra=1)
        with pytest.raises(ParameterError, match="extra"):
            Configuration.from_json_dict(d)

    def test_validation(self):
        with pytest.raises(ParameterError):
            Configuration(k=2, signs=(1, -1), Lambda=(1.0, 1.0),
                          t=(0.3, 0.1))   # not increasing
        with pytest.raises(ParameterError):
            Configuration(k=2, signs=(1, 2), Lambda=(1.0, 1.0),
                          t=(-0.1, 0.1))  # bad sign
        with pytest.raises(ParameterError):
            Configuration(k=2, signs=(1, -1), Lambda=(1.0, -1.0),
                          t=(-0.1, 0.1))  # bad scaling
        with pytest.raises(ParameterError):
            Configuration(k=1, signs=(1,), Lambda=(10 ** 400,),
                          t=(0.0,))       # float() overflows

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: Configuration(k=0, signs=(), Lambda=(), t=()),
                     id="k0"),
        pytest.param(lambda: config1(1.0, t=math.nan), id="t-nan"),
        pytest.param(lambda: config1(1.0, t=math.inf), id="t-inf"),
        pytest.param(lambda: log_plus(0.0), id="log_plus-0"),
        pytest.param(lambda: log_plus([1.0, -2.0]), id="log_plus-negative"),
        # log_plus takes an array of positive finite reals: NaN gave NaN
        # and a string raised numpy's ValueError.
        pytest.param(lambda: log_plus(math.nan), id="log_plus-nan"),
        pytest.param(lambda: log_plus("a"), id="log_plus-string"),
        pytest.param(lambda: log_plus([1.0, math.nan]), id="log_plus-nan-entry"),
        pytest.param(lambda: mu_embed(math.inf, 1.0, 1.0, (0.0, 0.1, 0.2,
                                                            0.3)),
                     id="mu_embed-inf"),
        pytest.param(lambda: mu_embed(1.0, math.nan, 1.0, (0.0, 0.1, 0.2,
                                                            0.3)),
                     id="mu_embed-nan"),
        pytest.param(lambda: scaling_products(config1(1.0)),
                     id="scaling_products-k1"),
        # k and the signs are integers (a sign of 1.5 became 1, k=True
        # counted as 1), Lambda entries scales, t entries positions; a
        # non-sequence is refused.
        *(pytest.param(lambda k=k: Configuration(k=k, signs=(1,),
                                                 Lambda=(1.0,), t=(0.0,)),
                       id=f"k-{k!r}") for k in (1.0, True, "1")),
        *(pytest.param(lambda a=a: Configuration(
            k=2, signs=(a, -1), Lambda=(1.0, 1.0), t=(-0.1, 0.1)),
                       id=f"sign-{a!r}") for a in (1.5, 1.0, True, "1", 0)),
        *(pytest.param(lambda L=L: config1(L), id=f"Lambda-{L!r}")
          for L in (math.inf, math.nan, "1.0", True)),
        *(pytest.param(lambda t=t: config1(1.0, t=t), id=f"t-{t!r}")
          for t in ("0.0", False)),
        *(pytest.param(lambda f=f: Configuration(**{
            **dict(k=1, signs=(1,), Lambda=(1.0,), t=(0.0,)), f: 1}),
                       id=f"{f}-not-a-sequence")
          for f in ("signs", "Lambda", "t")),
        *(pytest.param(lambda i=i: mu_embed(*(["1.0" if j == i else 1.0
                                                for j in range(3)]),
                                            (0.0, 0.1, 0.2, 0.3)),
                       id=f"mu_embed-string-{i}") for i in range(3)),
        pytest.param(lambda: mu_embed(1.0, 1.0, 1.0, ("0", 0.1, 0.2, 0.3)),
                     id="mu_embed-t-string"),
        *(pytest.param(lambda r=r: base_spacing_points(0.0, r),
                       id=f"base-r0-{r!r}") for r in (math.inf, math.nan, "0.1")),
        *(pytest.param(lambda t=t: base_spacing_points(t, 0.1),
                       id=f"base-t0-{t!r}") for t in (math.inf, math.nan, "0")),
        # signs, Lambda and t are lists, tuples or 1-D arrays of k entries:
        # a byte string t was read as its byte values.
        *(pytest.param(lambda t=t: Configuration(k=1, signs=(1,),
                                                 Lambda=(1.0,), t=t),
                       id=f"t-{label}")
          for label, t in (("string", "0"), ("bytes", b"\x00"))),
        *(pytest.param(lambda L=L: Configuration(k=1, signs=(1,), Lambda=L,
                                                 t=(0.0,)),
                       id=f"Lambda-{label}")
          for label, L in (("nested", [[1.0]]),
                           ("nested-array", np.ones((1, 1))))),
    ])
    def test_input_guards(self, call):
        with pytest.raises(ParameterError):
            call()

    def test_with_params(self, saddle_config):
        cfg = saddle_config.with_params(Lambda=(1.0, 2.0, 3.0, 4.0))
        assert cfg.Lambda == (1.0, 2.0, 3.0, 4.0)
        assert cfg.t == saddle_config.t
        assert cfg.signs == saddle_config.signs
