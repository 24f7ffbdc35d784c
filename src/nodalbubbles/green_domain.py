"""Closed-form Green and Robin kernels on ball domains, with validators.

For the ball B_R(z0) in R^N (N >= 3) the Dirichlet Green's function of -Δ has
the image-charge closed form (coordinates below are centered, x -> x - z0):

    G(x,y) = kappa * ( |x-y|^{2-N} - rho(x,y)^{2-N} ),
    H(x,y) = kappa * rho(x,y)^{2-N},
    rho(x,y)^2 = |x|^2 |y|^2 / R^2 - 2 x·y + R^2,
    kappa = 1 / ((N-2) sigma_N),

where sigma_N is the unit-sphere area and H is the regular part,
H = fundamental solution - G.  The quadratic form rho^2 is symmetric in
(x,y), stays positive on the open ball, and is perfectly regular at y = 0,
where it reduces to R^2 — so the classical "image point at R^2 y/|y|^2
escapes to infinity" degeneracy never appears in this parametrization, and
G(x,0) = kappa (|x|^{2-N} - R^{2-N}) comes out of the same formula.

The chord of the x1-axis through the ball carries the one-dimensional
restrictions used by the reduced energies:

    g(t,s)  = G((t,0,..),(s,0,..)) = kappa ( |t-s|^{2-N} - (R - ts/R)^{2-N} ),
    h(t)    = H((t,0,..),(t,0,..)) = kappa ( R - t^2/R )^{2-N},

and their derivatives, all owned by :class:`AxisKernels`, through which
alone the reduced energies and the solver read the ball; the ``axis_*``
functions view single entries of its jets.
The validators sample the two structural hypotheses behind the four-bubble
construction — convexity of the diagonal Robin function t -> h(t,t) and the
radial monotonicity (t-s) ∂g/∂t < 0 — as well as the near-boundary
reflection expansions of H and the directional monotonicity
(x-y)·∇_x G < 0.  Validation is sampled evidence, not a certificate:
reports carry worst observed values and counts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .bubble_core import sigma_N
from .errors import (ConfigurationError, DomainError, ParameterError,
                     SingularityError, _require_array, _require_broadcast,
                     _require_int, _require_real, _require_reals)

__all__ = [
    "BallDomain",
    "AxisSection",
    "AxisKernels",
    "ValidationReport",
    "green_G",
    "robin_H",
    "grad_x_G",
    "grad_x_H",
    "axis_g",
    "axis_h",
    "axis_g_dt",
    "axis_h_d1",
    "axis_h_d2",
    "validate_A3",
    "check_boundary_expansion",
    "check_directional_monotonicity",
    "harmonic_defect_order",
]


@dataclass(frozen=True)
class BallDomain:
    """A ball in R^N: the concrete domain carrying closed-form kernels.

    Attributes
    ----------
    N : int
        Dimension, an integer >= 3, stored as ``int``.
    center : tuple of float
        Center, N finite reals (a list, tuple or 1-D array) stored as floats.
    radius : float
        Radius R, a positive finite real, stored as ``float``.

    Two balls are equal, and hash alike, when N, radius and center are.
    """

    N: int
    center: tuple
    radius: float

    def __post_init__(self):
        N = _require_int("dimension N", self.N, 3)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "radius", _require_real("radius", self.radius))
        object.__setattr__(self, "center", _require_reals(
            "center", self.center, N, positive=False))

    @classmethod
    def unit(cls, N: int = 3) -> "BallDomain":
        """The unit ball centered at the origin."""
        N = _require_int("dimension N", N, 3)
        return cls(N=N, center=np.zeros(N), radius=1.0)

    # Cached in the instance __dict__, not as fields, so equality, hash and
    # repr see the three fields alone.
    @functools.cached_property
    def sigma(self) -> float:
        """Unit-sphere area sigma_N in this dimension."""
        return sigma_N(self.N)

    @functools.cached_property
    def kappa(self) -> float:
        """Fundamental-solution normalization 1/((N-2) sigma_N)."""
        return 1.0 / ((self.N - 2) * self.sigma)


@dataclass(frozen=True)
class AxisSection:
    """Endpoints (a, b) of the x1-axis chord, finite reals stored as float."""

    a: float
    b: float

    def __post_init__(self):
        for name in ("a", "b"):
            object.__setattr__(self, name, _require_real(
                name, getattr(self, name), positive=False))
        if not (self.a < self.b):
            raise ParameterError(
                f"section requires a < b, got a={self.a}, b={self.b}")

    @classmethod
    def of_ball(cls, d: BallDomain) -> "AxisSection":
        """The full chord (center_1 - R, center_1 + R)."""
        return cls(a=d.center[0] - d.radius, b=d.center[0] + d.radius)


@dataclass
class ValidationReport:
    """Outcome of one sampled check.

    ``worst_value`` is the extreme of the monitored quantity over the sample
    (its admissible side depends on the check and is stated in ``check``).
    Serializes with key ``pass`` as documented.
    """

    check: str
    sample_count: int
    worst_value: float
    passed: bool

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["pass"] = bool(d.pop("passed"))
        return d


# ---------------------------------------------------------------------------
# kernel evaluation
# ---------------------------------------------------------------------------

def _pair(d: BallDomain, x, y, *, closed: bool) -> tuple:
    """(xc, yc, |xc|², |yc|², ρ², single): the points centered, a single
    point as a batch of one, and whether both were single points; raises
    unless each has N coordinates on its last axis and lies inside the
    closed or open ball, and unless the two broadcast."""
    R, out = d.radius, []
    for what, p in (("x", x), ("y", y)):
        p = _require_array(what, p)
        if p.shape[-1:] != (d.N,):
            raise ParameterError(
                f"{what} has shape {p.shape}, not (..., {d.N})")
        pc = np.atleast_2d(p - d.center)
        n2 = np.sum(pc * pc, axis=-1)
        r = np.sqrt(n2)
        if np.any(r > R * (1.0 + 1e-12) if closed else r >= R * (1.0 - 1e-14)):
            raise DomainError(
                f"{what} lies outside the {'closed' if closed else 'open'} "
                f"ball of radius {R} "
                f"(max |x-center| = {float(np.max(r)):.6g})")
        out.append((p, pc, n2))
    (x, xc, nx2), (y, yc, ny2) = out
    _require_broadcast(x=x, y=y)
    rho2 = nx2 * ny2 / R ** 2 - 2.0 * np.sum(xc * yc, axis=-1) + R ** 2
    return xc, yc, nx2, ny2, rho2, x.ndim == y.ndim == 1


def green_G(d: BallDomain, x, y) -> float | np.ndarray:
    """Dirichlet Green's function of -Δ on the ball.

    Positive inside, exactly zero when either argument reaches the boundary,
    symmetric in (x, y).  Accepts broadcastable batches of points with
    trailing dimension N.
    """
    xc, yc, nx2, ny2, rho2, single = _pair(d, x, y, closed=True)
    diff2 = np.sum((xc - yc) ** 2, axis=-1)
    if np.any(diff2 < (1e-14 * d.radius) ** 2):
        raise SingularityError("green_G evaluated on the diagonal x == y")
    e = (2.0 - d.N) / 2.0
    val = d.kappa * (diff2 ** e - rho2 ** e)
    # Dirichlet condition: an argument on the sphere gives an exact zero
    # (analytically |x-y| == rho there; enforce it against rounding).
    R2 = d.radius ** 2
    on_bnd = ((np.abs(nx2 - R2) <= 4e-15 * R2)
              | (np.abs(ny2 - R2) <= 4e-15 * R2))
    val = np.where(on_bnd, 0.0, val)
    return float(val[0]) if single else val


def robin_H(d: BallDomain, x, y) -> float | np.ndarray:
    """Regular part H = fundamental solution - G; finite on the diagonal.

    On the diagonal of a centered ball, H(x,x) = kappa (R - |x|^2/R)^{2-N};
    for the unit ball in R^3 this is 1/(4 pi (1-|x|^2)).
    """
    *_, rho2, single = _pair(d, x, y, closed=False)
    val = d.kappa * rho2 ** ((2.0 - d.N) / 2.0)
    return float(val[0]) if single else val


def grad_x_G(d: BallDomain, x, y) -> np.ndarray:
    """Analytic gradient of G in its first argument.

    ∇_x G = -kappa (N-2) [ (x-y)|x-y|^{-N} - (|y|^2/R^2 x - y) rho^{-N} ]
    in centered coordinates (the shift drops out of the gradient).
    """
    xc, yc, _, ny2, rho2, single = _pair(d, x, y, closed=True)
    diff = xc - yc
    diff2 = np.sum(diff * diff, axis=-1)
    if np.any(diff2 < (1e-14 * d.radius) ** 2):
        raise SingularityError("grad_x_G evaluated on the diagonal x == y")
    img = ny2[..., None] / d.radius ** 2 * xc - yc
    val = -d.kappa * (d.N - 2) * (
        diff * diff2[..., None] ** (-d.N / 2.0)
        - img * rho2[..., None] ** (-d.N / 2.0))
    return val[0] if single else val


def grad_x_H(d: BallDomain, x, y) -> np.ndarray:
    """Analytic gradient of H in its first argument.

    ∇_x H = -kappa (N-2) (|y|^2/R^2 x - y) rho^{-N}.
    """
    xc, yc, _, ny2, rho2, single = _pair(d, x, y, closed=False)
    img = ny2[..., None] / d.radius ** 2 * xc - yc
    val = -d.kappa * (d.N - 2) * img * rho2[..., None] ** (-d.N / 2.0)
    return val[0] if single else val


# ---------------------------------------------------------------------------
# axis restrictions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxisKernels:
    """The kernels g and h of one ball on a section of its axis chord.

    ``g_jet`` and ``h_jet`` add the derivatives up to an order, each from
    one checked evaluation; ``robin_min()`` is h's closed-form minimum.
    ``section`` defaults to the whole chord and must lie within it: past
    the chord the formulas are not the ball's kernels (h turns negative).
    """

    domain: BallDomain
    section: AxisSection | None = None

    def __post_init__(self):
        d, sec = self.domain, self.section or AxisSection.of_ball(self.domain)
        object.__setattr__(self, "section", sec)
        c1, reach = d.center[0], d.radius * (1.0 + 1e-12)   # _pair's slack
        if sec.a < c1 - reach or sec.b > c1 + reach:
            raise DomainError(
                f"section ({sec.a}, {sec.b}) exceeds the chord of the ball "
                f"of radius {d.radius} about {c1}")

    @classmethod
    def for_ball(cls, d: BallDomain) -> "AxisKernels":
        """The kernels on the whole chord of ``d``."""
        return cls(d)

    def _points(self, **points) -> tuple:
        """Centered axis coordinates p - c1 of the named points, a scalar as
        a batch of one, broadcast together; raises for points outside the
        open section and for points that do not broadcast."""
        sec = self.section
        ps = {k: np.atleast_1d(_require_array(k, p)) for k, p in points.items()}
        _require_broadcast(**ps)
        if any(np.any(p <= sec.a) or np.any(p >= sec.b) for p in ps.values()):
            raise DomainError(
                f"axis coordinate outside the open chord ({sec.a}, {sec.b})")
        c1 = self.domain.center[0]
        return np.broadcast_arrays(*(p - c1 for p in ps.values()))

    def g_jet(self, t, s, order: int = 0) -> tuple:
        """(g,), (g, ∂g/∂t, ∂g/∂s) or those plus (∂²g/∂t², ∂²g/∂s²,
        ∂²g/∂t∂s) as arrays, for order 0, 1 or 2; each ∂/∂s has the bits of
        ∂/∂t at (s, t).  Raises outside the section and at t == s."""
        tc, sc = self._points(t=t, s=s)
        if np.any(tc == sc):
            raise SingularityError("axis g evaluated at t == s")
        R, N, kappa = self.domain.radius, self.domain.N, self.domain.kappa
        diff, ts = tc - sc, tc * sc
        dist, w = np.abs(diff), R - ts / R
        jet = (kappa * (dist ** (2.0 - N) - w ** (2.0 - N)),)
        if order == 0:
            return jet
        c1 = -kappa * (N - 2)
        sign, dist1, w1 = np.sign(diff), dist ** (1.0 - N), w ** (1.0 - N)
        jet += (c1 * (sign * dist1 + (sc / R) * w1),
                c1 * (-sign * dist1 + (tc / R) * w1))
        if order == 1:
            return jet
        c2 = kappa * (N - 2) * (N - 1)
        distN, wN = dist ** (-float(N)), w ** (-float(N))
        return jet + (c2 * (distN - (sc / R) ** 2 * wN),
                      c2 * (distN - (tc / R) ** 2 * wN),
                      c1 * ((N - 1) * distN + w1 / R
                            + (N - 1) * (ts / R ** 2) * wN))

    def h_jet(self, t, order: int = 0) -> tuple:
        """(h,), (h, h′) or (h, h′, h″) as arrays, for order 0, 1 or 2."""
        tc, = self._points(t=t)
        R, N, kappa = self.domain.radius, self.domain.N, self.domain.kappa
        w = R - tc * tc / R
        jet = (kappa * w ** (2.0 - N),)
        if order == 0:
            return jet
        w1 = w ** (1.0 - N)
        jet += (2.0 * kappa * (N - 2) * (tc / R) * w1,)
        if order == 1:
            return jet
        return jet + (2.0 * kappa * (N - 2) / R * w1
                      + 4.0 * kappa * (N - 2) * (N - 1) * (tc / R) ** 2
                      * w ** (-float(N)),)

    def g(self, t, s) -> float | np.ndarray:
        """g(t, s) = G(te1, se1), a float when both points are scalars."""
        return _view(self.g_jet, 0, 0, t, s)

    def h(self, t) -> float | np.ndarray:
        """h(t) = H(te1, te1), a float for a scalar point."""
        return _view(self.h_jet, 0, 0, t)

    def robin_min(self) -> float:
        """Minimum H_0 of h over [a + m, b − m], m = 10⁻³ (b − a): h at the
        point of that interval nearest c₁, since on a ball h grows with the
        distance from the center's first coordinate c₁."""
        a, b = self.section.a, self.section.b
        m = 1e-3 * (b - a)
        return float(self.h(min(max(self.domain.center[0], a + m), b - m)))


def _view(jet, order: int, entry: int, *points) -> float | np.ndarray:
    """``jet(*points, order)[entry]``, a float when every point is a scalar."""
    val = jet(*points, order=order)[entry]
    return float(val[0]) if all(np.ndim(p) == 0 for p in points) else val


def axis_g(d: BallDomain, sec: AxisSection, t, s) -> float | np.ndarray:
    """Green's function restricted to the axis chord: g(t,s) = G(te1, se1)."""
    return AxisKernels(d, sec).g(t, s)


def axis_h(d: BallDomain, sec: AxisSection, t) -> float | np.ndarray:
    """Diagonal Robin function on the axis: h(t) = H(te1, te1)."""
    return AxisKernels(d, sec).h(t)


def axis_g_dt(d: BallDomain, sec: AxisSection, t, s) -> float | np.ndarray:
    """∂g/∂t of the axis Green's function (first-argument derivative)."""
    return _view(AxisKernels(d, sec).g_jet, 1, 1, t, s)


def axis_h_d1(d: BallDomain, sec: AxisSection, t) -> float | np.ndarray:
    """First derivative of the diagonal Robin function h(t,t)."""
    return _view(AxisKernels(d, sec).h_jet, 1, 1, t)


def axis_h_d2(d: BallDomain, sec: AxisSection, t) -> float | np.ndarray:
    """Second derivative of the diagonal Robin function h(t,t)."""
    return _view(AxisKernels(d, sec).h_jet, 2, 2, t)


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------

def _finite_samples(check):
    """Run a validator with numpy overflow raised: infinite samples could
    pass a check, so an overflow is a :class:`ParameterError` naming N."""
    @functools.wraps(check)
    def run(d: BallDomain, *args, **kwargs):
        try:
            with np.errstate(over="raise"):
                return check(d, *args, **kwargs)
        except FloatingPointError as exc:
            raise ParameterError(f"{check.__name__} overflows a double for "
                                 f"N={d.N}: {exc}") from None
    return run


@_finite_samples
def validate_A3(d: BallDomain, sec: AxisSection | None, n_grid: int = 256,
                n_pairs: int = 10_000) -> list[ValidationReport]:
    """Sample the two axis hypotheses: h'' > 0 and (t-s) ∂g/∂t < 0.

    ``n_grid`` uniform points of (a+m, b-m), m = 0.02 (b-a), feed the
    convexity check; a uniform ~sqrt(n_pairs) x sqrt(n_pairs) lattice of the
    same interval with the diagonal removed feeds the monotonicity check.
    The margin m excludes the endpoints where h blows up.  ``sec`` None is
    the whole chord, as for :class:`AxisKernels`.

    Returns two reports, in order: convexity (worst = min h'', passes iff
    positive) and monotonicity (worst = max (t-s) ∂g/∂t, passes iff negative).
    """
    n_grid = _require_int("n_grid", n_grid, 16, ConfigurationError)
    n_pairs = _require_int("n_pairs", n_pairs, 1, ConfigurationError)
    kern = AxisKernels(d, sec)
    a, b = kern.section.a, kern.section.b
    m = 0.02 * (b - a)

    ts = np.linspace(a + m, b - m, n_grid)
    min_h2 = float(np.min(kern.h_jet(ts, 2)[2]))
    conv = ValidationReport(
        check="axis_robin_convexity (min h'' > 0)",
        sample_count=n_grid,
        worst_value=min_h2,
        passed=bool(min_h2 > 0.0),
    )

    side = max(2, int(math.isqrt(n_pairs)))
    tt = np.linspace(a + m, b - m, side)
    T, S = np.meshgrid(tt, tt, indexing="ij")
    off = T != S
    prod = (T[off] - S[off]) * kern.g_jet(T[off], S[off], 1)[1]
    max_prod = float(np.max(prod))
    mono = ValidationReport(
        check="axis_green_monotonicity (max (t-s) dg/dt < 0)",
        sample_count=int(off.sum()),
        worst_value=max_prod,
        passed=bool(max_prod < 0.0),
    )
    return [conv, mono]


def _boundary_samples(d: BallDomain) -> tuple[np.ndarray, np.ndarray]:
    """The fixed (x, y) sample set of the boundary-expansion check.

    Six directions spread over the sphere via a Fibonacci-style lattice;
    targets y at the center, at mid-radius along the axis, and near the
    boundary opposite each direction.  x is placed at distance 0.1 R/(N-2)
    from the boundary (the check halves this internally): the first
    correction to H(x, y) ~ kappa |x̄-y|^{2-N} grows like (N-2) d(x), so the
    depth shrinks with N to keep the leading ratio within its bound.
    Returns the 18 pairs as two (18, N) arrays, three targets per direction.
    """
    R, c = d.radius, d.center
    i = np.arange(6)
    z = 1.0 - 2.0 * (i + 0.5) / 6
    r = np.sqrt(1.0 - z * z)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    dirs = np.zeros((6, d.N))           # unit vectors: z^2 + r^2 = 1
    dirs[:, 0], dirs[:, 1], dirs[:, 2] = z, r * np.cos(phi), r * np.sin(phi)
    x = c + (R - 0.1 * R / (d.N - 2)) * dirs
    ys = np.stack(np.broadcast_arrays(c, c + 0.5 * R * np.eye(d.N)[0],
                                      c - 0.6 * R * dirs), axis=1)
    return np.repeat(x, 3, axis=0), ys.reshape(-1, d.N)


@_finite_samples
def check_boundary_expansion(d: BallDomain) -> list[ValidationReport]:
    """Probe the near-boundary reflection expansions of the regular part.

    For x near the boundary with nearest boundary point p(x), reflection
    x̄ = 2 p(x) - x, and inward normal ν = -(x-c)/|x-c|:

    * regular part:   H(x,y) = kappa |x̄-y|^{2-N} + O(d(x)/|x̄-y|^{N-2});
      the fitted constant C1 = |H - kappa |x̄-y|^{2-N}| |x̄-y|^{N-2} / d(x)
      must stay within a factor 2 as d(x) is halved;
    * normal derivative: ∂H/∂ν(x,y) = (x̄-y)·ν / (sigma_N |x̄-y|^N)
      + O(|x̄-y|^{2-N}); the fitted constant
      C2 = |∂H/∂ν - lead| |x̄-y|^{N-2} must stay within a factor 2;
    * the leading ratio H(x,y) (N-2) sigma_N |x̄-y|^{N-2} tends to 1 as
      d(x) -> 0 (reported at the deepest halving).

    The 18 fixed samples of :func:`_boundary_samples` start at depth
    0.1 R/(N-2) and are halved twice; every reflection x̄ lies outside the
    ball, so it never meets y.  All 54 points go through one call of
    :func:`robin_H` and one of :func:`grad_x_H`.  Returns three reports:
    the two fitted-constant stability checks (worst = most extreme halving
    ratio) and the leading-ratio check (worst = max |ratio - 1|,
    informational threshold 0.15).
    """
    R, c, N = d.radius, d.center, d.N
    x, y = _boundary_samples(d)
    dist = np.linalg.norm(x - c, axis=1, keepdims=True)
    u = ((x - c) / dist)[:, None]     # outward normal: ν = -u, sign cancels
    dk = (R - dist) / 2.0 ** np.arange(3)           # (18, 3): two halvings
    xk, xbar = c + (R - dk)[..., None] * u, c + (R + dk)[..., None] * u
    y = y[:, None]
    rbar = np.linalg.norm(xbar - y, axis=-1)
    H = robin_H(d, xk, y)
    lead1 = d.kappa * rbar ** (2.0 - N)
    c1 = np.abs(H - lead1) * rbar ** (N - 2.0) / dk
    lead2 = np.sum((xbar - y) * u, axis=-1) / (d.sigma * rbar ** N)
    c2 = (np.abs(np.sum(grad_x_H(d, xk, y) * u, axis=-1) - lead2)
          * rbar ** (N - 2.0))

    def _extreme(fits: np.ndarray) -> float:
        # the halving ratio farthest from 1 on a log scale (1 where C = 0)
        a, b = fits[:, :-1], fits[:, 1:]
        rs = np.divide(b, a, out=np.ones_like(b), where=a > 0).ravel()
        return float(rs[np.argmax(np.abs(np.log(np.maximum(rs, 1e-300))))])

    w1, w2 = _extreme(c1), _extreme(c2)
    w3 = float(np.max(np.abs(H[:, -1] / lead1[:, -1] - 1.0)))
    return [
        ValidationReport(
            check="boundary_expansion_regular_part (fitted C ratio in [1/2,2])",
            sample_count=len(x), worst_value=w1, passed=bool(0.5 <= w1 <= 2.0)),
        ValidationReport(
            check="boundary_expansion_normal_derivative (fitted C ratio in [1/2,2])",
            sample_count=len(x), worst_value=w2, passed=bool(0.5 <= w2 <= 2.0)),
        ValidationReport(
            check="boundary_expansion_leading_ratio (|H/lead - 1| at deepest halving)",
            sample_count=len(x), worst_value=w3, passed=bool(w3 <= 0.15)),
    ]


@_finite_samples
def check_directional_monotonicity(d: BallDomain, n_samples: int = 1000,
                                   seed: int = 0) -> ValidationReport:
    """Sample (x-y)·∇_x G(x,y) < 0 on random interior pairs.

    On a convex domain the directional derivative of G along the ray from y
    is strictly negative away from the singularity.  Both points are drawn
    uniformly from the ball of radius 0.999 R (a Gaussian direction times
    0.999 R U^{1/N}), so the cost does not grow with N.  One draw of
    ``n_samples`` pairs is made and pairs closer than 1e-6 R are dropped;
    the report counts the pairs kept, and its worst value is their maximum
    (passes iff negative).
    """
    n_samples = _require_int("n_samples", n_samples, 1, ConfigurationError)
    rng = np.random.default_rng(_require_int("seed", seed, 0))
    R, c = d.radius, d.center

    def draw():
        g = rng.standard_normal((n_samples, d.N))
        rad = 0.999 * R * rng.random(n_samples) ** (1.0 / d.N)
        return g * (rad / np.linalg.norm(g, axis=1))[:, None]

    x, y = draw(), draw()
    keep = np.linalg.norm(x - y, axis=1) > 1e-6 * R
    x, y = x[keep] + c, y[keep] + c
    vals = np.sum((x - y) * grad_x_G(d, x, y), axis=-1)
    worst = float(np.max(vals))
    return ValidationReport(
        check="directional_monotonicity (max (x-y)·grad_x G < 0)",
        sample_count=len(x),
        worst_value=worst,
        passed=bool(worst < 0.0),
    )


# ---------------------------------------------------------------------------
# discrete-harmonicity probes
# ---------------------------------------------------------------------------

def harmonic_defect_order(d: BallDomain, x: np.ndarray, y: np.ndarray,
                          h0: float) -> float:
    """Measured convergence order of the discrete Laplacian defect of H.

    Applies the second-order (2N+1)-point Laplacian stencil to the regular
    part H(x, ·) at ``y`` with steps h0 and h0/2, each step's points in one
    :func:`robin_H` call, and returns log2 of the defect ratio; H is
    harmonic, so the defect is O(h^2) and the measurement should sit near 2.
    """
    h0 = _require_real("step h0", h0)
    y = _require_array("y", y)
    n = y.size
    steps = np.concatenate([np.zeros((1, n)), np.eye(n), -np.eye(n)])

    def defect(h):
        f = robin_H(d, x, y + h * steps)
        return abs(float(np.sum(f[1:n + 1] - 2 * f[0] + f[n + 1:]))) / h ** 2

    d1, d2 = defect(h0), defect(h0 / 2.0)
    if d2 == 0.0:
        return float("inf")
    return math.log2(d1 / d2)
