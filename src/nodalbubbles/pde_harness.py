"""Verification harness for signed sums of projected bubbles on a ball.

Everything here serves one question: does the computed energy of the
projected multi-bubble ansatz match the reduced-energy expansion, and does
the ansatz nearly solve the slightly subcritical equation?  One bubble is
given by its parameters (:class:`BubbleParams`) and evaluated pointwise by
:func:`bubble_profile`, the profile whose constants
:mod:`~nodalbubbles.bubble_core` computes.  Two independent instruments are
provided.

Grid instrument
    An axisymmetric finite-volume discretization of the ball in R^N on its
    ``(z, r)`` half-section (:class:`AxisymGrid`), solved exactly in numpy
    alone by the capacitance-matrix method (Buzbee, Dorr, George & Golub,
    SIAM J. Numer. Anal. 8, 1971; see :meth:`AxisymGrid._factor`).  It
    solves the Dirichlet problem behind the projection ``P U = U -
    (harmonic extension of U's boundary trace)``, assembles ``V = sum_i a_i
    P U_i``, and evaluates discrete residuals and energies, all through the
    one flux balance :meth:`AxisymGrid._flux`.

Quadrature instrument
    On a ball the harmonic correction of an axis-centered bubble is known in
    closed form (a Kelvin image, see :class:`ProjectedBubbleExact`), so
    ``V`` is evaluable to machine precision at any core width -- far below
    what any grid can resolve.  The ball is cut into slabs midway between
    consecutive centers, each holding one core and integrated by spherical
    panels about its center (:func:`_section_nodes`); one kernel
    (:class:`_SlabFrame`) evaluates every bubble there for the energy, its
    gradient and the residual, one angular panel at a time.  The gradient
    term uses the exact identity ``∫∇PU_i·∇PU_j = ∫U_i^{2*-1} PU_j`` (the
    harmonic parts drop out), whose numerical asymmetry in (i, j) doubles as
    an accuracy diagnostic.

:func:`expansion_gap` compares the computed energy against

    I_eps(V) = k*E_N - (k/2) omega_N eps log(eps) - k gamma_N eps
               + omega_N eps Psi_k(Lambda, t) + o(eps),

with ``E_N`` the single-bubble energy limit and scales
``lam_i = (c_N Lambda_i^2)^{1/(N-2)}``; both the constant and the scale map
were validated against exact radial quadrature of the centered single-bubble
energy (see the package notes on conventions in the README).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .bubble_core import (ConstantsTable, alpha_N, lambda_of_Lambda_quadratic,
                          sigma_N, single_bubble_energy_limit, two_star)
from .errors import (DomainError, ParameterError, ResolutionError,
                     SolverDivergenceError, _require_array,
                     _require_broadcast, _require_int, _require_real,
                     _require_reals)
from .green_domain import AxisKernels, BallDomain
from .reduced_energy import Configuration, psi_k

__all__ = [
    "BubbleParams",
    "bubble_profile",
    "AxisymGrid",
    "Field",
    "ProjectedBubbleExact",
    "projected_bubbles_of_config",
    "solve_dirichlet_laplace",
    "solve_poisson",
    "project_bubble",
    "assemble_V",
    "require_core_resolution",
    "residual_norm",
    "energy_I",
    "energy_quadrature",
    "energy_gradient_quadrature",
    "residual_quadrature",
    "expansion_gap",
]


# --------------------------------------------------------------------------
# Single bubbles
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BubbleParams:
    """Parameters (N, eps, lam, xi) of a single bubble.

    Attributes
    ----------
    N : int
        Ambient dimension, an integer >= 3, stored as ``int``.
    eps, lam : float
        Subcriticality and scaling parameters, each a scale (positive
        finite real), stored as ``float``; eps lies below 2* - 2 = 4/(N - 2).
    xi : tuple of float
        Center, N finite reals (a list, tuple or 1-D array) stored as floats.
    """

    N: int
    eps: float
    lam: float
    xi: tuple

    def __post_init__(self):
        N = _require_int("dimension N", self.N, 3)
        xi = _require_reals("xi", self.xi, N, positive=False)
        for name, v in (("N", N), ("eps", _require_eps(self.eps, N)),
                        ("lam", _require_real("lam", self.lam)), ("xi", xi)):
            object.__setattr__(self, name, v)

    @property
    def core_width(self) -> float:
        """The concentration length scale m = lam * eps^{1/(N-2)}."""
        return self.lam * self.eps ** (1.0 / (self.N - 2.0))


def _require_eps(eps, N: int) -> float:
    """``eps`` as a scale below 2* - 2 = 4/(N - 2), so 2* - 2 - eps > 0."""
    eps = _require_real("eps", eps)
    if not eps < 4.0 / (N - 2):
        raise ParameterError(f"eps must be below 2* - 2 = {4.0 / (N - 2)!r} "
                             f"for N = {N}, got {eps!r}")
    return eps


def bubble_profile(N: int, m: float, d2):
    """The bubble alpha_N (m / (m^2 + d2))^{(N-2)/2} of core width ``m``.

    ``m`` (positive and finite) and the squared distance ``d2`` to the
    center are each a float or an array.
    Every pointwise bubble evaluation in the package uses this formula; the
    quadratures' panel kernel (:class:`_SlabFrame`) spells it over
    ``alpha_N`` in the frame of each slab, equal to it up to rounding.
    """
    m, d2 = _require_array("core width m", m, True), _require_array("d2", d2)
    _require_broadcast(m=m, d2=d2)
    if (low := np.min(d2, initial=0.0)) < 0.0:
        raise ParameterError(f"squared distance d2 must be >= 0, got {low:g}")
    return _over_q(N, m, m * m + d2)


def _over_q(N: int, m, q):
    """alpha_N (m/q)^{(N-2)/2}, in place in the buffer q (0-d if scalar)."""
    q = np.asarray(q, dtype=float)
    np.divide(m, q, out=q)
    q **= (N - 2) / 2.0
    q *= alpha_N(N)
    return q[()]


# --------------------------------------------------------------------------
# Exact projections
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProjectedBubbleExact:
    """Closed-form projection of an axis-centered bubble onto H^1_0 of a ball.

    Work in coordinates centered at the ball's center, with the bubble at
    axis offset ``t`` (|t| < R) and core width ``m``.  The harmonic function
    matching the bubble's boundary trace is itself an inverse-power profile

        w(x) = alpha_N m^{(N-2)/2} q(x)^{-(N-2)/2},
        q(x) = c (z^2 + r^2) - 2 t z + (s - c R^2),

    with ``s = m^2 + R^2 + t^2`` and ``c`` the smaller root of
    ``R^2 c^2 - s c + t^2 = 0`` (the root choice is exactly the condition
    that ``q^{-(N-2)/2}`` is harmonic),

        c = 2 t^2 / (s + sqrt(disc)), disc = (m^2 + (R-t)^2)(m^2 + (R+t)^2).

    On the sphere ``z^2 + r^2 = R^2`` one has ``q = m^2 + |x - xi|^2``
    identically, so ``w`` equals the bubble there and ``pu = u - w``
    vanishes on the boundary *exactly*.  The quadratic ``q`` has its zero
    set outside the closed ball (the pole of the Kelvin image), so all three
    evaluators are smooth inside.  ``(c, q0 = s - c R^2)`` and their tangents
    along ``m`` and ``t`` are one jet, :attr:`_kelvin`, from one root
    ``sqrt(disc)``, formed on first use and cached with the object; :meth:`w`,
    :meth:`pu_tangents` and the panel kernel :class:`_SlabFrame` all read it.

    ``m`` and ``t`` may also be arrays that broadcast against the points:
    with (k, 1) columns one object is the whole family of a configuration
    (see :func:`projected_bubbles_of_config`), and :meth:`u`, :meth:`w`
    and :meth:`pu_tangents` return one row per bubble.  ``N`` is stored as
    ``int``, the radius ``R`` as ``float`` and ``m`` and ``t`` as arrays.
    """

    N: int
    R: float
    m: float | np.ndarray
    t: float | np.ndarray

    def __post_init__(self):
        for name, v in (("N", _require_int("dimension N", self.N, 3)),
                        ("R", _require_real("radius R", self.R)),
                        ("m", _require_array("core width m", self.m, True)),
                        ("t", _require_array("t", self.t))):
            object.__setattr__(self, name, v)
        _require_broadcast(m=self.m, t=self.t)
        if not np.all(np.abs(self.t) < self.R):
            raise DomainError(
                f"bubble center offset {self.t} not inside ball of radius {self.R}")

    @functools.cached_property
    def _kelvin(self) -> tuple:
        """The jet ``((c, q0), (∂c, ∂q0) along m, (∂c, ∂q0) along t)``.

        Differentiating ``R^2 c^2 - s c + t^2 = 0`` gives ``dc = (c ds - 2t
        dt) / (2 R^2 c - s)``, where ``2 R^2 c - s = -sqrt(disc)`` for the
        smaller root; ``ds = 2m dm + 2t dt`` and ``dq0 = ds - R^2 dc``.
        """
        m, R, t = self.m, self.R, self.t
        s = m * m + R * R + t * t
        # np.sqrt, not math.sqrt: the same bits for floats, and it also takes
        # a family's columns and a complex step in m or t.
        root = np.sqrt((m * m + (R - t) ** 2) * (m * m + (R + t) ** 2))
        c = 2.0 * t * t / (s + root)
        dc_m, dc_t = -2.0 * m * c / root, 2.0 * t * (1.0 - c) / root
        return ((c, s - c * R * R), (dc_m, 2.0 * m - R * R * dc_m),
                (dc_t, 2.0 * t - R * R * dc_t))

    def pu_tangents(self, z, r):
        """``∂PU/∂m`` and ``∂PU/∂t`` at (z, r): :meth:`_SlabFrame.tangents`
        of its own :meth:`_SlabFrame.fields` about each bubble's center, on
        arrays of the full shape (1-d at least: the kernel works in place)."""
        z, r = _require_array("z", z), _require_array("r", r)
        shape = _require_broadcast(z=z, r=r, m=self.m, t=self.t)
        zeta, r = (np.broadcast_to(v, shape or (1,)) for v in (z - self.t, r))
        rho2, f = zeta * zeta + r * r, _SlabFrame(self, self.t)
        _, *fields = f.fields(rho2, zeta)
        return tuple((f.h * alpha_N(self.N) * d).reshape(shape)[()]
                     for d in f.tangents(rho2, zeta, *fields))

    def u(self, z, r):
        """The bubble itself at half-section points (z, r)."""
        z, r = _require_array("z", z), _require_array("r", r)
        _require_broadcast(z=z, r=r, m=self.m, t=self.t)
        return bubble_profile(self.N, self.m, (z - self.t) ** 2 + r * r)

    def w(self, z, r):
        """The harmonic correction (boundary trace of ``u``, extended)."""
        z, r = _require_array("z", z), _require_array("r", r)
        _require_broadcast(z=z, r=r, m=self.m, t=self.t)
        z, r = np.broadcast_arrays(z, r)  # _in_frame's buffer starts from z
        (c, q0), _, _ = self._kelvin      # q about the ball's center
        return _over_q(self.N, self.m,
                       _in_frame(c, -2.0 * self.t, q0, z * z + r * r, z))

    def pu(self, z, r):
        """The projection ``u - w``; zero on the sphere, positive inside."""
        return self.u(z, r) - self.w(z, r)


def _in_frame(c2, c1, c0, rho2, zeta):
    """``c2 ρ² + c1 ζ + c0``: coefficient columns broadcast elementwise
    against the nodes, so each row has the bits of its column alone."""
    out = c1 * zeta
    out += c2 * rho2
    out += c0
    return out


class _SlabFrame:
    """The panel kernel: a family's bubbles about a slab center ``(t, 0)``,
    built once per slab from the family's Kelvin jet (its ``_kelvin``).

    A node is ``ζ = z - t``, ``ρ² = ζ² + r²``; with ``dt = t - t_j``,
    ``D_j = m² + |x - ξ_j|² = ρ² + 2 dt ζ + dt² + m²`` and ``q_j = c ρ² +
    2(c t - t_j) ζ + c t² - 2 t_j t + q0``.  These columns, and those of
    ``∂q/∂m``, ``∂q/∂t_j`` and ``-∂D/∂t_j = 2(ζ + dt)`` over ``m``, give
    the slab's own core ``D = ρ² + m²`` without the rounding of ``z``.
    """

    def __init__(self, fam, t):
        (c, q0), (dc_m, dq0_m), (dc_t, dq0_t) = fam._kelvin
        m, tj, dt = fam.m, fam.t, t - fam.t
        self.h, self.m, self.inv_m = (fam.N - 2) / 2.0, m, 1.0 / m
        self.D = (1.0, 2.0 * dt, dt * dt + m * m)
        self.q = (c, 2.0 * (c * t - tj), c * t * t - 2.0 * tj * t + q0)
        self.dq_m = (dc_m / m, 2.0 * dc_m * t / m, (dc_m * t * t + dq0_m) / m)
        self.dq_t = (dc_t / m, 2.0 * (dc_t * t - 1.0) / m,
                     (dc_t * t * t - 2.0 * t + dq0_t) / m)
        self.dd_t = (2.0 / m, 2.0 * dt / m)

    def fields(self, rho2, zeta):
        """``(src, pu, su, mw)`` at the nodes, one row per bubble: with one
        division each ``s = m/D``, ``mq = m/q`` and one power each ``u =
        s^h``, ``w = mq^h`` (over ``alpha_N``), in those four buffers ``src
        = s^2 u = u^{2*-1}`` (over ``alpha_N^{(N+2)/(N-2)}``), ``pu = u - w``
        and, for :meth:`tangents`, ``su = s u``, ``mw = mq w``."""
        s = _in_frame(*self.D, rho2, zeta)
        np.divide(self.m, s, out=s)
        u = s ** self.h
        mq = _in_frame(*self.q, rho2, zeta)
        np.divide(self.m, mq, out=mq)
        w = mq ** self.h
        mq *= w
        np.subtract(u, w, out=w)
        u *= s
        s *= u
        return s, w, u, mq

    def tangents(self, rho2, zeta, pu, su, mw):
        """``(∂PU/∂m, ∂PU/∂t)/h`` from :meth:`fields`' arrays, in their
        scale: ``∂u = h u ∂log(m/D)``, ``∂w = h w ∂log(m/q)``, ``1/D = s/m``
        and ``1/q = mq/m`` give ``pu/m - 2 su + mw ∂q/∂m / m`` and ``su
        ∂(-D)/∂t / m + mw ∂q/∂t / m``."""
        d_m = _in_frame(*self.dq_m, rho2, zeta)
        d_m *= mw
        d_m -= 2.0 * su
        d_m += self.inv_m * pu
        d_t = self.dd_t[0] * zeta
        d_t += self.dd_t[1]
        d_t *= su
        x = _in_frame(*self.dq_t, rho2, zeta)
        x *= mw
        d_t += x
        return d_m, d_t


def projected_bubbles_of_config(
        domain: BallDomain, cfg: Configuration, table: ConstantsTable,
        eps: float) -> ProjectedBubbleExact:
    """The exact projected bubbles of a configuration, as one family.

    The family's ``m`` and ``t`` are (k, 1) columns, so each evaluator
    returns one row per bubble.  Scales follow ``lam_i = (c_N
    Lambda_i^2)^{1/(N-2)}``, ``m_i = lam_i eps^{1/(N-2)}`` (see
    :func:`nodalbubbles.bubble_core.lambda_of_Lambda_quadratic`); this is
    the package's one map from ``Lambda`` to core widths, which
    :func:`assemble_V` reads too.  Axis positions are taken relative to the
    ball center.
    """
    N = domain.N
    eps = _require_eps(eps, N)
    if N != table.N:
        raise ParameterError(
            f"dimension mismatch: domain N={N}, table N={table.N}")
    lam = [lambda_of_Lambda_quadratic(L, table) for L in cfg.Lambda]
    t = np.array(cfg.t) - domain.center[0]
    m = np.array(lam)[:, None] * eps ** (1.0 / (N - 2.0))
    return ProjectedBubbleExact(N=N, R=domain.radius, m=m, t=t[:, None])


# --------------------------------------------------------------------------
# Spherical-panel quadrature
# --------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
# Angular panels over theta in [0, pi] at refine 1.
_N_U = 6


def _panel_nodes(breaks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on each interval of ``breaks``, flattened."""
    a = breaks[:-1]
    b = breaks[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    w = (half[:, None] * _GL_W[None, :]).ravel()
    return x, w


def _geometric_breaks(scale: float, refine: int) -> np.ndarray:
    """Panel edges [0, scale, scale*g, ..., 1] with ratio g = 2^{1/refine}.

    ``scale`` is the finest feature size relative to the full span; panels
    grow geometrically away from the origin so a 16-node rule per panel
    resolves every decade between the core width and the span.
    """
    if scale >= 0.5:
        return np.array([0.0, 0.5, 1.0])
    g = 2.0 ** (1.0 / refine)
    edges = [0.0, scale]
    while edges[-1] * g < 1.0:
        edges.append(edges[-1] * g)
    edges.append(1.0)
    return np.array(edges)


def _section_nodes(N: int, R: float, t: float, core_scale: float,
                   zlo: float | None, zhi: float | None, refine: int):
    """Quadrature nodes for an axisymmetric integrand over a slab of the ball.

    The region is ``{z^2 + r^2 < R^2} ∩ {zlo < z < zhi}`` (either bound may
    be None); coordinates are centered at the ball center.  Spherical
    coordinates about the axis point ``(t, 0)``, with ``θ`` the angle from
    the +z axis, reduce the integral to

        |S^{N-2}| ∫_0^π ∫_0^{rho_max(θ)} f rho^{N-1} sin^{N-2}θ drho dθ,

    where ``rho_max`` is the exit radius through the sphere or a slab plane.
    The weight ``sin^{N-2}θ`` is smooth for every N, so Gauss-Legendre in
    ``θ`` converges as fast for even N as for odd N.  Angular panels have
    equal ``θ`` width between the angles where the active exit constraint
    switches (the only non-smooth points of ``rho_max``); radial panels are
    geometrically graded from ``core_scale/8`` so the bubble core is fully
    resolved.  ``refine`` doubles the angular panel count and halves the
    geometric ratio, giving an independent accuracy column.

    Yields ``(ρ², ζ, wd)`` about ``(t, 0)`` (:class:`_SlabFrame`) one
    angular panel at a time (its ``_GL_X.size`` directions times every
    radial node), ``wd`` the weight times the density: the integral of
    ``f`` is ``sigma_N(N-1)`` times the sum over panels of ``sum(wd * f)``.
    """
    planes = [zc for zc in (zlo, zhi) if zc is not None]
    th_edges = sorted({0.0, math.pi} | {
        math.acos((zc - t) / math.sqrt((zc - t) ** 2 + R * R - zc * zc))
        for zc in planes if abs(zc) < R})

    for a, b in zip(th_edges[:-1], th_edges[1:]):
        npan = max(1, math.ceil(_N_U * refine * (b - a) / math.pi))
        th, wth = _panel_nodes(np.linspace(a, b, npan + 1))
        u, sin = np.cos(th), np.sin(th)

        rmax = -t * u + np.sqrt(t * t * u * u + R * R - t * t)
        for zc in planes:       # zlo < t < zhi: exits along u of its sign
            ahead = u * (zc - t) > 0
            rmax = np.where(ahead, np.minimum(
                rmax, (zc - t) / np.where(ahead, u, 1.0)), rmax)
        # top > 0: |t| < R makes the sphere exit positive, zlo < t < zhi
        # every plane exit ahead.
        top = float(np.max(rmax))
        sig = _geometric_breaks(min(core_scale / 8.0 / top, 1.0), refine)
        s_nodes, s_w = _panel_nodes(sig)
        s_w = s_w * s_nodes ** (N - 1)

        # rho = rmax(θ) * s, so rho^2, zeta = rho u and the weight times the
        # density are outer products of an angular and a radial factor.
        angular = (rmax * rmax, rmax * u, wth * rmax ** N * sin ** (N - 2))
        radial = (s_nodes * s_nodes, s_nodes, s_w)
        for panel in zip(*(f.reshape(npan, _GL_X.size, 1) for f in angular)):
            yield tuple((a * b).ravel() for a, b in zip(panel, radial))


def _slab_sums(fam: ProjectedBubbleExact, refine: int, term) -> tuple:
    """The tuple ``term(frame, rho2, zeta, wd, *frame.fields(rho2, zeta))``
    summed over the angular panels of :func:`_section_nodes` on each slab.

    The slab about center ``i`` of the family ``fam`` is cut midway to its
    neighbours, so the slabs partition the ball and each holds exactly one
    core (for a single bubble the slab is the whole ball); ``frame`` is its
    :class:`_SlabFrame`.  ``term`` may overwrite the fields, which are freed
    when it returns, so the next panel reuses their memory.  ``refine`` must
    be a positive integer (ParameterError before any node is built).
    """
    refine = _require_int("refine", refine, 1)
    ts = fam.t[:, 0].tolist()
    cuts = [None] + [0.5 * (a + b) for a, b in zip(ts, ts[1:])] + [None]
    sums = None
    for t, m, zlo, zhi in zip(ts, fam.m[:, 0].tolist(), cuts, cuts[1:]):
        frame = _SlabFrame(fam, t)
        for rho2, zeta, wd in _section_nodes(fam.N, fam.R, t, m, zlo, zhi,
                                             refine):
            part = term(frame, rho2, zeta, wd, *frame.fields(rho2, zeta))
            sums = part if sums is None else tuple(
                a + b for a, b in zip(sums, part))
    return sums


def energy_quadrature(domain: BallDomain, cfg: Configuration,
                      table: ConstantsTable, eps: float, *,
                      refine: int = 1) -> tuple[float, dict]:
    """Energy ``(1/2)∫|∇V|^2 - (1/(2*-eps))∫|V|^{2*-eps}`` of the ansatz.

    The gradient term is assembled from the pairwise integrals
    ``K_ij = ∫ U_i^{2*-1} PU_j`` (exact identity; harmonic corrections drop
    out of the cross terms).  Both terms are summed in one pass over the
    slab panels of :func:`_slab_sums`, shared with the residual and the
    gradient, and scaled by their powers of ``alpha_N`` once.  Returns
    ``(value, info)`` with ``info`` carrying the K-matrix asymmetry (an
    a-posteriori accuracy check: the matrix is symmetric analytically) and
    the two raw terms.
    """
    fam = projected_bubbles_of_config(domain, cfg, table, eps)
    N = domain.N
    signs = np.asarray(cfg.signs, dtype=float)
    p_nl = two_star(N) - eps

    def term(frame, rho2, zeta, wd, src, pus, su, mw):
        src *= wd
        return src @ pus.T, float(wd @ np.abs(signs @ pus) ** p_nl)

    K, nonlin = _slab_sums(fam, refine, term)
    K *= sigma_N(N - 1) * alpha_N(N) ** two_star(N)
    nonlin *= sigma_N(N - 1) * alpha_N(N) ** p_nl
    sym_defect = float(np.max(np.abs(K - K.T)) / np.max(np.abs(K)))
    grad_sq = float(signs @ (0.5 * (K + K.T)) @ signs)

    value = 0.5 * grad_sq - nonlin / p_nl
    info = {"K_sym_defect": sym_defect, "grad_sq": grad_sq,
            "nonlinear": nonlin}
    return value, info


def energy_gradient_quadrature(domain: BallDomain, cfg: Configuration,
                               table: ConstantsTable, eps: float, *,
                               refine: int = 1) -> np.ndarray:
    """Gradient of :func:`energy_quadrature`'s ``I_eps(V)`` in (Lambda, t).

    For ``p_j`` either parameter of bubble ``j``,

        ∂I/∂p_j = a_j ∫_B (sum_i a_i U_i^{2*-1} - |V|^{2*-2-eps} V) ∂PU_j/∂p_j.

    The identity is exact: differentiating under the integral gives
    ``∫∇V·∇∂V - ∫|V|^{2*-2-eps} V ∂V``; every ``PU_j`` vanishes on the
    sphere for every (m, t), so ``∂PU_j`` does too, and the first term
    integrates by parts to ``∫(-ΔV) ∂V`` with ``-ΔV = sum_i a_i U_i^{2*-1}``
    holding exactly.  The tangents are closed forms from one
    :meth:`_SlabFrame.tangents` call per panel of :func:`_slab_sums`, and
    ``∂m/∂Lambda = 2m/((N-2) Lambda)`` (:func:`lambda_of_Lambda_quadratic`).
    The source carries ``alpha_N^eps`` over the nonlinear term, put into
    the signs; ``h alpha_N^{2*-eps}`` scales the sums once.

    Returns the 2k-vector (∂/∂Lambda_1..k, ∂/∂t_1..k).  It is the residual of
    ``V`` paired against the configuration tangents, so it measures how close
    the ansatz is to a critical point *within its own family* --
    near-criticality that a plain residual norm cannot see because of the
    configuration-independent O(eps) mismatch of every projected bubble.
    """
    fam = projected_bubbles_of_config(domain, cfg, table, eps)
    N = domain.N
    signs = np.asarray(cfg.signs, dtype=float)
    p_nl = two_star(N) - 2.0 - eps
    lap_signs = alpha_N(N) ** eps * signs

    def term(frame, rho2, zeta, wd, src, pus, su, mw):
        v = signs @ pus
        res = wd * (lap_signs @ src - np.abs(v) ** p_nl * v)
        return tuple(d @ res for d in frame.tangents(rho2, zeta, pus, su, mw))

    pair = np.array(_slab_sums(fam, refine, term))
    pair[0] *= 2.0 * fam.m[:, 0] / ((N - 2.0) * np.asarray(cfg.Lambda))
    scale = sigma_N(N - 1) * alpha_N(N) ** (p_nl + 2.0) * (N - 2) / 2.0
    return scale * np.concatenate(signs * pair)


def residual_quadrature(domain: BallDomain, cfg: Configuration,
                        table: ConstantsTable, eps: float, *,
                        refine: int = 1) -> float:
    """Relative L^2 norm of ``-ΔV - |V|^{2*-2-eps} V`` by spherical panels.

    ``-ΔV = sum_i a_i U_i^{2*-1}`` holds exactly (the harmonic corrections
    have zero Laplacian), so the residual is an explicit function evaluable
    at any core width.  The norm is divided by ``||ΔV||_{L^2}``, which
    removes the core-width divergence of the absolute norm and makes values
    comparable across eps.  Both terms carry ``alpha_N^{2*-1-eps}``.
    """
    fam = projected_bubbles_of_config(domain, cfg, table, eps)
    N = domain.N
    signs = np.asarray(cfg.signs, dtype=float)
    p_nl = two_star(N) - 2.0 - eps
    lap_signs = alpha_N(N) ** eps * signs

    def term(frame, rho2, zeta, wd, src, pus, su, mw):
        lap = lap_signs @ src
        v = signs @ pus
        return (float(np.sum(wd * (lap - np.abs(v) ** p_nl * v) ** 2)),
                float(np.sum(wd * lap * lap)))

    num, den = _slab_sums(fam, refine, term)
    scale = sigma_N(N - 1) * alpha_N(N) ** (2.0 * (p_nl + 1.0))
    num = math.sqrt(max(scale * num, 0.0))
    return num / math.sqrt(max(scale * den, 1e-300))


def expansion_gap(cfg: Configuration, eps_list, table: ConstantsTable,
                  domain: BallDomain | None = None) -> dict:
    """Deviation of the computed energy from its first-order expansion.

    For each ``eps`` (the list must be strictly decreasing) computes

        gap(eps) = (I_eps(V) - k E_N + (k/2) omega eps log eps
                    + k gamma eps) / (omega eps) - Psi_k(cfg),

    where ``E_N`` is the single-bubble energy limit and ``I_eps(V)`` comes
    from :func:`energy_quadrature`.  The remainder theory predicts
    ``gap = o(1)``; measured at the N = 3 saddle, gap / (eps |log eps|) stays
    within -9.5..-10.3 for eps = 0.1..0.0004.  Each row carries the gap at
    two refinements; their difference separates quadrature error from the
    genuine remainder.  ``domain`` defaults to the unit ball.
    """
    if domain is None:
        domain = BallDomain.unit(table.N)
    eps_arr = _require_reals("eps_list", eps_list)
    if len(eps_arr) < 2 or any(b >= a for a, b in zip(eps_arr, eps_arr[1:])):
        raise ParameterError(
            f"eps_list must be strictly decreasing with >= 2 entries, got {eps_arr}")

    kern = AxisKernels.for_ball(domain)
    psi = psi_k(cfg, kern)
    k = cfg.k
    omega = table.omegaN
    gamma = table.gammaN
    E = single_bubble_energy_limit(table)

    rows = []
    for eps in eps_arr:
        I1, info1 = energy_quadrature(domain, cfg, table, eps, refine=1)
        I2, info2 = energy_quadrature(domain, cfg, table, eps, refine=2)

        def gap_of(I):
            lead = k * E - 0.5 * k * omega * eps * math.log(eps) - k * gamma * eps
            return (I - lead) / (omega * eps) - psi

        rows.append({
            "eps": eps,
            "I": I2,
            "gap": gap_of(I2),
            "gap_coarse": gap_of(I1),
            "refinement_delta": abs(gap_of(I2) - gap_of(I1)),
            "K_sym_defect": max(info1["K_sym_defect"], info2["K_sym_defect"]),
        })

    gaps = [abs(r["gap"]) for r in rows]
    decrements = [a - b for a, b in zip(gaps, gaps[1:])]
    max_delta = max(r["refinement_delta"] for r in rows)
    return {
        "k": k,
        "psi": psi,
        "rows": rows,
        "monotone_decreasing": all(d > 0 for d in decrements),
        "decrements": decrements,
        "max_refinement_delta": max_delta,
        "refinement_below_decrement": (bool(decrements)
                                       and max_delta < min(decrements)),
    }


# --------------------------------------------------------------------------
# Finite-volume grid
# --------------------------------------------------------------------------

def _dst1(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along the rows of the 2-D ``x`` (its own inverse),
    in place: one FFT of the odd extension per block of 32 rows."""
    n = x.shape[1]
    ext = np.zeros((min(32, len(x)), 2 * n + 2))    # its zero frame is kept
    for i in range(0, len(x), 32):
        blk = x[i:i + 32]
        e = ext[:len(blk)]
        e[:, 1:n + 1] = blk
        np.negative(blk[:, ::-1], out=e[:, n + 2:])
        np.multiply(np.fft.rfft(e)[:, 1:n + 1].imag,
                    -1.0 / math.sqrt(2.0 * n + 2.0), out=blk)
    return x


def _capacitance(gj: np.ndarray, S: np.ndarray, diag: np.ndarray,
                 ratios: np.ndarray) -> np.ndarray:
    """``C[a, b] = sum_k S[a, k] S[b, k] G_k[j_a, j_b]`` over the columns
    (sine modes) of ``S``, for nodes sorted by their radial index ``gj``.

    ``G_k`` is the semiseparable inverse of :meth:`AxisymGrid._factor`:
    ``diag`` its diagonal and ``ratios`` the factors ``b_j/p_j``, one column
    per mode of ``S``.  One GEMM per block of nodes; each block divides by
    the products of ratios from its own first column, and a block ends
    before they pass ``e^200``.  The blocks fill the upper triangle, which
    is then mirrored into the lower one in place.
    """
    nr1 = ratios.shape[0]
    Y0 = S * diag[gj]
    worst = -np.log(np.min(ratios, axis=1))
    block = np.concatenate(([0.0], np.cumsum(worst)))[gj] // 200.0
    starts = np.flatnonzero(np.diff(block, prepend=-1.0))
    C = np.zeros((gj.size, gj.size))
    for s, stop in zip(starts, np.append(starts[1:], gj.size)):
        j0 = gj[s]
        span = np.ones((nr1 - j0, S.shape[1]))
        np.cumprod(ratios[j0:-1], axis=0, out=span[1:])
        X = S[s:stop] / span[gj[s:stop] - j0]
        C[s:stop, s:] = X @ (Y0[s:] * span[gj[s:] - j0]).T
    lower = np.tri(gj.size, k=-1, dtype=bool)
    C[lower] = C.T[lower]
    return C


def _tril_inverse(L: np.ndarray) -> np.ndarray:
    """Invert the lower-triangular ``L`` in place by 2 x 2 blocks,
    ``[A 0; B D]^{-1} = [A^{-1} 0; -D^{-1} B A^{-1}  D^{-1}]``, down to
    blocks of at most 64 rows."""
    n = len(L)
    if n <= 64:
        L[...] = np.tril(np.linalg.inv(L))
        return L
    k = n // 2
    A, B, D = L[:k, :k], L[k:, :k], L[k:, k:]
    _tril_inverse(A)
    _tril_inverse(D)
    np.negative(D @ (B @ A), out=B)
    return L


@dataclass(frozen=True, eq=False)
class _GridFactor:
    """What :meth:`AxisymGrid._factor` stores: per sine mode (columns) and
    radial node (rows) the reciprocal pivots; the flat rectangle indices of
    the half of ``Γ`` below the center and of their mirror images; and the
    inverses ``L^{-1}`` of the Cholesky factors of the two mirror blocks of
    ``C``."""

    inv_pivots: np.ndarray
    half: np.ndarray
    mirror: np.ndarray
    even_linv: np.ndarray
    odd_linv: np.ndarray

    # perfbench/layers.py (GridWatch) reads L.nnz + U.nnz as the factor size.
    @property
    def L(self):
        return SimpleNamespace(nnz=self.even_linv.size + self.odd_linv.size)

    @property
    def U(self):
        return SimpleNamespace(nnz=self.inv_pivots.size)


class AxisymGrid:
    """Finite-volume grid on the (z, r) half-section of a ball in R^N.

    N, R and the center come from ``domain`` alone; ``z`` runs along the
    axis through the center parallel to e_1, ``r`` is the distance from it.
    Nodes sit at ``z_i = z_c - R + i hz`` (0 <= i < nz) and ``r_j = j hr``
    (0 <= j < nr) with ``hz = 2R/(nz-1)``, ``hr = R/(nr-1)``.  A node is
    *interior* when strictly inside the ball and off the frame (the first
    and last rows and the last column); a *boundary* node is a
    non-interior node with an interior 4-neighbor, and carries Dirichlet
    data (staircase boundary: data comes from globally defined traces, so
    the scheme retains second order against smooth exact solutions).

    The discrete Laplacian is the finite-volume balance over the cell
    ``[z - hz/2, z + hz/2] x [r - hr/2, r + hr/2]`` revolved about the
    axis, with ``sigma = |S^{N-2}|`` (``2 pi`` for N = 3): radial faces
    ``sigma r_{j+1/2}^{N-2} hz``, axial faces ``sigma r_j^{N-2} hr`` (the
    exact disc ``sigma (hr/2)^{N-1}/(N-1)`` on the axis), volumes those
    times ``hz``.  These are the exact revolved areas and volumes for N = 3
    and on the axis, the midpoint rule in ``r`` elsewhere.  The axis needs
    no condition: the inner radial face has zero area.  The one operator
    is the flux balance ``A v`` of :meth:`_flux`; its interior block is
    symmetric positive definite, solved directly in every N by the
    capacitance-matrix method on the enclosing rectangle (see
    :meth:`_factor`), set up once per grid on the first solve and reused.
    """

    def __init__(self, domain: BallDomain, nz: int = 513, nr: int = 257):
        self.domain = domain
        self.nz = _require_int("grid size nz", nz, 5)
        self.nr = _require_int("grid size nr", nr, 5)
        R = domain.radius
        zc = domain.center[0]
        self.hz = 2.0 * R / (self.nz - 1)
        self.hr = R / (self.nr - 1)
        self.zs = zc - R + self.hz * np.arange(self.nz)
        self.rs = self.hr * np.arange(self.nr)

        # Read-only (nz, nr) views of the node coordinates.
        self.z_nodes = np.broadcast_to(self.zs[:, None], (self.nz, self.nr))
        self.r_nodes = np.broadcast_to(self.rs, (self.nz, self.nr))
        # Offsets from the center written symmetrically, not as z - zc, whose
        # rounding can admit a node of the frame; the frame rows and the
        # last column stay outside in any case.
        dz = self.hz * (np.arange(self.nz) - 0.5 * (self.nz - 1))
        self.interior = dz[:, None] ** 2 + self.r_nodes ** 2 < R * R
        self.interior[[0, -1], :] = False
        self.interior[:, -1] = False

        nb = np.zeros_like(self.interior)
        nb[1:, :] |= self.interior[:-1, :]
        nb[:-1, :] |= self.interior[1:, :]
        nb[:, 1:] |= self.interior[:, :-1]
        nb[:, :-1] |= self.interior[:, 1:]
        self.boundary = (~self.interior) & nb

        self.n_interior = int(np.count_nonzero(self.interior))

        # The axial faces sigma r^{N-2} hr, the exact disc on the axis.
        N, sigma, j = domain.N, sigma_N(domain.N - 1), np.arange(self.nr)
        face = sigma * self.rs ** (N - 2) * self.hr
        face[0] = sigma * self.hr ** (N - 1) / (2 ** (N - 1) * (N - 1))
        # The cell volumes over the whole (nz, nr) node array (read-only).
        self.cell_volumes = np.broadcast_to(face * self.hz, (self.nz, self.nr))
        self.coeff_axial = face / self.hz
        # radial face between columns j and j+1
        self.coeff_radial = (sigma * (j[:-1] + 0.5) ** (N - 2)
                             * self.hr ** (N - 3) * self.hz)

        self._lu = None         # the _GridFactor, set by _factor

    @classmethod
    def for_ball(cls, domain: BallDomain, nz: int = 513,
                 nr: int = 257) -> "AxisymGrid":
        """Standard constructor; defaults give hz = hr = R/256 on a unit ball."""
        return cls(domain, nz=nz, nr=nr)

    @property
    def h_max(self) -> float:
        return max(self.hz, self.hr)

    def _factor(self):
        """Set up the direct solver of the interior system (lazy, cached).

        The interior operator ``A`` is the principal submatrix of the
        operator of the enclosing rectangle (rows ``1..nz-2``, columns
        ``0..nr-2``, zero data on its frame),

            A_rect = K_z ⊗ diag(coeff_axial) + I ⊗ L_r,

        with ``K_z = tridiag(-1, 2, -1)`` and ``L_r`` the radial
        tridiagonal.  The orthonormal DST-I in ``z`` diagonalizes ``K_z``
        (eigenvalues ``lam_k = 4 sin^2(pi k / (2(nz-1)))``), leaving one
        symmetric tridiagonal ``T_k = lam_k diag(coeff_axial) + L_r`` per
        sine mode.  The staircase boundary ``Γ`` (boundary nodes inside the
        rectangle) enters through the capacitance matrix
        ``C = (A_rect^{-1})_ΓΓ``, which is symmetric positive definite.

        With ``b_j`` the radial face coefficients and ``a_j = lam_k
        coeff_axial[j]``, the pivots of ``T_k`` from the axis are
        ``p_j = a_j + g_j + b_j`` and those from the rim ``a_j + h_j +
        b_{j-1}``, where ``g_0 = 0``, ``g_{j+1} = b_j (a_j + g_j)/p_j`` and
        ``h_last = b_last``, ``h_{j-1} = b_{j-1}(a_j + h_j)/(a_j + h_j +
        b_{j-1})``; every term is positive, so nothing cancels.  The inverse
        is semiseparable: ``G_k[j, j] = 1/(a_j + g_j + h_j)`` and, for
        ``j <= j'``, ``G_k[j, j'] = G_k[j', j'] prod_{l=j}^{j'-1} b_l/p_l``.

        The grid is symmetric under the reflection ``z -> -z`` about the
        center, which maps rectangle row ``i`` to ``nz-3-i``, so every node
        ``a`` of ``Γ`` below the center has a mirror node ``Ma`` above it
        (a node without a mirror, or on the center row, raises
        :class:`SolverDivergenceError`).  The odd sine modes are even under
        the reflection and the even modes odd, so ``C`` splits exactly: on
        the sums ``x_a + x_Ma`` it acts as ``E = 2 sum_{k odd}`` and on the
        differences as ``O = 2 sum_{k even}`` of the half's rows, two
        ``|Γ|/2``-square blocks (318 on the default 513 x 257 grid, where
        the set-up stores 333,064 numbers with the reciprocal pivots).  Each
        is built by :func:`_capacitance`, checked finite and
        Cholesky-factored once, ``L L^T``, which checks that it is positive
        definite; the solver keeps and applies ``L^{-1}`` (see
        :meth:`_solve`).  Of the tridiagonal factors only ``1/p_j`` is kept:
        ``h`` runs from the rim into the buffer of the diagonal, the pivots
        from the axis row by row, and the ratios ``b_j/p_j`` are formed
        where they are used.
        """
        if self._lu is not None:
            return
        nz2, nr1 = self.nz - 2, self.nr - 1
        n = nz2 + 1
        modes = np.arange(1, n)
        lam = 4.0 * np.sin(0.5 * np.pi * modes / n) ** 2
        ax, b = self.coeff_axial, self.coeff_radial     # b[-1]: the rim face
        diag = np.empty((nr1, nz2))
        inv_pivots = np.empty((nr1, nz2))
        diag[-1] = b[-1]                                # h from the rim
        for j in range(nr1 - 1, 0, -1):
            f = ax[j] * lam + diag[j]
            diag[j - 1] = b[j - 1] * f / (f + b[j - 1])
        g = 0.0
        for j in range(nr1):            # a + g, the pivot and diag = 1/(a+g+h)
            e = ax[j] * lam + g
            p = e + b[j]
            diag[j] += e
            np.divide(1.0, diag[j], out=diag[j])
            g = b[j] * e / p
            np.divide(1.0, p, out=inv_pivots[j])

        gam = self.boundary[1:-1, :-1]
        if not np.array_equal(gam, gam[::-1]) or (nz2 % 2
                                                  and gam[nz2 // 2].any()):
            raise SolverDivergenceError(
                "staircase boundary not mirror-paired: a node has no mirror "
                "image or lies on the center row")
        gj, gi = np.nonzero(gam[:nz2 // 2].T)   # the half below, sorted by j
        # sin((pi/n) m), m < 2n, indexed by exactly reduced integer arguments
        sines = np.sin((np.pi / n) * np.arange(2 * n))
        factors = []
        for parity in (0, 1):                   # modes 1, 3, ... then 2, 4, ...
            # sqrt(2) times the orthonormal sine, so S S^T carries the 2.
            k = modes[parity::2]
            S = (2.0 / math.sqrt(n)) * sines[np.outer(gi + 1, k) % (2 * n)]
            C = _capacitance(gj, S, diag[:, parity::2],
                             b[:, None] * inv_pivots[:, parity::2])
            if not np.all(np.isfinite(C)):
                raise SolverDivergenceError("non-finite capacitance matrix")
            try:
                L = np.linalg.cholesky(C)
            except np.linalg.LinAlgError:
                raise SolverDivergenceError(
                    "capacitance matrix is not positive definite") from None
            del S, C
            factors.append(_tril_inverse(L))
        self._lu = _GridFactor(inv_pivots, gj * nz2 + gi,
                               gj * nz2 + (nz2 - 1 - gi), *factors)

    def _rect_solve(self, f: np.ndarray) -> np.ndarray:
        """``A_rect^{-1} f`` for ``f`` of shape (nr-1, nz-2), r by z, in place."""
        inv_p, b = self._lu.inv_pivots, self.coeff_radial
        y = _dst1(f)
        for j in range(1, len(y)):
            y[j] += b[j - 1] * inv_p[j - 1] * y[j - 1]
        y *= inv_p
        for j in range(len(y) - 2, -1, -1):
            y[j] += b[j] * inv_p[j] * y[j + 1]
        return _dst1(y)

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` over the interior nodes.

        The rectangle solution of ``rhs`` plus sources ``beta`` on ``Γ``
        solves the interior system exactly when it vanishes on ``Γ``; that
        fixes ``beta = -C^{-1} u_Γ`` for ``u`` the rectangle solution of
        ``rhs`` alone.  By the mirror split of :meth:`_factor`, with ``s =
        E^{-1}(u_a + u_Ma)`` and ``d = O^{-1}(u_a - u_Ma)``, that is
        ``beta_a = -(s + d)/2`` and ``beta_Ma = -(s - d)/2``; each inverse is
        applied as ``L^{-T}(L^{-1} v)`` from the kept Cholesky factor.
        """
        self._factor()
        fac = self._lu
        x = np.zeros((self.nz, self.nr))
        x[self.interior] = rhs
        f = np.ascontiguousarray(x[1:-1, :-1].T)
        u = self._rect_solve(f).ravel()         # a view of f
        u_a, u_ma = u[fac.half], u[fac.mirror]
        s = fac.even_linv.T @ (fac.even_linv @ (u_a + u_ma))
        d = fac.odd_linv.T @ (fac.odd_linv @ (u_a - u_ma))
        f[...] = x[1:-1, :-1].T
        f.flat[fac.half] = -0.5 * (s + d)
        f.flat[fac.mirror] = -0.5 * (s - d)
        x[1:-1, :-1] = self._rect_solve(f).T
        del f, u
        x[~self.interior] = 0.0
        res = self._flux(x)[self.interior]
        res -= rhs
        res = np.linalg.norm(res)
        if not np.isfinite(res) or res > 1e-10 * (np.linalg.norm(rhs) + 1.0):
            raise SolverDivergenceError(
                f"grid solve residual {res:.3e} exceeds tolerance")
        return x[self.interior]

    def _flux(self, values: np.ndarray) -> np.ndarray:
        """The flux balance ``A v`` at every node of the full (nz, nr) array.

        Each face adds ``coeff * (v_here - v_there)`` to both its nodes, so
        by summation by parts ``v·Av`` is the face sum ``coeff * (Δv across
        face)^2`` of every field, boundary data included.
        """
        flux = np.zeros((self.nz, self.nr))
        d = np.diff(values, axis=0)
        d *= self.coeff_axial
        flux[:-1] -= d                  # face (i, i+1) seen from i
        flux[1:] += d                   # and from i+1
        del d
        d = np.diff(values, axis=1)
        d *= self.coeff_radial
        flux[:, :-1] -= d
        flux[:, 1:] += d
        return flux

    def minus_laplacian(self, values: np.ndarray) -> np.ndarray:
        """Discrete ``-Δ`` (flux balance / volume) at interior nodes.

        ``values`` must be the full (nz, nr) array; entries outside
        interior ∪ boundary are treated as written (callers keep them 0).
        Returns a full array, zero outside the interior.
        """
        return np.where(self.interior, self._flux(values) / self.cell_volumes,
                        0.0)


@dataclass(eq=False)
class Field:
    """Node values over an :class:`AxisymGrid` (finite everywhere).

    Dirichlet solutions are zero on boundary nodes and outside the ball;
    general fields may carry data on boundary nodes.
    """

    grid: AxisymGrid
    values: np.ndarray

    def __post_init__(self):
        v = _require_array("field values", self.values)
        if v.shape != (self.grid.nz, self.grid.nr):
            raise ParameterError(
                f"field shape {v.shape} does not match grid "
                f"({self.grid.nz}, {self.grid.nr})")
        self.values = v


def _solve_field(grid: AxisymGrid, source: Field | None,
                 boundary_data: Field | None) -> Field:
    """Solve ``-Δu = source`` with ``boundary_data`` (either may be None for
    zero), each a field over ``grid``'s nodes and ball; the data is kept on
    boundary nodes and the field is zero outside."""
    for f in (source, boundary_data):
        if f is not None and (f.values.shape != (grid.nz, grid.nr)
                              or f.grid.domain != grid.domain):
            raise ParameterError(
                f"field of shape {f.values.shape} on {f.grid.domain} does "
                f"not match the grid ({grid.nz}, {grid.nr}) on {grid.domain}")
    rhs = (None if source is None else
           source.values[grid.interior] * grid.cell_volumes[grid.interior])
    out = np.zeros((grid.nz, grid.nr))
    if boundary_data is not None:
        out[grid.boundary] = boundary_data.values[grid.boundary]
        # The stencil applied to the boundary data alone, moved to the right.
        lift = grid._flux(out)[grid.interior]
        np.negative(lift, out=lift)
        rhs = lift if rhs is None else rhs + lift
    out[grid.interior] = grid._solve(rhs)
    return Field(grid, out)


def solve_dirichlet_laplace(grid: AxisymGrid, boundary_data: Field) -> Field:
    """Harmonic extension of Dirichlet data into the ball.

    Only the boundary-node entries of ``boundary_data`` are read.  The
    result carries the solution at interior nodes, the data at boundary
    nodes, and zeros outside; the post-solve algebraic residual is checked
    against 1e-10 (relative).
    """
    return _solve_field(grid, None, boundary_data)


def solve_poisson(grid: AxisymGrid, source: Field,
                  boundary_data: Field | None = None) -> Field:
    """Solve ``-Δu = source`` with Dirichlet data (default zero)."""
    return _solve_field(grid, source, boundary_data)


def _require_axis_center(p: BubbleParams, grid: AxisymGrid) -> float:
    """The bubble's axis offset from the center; it must lie on the axis."""
    if p.N != grid.domain.N:
        raise ParameterError(
            f"bubble of dimension {p.N} on a grid of dimension {grid.domain.N}")
    offset = np.subtract(p.xi[1:], grid.domain.center[1:])
    if np.max(np.abs(offset)) > 1e-12 * max(grid.domain.radius, 1.0):
        raise ParameterError(
            "bubble center must lie on the symmetry axis for the "
            f"half-section grid; got transverse offset {offset}")
    return p.xi[0] - grid.domain.center[0]


def _require_cells(grid: AxisymGrid, length: float, cells: int,
                   what: str) -> None:
    """Raise :class:`ResolutionError` when ``length`` spans fewer than
    ``cells`` cells; the error names the smallest grid (``required_nz`` x
    ``required_nr``) on which it spans them."""
    if length < cells * grid.h_max:
        R = grid.domain.radius
        need_nz = int(math.ceil(2.0 * cells * R / length)) + 1
        need_nr = int(math.ceil(cells * R / length)) + 1
        raise ResolutionError(
            f"{what} {length:.3e} spans fewer than {cells} cells "
            f"(h={grid.h_max:.3e}); need at least a {need_nz}x{need_nr} grid",
            required_nz=need_nz, required_nr=need_nr)


def require_core_resolution(grid: AxisymGrid, m: float) -> None:
    """Raise :class:`ResolutionError` when core width ``m`` spans < 6 cells.

    The error names the smallest grid (``required_nz`` x ``required_nr``)
    that resolves the core.
    """
    _require_cells(grid, m, 6, "core width")


def _project(grid: AxisymGrid, signs, fam: ProjectedBubbleExact) -> Field:
    """``sum_i a_i U_i`` over the family ``fam`` (one row per bubble, as
    :func:`projected_bubbles_of_config` builds it) minus the harmonic
    extension of its trace, zero outside the interior.  Each center must
    lie at least 4 cells from the boundary."""
    for t in np.ravel(fam.t):
        _require_cells(grid, fam.R - abs(t), 4, "boundary margin")
    grid._factor()      # its transients do not stack on the trace's
    trace = np.asarray(signs, dtype=float) @ fam.u(
        (grid.z_nodes - grid.domain.center[0]).ravel(),
        grid.r_nodes.ravel())
    trace = trace.reshape(grid.nz, grid.nr)
    w = solve_dirichlet_laplace(grid, Field(grid, trace))
    return Field(grid, np.where(grid.interior, trace - w.values, 0.0))


def project_bubble(domain: BallDomain, p: BubbleParams,
                   grid: AxisymGrid) -> Field:
    """Grid projection ``P U = U - (harmonic extension of U's trace)``.

    Exactly zero on boundary nodes by construction.  ``domain`` must be the
    grid's ball (N, R and center); the bubble, of the same N, must lie on
    the symmetry axis, at least 4 cells from the boundary.
    """
    g = grid.domain
    if domain != g:
        raise ParameterError("domain does not match the grid's domain")
    t = _require_axis_center(p, grid)
    fam = ProjectedBubbleExact(N=g.N, R=g.radius, m=np.array([[p.core_width]]),
                               t=np.array([[t]]))
    return _project(grid, [1.0], fam)


def assemble_V(cfg: Configuration, eps: float, table: ConstantsTable,
               grid: AxisymGrid) -> Field:
    """Signed sum of grid-projected bubbles for a configuration.

    The core widths are those of :func:`projected_bubbles_of_config`, so
    both instruments share one scale map (and its checks: a table of
    another dimension raises :class:`ParameterError`, a position outside
    the ball :class:`DomainError`).  All harmonic corrections are obtained
    in a single combined solve.  Raises :class:`ResolutionError` naming the
    required resolution when any core width spans fewer than 6 cells.
    """
    fam = projected_bubbles_of_config(grid.domain, cfg, table, eps)
    require_core_resolution(grid, float(np.min(fam.m)))
    return _project(grid, cfg.signs, fam)


def residual_norm(V: Field, eps: float, *, relative: bool = False) -> float:
    """Discrete L^2 norm of ``-Δ_num V - |V|^{2*-2-eps} V`` over the interior.

    Axisymmetric volume weights; with ``relative=True`` the norm is divided
    by the same norm of the nonlinear term alone, making values comparable
    across eps (the absolute norm scales like an inverse core width).
    """
    eps = _require_eps(eps, V.grid.domain.N)
    grid = V.grid
    mask = grid.interior
    vol = grid.cell_volumes[mask]
    lap = grid._flux(V.values)[mask] / vol
    u = V.values[mask]
    nl = np.abs(u) ** (two_star(grid.domain.N) - 2.0 - eps) * u
    num = math.sqrt(float(np.sum(vol * (lap - nl) ** 2)))
    if not relative:
        return num
    den = math.sqrt(float(np.sum(vol * nl ** 2)))
    return num / max(den, 1e-300)


def energy_I(u: Field, eps: float) -> float:
    """Discrete energy ``(1/2) u·Au - (1/(2*-eps))Σ volumes`` of a field.

    The gradient part pairs the field with its flux balance
    :meth:`AxisymGrid._flux`, by summation by parts the sum of ``coeff *
    (Δu across face)^2`` over all grid faces; the nonlinear part uses the
    axisymmetric cell volumes over interior nodes.  Callers supply fields
    that vanish on boundary nodes.
    """
    eps = _require_eps(eps, u.grid.domain.N)
    grid = u.grid
    v = u.values
    grad = float(np.vdot(v, grid._flux(v)))
    p = two_star(grid.domain.N) - eps
    mask = grid.interior
    nonlin = float(np.sum(grid.cell_volumes[mask] * np.abs(v[mask]) ** p))
    return 0.5 * grad - nonlin / p
