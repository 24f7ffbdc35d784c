"""Verification harness for signed sums of projected bubbles on a ball.

Everything here serves one question: does the computed energy of the
projected multi-bubble ansatz match the reduced-energy expansion, and does
the ansatz nearly solve the slightly subcritical equation?  Two independent
instruments are provided.

Grid instrument
    An axisymmetric finite-volume discretization of the ball in R^N on its
    ``(z, r)`` half-section (``z`` along the symmetry axis through the bubble
    centers, ``r`` the transverse radius).  It solves the Dirichlet Laplace
    problem behind the projection ``P U = U - (harmonic extension of U's
    boundary trace)``, assembles ``V = sum_i a_i P U_i``, and evaluates
    discrete residuals and energies.  N enters only the face weights
    ``|S^{N-2}| r^{N-2}`` of the revolved cells, giving a symmetric,
    diagonally dominant M-matrix ``A``.  One method applies it, the flux
    balance :meth:`AxisymGrid._flux`; the Laplacian, the boundary lift, the
    residuals and the energy all read it.  ``A`` is solved exactly, in numpy
    alone, by the capacitance-matrix method (Buzbee, Dorr, George & Golub,
    SIAM J. Numer. Anal. 8, 1971): the operator is separable on the
    enclosing rectangle, where a sine transform in ``z`` and one tridiagonal
    sweep per mode solve it, and the staircase boundary enters through a
    dense capacitance matrix over its nodes.  The boundary is symmetric
    under the reflection ``z -> -z`` about the center, and the sine modes
    are even or odd under it, so that matrix splits exactly into two blocks
    over half the nodes each (318 of the 636 on the default 513 x 257 grid),
    one for the odd modes and one for the even.  The set-up is cached per
    grid.

Quadrature instrument
    On a ball the harmonic correction of an axis-centered bubble is known in
    closed form (a Kelvin image of the bubble, see
    :class:`ProjectedBubbleExact`), so ``V`` is evaluable pointwise to
    machine precision at any core width -- far below what any grid can
    resolve.  Energies then reduce to integrals of explicit functions over
    one node family: the ball is cut into slabs midway between consecutive
    centers, so each slab holds one core, and each slab is integrated with
    spherical panels about its center -- Gauss-Legendre nodes on
    geometrically graded radial panels (resolving the core scale) times
    angular panels split at the slab/ball switch directions.  The energy, its
    gradient and the residual all consume the same fields on these nodes,
    streamed one angular panel at a time, so memory stays at one panel
    whatever the refinement.  The gradient term uses the exact identity
    ``∫∇PU_i·∇PU_j = ∫U_i^{2*-1} PU_j`` (the harmonic parts drop out), whose
    numerical asymmetry in (i, j) doubles as an accuracy diagnostic.

:func:`expansion_gap` compares the computed energy against

    I_eps(V) = k*E_N - (k/2) omega_N eps log(eps) - k gamma_N eps
               + omega_N eps Psi_k(Lambda, t) + o(eps),

with ``E_N`` the single-bubble energy limit and scales
``lam_i = (c_N Lambda_i^2)^{1/(N-2)}``; both the constant and the scale map
were validated against exact radial quadrature of the centered single-bubble
energy (see the package notes on conventions in the README).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .bubble_core import (BubbleParams, ConstantsTable, alpha_N,
                          bubble_profile, lambda_of_Lambda_quadratic, sigma_N,
                          single_bubble_energy_limit, two_star)
from .errors import (DomainError, ParameterError, ResolutionError,
                     SolverDivergenceError)
from .green_domain import BallDomain
from .reduced_energy import AxisKernels, Configuration, psi_k

__all__ = [
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
# Exact projections
# --------------------------------------------------------------------------

@dataclass(frozen=True)
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

        c = 2 t^2 / (s + sqrt((m^2 + (R-t)^2)(m^2 + (R+t)^2))).

    On the sphere ``z^2 + r^2 = R^2`` one has ``q = m^2 + |x - xi|^2``
    identically, so ``w`` equals the bubble there and ``pu = u - w``
    vanishes on the boundary *exactly*.  The quadratic ``q`` has its zero
    set outside the closed ball (the pole of the Kelvin image), so all three
    evaluators are smooth inside.

    ``m`` and ``t`` may also be arrays that broadcast against the points:
    with (k, 1) columns one object is the whole family of a configuration
    (see :func:`projected_bubbles_of_config`), and :meth:`u`, :meth:`w`,
    :meth:`fields` and :meth:`pu_tangents` return one row per bubble.
    """

    N: int
    R: float
    m: float | np.ndarray
    t: float | np.ndarray

    def __post_init__(self):
        if self.N < 3:
            raise ParameterError(f"dimension N must be >= 3, got {self.N}")
        if not (self.R > 0):
            raise ParameterError(f"radius must be positive, got {self.R}")
        if not np.all(self.m > 0):
            raise ParameterError(f"core width must be positive, got {self.m}")
        if not np.all(np.abs(self.t) < self.R):
            raise DomainError(
                f"bubble center offset {self.t} not inside ball of radius {self.R}")

    @property
    def _coeffs(self) -> tuple[float, float]:
        m2 = self.m * self.m
        s = m2 + self.R * self.R + self.t * self.t
        disc = (m2 + (self.R - self.t) ** 2) * (m2 + (self.R + self.t) ** 2)
        # np.sqrt, not math.sqrt: the same bits for floats, and it also takes
        # a family's columns and a complex step in m or t.
        c = 2.0 * self.t * self.t / (s + np.sqrt(disc))
        return c, s - c * self.R * self.R

    @property
    def _coeff_tangents(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """``(∂c, ∂q0)`` along ``m`` and along ``t``.

        Differentiating ``R^2 c^2 - s c + t^2 = 0`` gives
        ``dc = (c ds - 2t dt) / (2 R^2 c - s)``, where ``2 R^2 c - s =
        -sqrt(disc)`` for the smaller root; ``ds = 2m dm + 2t dt`` and
        ``dq0 = ds - R^2 dc``.
        """
        m, R, t = self.m, self.R, self.t
        c, _ = self._coeffs
        root = np.sqrt((m * m + (R - t) ** 2) * (m * m + (R + t) ** 2))
        dc_m = -2.0 * m * c / root
        dc_t = 2.0 * t * (1.0 - c) / root
        return (dc_m, 2.0 * m - R * R * dc_m), (dc_t, 2.0 * t - R * R * dc_t)

    def pu_tangents(self, z, r, u, w):
        """``∂PU/∂m`` and ``∂PU/∂t`` at (z, r), given ``u`` and ``w`` there.

        With ``h = (N-2)/2``, ``∂u = h u ∂log(m/D)`` for
        ``D = m^2 + |x - xi|^2`` and ``∂w = h w ∂log(m/q)``.
        """
        m, t = self.m, self.t
        h = (self.N - 2) / 2.0
        c, q0 = self._coeffs
        (dc_m, dq0_m), (dc_t, dq0_t) = self._coeff_tangents
        rho2 = z * z + r * r
        inv_d = 1.0 / (m * m + (z - t) ** 2 + r * r)
        inv_q = 1.0 / (c * rho2 - 2.0 * t * z + q0)
        d_m = h * (u * (1.0 / m - 2.0 * m * inv_d)
                   - w * (1.0 / m - (dc_m * rho2 + dq0_m) * inv_q))
        d_t = h * (u * 2.0 * (z - t) * inv_d
                   + w * (dc_t * rho2 - 2.0 * z + dq0_t) * inv_q)
        return d_m, d_t

    def u(self, z, r):
        """The bubble itself at half-section points (z, r)."""
        z = np.asarray(z, dtype=float)
        r = np.asarray(r, dtype=float)
        return bubble_profile(self.N, self.m, (z - self.t) ** 2 + r * r)

    def w(self, z, r):
        """The harmonic correction (boundary trace of ``u``, extended)."""
        z = np.asarray(z, dtype=float)
        r = np.asarray(r, dtype=float)
        c, q0 = self._coeffs
        # alpha_N (m/q)^h with q = c (z^2 + r^2) - 2 t z + q0, evaluated in
        # place: the same bits as the expression, without its temporaries.
        q = np.asarray(c * (z * z + r * r))
        q -= 2.0 * self.t * z
        q += q0
        np.divide(self.m, q, out=q)
        q **= (self.N - 2) / 2.0
        q *= alpha_N(self.N)
        return q

    def fields(self, z, r):
        """``(u, w, src)`` at arrays of half-section points (z, r).

        ``u`` and ``w`` are bit-identical to :meth:`u` and :meth:`w`;
        ``src = u^{2*-1} = -Δu`` is the bubble's source.  With ``s = m/D``,
        ``D = m^2 + ((z - t)^2 + r^2)``, ``u = alpha_N s^h`` and, since
        ``h (2* - 1) = h + 2``, ``src = alpha_N^{4/(N-2)} s^2 u`` in closed
        form: two products instead of a power.
        """
        z = np.asarray(z, dtype=float)
        r = np.asarray(r, dtype=float)
        a = alpha_N(self.N)
        s = (z - self.t) ** 2 + r * r
        s += self.m * self.m
        np.divide(self.m, s, out=s)
        u = s ** ((self.N - 2) / 2.0)
        u *= a
        s *= s
        s *= u
        s *= a ** (4.0 / (self.N - 2))
        return u, self.w(z, r), s

    def pu(self, z, r):
        """The projection ``u - w``; zero on the sphere, positive inside."""
        return self.u(z, r) - self.w(z, r)


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
    if not (eps > 0):
        raise ParameterError(f"eps must be positive, got {eps}")
    N = domain.N
    if N != table.N:
        raise ParameterError(
            f"dimension mismatch: domain N={N}, table N={table.N}")
    lam = [lambda_of_Lambda_quadratic(L, table) for L in cfg.Lambda]
    t = np.array(cfg.t) - float(domain.center[0])
    outside = ~(np.abs(t) < domain.radius)
    if np.any(outside):
        raise DomainError(f"configuration point t={cfg.t[np.argmax(outside)]} "
                          "lies outside the ball section")
    m = np.array(lam)[:, None] * eps ** (1.0 / (N - 2.0))
    return ProjectedBubbleExact(N=N, R=domain.radius, m=m, t=t[:, None])


# --------------------------------------------------------------------------
# Spherical-panel quadrature
# --------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
# Angular panels over u in [-1, 1] at refine 1.
_N_U = 12


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
    coordinates about the axis point ``(t, 0)`` reduce the integral to

        |S^{N-2}| ∫_{-1}^{1} ∫_0^{rho_max(u)} f rho^{N-1} (1-u^2)^{(N-3)/2} drho du,

    where ``rho_max`` is the exit radius through the sphere or a slab plane.
    Angular panels are split where the active exit constraint switches (the
    only non-smooth points of ``rho_max``); radial panels are geometrically
    graded from ``core_scale/8`` so the bubble core is fully resolved.
    ``refine`` doubles the angular panel count and halves the geometric
    ratio, giving an independent accuracy column.

    Yields ``(z, r, wd)`` one Gauss-Legendre angular panel at a time (its
    ``_GL_X.size`` directions times every radial node), ``wd`` the weight
    times the density, so that the integral of ``f`` is ``sigma_N(N-1)``
    times the sum over panels of ``sum(wd * f(z, r))``.  No more than one
    panel is held at once.
    """
    pw = (N - 3) / 2.0

    u_edges = [-1.0, 1.0]
    if zhi is not None and abs(zhi) < R:
        u_edges.append((zhi - t) / math.sqrt((zhi - t) ** 2 + R * R - zhi * zhi))
    if zlo is not None and abs(zlo) < R:
        u_edges.append((zlo - t) / math.sqrt((zlo - t) ** 2 + R * R - zlo * zlo))
    u_edges = sorted(set(u_edges))

    for a, b in zip(u_edges[:-1], u_edges[1:]):
        npan = max(1, math.ceil(_N_U * refine * (b - a) / 2.0))
        u, wu = _panel_nodes(np.linspace(a, b, npan + 1))

        rmax = -t * u + np.sqrt(t * t * u * u + R * R - t * t)
        if zhi is not None:
            pos = u > 0
            rmax = np.where(pos, np.minimum(rmax, (zhi - t) / np.where(pos, u, 1.0)),
                            rmax)
        if zlo is not None:
            neg = u < 0
            rmax = np.where(neg, np.minimum(rmax, (zlo - t) / np.where(neg, u, 1.0)),
                            rmax)
        top = float(np.max(rmax))
        if top <= 0.0:
            continue

        sig = _geometric_breaks(min(core_scale / 8.0 / top, 1.0), refine)
        s_nodes, s_w = _panel_nodes(sig)
        s_w = s_w * s_nodes ** (N - 1)

        # rho = rmax(u) * s, so the coordinates and the weight times the
        # density are outer products of an angular and a radial factor.
        sin = np.sqrt(np.maximum(1.0 - u * u, 0.0))
        angular = (rmax * u, rmax * sin, wu * rmax ** N * (1.0 - u * u) ** pw)
        for zu, ru, wa in zip(*(f.reshape(npan, _GL_X.size) for f in angular)):
            yield (t + np.outer(zu, s_nodes).ravel(),
                   np.outer(ru, s_nodes).ravel(), np.outer(wa, s_w).ravel())


def _slab_fields(fam: ProjectedBubbleExact, signs: np.ndarray, refine: int):
    """Per angular panel of :func:`_section_nodes` over each slab, the fields
    that all three quadratures need.

    The slab about center ``i`` of the family ``fam`` is cut midway to its
    neighbours, so the slabs partition the ball and each holds exactly one
    core (for a single bubble the slab is the whole ball).  Yields ``(z, r,
    wd, us, ws, pus, src, v)``: the panel's nodes and weights; every
    ``U_j``, ``w_j``, ``PU_j = U_j - w_j`` and ``U_j^{2*-1}`` on them as the
    rows of four (k, n) arrays, from one :meth:`ProjectedBubbleExact.fields`
    call; and ``V = sum_i a_i PU_i``.  ``-ΔV = signs @ src``.  The arrays
    are fresh per panel, so a consumer may overwrite them.  ``refine`` must
    be a positive integer (ParameterError before any node is built).
    """
    if not isinstance(refine, (int, np.integer)) or refine < 1:
        raise ParameterError(
            f"refine must be a positive integer, got {refine!r}")
    ts = fam.t[:, 0].tolist()
    cuts = [None] + [0.5 * (a + b) for a, b in zip(ts, ts[1:])] + [None]
    for t, m, zlo, zhi in zip(ts, fam.m[:, 0].tolist(), cuts, cuts[1:]):
        for z, r, wd in _section_nodes(fam.N, fam.R, t, m, zlo, zhi, refine):
            us, ws, src = fam.fields(z, r)
            pus = us - ws
            yield z, r, wd, us, ws, pus, src, signs @ pus


def energy_quadrature(domain: BallDomain, cfg: Configuration,
                      table: ConstantsTable, eps: float, *,
                      refine: int = 1) -> tuple[float, dict]:
    """Energy ``(1/2)∫|∇V|^2 - (1/(2*-eps))∫|V|^{2*-eps}`` of the ansatz.

    The gradient term is assembled from the pairwise integrals
    ``K_ij = ∫ U_i^{2*-1} PU_j`` (exact identity; harmonic corrections drop
    out of the cross terms).  Both terms are accumulated in one pass over
    the panels of :func:`_slab_fields`, the node family of
    :func:`residual_quadrature` and :func:`energy_gradient_quadrature`: the
    slabs are cut at the midpoints between consecutive centers, so each
    resolves exactly one core.  Returns ``(value, info)`` with ``info``
    carrying the K-matrix asymmetry (an a-posteriori accuracy check: the
    matrix is symmetric analytically) and the two raw terms.
    """
    fam = projected_bubbles_of_config(domain, cfg, table, eps)
    ang = sigma_N(domain.N - 1)
    signs = np.asarray(cfg.signs, dtype=float)
    p_nl = two_star(domain.N) - eps

    K = np.zeros((cfg.k, cfg.k))
    nonlin = 0.0
    for _, _, wd, _, _, pus, src, v in _slab_fields(fam, signs, refine):
        src *= wd
        K += src @ pus.T
        nonlin += float(wd @ np.abs(v) ** p_nl)
    K *= ang
    nonlin *= ang
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
    holding exactly.  The tangents are closed forms, all k rows from one
    :meth:`ProjectedBubbleExact.pu_tangents` call of the family per panel,
    and ``∂m/∂Lambda = 2m/((N-2) Lambda)`` is read off the family's ``m``
    column (:func:`lambda_of_Lambda_quadratic`); the pairing runs on the
    panels of :func:`_slab_fields`, as the energy does.

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

    pair = np.zeros((2, cfg.k))
    for z, r, wd, us, ws, _, src, v in _slab_fields(fam, signs, refine):
        res = wd * (signs @ src - np.abs(v) ** p_nl * v)
        d_m, d_t = fam.pu_tangents(z, r, us, ws)
        pair += (d_m @ res, d_t @ res)
    pair[0] *= 2.0 * fam.m[:, 0] / ((N - 2.0) * np.asarray(cfg.Lambda))
    return sigma_N(N - 1) * np.concatenate(signs * pair)


def residual_quadrature(domain: BallDomain, cfg: Configuration,
                        table: ConstantsTable, eps: float, *,
                        refine: int = 1) -> float:
    """Relative L^2 norm of ``-ΔV - |V|^{2*-2-eps} V`` by spherical panels.

    ``-ΔV = sum_i a_i U_i^{2*-1}`` holds exactly (the harmonic corrections
    have zero Laplacian), so the residual is an explicit function evaluable
    at any core width.  The norm is divided by ``||ΔV||_{L^2}``, which
    removes the core-width divergence of the absolute norm and makes values
    comparable across eps.
    """
    fam = projected_bubbles_of_config(domain, cfg, table, eps)
    ts = two_star(domain.N)
    signs = np.asarray(cfg.signs, dtype=float)

    num = 0.0
    den = 0.0
    for _, _, wd, _, _, _, src, v in _slab_fields(fam, signs, refine):
        lap = signs @ src
        num += float(np.sum(wd * (lap - np.abs(v) ** (ts - 2.0 - eps) * v) ** 2))
        den += float(np.sum(wd * lap * lap))
    ang = sigma_N(domain.N - 1)
    num = math.sqrt(max(ang * num, 0.0))
    return num / math.sqrt(max(ang * den, 1e-300))


def expansion_gap(cfg: Configuration, eps_list, table: ConstantsTable,
                  domain: BallDomain | None = None) -> dict:
    """Deviation of the computed energy from its first-order expansion.

    For each ``eps`` (the list must be strictly decreasing) computes

        gap(eps) = (I_eps(V) - k E_N + (k/2) omega eps log eps
                    + k gamma eps) / (omega eps) - Psi_k(cfg),

    where ``E_N`` is the single-bubble energy limit and ``I_eps(V)`` comes
    from :func:`energy_quadrature`.  The remainder theory predicts
    ``gap = o(1)``; empirically it decays like ``eps log^2(eps)``.  Each row
    carries the gap at two quadrature refinements; their difference
    separates quadrature error from the genuine remainder.  ``domain``
    defaults to the unit ball.
    """
    if domain is None:
        domain = BallDomain.unit(table.N)
    eps_arr = [float(e) for e in eps_list]
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
    """Orthonormal DST-I along the last axis (its own inverse), by one FFT."""
    n = x.shape[-1]
    y = np.zeros(x.shape[:-1] + (2 * n + 2,))
    y[..., 1:n + 1] = x
    y[..., n + 2:] = -x[..., ::-1]
    return np.fft.rfft(y)[..., 1:n + 1].imag * (-1.0 / math.sqrt(2.0 * n + 2.0))


def _capacitance(gj: np.ndarray, S: np.ndarray, diag: np.ndarray,
                 ratios: np.ndarray) -> np.ndarray:
    """``C[a, b] = sum_k S[a, k] S[b, k] G_k[j_a, j_b]`` over the columns
    (sine modes) of ``S``, for nodes sorted by their radial index ``gj``.

    ``G_k`` is the semiseparable inverse of :meth:`AxisymGrid._factor`:
    ``diag`` its diagonal and ``ratios`` the factors ``b_j/p_j``, one column
    per mode of ``S``.  One GEMM per block of nodes; each block divides by
    the products of ratios from its own first column, and a block ends
    before they pass ``e^200``.
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
    return np.triu(C) + np.triu(C, 1).T


@dataclass(frozen=True)
class _GridFactor:
    """What :meth:`AxisymGrid._factor` stores: per sine mode (columns) and
    radial node (rows) the reciprocal pivots and the ratios ``b_j/p_j``;
    the flat rectangle indices of the half of ``Γ`` below the center and
    of their mirror images; and the inverses of the two mirror blocks of
    ``C``."""

    inv_pivots: np.ndarray
    ratios: np.ndarray
    half: np.ndarray
    mirror: np.ndarray
    even_inv: np.ndarray
    odd_inv: np.ndarray

    # perfbench/layers.py (GridWatch) reads L.nnz + U.nnz as the factor size.
    @property
    def L(self):
        return SimpleNamespace(nnz=self.even_inv.size + self.odd_inv.size)

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
        if nz < 5 or nr < 5:
            raise ParameterError(f"grid too small: nz={nz}, nr={nr}")
        self.domain = domain
        self.nz = int(nz)
        self.nr = int(nr)
        R = domain.radius
        zc = float(domain.center[0])
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
        the set-up stores about 0.33M numbers).  Each is built by
        :func:`_capacitance`, checked finite and positive definite, and
        inverted once (see :meth:`_solve`).
        """
        if self._lu is not None:
            return
        nz2, nr1 = self.nz - 2, self.nr - 1
        n = nz2 + 1
        modes = np.arange(1, n)
        lam = 4.0 * np.sin(0.5 * np.pi * modes / n) ** 2
        a = np.outer(self.coeff_axial[:nr1], lam)      # (nr1, nz2)
        b = self.coeff_radial[:, None]                 # b[-1]: the rim face
        g = np.zeros_like(a)
        h = np.zeros_like(a)
        h[-1] = b[-1]
        for j in range(nr1 - 1):
            e = a[j] + g[j]
            g[j + 1] = b[j] * e / (e + b[j])
            f = a[-1 - j] + h[-1 - j]
            h[-2 - j] = b[-2 - j] * f / (f + b[-2 - j])
        pivots = a + g + b
        ratios = b / pivots
        diag = 1.0 / (a + g + h)
        del a, g, h

        gam = self.boundary[1:-1, :-1]
        if not np.array_equal(gam, gam[::-1]) or (nz2 % 2
                                                  and gam[nz2 // 2].any()):
            raise SolverDivergenceError(
                "staircase boundary not mirror-paired: a node has no mirror "
                "image or lies on the center row")
        gj, gi = np.nonzero(gam[:nz2 // 2].T)   # the half below, sorted by j
        inverses = []
        for parity in (0, 1):                   # modes 1, 3, ... then 2, 4, ...
            # sqrt(2) times the orthonormal sine, so S S^T carries the 2;
            # exact integer reduction of the sine arguments.
            k = modes[parity::2]
            S = (2.0 / math.sqrt(n)) * np.sin(
                (np.pi / n) * (np.outer(gi + 1, k) % (2 * n)))
            C = _capacitance(gj, S, diag[:, parity::2], ratios[:, parity::2])
            if not np.all(np.isfinite(C)):
                raise SolverDivergenceError("non-finite capacitance matrix")
            try:
                np.linalg.cholesky(C)
            except np.linalg.LinAlgError:
                raise SolverDivergenceError(
                    "capacitance matrix is not positive definite") from None
            inverses.append(np.linalg.inv(C))
        self._lu = _GridFactor(1.0 / pivots, ratios, gj * nz2 + gi,
                               gj * nz2 + (nz2 - 1 - gi), *inverses)

    def _rect_solve(self, f: np.ndarray) -> np.ndarray:
        """``A_rect^{-1} f`` for ``f`` of shape (nr-1, nz-2), r by z."""
        inv_p, ratios = self._lu.inv_pivots, self._lu.ratios
        y = _dst1(f)
        for j in range(1, len(y)):
            y[j] += ratios[j - 1] * y[j - 1]
        y[-1] *= inv_p[-1]
        for j in range(len(y) - 2, -1, -1):
            y[j] = y[j] * inv_p[j] + ratios[j] * y[j + 1]
        return _dst1(y)

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` over the interior nodes.

        The rectangle solution of ``rhs`` plus sources ``beta`` on ``Γ``
        solves the interior system exactly when it vanishes on ``Γ``; that
        fixes ``beta = -C^{-1} u_Γ`` for ``u`` the rectangle solution of
        ``rhs`` alone.  By the mirror split of :meth:`_factor`, with ``s =
        E^{-1}(u_a + u_Ma)`` and ``d = O^{-1}(u_a - u_Ma)``, that is
        ``beta_a = -(s + d)/2`` and ``beta_Ma = -(s - d)/2``.
        """
        self._factor()
        fac = self._lu
        x = np.zeros((self.nz, self.nr))
        x[self.interior] = rhs
        f = np.ascontiguousarray(x[1:-1, :-1].T)
        u = self._rect_solve(f).ravel()
        u_a, u_ma = u[fac.half], u[fac.mirror]
        s = fac.even_inv @ (u_a + u_ma)
        d = fac.odd_inv @ (u_a - u_ma)
        f.flat[fac.half] = -0.5 * (s + d)
        f.flat[fac.mirror] = -0.5 * (s - d)
        x[1:-1, :-1] = self._rect_solve(f).T
        x[~self.interior] = 0.0
        res = np.linalg.norm(self._flux(x)[self.interior] - rhs)
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


@dataclass
class Field:
    """Node values over an :class:`AxisymGrid` (finite everywhere).

    Dirichlet solutions are zero on boundary nodes and outside the ball;
    general fields may carry data on boundary nodes.
    """

    grid: AxisymGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.nz, self.grid.nr):
            raise ParameterError(
                f"field shape {v.shape} does not match grid "
                f"({self.grid.nz}, {self.grid.nr})")
        if not np.all(np.isfinite(v)):
            raise ParameterError("field contains non-finite values")
        self.values = v


def _solve_field(grid: AxisymGrid, rhs: np.ndarray | None,
                 boundary_data: Field | None) -> Field:
    """Solve ``A x = rhs + lift(boundary_data)`` (either may be None for
    zero); the data is kept on boundary nodes and the field is zero outside."""
    out = np.zeros((grid.nz, grid.nr))
    if boundary_data is not None:
        out[grid.boundary] = boundary_data.values[grid.boundary]
        # The stencil applied to the boundary data alone, moved to the right.
        lift = -grid._flux(out)[grid.interior]
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
    rhs = source.values[grid.interior] * grid.cell_volumes[grid.interior]
    return _solve_field(grid, rhs, boundary_data)


def _require_axis_center(p: BubbleParams, grid: AxisymGrid) -> float:
    """The bubble's axis offset from the center; it must lie on the axis."""
    if p.N != grid.domain.N:
        raise ParameterError(
            f"bubble of dimension {p.N} on a grid of dimension {grid.domain.N}")
    offset = p.xi[1:] - grid.domain.center[1:]
    if np.max(np.abs(offset)) > 1e-12 * max(grid.domain.radius, 1.0):
        raise ParameterError(
            "bubble center must lie on the symmetry axis for the "
            f"half-section grid; got transverse offset {offset}")
    return float(p.xi[0] - grid.domain.center[0])


def _check_boundary_margin(grid: AxisymGrid, t: float) -> None:
    dist = grid.domain.radius - abs(t)
    need = 4.0 * grid.h_max
    if dist < need:
        R = grid.domain.radius
        raise ResolutionError(
            f"bubble center within {dist:.3e} of the boundary; needs 4 cells "
            f"({need:.3e})",
            required_nz=int(math.ceil(8.0 * R / max(dist, 1e-300))) + 1,
            required_nr=int(math.ceil(4.0 * R / max(dist, 1e-300))) + 1)


def require_core_resolution(grid: AxisymGrid, m: float) -> None:
    """Raise :class:`ResolutionError` when core width ``m`` spans < 6 cells.

    The error names the smallest grid (``required_nz`` x ``required_nr``)
    that resolves the core.
    """
    if m < 6.0 * grid.h_max:
        R = grid.domain.radius
        need_nz = int(math.ceil(12.0 * R / m)) + 1
        need_nr = int(math.ceil(6.0 * R / m)) + 1
        raise ResolutionError(
            f"core width {m:.3e} spans fewer than 6 cells "
            f"(h={grid.h_max:.3e}); need at least a {need_nz}x{need_nr} grid",
            required_nz=need_nz, required_nr=need_nr)


def _project(grid: AxisymGrid, signs, fam: ProjectedBubbleExact) -> Field:
    """``sum_i a_i U_i`` over the family ``fam`` (one row per bubble, as
    :func:`projected_bubbles_of_config` builds it) minus the harmonic
    extension of its trace, zero outside the interior."""
    trace = np.asarray(signs, dtype=float) @ fam.u(
        (grid.z_nodes - float(grid.domain.center[0])).ravel(),
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
    if (domain.N, domain.radius, *domain.center) != (g.N, g.radius, *g.center):
        raise ParameterError("domain does not match the grid's domain")
    t = _require_axis_center(p, grid)
    _check_boundary_margin(grid, t)
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
    for t in fam.t[:, 0]:
        _check_boundary_margin(grid, t)
    return _project(grid, cfg.signs, fam)


def residual_norm(V: Field, eps: float, *, relative: bool = False) -> float:
    """Discrete L^2 norm of ``-Δ_num V - |V|^{2*-2-eps} V`` over the interior.

    Axisymmetric volume weights; with ``relative=True`` the norm is divided
    by the same norm of the nonlinear term alone, making values comparable
    across eps (the absolute norm scales like an inverse core width).
    """
    if not (eps > 0):
        raise ParameterError(f"eps must be positive, got {eps}")
    grid = V.grid
    mask = grid.interior
    vol = grid.cell_volumes[mask]
    lap = grid.minus_laplacian(V.values)[mask]
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
    if not (eps > 0):
        raise ParameterError(f"eps must be positive, got {eps}")
    grid = u.grid
    v = u.values
    grad = float(np.vdot(v, grid._flux(v)))
    p = two_star(grid.domain.N) - eps
    mask = grid.interior
    nonlin = float(np.sum(grid.cell_volumes[mask] * np.abs(v[mask]) ** p))
    return 0.5 * grad - nonlin / p
