"""Verification harness for signed sums of projected bubbles on a ball.

Everything here serves one question: does the computed energy of the
projected multi-bubble ansatz match the reduced-energy expansion, and does
the ansatz nearly solve the slightly subcritical equation?  Two independent
instruments are provided.

Grid instrument
    An axisymmetric finite-volume discretization of the ball on its
    ``(z, r)`` half-section (``z`` along the symmetry axis through the bubble
    centers, ``r`` the transverse radius).  It solves the Dirichlet Laplace
    problem behind the projection ``P U = U - (harmonic extension of U's
    boundary trace)``, assembles ``V = sum_i a_i P U_i``, and evaluates
    discrete residuals and energies.  The discrete operator uses exact
    finite-volume face areas (including the ``r = 0`` axis cells), giving a
    symmetric, diagonally dominant M-matrix.  It is solved exactly, in numpy
    alone, by the capacitance-matrix method (Buzbee, Dorr, George & Golub,
    SIAM J. Numer. Anal. 8, 1971): the operator is separable on the
    enclosing rectangle, where a sine transform in ``z`` and one tridiagonal
    sweep per mode solve it, and the staircase boundary enters through the
    inverse of a dense capacitance matrix over its 636 nodes (on the default
    513 x 257 grid).  The set-up is cached per grid.

Quadrature instrument
    On a ball the harmonic correction of an axis-centered bubble is known in
    closed form (a Kelvin image of the bubble, see
    :class:`ProjectedBubbleExact`), so ``V`` is evaluable pointwise to
    machine precision at any core width -- far below what any grid can
    resolve.  Energies then reduce to integrals of explicit functions,
    computed with spherical panels about each bubble center: Gauss-Legendre
    nodes on geometrically graded radial panels (resolving the core scale)
    times angular panels split at the slab/ball switch directions.  One node
    set is built per center and region (the full ball, or the slab holding
    that center's core), and every integrand about that center is evaluated
    on it.  The gradient term uses the exact identity
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

from .bubble_core import (
    BubbleParams,
    ConstantsTable,
    alpha_N,
    bubble_profile,
    lambda_of_Lambda_quadratic,
    sigma_N,
    single_bubble_energy_limit,
    two_star,
)
from .errors import (
    DomainError,
    ParameterError,
    ResolutionError,
    SolverDivergenceError,
)
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
    """

    N: int
    R: float
    m: float
    t: float

    def __post_init__(self):
        if self.N < 3:
            raise ParameterError(f"dimension N must be >= 3, got {self.N}")
        if not (self.R > 0):
            raise ParameterError(f"radius must be positive, got {self.R}")
        if not (self.m > 0):
            raise ParameterError(f"core width must be positive, got {self.m}")
        if not (abs(self.t) < self.R):
            raise DomainError(
                f"bubble center offset {self.t} not inside ball of radius {self.R}")

    @property
    def _coeffs(self) -> tuple[float, float]:
        m2 = self.m * self.m
        s = m2 + self.R * self.R + self.t * self.t
        disc = (m2 + (self.R - self.t) ** 2) * (m2 + (self.R + self.t) ** 2)
        # np.sqrt, not math.sqrt: the same bits for floats, and it also takes
        # a complex step in m or t.
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
        root = math.sqrt((m * m + (R - t) ** 2) * (m * m + (R + t) ** 2))
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
        q = c * (z * z + r * r) - 2.0 * self.t * z + q0
        h = (self.N - 2) / 2.0
        return alpha_N(self.N) * (self.m / q) ** h

    def pu(self, z, r):
        """The projection ``u - w``; zero on the sphere, positive inside."""
        return self.u(z, r) - self.w(z, r)


def projected_bubbles_of_config(
        domain: BallDomain, cfg: Configuration, table: ConstantsTable,
        eps: float) -> list[ProjectedBubbleExact]:
    """Exact projected bubbles for a reduced-energy configuration.

    Scales follow ``lam_i = (c_N Lambda_i^2)^{1/(N-2)}``,
    ``m_i = lam_i eps^{1/(N-2)}`` (see
    :func:`nodalbubbles.bubble_core.lambda_of_Lambda_quadratic`); axis
    positions are taken relative to the ball center.
    """
    if not (eps > 0):
        raise ParameterError(f"eps must be positive, got {eps}")
    N = domain.N
    if N != table.N:
        raise ParameterError(
            f"dimension mismatch: domain N={N}, table N={table.N}")
    zc = float(domain.center[0])
    out = []
    for Lam, t in zip(cfg.Lambda, cfg.t):
        lam = lambda_of_Lambda_quadratic(float(Lam), table)
        m = lam * eps ** (1.0 / (N - 2.0))
        tc = float(t) - zc
        if not (abs(tc) < domain.radius):
            raise DomainError(
                f"configuration point t={t} lies outside the ball section")
        out.append(ProjectedBubbleExact(N=N, R=domain.radius, m=m, t=tc))
    return out


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
                   zlo: float | None = None, zhi: float | None = None,
                   refine: int = 1):
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

    Returns flattened ``(z, r, wd)`` with ``wd`` the weight times the
    density, so that the integral of ``f`` is
    ``sigma_N(N-1) * sum(wd * f(z, r))``.  Every integrand about one center
    is evaluated on the same nodes.
    """
    pw = (N - 3) / 2.0

    u_edges = [-1.0, 1.0]
    if zhi is not None and abs(zhi) < R:
        u_edges.append((zhi - t) / math.sqrt((zhi - t) ** 2 + R * R - zhi * zhi))
    if zlo is not None and abs(zlo) < R:
        u_edges.append((zlo - t) / math.sqrt((zlo - t) ** 2 + R * R - zlo * zlo))
    u_edges = sorted(set(u_edges))

    zs, rs, wds = [], [], []
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

        # rho = rmax(u) * s, so the coordinates and the weight times the
        # density are outer products of an angular and a radial factor.
        sin = np.sqrt(np.maximum(1.0 - u * u, 0.0))
        zs.append((t + np.outer(rmax * u, s_nodes)).ravel())
        rs.append(np.outer(rmax * sin, s_nodes).ravel())
        wds.append(np.outer(wu * rmax ** N * (1.0 - u * u) ** pw,
                            s_w * s_nodes ** (N - 1)).ravel())
    return np.concatenate(zs), np.concatenate(rs), np.concatenate(wds)


def _slab_nodes(bubbles: list, i: int, refine: int):
    """Nodes of the slab about bubble ``i``, cut midway to its neighbours.

    The slabs partition the ball so that each holds exactly one core.
    """
    b = bubbles[i]
    zlo = 0.5 * (bubbles[i - 1].t + b.t) if i > 0 else None
    zhi = 0.5 * (b.t + bubbles[i + 1].t) if i < len(bubbles) - 1 else None
    return _section_nodes(b.N, b.R, b.t, b.m, zlo=zlo, zhi=zhi,
                          refine=refine)


def energy_quadrature(domain: BallDomain, cfg: Configuration,
                      table: ConstantsTable, eps: float, *,
                      refine: int = 1) -> tuple[float, dict]:
    """Energy ``(1/2)∫|∇V|^2 - (1/(2*-eps))∫|V|^{2*-eps}`` of the ansatz.

    The gradient term is assembled from the pairwise integrals
    ``K_ij = ∫ U_i^{2*-1} PU_j`` (exact identity; harmonic corrections drop
    out of the cross terms).  Row ``i`` of ``K`` is computed on one node set
    of spherical panels about center ``i``, where ``U_i^{2*-1}`` is
    evaluated once and paired with every ``PU_j``.  The nonlinear term is
    split into slabs at the midpoints between consecutive centers so each
    slab contains exactly one core.  Returns ``(value, info)`` with ``info``
    carrying the K-matrix asymmetry (an a-posteriori accuracy check: the
    matrix is symmetric analytically) and the two raw terms.
    """
    bubbles = projected_bubbles_of_config(domain, cfg, table, eps)
    k = cfg.k
    N = domain.N
    R = domain.radius
    ang = sigma_N(N - 1)
    ts = two_star(N)
    p_grad = ts - 1.0
    signs = np.asarray(cfg.signs, dtype=float)

    K = np.zeros((k, k))
    for i, bi in enumerate(bubbles):
        z, r, wd = _section_nodes(N, R, bi.t, bi.m, refine=refine)
        ui = bi.u(z, r)
        wu = wd * ui ** p_grad
        for j, bj in enumerate(bubbles):
            puj = ui - bi.w(z, r) if j == i else bj.pu(z, r)
            K[i, j] = ang * float(np.sum(wu * puj))
    sym_defect = float(np.max(np.abs(K - K.T)) / np.max(np.abs(K)))
    Ks = 0.5 * (K + K.T)
    grad_sq = float(signs @ Ks @ signs)

    p_nl = ts - eps
    nonlin = 0.0
    for i in range(k):
        z, r, wd = _slab_nodes(bubbles, i, refine)
        v = sum(s * b.pu(z, r) for s, b in zip(signs, bubbles))
        nonlin += ang * float(np.sum(wd * np.abs(v) ** p_nl))

    value = 0.5 * grad_sq - nonlin / p_nl
    info = {"K_sym_defect": sym_defect, "grad_sq": grad_sq,
            "nonlinear": nonlin}
    return value, info


def _slab_fields(bubbles: list, signs: np.ndarray, refine: int):
    """Per slab of :func:`_slab_nodes`, the fields the residual pairs need.

    Yields ``(z, r, wd, us, ws, lap, v)``: the nodes and weights, every
    ``U_j`` and ``w_j`` on them, ``-ΔV = sum_i a_i U_i^{2*-1}`` and
    ``V = sum_i a_i (U_i - w_i)``.
    """
    p1 = two_star(bubbles[0].N) - 1.0
    for i in range(len(bubbles)):
        z, r, wd = _slab_nodes(bubbles, i, refine)
        us, ws = [], []
        lap = v = 0.0
        for s, b in zip(signs, bubbles):
            u = b.u(z, r)
            w = b.w(z, r)
            us.append(u)
            ws.append(w)
            lap = lap + s * u ** p1
            v = v + s * (u - w)
        yield z, r, wd, us, ws, lap, v


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
    holding exactly.  The tangents are closed forms
    (:meth:`ProjectedBubbleExact.pu_tangents`) and ``∂m/∂Lambda =
    2m/((N-2) Lambda)`` (:func:`lambda_of_Lambda_quadratic`); the pairing
    runs on the slab nodes of :func:`residual_quadrature`.

    Returns the 2k-vector (∂/∂Lambda_1..k, ∂/∂t_1..k).  It is the residual of
    ``V`` paired against the configuration tangents, so it measures how close
    the ansatz is to a critical point *within its own family* --
    near-criticality that a plain residual norm cannot see because of the
    configuration-independent O(eps) mismatch of every projected bubble.
    """
    bubbles = projected_bubbles_of_config(domain, cfg, table, eps)
    N = domain.N
    k = cfg.k
    signs = np.asarray(cfg.signs, dtype=float)
    p_nl = two_star(N) - 2.0 - eps

    pair = np.zeros((2, k))
    for z, r, wd, us, ws, lap, v in _slab_fields(bubbles, signs, refine):
        res = wd * (lap - np.abs(v) ** p_nl * v)
        for j, b in enumerate(bubbles):
            d_m, d_t = b.pu_tangents(z, r, us[j], ws[j])
            pair[0, j] += float(res @ d_m)
            pair[1, j] += float(res @ d_t)
    dm_dLam = np.array([2.0 * b.m / ((N - 2.0) * L)
                        for b, L in zip(bubbles, cfg.Lambda)])
    pair[0] *= dm_dLam
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
    bubbles = projected_bubbles_of_config(domain, cfg, table, eps)
    ts = two_star(domain.N)
    signs = np.asarray(cfg.signs, dtype=float)

    num = 0.0
    den = 0.0
    for z, r, wd, _, _, lap, v in _slab_fields(bubbles, signs, refine):
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


@dataclass(frozen=True)
class _GridFactor:
    """What :meth:`AxisymGrid._factor` stores: per sine mode (columns) and
    radial node (rows) the reciprocal pivots and the ratios ``b_j/p_j``,
    the flat rectangle indices of ``Γ`` and ``C^{-1}``."""

    inv_pivots: np.ndarray
    ratios: np.ndarray
    gamma: np.ndarray
    cap_inv: np.ndarray

    # perfbench/layers.py (GridWatch) reads L.nnz + U.nnz as the factor size.
    @property
    def L(self):
        return SimpleNamespace(nnz=self.cap_inv.size)

    @property
    def U(self):
        return SimpleNamespace(nnz=self.inv_pivots.size)


class AxisymGrid:
    """Finite-volume grid on the (z, r) half-section of a three-dimensional ball.

    Nodes sit at ``z_i = z_c - R + i hz`` (0 <= i < nz) and ``r_j = j hr``
    (0 <= j < nr) with ``hz = 2R/(nz-1)``, ``hr = R/(nr-1)``.  A node is
    *interior* when strictly inside the ball and off the frame (the first
    and last rows and the last column); a *boundary* node is a
    non-interior node with an interior 4-neighbor, and carries Dirichlet
    data (staircase boundary: data comes from globally defined traces, so
    the scheme retains second order against smooth exact solutions).

    The discrete Laplacian is the finite-volume balance over the cell
    ``[z - hz/2, z + hz/2] x [r - hr/2, r + hr/2]`` revolved about the
    axis: axial faces have area ``2 pi r_j hr`` (``pi hr^2/4`` for the axis
    cells), radial faces ``2 pi r_{j+1/2} hz``, volumes ``2 pi r_j hr hz``
    (``pi hr^2 hz / 4`` on the axis).  The axis itself needs no condition:
    the inner radial face has zero area.  The resulting system is symmetric
    positive definite.  It is solved directly by the capacitance-matrix
    method on the enclosing rectangle (see :meth:`_factor`), set up once per
    grid on the first solve and reused.
    """

    def __init__(self, domain: BallDomain, nz: int = 513, nr: int = 257):
        if domain.N != 3:
            raise ParameterError(
                "the half-section reduction is specific to N=3; "
                f"got domain with N={domain.N}")
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

        Z, Rr = np.meshgrid(self.zs, self.rs, indexing="ij")
        self.z_nodes = Z
        self.r_nodes = Rr
        # Offsets from the center written symmetrically, not as Z - zc, whose
        # rounding can admit a node of the frame; the frame rows and the
        # last column stay outside in any case.
        dz = self.hz * (np.arange(self.nz) - 0.5 * (self.nz - 1))
        self.interior = dz[:, None] ** 2 + Rr ** 2 < R * R
        self.interior[[0, -1], :] = False
        self.interior[:, -1] = False

        nb = np.zeros_like(self.interior)
        nb[1:, :] |= self.interior[:-1, :]
        nb[:-1, :] |= self.interior[1:, :]
        nb[:, 1:] |= self.interior[:, :-1]
        nb[:, :-1] |= self.interior[:, 1:]
        self.boundary = (~self.interior) & nb

        self.n_interior = int(np.count_nonzero(self.interior))

        j = np.arange(self.nr)
        self.volumes = 2.0 * math.pi * self.rs * self.hr * self.hz
        self.volumes[0] = math.pi * self.hr ** 2 * self.hz / 4.0
        # The same volumes over the whole (nz, nr) node array.
        self.cell_volumes = np.broadcast_to(self.volumes, (self.nz, self.nr))
        self.coeff_axial = 2.0 * math.pi * self.rs * self.hr / self.hz
        self.coeff_axial[0] = math.pi * self.hr ** 2 / (4.0 * self.hz)
        # radial face between columns j and j+1
        self.coeff_radial = 2.0 * math.pi * (j[:-1] + 0.5) * self.hz

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
        ``C = (A_rect^{-1})_ΓΓ``, which is symmetric positive definite and
        inverted once (see :meth:`_solve`).

        With ``b_j`` the radial face coefficients and ``a_j = lam_k
        coeff_axial[j]``, the pivots of ``T_k`` from the axis are
        ``p_j = a_j + g_j + b_j`` and those from the rim ``a_j + h_j +
        b_{j-1}``, where ``g_0 = 0``, ``g_{j+1} = b_j (a_j + g_j)/p_j`` and
        ``h_last = b_last``, ``h_{j-1} = b_{j-1}(a_j + h_j)/(a_j + h_j +
        b_{j-1})``; every term is positive, so nothing cancels.  The inverse
        is semiseparable: ``G_k[j, j] = 1/(a_j + g_j + h_j)`` and, for
        ``j <= j'``, ``G_k[j, j'] = G_k[j', j'] prod_{l=j}^{j'-1} b_l/p_l``.
        ``C`` is then one GEMM per block of ``Γ`` sorted by ``j``; each
        block divides by the products from its own first column, and a
        block ends before they pass ``e^200``.
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

        gj, gi = np.nonzero(self.boundary[1:-1, :-1].T)   # sorted by j
        # Exact integer reduction of the sine arguments.
        S = math.sqrt(2.0 / n) * np.sin(
            (np.pi / n) * (np.outer(gi + 1, modes) % (2 * n)))
        Y0 = S * diag[gj]
        worst = np.log(np.max(pivots / b, axis=1))
        block = np.concatenate(([0.0], np.cumsum(worst)))[gj] // 200.0
        starts = np.flatnonzero(np.diff(block, prepend=-1.0))
        C = np.zeros((gj.size, gj.size))
        for s, stop in zip(starts, np.append(starts[1:], gj.size)):
            j0 = gj[s]
            span = np.ones((nr1 - j0, nz2))
            np.cumprod(ratios[j0:-1], axis=0, out=span[1:])
            X = S[s:stop] / span[gj[s:stop] - j0]
            C[s:stop, s:] = X @ (Y0[s:] * span[gj[s:] - j0]).T
        C = np.triu(C) + np.triu(C, 1).T
        if not np.all(np.isfinite(C)):
            raise SolverDivergenceError("non-finite capacitance matrix")
        try:
            np.linalg.cholesky(C)
        except np.linalg.LinAlgError:
            raise SolverDivergenceError(
                "capacitance matrix is not positive definite") from None
        self._lu = _GridFactor(1.0 / pivots, ratios, gj * nz2 + gi,
                               np.linalg.inv(C))

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
        ``rhs`` alone.
        """
        self._factor()
        gamma, cap_inv = self._lu.gamma, self._lu.cap_inv
        x = np.zeros((self.nz, self.nr))
        x[self.interior] = rhs
        f = np.ascontiguousarray(x[1:-1, :-1].T)
        f.flat[gamma] = -cap_inv @ self._rect_solve(f).flat[gamma]
        x[1:-1, :-1] = self._rect_solve(f).T
        x[~self.interior] = 0.0
        vol = self.cell_volumes[self.interior]
        res = np.linalg.norm(self.minus_laplacian(x)[self.interior] * vol - rhs)
        if not np.isfinite(res) or res > 1e-10 * (np.linalg.norm(rhs) + 1.0):
            raise SolverDivergenceError(
                f"grid solve residual {res:.3e} exceeds tolerance")
        return x[self.interior]

    def minus_laplacian(self, values: np.ndarray) -> np.ndarray:
        """Discrete ``-Δ`` (flux balance / volume) at interior nodes.

        ``values`` must be the full (nz, nr) array; entries outside
        interior ∪ boundary are treated as written (callers keep them 0).
        Returns a full array, zero outside the interior.
        """
        flux = np.zeros((self.nz, self.nr))
        ca = self.coeff_axial[None, :]
        d = values[1:, :] - values[:-1, :]
        flux[:-1, :] -= ca * d          # face (i, i+1) seen from i
        flux[1:, :] += ca * d           # and from i+1
        cr = self.coeff_radial[None, :]
        d = values[:, 1:] - values[:, :-1]
        flux[:, :-1] -= cr * d
        flux[:, 1:] += cr * d
        out = np.zeros_like(flux)
        out[self.interior] = flux[self.interior] / \
            self.cell_volumes[self.interior]
        return out


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
        lift = -(grid.minus_laplacian(out) * grid.cell_volumes)[grid.interior]
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
    xi = np.asarray(p.xi, dtype=float)
    if xi.size != 3:
        raise ParameterError("grid projection requires N=3 bubble parameters")
    if np.max(np.abs(xi[1:])) > 1e-12 * max(grid.domain.radius, 1.0):
        raise ParameterError(
            "bubble center must lie on the symmetry axis for the "
            f"half-section grid; got transverse offset {xi[1:]}")
    return float(xi[0])


def _check_boundary_margin(grid: AxisymGrid, t_abs: float) -> None:
    dist = grid.domain.radius - abs(t_abs - float(grid.domain.center[0]))
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


def _project(grid: AxisymGrid, signs, ms, t_abs) -> Field:
    """``sum_i a_i U_i`` (core widths ``ms``, axis centers ``t_abs``) minus
    the harmonic extension of its trace, zero outside the interior."""
    trace = np.zeros((grid.nz, grid.nr))
    for s, m, t in zip(signs, ms, t_abs):
        trace += s * bubble_profile(
            3, m, (grid.z_nodes - t) ** 2 + grid.r_nodes ** 2)
    w = solve_dirichlet_laplace(grid, Field(grid, trace))
    return Field(grid, np.where(grid.interior, trace - w.values, 0.0))


def project_bubble(domain: BallDomain, p: BubbleParams,
                   grid: AxisymGrid) -> Field:
    """Grid projection ``P U = U - (harmonic extension of U's trace)``.

    Exactly zero on boundary nodes by construction.  The bubble center must
    lie on the symmetry axis, at least 4 cells from the boundary.
    """
    if domain is not grid.domain and (domain.N != grid.domain.N
                                      or domain.radius != grid.domain.radius):
        raise ParameterError("domain does not match the grid's domain")
    t_abs = _require_axis_center(p, grid)
    _check_boundary_margin(grid, t_abs)
    return _project(grid, [1.0], [p.core_width], [t_abs])


def assemble_V(cfg: Configuration, eps: float, table: ConstantsTable,
               grid: AxisymGrid) -> Field:
    """Signed sum of grid-projected bubbles for a configuration.

    Scales follow the quadratic map ``lam_i = (c_N Lambda_i^2)^{1/(N-2)}``
    (the map under which the energy expansion holds; see module docstring).
    All harmonic corrections are obtained in a single combined solve.
    Raises :class:`ResolutionError` naming the required resolution when any
    core width spans fewer than 6 cells.
    """
    if not (eps > 0):
        raise ParameterError(f"eps must be positive, got {eps}")
    ms = [lambda_of_Lambda_quadratic(float(L), table, N=3) * eps
          for L in cfg.Lambda]
    t_abs = [float(t) for t in cfg.t]
    require_core_resolution(grid, min(ms))
    for t in t_abs:
        _check_boundary_margin(grid, t)
    return _project(grid, cfg.signs, ms, t_abs)


def residual_norm(V: Field, eps: float, *, relative: bool = False) -> float:
    """Discrete L^2 norm of ``-Δ_num V - |V|^{2*-2-eps} V`` over the interior.

    Axisymmetric volume weights; with ``relative=True`` the norm is divided
    by the same norm of the nonlinear term alone, making values comparable
    across eps (the absolute norm scales like an inverse core width).
    """
    if not (eps > 0):
        raise ParameterError(f"eps must be positive, got {eps}")
    grid = V.grid
    u = V.values
    lap = grid.minus_laplacian(u)
    nl = np.abs(u) ** (4.0 - eps) * u
    vol = grid.cell_volumes
    mask = grid.interior
    num = math.sqrt(float(np.sum(vol[mask] * (lap[mask] - nl[mask]) ** 2)))
    if not relative:
        return num
    den = math.sqrt(float(np.sum(vol[mask] * nl[mask] ** 2)))
    return num / max(den, 1e-300)


def energy_I(u: Field, eps: float) -> float:
    """Discrete energy ``(1/2)Σ faces - (1/(2*-eps))Σ volumes`` of a field.

    The gradient part sums ``coeff * (Δu across face)^2`` over all grid
    faces (fields vanish outside interior ∪ boundary, so faces beyond the
    ball contribute nothing); the nonlinear part uses the axisymmetric cell
    volumes over interior nodes.  Callers supply fields that vanish on
    boundary nodes.
    """
    if not (eps > 0):
        raise ParameterError(f"eps must be positive, got {eps}")
    grid = u.grid
    v = u.values
    d_ax = v[1:, :] - v[:-1, :]
    grad = float(np.sum(grid.coeff_axial[None, :] * d_ax ** 2))
    d_rad = v[:, 1:] - v[:, :-1]
    grad += float(np.sum(grid.coeff_radial[None, :] * d_rad ** 2))
    vol = grid.cell_volumes
    mask = grid.interior
    p = two_star(3) - eps
    nonlin = float(np.sum(vol[mask] * np.abs(v[mask]) ** p))
    return 0.5 * grad - nonlin / p
