"""Reduced finite-dimensional energies of multi-bubble configurations.

After projecting a sum of k signed bubbles onto a ball and integrating out
the remainder, the leading configuration dependence of the energy collapses
to a function of the dimensionless scalings Λ_i > 0 and the axis positions
t_1 < ... < t_k:

    Ψ_k(Λ, t) = ½ Σ_i Λ_i² h(t_i) − Σ_{i<j} a_i a_j Λ_i Λ_j g(t_i, t_j)
                − Σ_i log Λ_i,

where g and h, the axis Green and Robin functions, are read from an
:class:`~nodalbubbles.green_domain.AxisKernels` object, never from the ball
itself, and a_i ∈ {−1, +1} are the bubble signs.  The four-bubble
alternating pattern a = (1, −1, 1, −1) gives the sign-changing energy Ψ̃
whose saddle points the solver module hunts.  Dropping the signs yields
the all-attractive penalty

    Φ(Λ, t) = ½ Σ Λ_i² h(t_i) + Σ_{i<j} Λ_i Λ_j g(t_i, t_j) − Σ log Λ_i,

which dominates Ψ̃ (their difference is 2Λ_1Λ_3 g_13 + 2Λ_2Λ_4 g_24 > 0)
and is coercive, so its sublevel set {Φ < M} is a compact working set for
the saddle search.

Both are ½ ΛᵀAΛ − Σ log Λ_i with A_ii = h(t_i), A_ij = C_ij g(t_i, t_j) and
C_ij = −a_i a_j for Ψ_k, +1 for Φ; one private evaluator returns its value,
gradient and exact Hessian, and the public energies wrap it.

Besides the evaluators, the module provides:

* ``mu_embed`` — the three-parameter scaling family
  Λ(μ) = (μ_1/√μ, √μ, √μ, μ_4/√μ) with equal middle entries, inverted by
  ``scaling_products`` (products of adjacent scalings);
* ``find_t0_r0`` — a coarse-to-fine search for a base point t0 and spacing
  r0 such that the window [t0−4r0, t0+4r0] sits inside the chord and the
  near-diagonal dominance ½h(t) + ½h(s) ≤ g(t,s) holds throughout, which
  makes the equally spaced start t⁰ = (t0, t0+r0, t0+2r0, t0+3r0) usable;
* ``bounds_report`` — the a-priori bracket for the saddle level: an upper
  bound from the four attractive interactions at t⁰ and a lower bound
  −8 log⁺(2/√H_0) driven by the Robin minimum H_0 of the kernels.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import (ParameterError, SearchError, _require_array,
                     _require_broadcast, _require_int, _require_real,
                     _require_reals, _require_sequence)
# axis_g is bound here for perfbench's tracer test, which finds it rebound.
from .green_domain import AxisKernels, AxisSection, BallDomain, axis_g  # noqa

__all__ = [
    "ALTERNATING_SIGNS_4",
    "Configuration",
    "BoundsReport",
    "psi_k",
    "psi_tilde",
    "grad_psi_k",
    "grad_psi_tilde",
    "phi_penalty",
    "log_plus",
    "mu_embed",
    "scaling_products",
    "base_spacing_points",
    "spacing_margin",
    "find_t0_r0",
    "bounds_report",
]

ALTERNATING_SIGNS_4 = (1, -1, 1, -1)


@dataclass(frozen=True)
class Configuration:
    """A k-bubble configuration: signs, scalings and ordered axis positions.

    Attributes
    ----------
    k : int
        Number of bubbles, an integer >= 1.
    signs : tuple of int
        Bubble signs, each the integer −1 or +1.
    Lambda : tuple of float
        Dimensionless scalings, each a scale (positive finite real).
    t : tuple of float
        Axis positions, finite reals, strictly increasing.

    Integers are stored as ``int`` and reals as ``float``; each of signs,
    Lambda and t is a list, a tuple or a 1-D array of k entries (see
    :mod:`~nodalbubbles.errors`).

    Containment of the positions in a particular chord is a property of the
    kernels the configuration is evaluated against, not of the configuration
    itself; it is enforced at evaluation time.
    """

    k: int
    signs: tuple
    Lambda: tuple
    t: tuple

    def __post_init__(self):
        k = _require_int("k", self.k, 1)
        signs = tuple(_require_int(f"signs[{i}]", a, -1) for i, a in
                      enumerate(_require_sequence("signs", self.signs, k)))
        if any(a not in (-1, 1) for a in signs):
            raise ParameterError(f"signs must be ±1, got {signs}")
        lam = _require_reals("Lambda", self.Lambda, k)
        tt = _require_reals("t", self.t, k, positive=False)
        if any(tt[i] >= tt[i + 1] for i in range(k - 1)):
            raise ParameterError(
                f"t must be strictly increasing, got {tt}")
        for name, v in (("k", k), ("signs", signs), ("Lambda", lam), ("t", tt)):
            object.__setattr__(self, name, v)

    def to_json_dict(self) -> dict:
        """The fields in order, tuples as lists."""
        return {key: list(v) if isinstance(v, tuple) else v
                for key, v in asdict(self).items()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Configuration":
        """Inverse of :meth:`to_json_dict`: ``data`` is an object holding
        exactly the record's fields, which the record checks as it does for
        every caller (so true/false and strings are no numbers); a
        non-object or a missing or unknown key raises ParameterError."""
        if not isinstance(data, dict):
            raise ParameterError("configuration must be a JSON object, "
                                 f"got {type(data).__name__}")
        keys = [f.name for f in fields(cls)]
        unknown = [key for key in data if key not in keys]
        if unknown:
            raise ParameterError(f"configuration has unknown keys {unknown}; "
                                 f"known keys: {keys}")
        try:
            return cls(**{key: data[key] for key in keys})
        except KeyError as exc:
            raise ParameterError(
                f"configuration dict is missing key {exc}") from exc

    def with_params(self, Lambda=None, t=None) -> "Configuration":
        """Copy with replaced scalings and/or positions (signs fixed)."""
        return Configuration(
            k=self.k, signs=self.signs,
            Lambda=tuple(Lambda) if Lambda is not None else self.Lambda,
            t=tuple(t) if t is not None else self.t)


@dataclass(frozen=True)
class BoundsReport:
    """A-priori bracket for the four-bubble saddle level.

    ``lower = −8 log⁺(2/√H0)`` with ``H0`` the Robin minimum; ``upper`` is
    the sum of the four attractive axis interactions at the equally spaced
    start generated by ``(t0, r0)``.  A saddle between them requires
    lower <= upper.
    """

    H0: float
    lower: float
    upper: float
    t0: float
    r0: float

    def to_json_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# energies and gradients
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _pairs(k: int) -> tuple:
    """Index arrays (i, j) of the pairs i < j among k bubbles (read-only)."""
    i, j = np.triu_indices(k, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _quadratic_form(kern: AxisKernels, C: np.ndarray, L: np.ndarray,
                    t: np.ndarray, order: int = 0) -> tuple:
    """½ ΛᵀAΛ − Σ log Λ_i and, up to ``order``, its gradient and Hessian.

    A_ii = h(t_i), A_ij = C_ij g(t_i, t_j) for a symmetric (k, k) C; ``L``
    and ``t`` are array-likes of shape (..., k), leading axes batching
    configurations.  Returns (value,), (value, gradient) or (value,
    gradient, Hessian) in the coordinates (Λ_1..k, t_1..k):

        ∂/∂Λ_i      = (AΛ)_i − 1/Λ_i,
        ∂/∂t_i      = ½ Λ_i² h'(t_i) + Λ_i (BΛ)_i,
        ∂²/∂Λ_i∂Λ_j = A_ij + δ_ij/Λ_i²,
        ∂²/∂Λ_i∂t_j = B_ji Λ_j + δ_ij (Λ_i h'(t_i) + (BΛ)_i),
        ∂²/∂t_i∂t_j = C_ij Λ_i Λ_j ∂²g/∂t∂s(t_i, t_j)
                      + δ_ij (½ Λ_i² h''(t_i) + Λ_i (DΛ)_i),

    with B_ij = C_ij ∂g/∂t(t_i, t_j), D_ij = C_ij ∂²g/∂t²(t_i, t_j) off the
    diagonal and zero on it.  One g jet on the pairs i < j (its ∂g/∂s and
    ∂²g/∂s² are the lower triangles of B and D) and one h jet give every
    matrix, so the Hessian is exactly symmetric.
    """
    L, t = np.asarray(L, dtype=float), np.asarray(t, dtype=float)
    k = L.shape[-1]
    i, j = _pairs(k)
    d = np.arange(k)
    c = C[i, j]
    g, h = kern.g_jet(t[..., i], t[..., j], order), kern.h_jet(t, order)

    def pair_matrix(upper, lower, diag):
        M = np.zeros(t.shape + (k,))
        M[..., i, j] = upper
        M[..., j, i] = lower
        M[..., d, d] = diag
        return M

    def times_L(M):
        return np.einsum("...ij,...j->...i", M, L)

    gp = c * g[0]
    A = pair_matrix(gp, gp, h[0])
    AL = times_L(A)
    value = 0.5 * np.sum(L * AL, axis=-1) - np.sum(np.log(L), axis=-1)
    if order == 0:
        return (value,)

    B = pair_matrix(c * g[1], c * g[2], 0.0)
    BL = times_L(B)
    grad = np.concatenate([AL - 1.0 / L, 0.5 * L * L * h[1] + L * BL],
                          axis=-1)
    if order == 1:
        return value, grad

    D = pair_matrix(c * g[3], c * g[4], 0.0)
    Lt = np.swapaxes(B, -1, -2) * L[..., None, :]
    Lt[..., d, d] = L * h[1] + BL
    tt = c * L[..., i] * L[..., j] * g[5]
    H = np.empty(t.shape[:-1] + (2 * k, 2 * k))
    H[..., :k, :k] = A
    H[..., d, d] += 1.0 / (L * L)
    H[..., :k, k:] = Lt
    H[..., k:, :k] = np.swapaxes(Lt, -1, -2)
    H[..., k:, k:] = pair_matrix(
        tt, tt, 0.5 * L * L * h[2] + L * times_L(D))
    return value, grad, H


def _psi_terms(cfg: Configuration, kern: AxisKernels, order: int) -> tuple:
    """Ψ_k of a configuration (C_ij = −a_i a_j) up to the given order."""
    a = np.asarray(cfg.signs, dtype=float)
    return _quadratic_form(kern, -np.outer(a, a), cfg.Lambda, cfg.t, order)


def psi_k(cfg: Configuration, kern: AxisKernels) -> float:
    """The k-bubble reduced energy Ψ_k(Λ, t).

    ½ Σ Λ_i² h(t_i) − Σ_{i<j} a_i a_j Λ_i Λ_j g(t_i, t_j) − Σ log Λ_i.
    Positions outside the chord raise a domain error; coincident positions
    cannot occur in a valid configuration (strict ordering).
    """
    return float(_psi_terms(cfg, kern, 0)[0])


def _require_alternating4(cfg: Configuration, who: str) -> None:
    if cfg.k != 4 or cfg.signs != ALTERNATING_SIGNS_4:
        raise ParameterError(
            f"{who} requires k=4 with signs (1, -1, 1, -1); "
            f"got k={cfg.k}, signs={cfg.signs}")


def psi_tilde(cfg: Configuration, kern: AxisKernels) -> float:
    """The alternating four-bubble energy Ψ̃ = Ψ_4 with signs (1,−1,1,−1)."""
    _require_alternating4(cfg, "psi_tilde")
    return psi_k(cfg, kern)


def grad_psi_k(cfg: Configuration, kern: AxisKernels) -> np.ndarray:
    """Analytic gradient of Ψ_k: the 2k-vector (∂/∂Λ_1..k, ∂/∂t_1..k).

        ∂Ψ/∂Λ_i = Λ_i h(t_i) − Σ_{j≠i} a_i a_j Λ_j g(t_i, t_j) − 1/Λ_i,
        ∂Ψ/∂t_i = ½ Λ_i² h'(t_i) − Σ_{j≠i} a_i a_j Λ_i Λ_j ∂g/∂t(t_i, t_j),

    using the symmetry g(t,s) = g(s,t) to reduce both partner derivatives to
    the first-argument derivative.
    """
    return _psi_terms(cfg, kern, 1)[1]


def grad_psi_tilde(cfg: Configuration, kern: AxisKernels) -> np.ndarray:
    """Analytic gradient of Ψ̃ as an 8-vector (∂/∂Λ then ∂/∂t)."""
    _require_alternating4(cfg, "grad_psi_tilde")
    return grad_psi_k(cfg, kern)


def phi_penalty(cfg: Configuration, kern: AxisKernels) -> float:
    """The all-attractive penalty Φ(Λ, t) (every interaction taken positive)."""
    return float(_quadratic_form(kern, np.ones((cfg.k, cfg.k)), cfg.Lambda,
                                 cfg.t)[0])


def log_plus(x):
    """The positive part of the logarithm, max(log x, 0); requires x > 0."""
    val = np.maximum(np.log(_require_array("log_plus x", x, True)), 0.0)
    return float(val) if np.ndim(x) == 0 else val


# ---------------------------------------------------------------------------
# scaling family and its inverse
# ---------------------------------------------------------------------------

def mu_embed(mu1: float, mu: float, mu4: float, t) -> Configuration:
    """The equal-middle scaling family Λ(μ) = (μ_1/√μ, √μ, √μ, μ_4/√μ).

    Produces an alternating four-bubble configuration; the products of
    adjacent scalings recover (μ_1, μ, μ_4), see :func:`scaling_products`.
    """
    mu1, mu, mu4 = map(_require_real, ("mu1", "mu", "mu4"), (mu1, mu, mu4))
    s = math.sqrt(mu)
    return Configuration(k=4, signs=ALTERNATING_SIGNS_4,
                         Lambda=(mu1 / s, s, s, mu4 / s), t=t)


def scaling_products(cfg: Configuration) -> tuple:
    """Adjacent scaling products (Λ1Λ2, Λ2Λ3, Λ3Λ4) plus the positions.

    On the image of :func:`mu_embed` this is exactly the inverse map:
    scaling_products(mu_embed(μ1, μ, μ4, t)) == (μ1, μ, μ4, t).
    """
    if cfg.k != 4:
        raise ParameterError(f"scaling_products requires k=4, got k={cfg.k}")
    L = cfg.Lambda
    return (L[0] * L[1], L[1] * L[2], L[2] * L[3], cfg.t)


def base_spacing_points(t0: float, r0: float) -> tuple:
    """The equally spaced four-point start t⁰ = (t0, t0+r0, t0+2r0, t0+3r0)."""
    t0, r0 = _require_real("t0", t0, positive=False), _require_real("r0", r0)
    return tuple(t0 + i * r0 for i in range(4))


# ---------------------------------------------------------------------------
# admissible spacing search and bounds
# ---------------------------------------------------------------------------

def spacing_margin(kern: AxisKernels, t0, r0, n_check: int = 33):
    """Worst-case slack of ½h(t) + ½h(s) ≤ g(t,s) on [t0−4r0, t0+4r0].

    Returns min g − ½h − ½h over the unordered pairs of ``n_check``
    equally spaced window points, over both orders of the subtraction,
    which round differently; positive means the near-diagonal dominance
    holds with that margin.  ``t0`` and ``r0`` (> 0) may be arrays that
    broadcast; then all candidates go through one kernel batch and one
    margin is returned per candidate (a float for scalar inputs).
    """
    n_check = _require_int("n_check", n_check, 2)
    t0, r0 = _require_array("t0", t0), _require_array("r0", r0, positive=True)
    _require_broadcast(t0=t0, r0=r0)
    ts = np.linspace(t0 - 4.0 * r0, t0 + 4.0 * r0, n_check, axis=-1)
    i, j = np.triu_indices(n_check, 1)
    g = kern.g(ts[..., i], ts[..., j])
    half_h = 0.5 * kern.h(ts)
    hi, hj = half_h[..., i], half_h[..., j]
    margin = np.min(np.minimum(g - hi - hj, g - hj - hi), axis=-1)
    return float(margin) if margin.ndim == 0 else margin


def find_t0_r0(domain: BallDomain, section: AxisSection | None = None
               ) -> tuple:
    """Search for an admissible base point and spacing (t0, r0).

    Admissibility means the window [t0−4r0, t0+4r0] lies strictly inside the
    chord (with a 1% end guard) and the near-diagonal dominance
    ½h(t) + ½h(s) ≤ g(t,s) holds on it with strictly positive margin.
    Candidates are the spacings r0 = j·(b − a)/200, scanned descending
    (largest admissible spacing wins), and nine base points t0 ordered
    center-out in steps of 2.5% of the chord.  The base points of one
    spacing whose window fits are checked together on the unordered pairs
    of 33 window points, and the winning pair is re-validated on those of
    330 points before being returned.

    Returns (t0, r0); raises a search error with the scanned grid sizes if
    no candidate passes.
    """
    kern = AxisKernels(domain, section)
    sec = kern.section
    width = sec.b - sec.a
    mid = 0.5 * (sec.a + sec.b)
    guard = 0.01 * width

    step = width / 200.0
    r_max = (width / 2.0 - guard) / 4.0
    r_cands = np.arange(math.floor(r_max / step), 0, -1) * step

    deltas = [0.025 * i * width for i in range(1, 5)]
    t_cands = [mid] + [mid + s * d for d in deltas for s in (1.0, -1.0)]

    for r0 in r_cands:
        inside = [t0 for t0 in t_cands if t0 - 4.0 * r0 > sec.a + guard
                  and t0 + 4.0 * r0 < sec.b - guard]
        # One kernel batch for the spacing's base points, in scan order.
        for t0, margin in zip(inside, spacing_margin(kern, inside, r0)):
            if margin > 0.0 and spacing_margin(kern, t0, r0, 330) > 0.0:
                return (float(t0), float(r0))
    raise SearchError(
        "no admissible (t0, r0) found: near-diagonal dominance failed on "
        f"every candidate ({len(r_cands)} spacings x {len(t_cands)} base "
        "points, unordered pairs of 33 window points)")


def bounds_report(domain: BallDomain, section: AxisSection | None,
                  t0: float, r0: float) -> BoundsReport:
    """A-priori saddle-level bracket at the equally spaced start.

    upper = g(t1,t2) + g(t2,t3) + g(t3,t4) + g(t1,t4) at
    t⁰ = (t0, t0+r0, t0+2r0, t0+3r0); lower = −8 log⁺(2/√H0) with H0 the
    Robin minimum of the section (:meth:`AxisKernels.robin_min`).
    """
    kern = AxisKernels(domain, section)
    H0 = kern.robin_min()
    lower = -8.0 * log_plus(2.0 / math.sqrt(H0))
    t1, t2, t3, t4 = base_spacing_points(t0, r0)
    g12, g23, g34, g14 = kern.g([t1, t2, t3, t1], [t2, t3, t4, t4])
    upper = g12 + g23 + g34 + g14
    return BoundsReport(H0=float(H0), lower=float(lower), upper=float(upper),
                        t0=float(t0), r0=float(r0))
