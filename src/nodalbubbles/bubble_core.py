"""Standard bubble profiles and the dimension-dependent energy constants.

The *bubble* with concentration parameter ``eps``, scaling ``lam`` and center
``xi`` in dimension ``N >= 3`` is

    U(x) = alpha_N * ( m / (m^2 + |x - xi|^2) )^{(N-2)/2},
    m    = lam * eps^{1/(N-2)},
    alpha_N = (N(N-2))^{(N-2)/4}.

``m`` is the *core width*: the profile is of height ~ m^{-(N-2)/2} on a ball
of radius ~ m and solves the critical equation -ΔU = U^{2*-1} on R^N exactly,
where 2* = 2N/(N-2) is the critical Sobolev exponent.

The unit-parameter profile ``U_0 = U`` with ``m = 1`` determines four
dimension-dependent constants used by the asymptotic energy expansion of a
projected multi-bubble ansatz:

    C_N     = ∫|∇U_0|^2 - (1/2*) ∫U_0^{2*},
    c_N     = (1/2*) ∫U_0^{2*} / (∫U_0^{2*-1})^2,
    omega_N = (1/2*) ∫U_0^{2*},
    gamma_N = (1/(2*)^2) ∫U_0^{2*} - (1/2*) ∫U_0^{2*} log U_0
              + (1/2) omega_N log c_N.

All integrals reduce, by radial symmetry, to one-dimensional integrals over
the radius, and each is a closed form: a Beta function, times a difference
of digamma values for the log-weighted one.  They are evaluated here with
the standard library's ``math`` alone and reported together with a rounding
bound.  None of these constants is quoted numerically by the underlying
theory, so reports flag the values as implementer-derived.

The reduced energies use a dimensionless scaling ``Lambda``; the one change
of variables to the bubble parameter is the quadratic map
``lam = (c_N * Lambda^2)^{1/(N-2)}`` of :func:`lambda_of_Lambda_quadratic`,
under which the computed energy of a projected multi-bubble ansatz
reproduces the reduced energy's scaling weights term by term (see the pde
harness module).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "BubbleParams",
    "ConstantsTable",
    "BubbleIntegrals",
    "alpha_N",
    "sigma_N",
    "two_star",
    "bubble_profile",
    "bubble_integrals",
    "compute_constants",
    "lambda_of_Lambda_quadratic",
    "single_bubble_energy_limit",
]


def alpha_N(N: int) -> float:
    """The normalizing constant (N(N-2))^{(N-2)/4} of the bubble profile."""
    if N < 3:
        raise ParameterError(f"dimension N must be >= 3, got {N}")
    return float((N * (N - 2)) ** ((N - 2) / 4.0))


def sigma_N(N: int) -> float:
    """Surface area 2 pi^{N/2} / Gamma(N/2) of the unit sphere in R^N."""
    if N < 1:
        raise ParameterError(f"dimension N must be >= 1, got {N}")
    try:
        return float(2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0))
    except OverflowError as exc:
        raise ParameterError(f"sigma_N overflows a double for N={N}") from exc


def two_star(N: int) -> float:
    """Critical Sobolev exponent 2N/(N-2)."""
    if N < 3:
        raise ParameterError(f"dimension N must be >= 3, got {N}")
    return 2.0 * N / (N - 2.0)


@dataclass(frozen=True)
class BubbleParams:
    """Parameters (N, eps, lam, xi) of a single bubble.

    Attributes
    ----------
    N : int
        Ambient dimension, >= 3.
    eps : float
        Subcriticality parameter, > 0.
    lam : float
        Scaling parameter, > 0.
    xi : numpy.ndarray
        Center, shape ``(N,)``.
    """

    N: int
    eps: float
    lam: float
    xi: np.ndarray

    def __post_init__(self):
        if self.N < 3:
            raise ParameterError(f"dimension N must be >= 3, got {self.N}")
        if not (self.eps > 0):
            raise ParameterError(f"eps must be positive, got {self.eps}")
        if not (self.lam > 0):
            raise ParameterError(f"lam must be positive, got {self.lam}")
        xi = np.asarray(self.xi, dtype=float).reshape(-1)
        if xi.size != self.N:
            raise ParameterError(
                f"center xi must have length N={self.N}, got {xi.size}")
        object.__setattr__(self, "xi", xi)

    @property
    def core_width(self) -> float:
        """The concentration length scale m = lam * eps^{1/(N-2)}."""
        return self.lam * self.eps ** (1.0 / (self.N - 2.0))


def bubble_profile(N: int, m: float, d2):
    """The bubble alpha_N (m / (m^2 + d2))^{(N-2)/2} of core width ``m``.

    ``d2`` is the squared distance to the center (a float or an array).
    Every bubble evaluation in the package uses this formula; the panel
    evaluator :meth:`nodalbubbles.pde_harness.ProjectedBubbleExact.fields`
    spells it in place, with the same operations and so the same bits.
    """
    return alpha_N(N) * (m / (m * m + d2)) ** ((N - 2) / 2.0)


@dataclass(frozen=True)
class BubbleIntegrals:
    """Whole-space integrals of the unit bubble ``U_0`` in dimension N.

    ``int_U_2star`` is ∫U_0^{2*}, ``int_U_2star_m1`` is ∫U_0^{2*-1},
    ``int_U_2star_logU`` is ∫U_0^{2*} log U_0, and ``int_grad_sq`` is
    ∫|∇U_0|^2 (equal to ∫U_0^{2*} analytically; evaluated from its own Beta
    function as a consistency probe).  ``quad_error`` bounds the worst
    absolute rounding error among the four.
    """

    N: int
    int_U_2star: float
    int_U_2star_m1: float
    int_U_2star_logU: float
    int_grad_sq: float
    quad_error: float


@dataclass(frozen=True)
class ConstantsTable:
    """The five constants of the energy expansion plus a rounding error bar.

    Invariants: ``alphaN = (N(N-2))^{(N-2)/4}`` exactly, and
    ``CN = (1 - 1/2*) * (2* * omegaN)`` up to rounding (a consequence
    of ∫|∇U_0|^2 = ∫U_0^{2*}).
    """

    N: int
    alphaN: float
    CN: float
    cN: float
    omegaN: float
    gammaN: float
    quad_error: float

    def to_json_dict(self) -> dict:
        """Serializable report with the documented field names."""
        return {
            "N": self.N,
            "alphaN": self.alphaN,
            "CN": self.CN,
            "cN": self.cN,
            "omegaN": self.omegaN,
            "gammaN": self.gammaN,
            "quad_error": self.quad_error,
            "values_implementer_derived": True,
        }


def _half_beta(a: float, b: float) -> float:
    """½B(a, b) = ∫_0^∞ r^{2a-1} (1+r^2)^{-(a+b)} dr, by log-gamma."""
    return 0.5 * math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _digamma_plus_euler(x: float) -> float:
    """ψ(x) + γ for integer or half-integer x > 0, by harmonic sums.

    ψ(1) + γ = 0 and ψ(1/2) + γ = -2 log 2, then ψ(x+1) = ψ(x) + 1/x.
    """
    x0 = 1.0 if x == int(x) else 0.5
    base = 0.0 if x0 == 1.0 else -2.0 * math.log(2.0)
    return base + sum(1.0 / (x0 + k) for k in range(int(x - x0)))


def _rounding_rel(N: int) -> float:
    """Relative rounding bound of every term of the closed forms.

    16 ulps per unit of N (the harmonic sums have fewer than N terms) and
    per unit of every logarithm that pow, exp and lgamma turn into relative
    error: log alpha_N^{2*}, log sigma_N and three log-gammas, each at most
    log Γ(N) in size.
    """
    logs = (abs(two_star(N) * math.log(alpha_N(N)))
            + abs(math.log(sigma_N(N))) + 3.0 * math.lgamma(N))
    return 16.0 * sys.float_info.epsilon * (N + logs)


def bubble_integrals(N: int) -> BubbleIntegrals:
    """The four whole-space integrals of the unit bubble in closed form.

    With U_0 = alpha (1+r^2)^{-(N-2)/2} every radial integral is
    ∫_0^∞ r^{n-1} (1+r^2)^{-p} dr = ½B(n/2, p - n/2), and the log-weighted
    one is that value times ψ(p) - ψ(p - n/2) (Euler's constant cancels).
    ``quad_error`` is the rounding bound of :func:`_rounding_rel` applied to
    the largest of the four (to the sum of the magnitudes of both terms for
    the log-weighted one).
    """
    if N < 3:
        raise ParameterError(f"dimension N must be >= 3, got {N}")
    a = alpha_N(N)
    s = sigma_N(N)
    ts = two_star(N)
    h = N / 2.0

    # ∫ U^{2*} = alpha^{2*} sigma ∫ r^{N-1} (1+r^2)^{-N} dr
    int_U_2star = a ** ts * s * _half_beta(h, h)
    # ∫ U^{2*-1} = alpha^{2*-1} sigma ∫ r^{N-1} (1+r^2)^{-(N+2)/2} dr
    int_U_2star_m1 = a ** (ts - 1.0) * s * _half_beta(h, 1.0)
    # ∫ U^{2*} log U = log(alpha) ∫U^{2*} - (N-2)/2 * alpha^{2*} sigma
    #                  * ∫ r^{N-1}(1+r^2)^{-N} log(1+r^2) dr
    log_part = (N - 2) / 2.0 * int_U_2star * (
        _digamma_plus_euler(N) - _digamma_plus_euler(h))
    int_U_2star_logU = math.log(a) * int_U_2star - log_part
    # ∫ |∇U|^2 = alpha^2 (N-2)^2 sigma ∫ r^{N+1} (1+r^2)^{-N} dr
    # (|∇U| = (N-2) U r/(1+r^2); the extra r^2 shifts the radial power by 2.)
    int_grad_sq = a ** 2 * (N - 2) ** 2 * s * _half_beta(h + 1.0, h - 1.0)

    quad_error = _rounding_rel(N) * max(
        int_U_2star, int_U_2star_m1, int_grad_sq,
        abs(math.log(a)) * int_U_2star + log_part)

    return BubbleIntegrals(
        N=N,
        int_U_2star=int_U_2star,
        int_U_2star_m1=int_U_2star_m1,
        int_U_2star_logU=int_U_2star_logU,
        int_grad_sq=int_grad_sq,
        quad_error=quad_error,
    )


def compute_constants(N: int) -> ConstantsTable:
    """Evaluate alpha_N, C_N, c_N, omega_N, gamma_N from the closed forms.

    Each constant is a short sum of terms whose relative rounding error is
    at most four times :func:`_rounding_rel`; ``quad_error`` is that times
    the largest sum of term magnitudes.  Raises ParameterError naming N
    when an integral overflows a double.
    """
    try:
        ints = bubble_integrals(N)
    except OverflowError as exc:
        raise ParameterError(
            f"the bubble integrals overflow a double for N={N}") from exc
    ts = two_star(N)
    omega = ints.int_U_2star / ts
    C = ints.int_grad_sq - ints.int_U_2star / ts
    c = (ints.int_U_2star / ts) / ints.int_U_2star_m1 ** 2
    gamma = (ints.int_U_2star / ts ** 2
             - ints.int_U_2star_logU / ts
             + 0.5 * omega * math.log(c))

    log_a_part = math.log(alpha_N(N)) * ints.int_U_2star
    log_part = log_a_part - ints.int_U_2star_logU
    gamma_terms = (omega / ts + (abs(log_a_part) + abs(log_part)) / ts
                   + 0.5 * omega * (abs(math.log(c)) + 1.0))
    quad_error = 4.0 * _rounding_rel(N) * max(
        ints.int_grad_sq + omega, c, gamma_terms)

    return ConstantsTable(
        N=N,
        alphaN=alpha_N(N),
        CN=C,
        cN=c,
        omegaN=omega,
        gammaN=gamma,
        quad_error=quad_error,
    )


def lambda_of_Lambda_quadratic(Lambda: float, table: ConstantsTable) -> float:
    """Change of variables lam = (c_N * Lambda^2)^{1/(N-2)}.

    This is the scaling map under which the energy of a projected
    multi-bubble sum expands, coefficient for coefficient, as

        I_eps(V) = k*E_N - (k/2) omega_N eps log(eps) - k gamma_N eps
                   + omega_N eps Psi_k(Lambda, t) + o(eps),

    with E_N the single-bubble energy limit below: the identity
    ∫U^{2*-1} = alpha_N (N-2) sigma_N turns the pairwise interaction
    ∫U_i^{2*-1} P U_j into omega_N (m_i m_j)^{(N-2)/2}/c_N * G(xi_i, xi_j),
    so matching the reduced energy's Lambda_i Lambda_j weights forces
    m_i^{N-2} = c_N Lambda_i^2 eps.
    """
    if not (Lambda > 0):
        raise ParameterError(f"Lambda must be positive, got {Lambda}")
    return float((table.cN * Lambda * Lambda) ** (1.0 / (table.N - 2.0)))


def single_bubble_energy_limit(table: ConstantsTable) -> float:
    """The eps -> 0 energy of one projected bubble.

    For the functional I_eps(u) = (1/2)∫|∇u|^2 - (1/(2*-eps))∫|u|^{2*-eps},
    the energy of a single projected bubble tends to

        E_N = (1/2)∫|∇U_0|^2 - (1/2*)∫U_0^{2*} = (2/(N-2)) * omega_N,

    using ∫|∇U_0|^2 = ∫U_0^{2*} = 2* omega_N.  Note E_N differs from the
    table's ``CN`` (which carries no 1/2 on the gradient term) by
    (N/(N-2)) * omega_N.
    """
    return 2.0 / (table.N - 2.0) * table.omegaN
