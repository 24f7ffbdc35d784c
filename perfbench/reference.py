"""Independent references the benchmark checks the library's outputs against.

The bubble constants come from Beta/digamma closed forms written here from
scratch; the saddle, coercivity and gap literals are the frozen values of
the repository's tests, copied as data.
"""

from __future__ import annotations

import math

from scipy import special

# Canonical four-bubble alternating saddle on the unit ball, N = 3.
SADDLE_LAMBDA = (2.114348158034659, 3.0024765160948514,
                 0.9458105979679676, 2.8857893536818193)
SADDLE_T = (-0.7317568940684807, -0.06840688734044723,
            0.24695890685688124, 0.5532048745520465)
SADDLE_VALUE = -0.8522695441005441
SADDLE_INERTIA = (7, 1, 0)

# Coercivity-scan minima at seed 0 with 64 samples per level.
COERCIVITY_MINIMA = {10.0: 1.6879081385206236,
                     20.0: 3.5382164952103583,
                     40.0: 6.756219938756882}

# k = 1 minimizer at the center of the unit ball, N = 3: Psi_1 is
# ½ Λ² h(0) − log Λ with h(0) = 1/(4π), minimal at Λ² = 4π.
LAMBDA_STAR = 3.5449077018110321
PSI1_MIN = 0.5 - 0.5 * math.log(4.0 * math.pi)

# Relative quadrature residual of the saddle configuration at eps = 0.025.
RESIDUAL_QUADRATURE_0025 = 0.1165717851788002


def bubble_constants(N: int) -> dict:
    """C_N, c_N, omega_N, gamma_N of the unit bubble in closed form.

    With U_0 = α (1 + r²)^{-(N-2)/2} every radial integral is
    ∫_0^∞ r^{N-1} (1 + r²)^{-p} dr = ½ B(N/2, p − N/2), and the
    log-weighted one is that Beta value times ψ(p) − ψ(p − N/2).
    """
    a = (N * (N - 2.0)) ** ((N - 2.0) / 4.0)
    ts = 2.0 * N / (N - 2.0)
    sigma = 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)
    half_beta = 0.5 * special.beta(N / 2.0, N / 2.0)
    int_2star = a ** ts * sigma * half_beta
    int_2star_m1 = a ** (ts - 1.0) * sigma * 0.5 * special.beta(N / 2.0, 1.0)
    log_radial = half_beta * (special.digamma(N) - special.digamma(N / 2.0))
    int_2star_log = (math.log(a) * int_2star
                     - (N - 2.0) / 2.0 * a ** ts * sigma * log_radial)
    int_grad_sq = (a * a * (N - 2.0) ** 2 * sigma * 0.5
                   * special.beta((N + 2.0) / 2.0, (N - 2.0) / 2.0))
    omega = int_2star / ts
    c = omega / int_2star_m1 ** 2
    return {
        "alphaN": a,
        "CN": int_grad_sq - int_2star / ts,
        "cN": c,
        "omegaN": omega,
        "gammaN": (int_2star / ts ** 2 - int_2star_log / ts
                   + 0.5 * omega * math.log(c)),
    }


def constants_match(values: dict, N: int, rel: float = 1e-8) -> bool:
    """Do the library's constants for dimension N match the closed forms?"""
    ref = bubble_constants(N)
    return all(math.isclose(float(values[k]), v, rel_tol=rel, abs_tol=0.0)
               for k, v in ref.items())
