"""Nodal multi-bubble toolkit for slightly subcritical problems on balls.

The library builds, checks, and verifies the finite-dimensional reduction of

    -Δu = |u|^{2*-2-ε} u  in Ω,   u = 0  on ∂Ω,   2* = 2N/(N-2),

on ball domains: standard-bubble constants (:mod:`~nodalbubbles.bubble_core`),
Green/Robin kernels with hypothesis checks (:mod:`~nodalbubbles.green_domain`),
the reduced interaction energies (:mod:`~nodalbubbles.reduced_energy`), the
four-bubble max-min saddle search (:mod:`~nodalbubbles.saddle_solver`), a PDE
verification harness (:mod:`~nodalbubbles.pde_harness`), and a CLI front end
(:mod:`~nodalbubbles.cli`).
"""

from .bubble_core import (
    BubbleIntegrals,
    BubbleParams,
    ConstantsTable,
    alpha_N,
    bubble_integrals,
    bubble_profile,
    compute_constants,
    lambda_of_Lambda_quadratic,
    sigma_N,
    single_bubble_energy_limit,
    two_star,
)
from .errors import (
    ConfigurationError,
    DomainError,
    NodalBubblesError,
    ParameterError,
    QuadratureError,
    ResolutionError,
    SearchError,
    SingularityError,
    SolverDivergenceError,
)
from .green_domain import (
    AxisSection,
    BallDomain,
    ValidationReport,
    axis_g,
    axis_g_dt,
    axis_g_ts,
    axis_g_tt,
    axis_h,
    axis_h_d1,
    axis_h_d2,
    check_boundary_expansion,
    check_directional_monotonicity,
    grad_x_G,
    grad_x_H,
    green_G,
    harmonic_defect_order,
    robin_H,
    validate_A3,
)
from .pde_harness import (
    AxisymGrid,
    Field,
    ProjectedBubbleExact,
    assemble_V,
    energy_I,
    energy_gradient_quadrature,
    energy_quadrature,
    expansion_gap,
    project_bubble,
    projected_bubbles_of_config,
    require_core_resolution,
    residual_norm,
    residual_quadrature,
    solve_dirichlet_laplace,
    solve_poisson,
)
from .reduced_energy import (
    ALTERNATING_SIGNS_4,
    AxisKernels,
    BoundsReport,
    Configuration,
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
from .saddle_solver import (
    SaddleReport,
    coercivity_scan,
    hessian_psi_k,
    hessian_psi_tilde,
    inertia_of,
    solve_saddle,
    solve_saddle_multistart,
    stationarity_identities,
    verify_bounds,
    write_trace_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # bubble_core
    "BubbleIntegrals", "BubbleParams", "ConstantsTable",
    "alpha_N", "bubble_integrals", "bubble_profile", "compute_constants",
    "lambda_of_Lambda_quadratic", "sigma_N", "single_bubble_energy_limit",
    "two_star",
    # errors
    "ConfigurationError", "DomainError", "NodalBubblesError",
    "ParameterError", "QuadratureError", "ResolutionError", "SearchError",
    "SingularityError", "SolverDivergenceError",
    # green_domain
    "AxisSection", "BallDomain", "ValidationReport", "axis_g", "axis_g_dt",
    "axis_g_ts", "axis_g_tt", "axis_h", "axis_h_d1", "axis_h_d2",
    "check_boundary_expansion", "check_directional_monotonicity", "grad_x_G",
    "grad_x_H", "green_G", "harmonic_defect_order", "robin_H", "validate_A3",
    # pde_harness
    "AxisymGrid", "Field", "ProjectedBubbleExact", "assemble_V", "energy_I",
    "energy_gradient_quadrature", "energy_quadrature", "expansion_gap",
    "project_bubble", "projected_bubbles_of_config",
    "require_core_resolution", "residual_norm", "residual_quadrature",
    "solve_dirichlet_laplace", "solve_poisson",
    # reduced_energy
    "ALTERNATING_SIGNS_4", "AxisKernels", "BoundsReport", "Configuration",
    "base_spacing_points", "bounds_report", "find_t0_r0", "grad_psi_k",
    "grad_psi_tilde", "log_plus", "mu_embed", "phi_penalty", "psi_k",
    "psi_tilde", "robin_min", "scaling_products", "spacing_margin",
    # saddle_solver
    "SaddleReport", "coercivity_scan", "hessian_psi_k",
    "hessian_psi_tilde", "inertia_of", "solve_saddle",
    "solve_saddle_multistart", "stationarity_identities", "verify_bounds",
    "write_trace_csv",
]
