"""hjwave: numerical certificates for the Hamilton-Jacobi / wave duality.

The package turns the classical free-particle Hamilton-Jacobi equation,
its logarithmic (Cole-Hopf-type) linearization, and the dispersion
algebra connecting them into executable checks: closed-form kinematics,
coefficient-tensor PDE transforms, finite-difference evolution of the
resulting wave / Schrodinger equations, relativistic point mechanics, and
a measured nonrelativistic limit.
"""

from .convergence import OrderFit, fit_order, halving_orders
from .errors import (
    DegenerateQuadraticError,
    DivergenceError,
    DomainError,
    FormatError,
    HjwaveError,
    InsufficientDataError,
    InsufficientResolutionError,
    NumericalError,
    StabilityError,
    UnsupportedOrderError,
    VerificationError,
    ZeroFieldError,
)
from .fields import (
    Grid,
    ScalarField,
    field_from_bytes,
    field_to_bytes,
    load_field,
    plane_wave_field,
    save_field,
)
from .kinematics import (
    ParticleState,
    PhysicalConstants,
    PlaneWave,
    de_broglie_momentum,
    dispersion_omega,
    energy_from_momentum,
    group_velocity,
    momentum_from_velocity,
    particle_velocity,
    phase_velocity,
    planck_energy,
)
from .limits import (
    LimitStudyConfig,
    LimitStudyReport,
    factor_rest_energy,
    run_limit_study,
)
from .mechanics import (
    Potential,
    Trajectory,
    curl_check,
    gradient_field,
    integrate_newton,
)
from .pde_algebra import (
    AnalyticField,
    ResidualDecomposition,
    DispersionQuadratic,
    LinearPdeSpec,
    PdeSpec,
    PdeTerm,
    action_from_wavefunction,
    residual_decomposition_check,
    decomposition_defect,
    dispersion_quadratic,
    hje_pde_spec,
    hje_pde_spec_1d,
    linearize,
    load_pde_spec,
    log_transform,
    pde_spec_dumps,
    pde_spec_loads,
    residual_linear,
    residual_nonlinear,
    wavefunction_from_action,
)
from .solvers import (
    CRANK_NICOLSON,
    LEAPFROG,
    Diagnostics,
    SolveReport,
    SolverConfig,
    eigen_checks,
    hje_residual,
    leapfrog_stability_limit,
    log_curvature_check,
    solve_plane_wave,
    solve_relativistic,
    solve_schrodinger,
    solve_wave,
)

__version__ = "0.1.0"
