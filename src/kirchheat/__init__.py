"""Spectral Galerkin simulator and diagnostics for a Kirchhoff string/membrane
coupled to a heat equation through same-sign couplings.

The displacement solves y_tt - phi(|grad y|^2) Lap y + alpha Lap theta = 0 with
phi(s) = m0 + m1 s, m0 > 0, and the temperature solves
theta_t - Lap theta - beta Lap y_t = 0, both with Dirichlet boundary
conditions. In the Dirichlet eigenbasis the pair becomes a stiff ODE system
whose energy dissipates through heat conduction alone; this package
integrates that system and checks the associated identities, bounds, and
decay estimates.
"""

from .diagnostics import (
    AprioriCheck,
    DecayFit,
    EnergyRecord,
    GronwallCheck,
    HorizonEstimate,
    MartinezCheck,
    check_martinez,
    check_modified_gronwall,
    dissipation_rate,
    energy,
    energy_balance_residual,
    energy_gradient,
    first_apriori_check,
    fit_exponential_decay,
    higher_energy,
    higher_energy_bound_horizon,
)
from .model import (
    ModalState,
    ModelParams,
    grad_norm_sq,
    kirchhoff_coefficient,
    linear_system_matrix,
    rhs,
    validate_state,
    zero_state,
)
from .runner import (
    ConfigError,
    ConvergenceRow,
    InitialProfile,
    RunResult,
    ScenarioConfig,
    SweepRow,
    UniquenessReport,
    VerifyCheck,
    build_scenario,
    config_from_dict,
    convergence_study,
    load_config,
    profile_coefficients,
    random_small_scenario,
    run_scenario,
    sweep,
    uniqueness_probe,
    verify_suite,
    write_trajectory_csv,
)
from .spectrum import (
    Domain,
    EigenBasis,
    build_basis,
    eigenfunction_values,
    evaluate_field,
    gram_matrix,
    project_initial_data,
)
from .timeloop import (
    SolverDivergenceError,
    SolverStats,
    StepperConfig,
    Trajectory,
    default_dt,
    simulate,
    step,
)

__version__ = "0.1.0"
