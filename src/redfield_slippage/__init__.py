"""Second-order open-system dynamics for a two-level system in a bosonic bath.

The package provides weak-coupling generators (Redfield and time-local
second order), correlated correction terms for the initial condition, the
variational region test for states reachable with a positivity-respecting
slippage, and an exact finite-bath oracle used to pin signs and validate
error scaling.
"""

__version__ = "0.1.0"

from .operators import (
    BlochVector,
    Superoperator,
    bloch_to_density,
    trace_distance,
)
from .bath import (
    DiscreteModes,
    ExponentialSum,
    KernelNotIntegrableError,
    LorentzDrudeBath,
    PoleCollisionError,
    discrete_kernel,
    fit_exponential_mixture,
)
from .master import (
    RedfieldGenerator,
    SystemModel,
    Trajectory,
    build_redfield_generator,
    propagate_markovian,
    propagate_tcl2,
    stationary_state,
)
from .corrections import (
    NATURAL_SIGN,
    NaturalFamily,
    Product,
    delta_rho1,
    delta_rho2,
    perturbative_solution,
    slipped_initial_condition,
)
from .regions import (
    max_radial_depth,
    region_scan,
    u_prime_membership,
)
from .oracle import (
    OracleConsistencyError,
    TruncatedBath,
    cancellation_test,
    default_oracle_bath,
    evolve_exact,
    pin_natural_sign,
    validate_scaling,
)
from .config import ConfigError, RunConfig

__all__ = [
    "__version__",
    "BlochVector",
    "Superoperator",
    "bloch_to_density",
    "trace_distance",
    "DiscreteModes",
    "ExponentialSum",
    "KernelNotIntegrableError",
    "LorentzDrudeBath",
    "PoleCollisionError",
    "discrete_kernel",
    "fit_exponential_mixture",
    "RedfieldGenerator",
    "SystemModel",
    "Trajectory",
    "build_redfield_generator",
    "propagate_markovian",
    "propagate_tcl2",
    "stationary_state",
    "NATURAL_SIGN",
    "NaturalFamily",
    "Product",
    "delta_rho1",
    "delta_rho2",
    "perturbative_solution",
    "slipped_initial_condition",
    "max_radial_depth",
    "region_scan",
    "u_prime_membership",
    "OracleConsistencyError",
    "TruncatedBath",
    "cancellation_test",
    "default_oracle_bath",
    "evolve_exact",
    "pin_natural_sign",
    "validate_scaling",
    "ConfigError",
    "RunConfig",
]
