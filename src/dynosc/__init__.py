"""Dynamic states of the quantum harmonic oscillator.

Closed-form evaluation of a six-parameter family of exact square-integrable
solutions of 2i psi_t + psi_xx - x^2 psi = 0, together with the quadratic
dynamic invariant and its ladder algebra, closed-form phase-space moments,
the momentum representation, and a battery of independent numerical oracles
(PDE residuals, quadrature Fourier transforms, split-step propagation).
Everything acts on arrays: an (N,) row of samples on a grid or a (T, N)
block of rows, one per time.
"""

from .errors import CapacityError, ConfigError, DomainError
from .flows import (BETA0_QUARTIC, BETA0_SQUARED, MomentSet, OscillatorParams,
                    ParamState, classical_moments, discriminant, flow,
                    is_minimum_uncertainty_family, momentum_params)
from .hermite import N_MAX, hermite, hermite_function
from .operators import (ANNIHILATION, CREATION, SHIFTED_MOMENTUM, commutator,
                        invariant, ladder, rayleigh)
from .oracle import (MINUS_GAMMA, MINUS_TWO_GAMMA, PrecisionWarning,
                     comoving_frame, comoving_residual, dft_momentum_rows,
                     psi_rows, quadrature_moment_rows, schrodinger_residual,
                     split_step_propagate)
from .states import (MOMENTUM, POSITION, StateSpec, eval_momentum, eval_psi,
                     eval_psi_invariant_frame, uniform_grid)

__all__ = [
    "ANNIHILATION", "BETA0_QUARTIC", "BETA0_SQUARED", "CREATION",
    "CapacityError", "ConfigError", "DomainError", "MINUS_GAMMA",
    "MINUS_TWO_GAMMA", "MOMENTUM", "MomentSet", "N_MAX", "OscillatorParams",
    "POSITION", "ParamState", "PrecisionWarning", "SHIFTED_MOMENTUM",
    "StateSpec", "classical_moments", "comoving_frame", "comoving_residual",
    "commutator", "dft_momentum_rows", "discriminant", "eval_momentum",
    "eval_psi", "eval_psi_invariant_frame", "flow", "hermite",
    "hermite_function", "invariant", "is_minimum_uncertainty_family", "ladder",
    "momentum_params", "psi_rows", "quadrature_moment_rows", "rayleigh",
    "schrodinger_residual", "split_step_propagate", "uniform_grid",
]

__version__ = "0.1.0"
