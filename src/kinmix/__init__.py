"""Two-species BGK gas-mixture simulator: micro-macro particle/finite-volume
scheme, space-homogeneous decay laws, and a discrete-velocity reference."""

import os as _os

# KINMIX_THREADS caps the BLAS pools; must be set before numpy first loads
_cap = _os.environ.get("KINMIX_THREADS")
if _cap:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _cap)

from .config import InitialCondition, RunConfig, build_initial_condition, parse_config
from .grids import GridSpec
from .homogeneous import (
    DecayConstants,
    analytic_temperature_gap,
    analytic_velocity_gap,
    decay_constants,
    kinetic_homogeneous_run,
    moment_ode_run,
    moment_ode_step,
    relative_entropy,
)
from .macrofv import MacroState, fv_step, maxwellian_flux, numerical_flux, relaxation_source
from .model import (
    ExchangeQuantities,
    MixtureParams,
    ParameterError,
    SpeciesMoments,
    exchange_quantities,
    maxwellian,
    validate_params,
)
from .particles import ParticleSet, deposit, init_particles, match, push, update_weights
from .projection import ProjectionCoeffs, complement_eval, eval_projection, project_cross_maxwellian, project_from_moments
from .reference import GridDistribution, dvm_run, dvm_step
from .driver import RunResult, SimState, run, setup_simulation, step

__all__ = [name for name in dir() if not name.startswith("_")]
