"""Scattering and inverse-scattering toolkit for a hodograph-linked
derivative Schroedinger flow.

Pipeline:  potential -> Jost solutions -> reflection coefficient
           -> explicit time evolution -> jump RHP -> moments
           -> slope -> hodograph inversion -> potential.

The submodules follow those stages: ``lattice`` (grids, Cauchy
projections), ``lax`` (sampled potential, gauge fields, E1),
``direct_scattering`` (Jost march, reflection coefficient),
``rhp`` (jump factorizations, Beals-Coifman solve, moments),
``reconstruction`` (slope to potential, hodograph maps),
``soliton`` (closed forms), ``pde_oracle`` (independent integrator),
``cli`` (end-to-end runs).
"""

__version__ = "0.1.0"

from .errors import (
    AT_SINGULARITY,
    EvolutionDivergedError,
    HodographInconsistentError,
    InvalidArgumentError,
    NumericalError,
    PossibleBoundStateError,
    RangeError,
    RegimeError,
    ResolutionExceededError,
    RhpUnsolvedError,
    SlopeConditionError,
    WkiError,
)
from .lattice import (
    GridFunction,
    SpatialGrid,
    SpectralGrid,
    cauchy_minus,
    cauchy_plus,
    cumulative_integral,
    make_spatial_grid,
    make_spectral_grid,
)
from .lax import (
    AknsFields,
    Potential,
    akns_potentials,
    conserved_E1,
    eigvec_matrix,
    make_potential,
)
from .direct_scattering import (
    ScatteringData,
    evolve_reflection,
    reflection_coefficient,
)
from .rhp import delta_function, suggest_z_min
from .reconstruction import (
    ReconstructionResult,
    inverse_transform,
    qh_from_slope,
    resample_q,
    x_from_m11,
    x_from_qh,
)
from .soliton import (
    SolitonParams,
    soliton_epsilon,
    soliton_pde_residual,
    soliton_peak,
    soliton_q,
    soliton_qh,
    soliton_slope,
)
from .pde_oracle import EvolutionRun, evolve, wki_rhs

__all__ = [name for name in dir() if not name.startswith("_")]
