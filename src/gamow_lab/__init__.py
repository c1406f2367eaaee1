"""Numerical laboratory for quantum decay out of a delta-shell well.

A particle on the half line x >= 0 (hard wall at the origin, units
hbar = 2m = 1) is confined by the barrier V(x) = (lam/a) delta(x - a).
The package enumerates the resonance poles of the quantization function,
evolves initial packets exactly through the continuum spectral integral,
re-expresses the evolution as a sum of decaying Gamow states plus a
rotated background integral, and analyzes the resulting nonescape
probability: flat start, exponential regime, and t^-3 tail.
"""

from .exceptions import (
    CountMismatch,
    GamowLabError,
    GridTooCoarse,
    NoCrossing,
    PoleProximity,
    QuadratureNotConverged,
    SeedOutOfRegime,
    WindowBeforeCrossover,
    WindowTooSmall,
    WrongQuadrant,
)
from .potential_model import (
    Poles,
    WellParameters,
    coefficient_A,
    coefficient_A_bar,
    coefficient_B,
    enumerate_poles,
    refine_pole,
)
from .profiles import (
    InitialProfile,
    box_mode,
    overlap_transform,
    parse_profile,
    truncated_gaussian,
)
from .spectral_evolution import (
    WaveState,
    evolve_direct,
    spectral_tail_mass,
    unitarity_audit,
)
from .gamow_expansion import (
    Residues,
    RotatedExpansion,
    asymptotic_background,
    background_integral,
    crossover_time,
    evolve_rotated,
    integrand_f,
    nonescape_asymptote,
    verify_residue,
)
from .decay_analysis import (
    DecayCurve,
    RegimeReport,
    fit_exponential,
    fit_tail_exponent,
    flux_derivative,
    geometric_times,
    nonescape_curve,
    regime_report,
)

__version__ = "0.1.0"
