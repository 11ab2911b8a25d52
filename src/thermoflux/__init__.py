"""thermoflux: canonical-ensemble fluctuation toolkit for oscillator
ensembles.

Exact cumulants of the ensemble energy, a dual-system representation of
inverse-temperature fluctuations, a one-parameter interpolation between a
system and its dual, and tomographic reconstruction of the joint
(delta_eps, delta_beta) quasiprobability with semiclassical scale
h = 2/n (k_B = 1 internally).
"""

from .core import (
    K_B_CGS,
    EnergyStats,
    GaussianFluctuation,
    ManifoldPoint,
    OscillatorEnsemble,
    ThermoState,
    energy_stats,
    entropy_stat,
    legendre_phi,
    log_partition,
    mean_occupation,
    quasi_fluctuations,
    specific_entropy,
)
from .cumulants import (
    CoefficientTable,
    CumulantVector,
    c_explicit,
    central_moments,
    coefficient_table,
    cumulants_to_moments,
    energy_cumulants,
    finite_difference_cumulant,
    fluctuation_cumulants,
    moments_to_cumulants,
    power_sum_check,
    stirling2,
)
from .duality import (
    DualPair,
    DualityReport,
    phi,
    solve_remark1,
    solve_symmetric,
    verify_duality,
)
from .homotopy import HomotopyPath, PathPoint, path_cumulants, path_params
from .sampler import SampleRun, empirical_cumulants, k_statistics, sample_energies
from .tomography import (
    QuasiDensityGrid,
    Tomogram,
    build_tomogram,
    gaussian_limit,
    gaussian_tomogram_family,
    homotopy_tomograms,
    make_grid,
    purity,
    reconstruct,
)
from .quantum import (
    GaussianEvolution,
    GaussianWavePacket,
    WaveProfile,
    gaussian_evolution_params,
    h_fourier,
    propagate,
    to_profile,
    wigner_coherent,
)

__version__ = "0.1.0"
