"""vibsim: Gaussian-optics simulation of vibronic-spectroscopy experiments.

Builds phase-space models of ideal and imperfect squeezed-light setups,
computes Franck-Condon tables against a truncated Fock-space oracle,
bounds estimation errors through state fidelities, optimizes controllable
parameters against characterized imperfections, and benchmarks results
against the best classical state.
"""

from .gaussian import (
    BeamSplitter,
    Displace,
    GaussianCircuit,
    GaussianState,
    Loss,
    PhysicalityError,
    Squeeze,
    ThermalMix,
    TwoModeSqueeze,
    apply,
    fidelity,
    mean_photon,
    replay,
    symplectic_eigenvalues,
    vacuum,
)
from .fock import (
    FockDensity,
    FockMemoryError,
    TruncationError,
    attach_detector_noise,
    element_matrix,
    fidelity_fock,
    gaussian_to_fock,
    photon_distribution,
    replay_fock,
)
from .tables import CountHistogram, FCTable
from .vibronic import (
    OpticalTarget,
    Spectrum,
    VibronicTransition,
    doktorov_decompose,
    fc_factors,
    gaussian_statistics,
    spectrum,
)
from .experiment import (
    DetectorModel,
    ExperimentModel,
    ParameterUncertainty,
    SMSVPair,
    TMSV,
    build_circuit,
    effective_state,
    model_fidelity,
    observed_distribution,
)
from .metrics import (
    ClassicalBenchmark,
    ErrorBudget,
    closest_classical,
    total_bound,
    trace_bound,
    tvd,
    witness,
)
from .optimize import monte_carlo_fidelity, nelder_mead, optimize_experiment
from .sampler import estimate_fc, sample
from .calibrate import fit_pump_curve, fit_source, hom_to_delta, pump_to_r

__version__ = "0.1.0"
