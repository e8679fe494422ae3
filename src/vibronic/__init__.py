"""Vibronic (Franck-Condon) spectra under the linear coupling model.

Two engines share one integer energy lattice: an exact sum-over-states
convolution for reference stick spectra, and a linear-scaling Poisson
sampler that emulates attenuated coherent light hitting a photon
detector.
Analysis utilities quantify their agreement (fidelity) and broaden
sticks into band profiles.
"""

from .analysis import (
    BroadeningKernel,
    ConvergenceReport,
    EnergyGrid,
    GridError,
    broaden,
    convergence_study,
    fidelity,
    normalize,
)
from .model import (
    IDEAL_DETECTOR,
    DetectorModel,
    Mode,
    Molecule,
    ValidationError,
    hr_from_gradient,
    prune_modes,
    validate_molecule,
)
from .sampling import (
    SampledSpectrum,
    SamplerConfig,
    poisson_draw,
    sample_mode,
    sample_spectrum,
)
from .sos import (
    BudgetExceededError,
    LineSpectrum,
    SosConfig,
    build_reference_spectrum,
    fc_factor_1d,
    state_count,
)

__version__ = "0.1.0"

__all__ = [
    "Mode",
    "Molecule",
    "ValidationError",
    "hr_from_gradient",
    "prune_modes",
    "validate_molecule",
    "SosConfig",
    "LineSpectrum",
    "BudgetExceededError",
    "fc_factor_1d",
    "state_count",
    "build_reference_spectrum",
    "SamplerConfig",
    "DetectorModel",
    "SampledSpectrum",
    "IDEAL_DETECTOR",
    "poisson_draw",
    "sample_mode",
    "sample_spectrum",
    "BroadeningKernel",
    "EnergyGrid",
    "GridError",
    "ConvergenceReport",
    "normalize",
    "fidelity",
    "broaden",
    "convergence_study",
]
