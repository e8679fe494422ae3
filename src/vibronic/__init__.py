"""Vibronic (Franck-Condon) spectra under the linear coupling model.

Two engines share one integer energy lattice: an exact sum-over-states
convolution for reference stick spectra, and a linear-scaling Poisson
sampler that emulates attenuated coherent light hitting a photon
detector.
Analysis utilities quantify their agreement (fidelity) and broaden
sticks into band profiles.
"""

# The one copy of the version (pyproject.toml reads it); bound before
# the submodule imports, which record it in every result's provenance.
__version__ = "0.7.0"

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
    LineSpectrum,
    Mode,
    Molecule,
    ValidationError,
    fc_factor_1d,
    hr_from_gradient,
    prune_modes,
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
    SosConfig,
    build_reference_spectrum,
    state_count,
)

__all__ = [
    "Mode",
    "Molecule",
    "ValidationError",
    "hr_from_gradient",
    "prune_modes",
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
