"""Exact sum-over-states reference spectra.

The spectrum is the distribution of E00 +/- sum_i E_i j_i over all
configurations (j_1, ..., j_N) with each j_i <= K, weighted by the
product of the probabilities that a detector records each j_i
(`DetectorModel.recorded`; for the ideal detector, the one-dimensional
Franck-Condon factors), so a reference is exact for samples taken
through its detector.  It is built by one algorithm, a mode-by-mode
convolution on the integer energy lattice: each mode contributes K+1
sticks, and sticks that land on one lattice key are summed after every
mode.  Cost is live sticks x (K+1) per mode, not (1+K)^N; a work
budget refuses any single step past it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (IDEAL_DETECTOR, DetectorModel, Molecule, check_key_reach, energy_keys,
                    key_energies)

__all__ = [
    "SosConfig",
    "LineSpectrum",
    "BudgetExceededError",
    "fc_factor_1d",
    "state_count",
    "build_reference_spectrum",
    "mode_distribution",
    "DEFAULT_ENUMERATION_BUDGET",
]

DEFAULT_ENUMERATION_BUDGET = 10**8

# Above this j, or this log(s^j), the direct product risks overflow,
# so switch to log-space evaluation.
_LOG_SPACE_J = 20
_LOG_DIRECT_MAX = 700.0


class BudgetExceededError(RuntimeError):
    """A convolution step's work exceeds the enumeration budget.

    Attributes
    ----------
    count : int
        The refused step's term count, live sticks x (K+1).
    """

    def __init__(self, count: int, budget: int):
        self.count = count
        self.budget = budget
        super().__init__(
            f"convolution step of {count} terms exceeds the work budget {budget}; "
            "use the sampling engine for systems this large"
        )


@dataclass(frozen=True)
class SosConfig:
    """Settings for one sum-over-states run.

    `overflow` selects how probability mass beyond the cutoff K is
    treated when building the reference distribution:

    - "truncate": configurations with any j_i > K simply do not exist
      (raw total intensity < 1 by the missing Poisson tail);
    - "cap": tail mass of each mode is aggregated onto j_i = K, the
      same rule the sampler applies when it clips drawn counts.  Use
      this when comparing against clipped samples.

    `enumeration_budget` bounds the terms (live sticks x (K+1)) that
    any one convolution step may materialize.
    """

    max_quanta: int = 1
    fc_prune: float | None = None
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET
    overflow: str = "truncate"  # "truncate" | "cap"

    def __post_init__(self):
        if self.max_quanta < 0:
            raise ValueError(f"max_quanta must be >= 0, got {self.max_quanta}")
        if self.fc_prune is not None and not self.fc_prune >= 0:
            raise ValueError(f"fc_prune must be >= 0, got {self.fc_prune}")
        if self.overflow not in ("truncate", "cap"):
            raise ValueError(f"overflow must be 'truncate' or 'cap', got {self.overflow!r}")


@dataclass
class LineSpectrum:
    """A discrete stick spectrum: strictly increasing energies (cm^-1)
    with non-negative intensities.  `provenance` is the spectrum's one
    metadata record; `io.write_spectrum` writes it as the file header."""

    energies: np.ndarray
    intensities: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.energies = np.asarray(self.energies, dtype=float)
        self.intensities = np.asarray(self.intensities, dtype=float)
        if self.energies.shape != self.intensities.shape:
            raise ValueError("energies and intensities must have equal length")
        if self.energies.size > 1 and not np.all(np.diff(self.energies) > 0):
            raise ValueError("energies must be strictly increasing")
        if np.any(self.intensities < 0):
            raise ValueError("intensities must be non-negative")

    def __len__(self) -> int:
        return self.energies.size

    @property
    def total(self) -> float:
        return float(self.intensities.sum())


def fc_factor_1d(s: float, j: int) -> float:
    """One-dimensional Franck-Condon factor s^j e^-s / j!.

    Equals the Poisson pmf at j with mean s; always in [0, 1].
    Evaluated in log space for j > 20 to dodge factorial overflow, and
    for any j where s^j alone would overflow.
    """
    if not math.isfinite(s) or s < 0:
        raise ValueError(f"Huang-Rhys factor must be >= 0, got {s!r}")
    if j < 0:
        raise ValueError(f"quantum number must be >= 0, got {j}")
    if s == 0.0:
        return 1.0 if j == 0 else 0.0
    if j <= _LOG_SPACE_J and j * math.log(s) < _LOG_DIRECT_MAX:
        return s**j * math.exp(-s) / math.factorial(j)
    return math.exp(j * math.log(s) - s - math.lgamma(j + 1))


def state_count(n_modes: int, k: int) -> int:
    """Exact configuration count (1+K)^N, arbitrary precision."""
    if n_modes < 0 or k < 0:
        raise ValueError("n_modes and k must be >= 0")
    return (1 + k) ** n_modes


def mode_distribution(s: float, k: int, overflow: str = "truncate",
                      d: DetectorModel = IDEAL_DETECTOR) -> np.ndarray:
    """Probability of each count `d` records for one mode, j = 0..top.

    The count is Poisson(mean) clipped at top, (mean, top) =
    `d.recorded(s, K)`; a click detector's clip piles P(j >= 1) onto 1
    under either overflow.  At the cutoff K, "truncate" keeps raw
    Poisson pmf values (sums to the regularized CDF, < 1); "cap" piles
    the tail mass P(j >= K) onto the K bin, so the vector sums to 1
    exactly like clipped samples do.
    """
    mean, top = d.recorded(s, k)
    p = np.array([fc_factor_1d(mean, j) for j in range(top + 1)])
    if overflow == "cap" or top == d.recorded(s, None)[1]:
        p[top] = 1.0 - p[:top].sum()
    return p


def build_reference_spectrum(m: Molecule, cfg: SosConfig,
                             d: DetectorModel = IDEAL_DETECTOR) -> LineSpectrum:
    """Exact reference stick spectrum up to cutoff K, as detector `d` records it.

    Modes are convolved one at a time on the integer energy lattice;
    sticks sharing a key are summed after every mode, which is
    algebraically identical to enumerating all (1+K)^N configurations.
    Before each step materializes live sticks x (top+1) terms, top =
    min(K, the detector's clip), a step larger than
    `cfg.enumeration_budget` raises BudgetExceededError.

    With `cfg.fc_prune` set, every stick whose merged intensity falls
    below the threshold is dropped after each mode.  A merged stick
    below it means every configuration feeding it is below it too,
    and later factors are <= 1, so each configuration with FC product
    >= the threshold survives: the pruned spectrum keeps at least the
    mass that pruning the enumeration of configurations keeps.

    With the ideal detector, raw total intensity equals
    prod_i CDF_Poisson(K; S_i) under "truncate" overflow, and exactly 1
    under "cap" (both without pruning).
    """
    k = cfg.max_quanta
    top = d.recorded(0.0, k)[1]  # the clip does not depend on S
    # Canonical mode order fixes the float order of the intensity
    # products, so the result is independent of the caller's mode
    # permutation, bit for bit.
    modes = sorted(m.modes, key=lambda md: (md.energy, md.huang_rhys))
    ticks = energy_keys([md.energy for md in modes]) * m.sign
    origin = int(energy_keys(m.e00))
    check_key_reach(abs(origin) + top * sum(abs(int(t)) for t in ticks))

    keys = np.array([origin], dtype=np.int64)
    inten = np.array([1.0])
    for mode, t in zip(modes, ticks):
        work = keys.size * (top + 1)
        if work > cfg.enumeration_budget:
            raise BudgetExceededError(work, cfg.enumeration_budget)
        p = mode_distribution(mode.huang_rhys, k, cfg.overflow, d)
        shifted = keys[:, None] + t * np.arange(top + 1)
        keys, inverse = np.unique(shifted.ravel(), return_inverse=True)
        inten = np.bincount(inverse, weights=(inten[:, None] * p).ravel())
        # Exactly-zero sticks only arise from modes whose recorded mean
        # is 0 (or underflow); dropping them keeps such modes invisible.
        live = inten > 0.0
        if cfg.fc_prune is not None:
            live &= inten >= cfg.fc_prune
        keys, inten = keys[live], inten[live]

    return LineSpectrum(
        key_energies(keys),
        inten,
        provenance={
            "molecule": m.name,
            "engine": "sos",
            "max_quanta": k,
            "overflow": cfg.overflow,
            "fc_prune": cfg.fc_prune,
            **vars(d),
        },
    )
