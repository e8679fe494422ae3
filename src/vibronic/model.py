"""Domain types: modes, molecules, the detector model, Huang-Rhys ingestion.

All spectral energies (mode quanta, zero-phonon line) are in cm^-1.
Huang-Rhys factors are dimensionless, so everything downstream of
`hr_from_gradient` is unit-free.

Energies are quantized once, to int64 keys on one lattice of
`TICKS_PER_CM1` ticks per cm^-1, so transition energies are exact
integer sums that both engines and the fidelity join agree on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "Mode",
    "Molecule",
    "DetectorModel",
    "IDEAL_DETECTOR",
    "ValidationError",
    "hr_from_gradient",
    "validate_molecule",
    "prune_modes",
    "DEFAULT_PRUNE_THRESHOLD",
    "TICKS_PER_CM1",
    "energy_keys",
    "key_energies",
]

# Modes with S below this contribute factors indistinguishable from 1
# and are conventionally dropped.
DEFAULT_PRUNE_THRESHOLD = 1e-5

# Resolution of the energy lattice: 1e-6 cm^-1.
TICKS_PER_CM1 = 10**6
# Keys up to 2**53 convert to float64 exactly, so `key_energies`
# returns the correctly rounded lattice value (|E| < ~9e9 cm^-1).
KEY_LIMIT = 2**53


class ValidationError(ValueError):
    """A molecule or mode violates a structural invariant."""


@dataclass(frozen=True)
class Mode:
    """One vibrational normal mode.

    Parameters
    ----------
    index : int
        1-based ordinal of the mode within its molecule.
    energy : float
        Vibrational quantum energy in cm^-1; must be positive.
    huang_rhys : float
        Dimensionless Huang-Rhys factor S >= 0, the mean number of
        quanta excited in this mode by the electronic transition.
    """

    index: int
    energy: float
    huang_rhys: float


@dataclass(frozen=True)
class Molecule:
    """A named set of modes plus the zero-phonon-line energy.

    `transition` selects the sign of the vibrational energy offsets:
    "absorption" adds quanta above e00, "emission" subtracts.
    """

    name: str
    e00: float
    transition: str  # "absorption" | "emission"
    modes: tuple[Mode, ...] = field(default_factory=tuple)
    atom_count: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def energies(self):
        return [m.energy for m in self.modes]

    @property
    def huang_rhys(self):
        return [m.huang_rhys for m in self.modes]

    @property
    def sign(self) -> int:
        return -1 if self.transition == "emission" else +1


@dataclass(frozen=True)
class DetectorModel:
    """Detector imperfections: loss, dark counts, click saturation.

    efficiency : float in (0, 1]
        Photon survival probability (Poisson thinning).
    dark_mean : float >= 0, finite
        Expected dark counts per gate, added as an independent Poisson.
    threshold_mode : bool
        True emulates SPAD/SNSPD click detectors: any count >= 1 is 1.
    """

    efficiency: float = 1.0
    dark_mean: float = 0.0
    threshold_mode: bool = False

    def __post_init__(self):
        if not (0.0 < self.efficiency <= 1.0):
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if not (0.0 <= self.dark_mean < math.inf):
            raise ValueError(f"dark_mean must be >= 0 and finite, got {self.dark_mean}")

    def recorded(self, s: float, k: int | None) -> tuple[float, int | None]:
        """(mean, top): one mode's recorded count is Poisson(mean) clipped at top.

        Loss thins Poisson(s) photons to Poisson(efficiency * s) and dark
        counts add Poisson(dark_mean); a click detector clips at 1 and the
        cap at `k` (None: no cap).  Both engines take the law from here.
        """
        if self.threshold_mode:
            k = 1 if k is None else min(k, 1)
        return self.efficiency * s + self.dark_mean, k


IDEAL_DETECTOR = DetectorModel()


def energy_keys(energies) -> np.ndarray:
    """int64 lattice keys of energies in cm^-1: round(E * TICKS_PER_CM1).

    Raises ValueError for non-finite energies or energies whose key
    would exceed `KEY_LIMIT`.
    """
    ticks = np.asarray(energies, dtype=float) * TICKS_PER_CM1
    if not np.all(np.abs(ticks) <= KEY_LIMIT):
        raise ValueError(
            f"energies must be finite and within +/-{KEY_LIMIT / TICKS_PER_CM1:.6g} cm^-1"
        )
    return np.rint(ticks).astype(np.int64)


def key_energies(keys) -> np.ndarray:
    """Energies in cm^-1 of lattice keys; true division makes each the
    correctly rounded lattice value."""
    return np.asarray(keys, dtype=np.int64) / TICKS_PER_CM1


def check_key_reach(reach: int) -> None:
    """Refuse a bound on |key| past `KEY_LIMIT` before int64 sums wrap."""
    if reach > KEY_LIMIT:
        raise ValueError(f"transition energies reach {reach / TICKS_PER_CM1:.6g} cm^-1, "
                         "beyond the energy lattice")


def hr_from_gradient(omega: float, gradient: float) -> float:
    """Huang-Rhys factor from an excited-state gradient along a normal mode.

    Uses the displaced-oscillator relations dQ = G/omega and
    S = omega * dQ^2 / 2 with hbar = 1, i.e. S = G^2 / (2 omega).
    `omega` and `gradient` must share one consistent unit system
    (atomic units recommended); S itself is dimensionless.

    Raises
    ------
    ValueError
        If omega is not a positive finite number.
    """
    if not math.isfinite(omega) or omega <= 0:
        raise ValueError(f"omega must be positive and finite, got {omega!r}")
    if not math.isfinite(gradient):
        raise ValueError(f"gradient must be finite, got {gradient!r}")
    # omega * (G/omega)^2 / 2 simplified; exact for all omega > 0
    return gradient * gradient / (2.0 * omega)


def validate_molecule(
    m: Molecule, prune_threshold: float = DEFAULT_PRUNE_THRESHOLD
) -> Molecule:
    """Check all structural invariants of a molecule.

    Returns the molecule unchanged on success.  Every violated
    invariant is collected and reported together, each naming the
    offending mode index and field.

    Notes
    -----
    A molecule with zero modes is legal (its spectrum is a pure 0-0
    line).  Modes with S <= `prune_threshold` are permitted here; use
    `prune_modes` to drop them.
    """
    problems: list[str] = []

    if m.transition not in ("absorption", "emission"):
        problems.append(f"transition must be 'absorption' or 'emission', got {m.transition!r}")
    if not math.isfinite(m.e00) or m.e00 < 0:
        problems.append(f"e00 must be >= 0, got {m.e00!r}")

    seen: set[int] = set()
    for k, mode in enumerate(m.modes):
        if not math.isfinite(mode.energy) or mode.energy <= 0:
            problems.append(f"mode {mode.index}: energy > 0 violated (got {mode.energy!r})")
        if not math.isfinite(mode.huang_rhys) or mode.huang_rhys < 0:
            problems.append(
                f"mode {mode.index}: huang_rhys >= 0 violated (got {mode.huang_rhys!r})"
            )
        if mode.index in seen:
            problems.append(f"mode {mode.index}: duplicate index")
        seen.add(mode.index)
        if mode.index != k + 1:
            problems.append(
                f"mode at position {k}: index must be {k + 1}, got {mode.index}"
            )

    if m.atom_count is not None:
        if m.atom_count < 1:
            problems.append(f"atom_count must be positive, got {m.atom_count}")
        else:
            bound = 3 * m.atom_count - 5
            if len(m.modes) > bound:
                problems.append(
                    f"{len(m.modes)} modes exceeds 3M-5 = {bound} for {m.atom_count} atoms"
                )

    if problems:
        raise ValidationError(f"invalid molecule {m.name!r}: " + "; ".join(problems))
    return m


def prune_modes(m: Molecule, threshold: float = DEFAULT_PRUNE_THRESHOLD) -> Molecule:
    """Drop modes with Huang-Rhys factor <= threshold, keeping order.

    Surviving modes are reindexed contiguously from 1.  Idempotent:
    pruning twice at the same threshold is a no-op the second time.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    kept = [mode for mode in m.modes if mode.huang_rhys > threshold]
    reindexed = tuple(replace(mode, index=i + 1) for i, mode in enumerate(kept))
    return replace(m, modes=reindexed)
