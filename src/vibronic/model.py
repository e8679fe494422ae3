"""Domain types: modes, molecules, the detector model, Huang-Rhys ingestion.

A `Molecule` checks its own invariants when it is constructed, so every
entry point (the library, the file reader, the CLI) holds a valid one.
A mode is numbered by its 1-based position in `Molecule.modes`; that
number keys the sampler's random sub-streams.

Public constructors and numeric functions refuse their numbers
through `check` (or, where all problems are reported together,
`refusal`), naming the field or parameter: a bool, a str or any other
non-number is refused before the field's rule, and nothing is
converted, so numpy numbers and huge ints pass where their rule holds.
`finite` is the one test of a finite real number.

All spectral energies (mode quanta, zero-phonon line) are in cm^-1.
Huang-Rhys factors are dimensionless, so everything downstream of
`hr_from_gradient` is unit-free.

Energies are quantized once, to int64 keys on one lattice of
`TICKS_PER_CM1` ticks per cm^-1, so transition energies are exact
integer sums that both engines and the fidelity join agree on.
`sublattice` gives the coarser lattice both engines merge on, its
cells one gcd of the mode keys apart, and `sum_by_key` is the one
merge of lines that land on one key or cell, summing each key's weights in input order
however it indexes the keys.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__

__all__ = [
    "Mode",
    "Molecule",
    "DetectorModel",
    "IDEAL_DETECTOR",
    "ValidationError",
    "hr_from_gradient",
    "prune_modes",
    "TICKS_PER_CM1",
    "energy_keys",
    "key_energies",
    "sum_by_key",
]

# Resolution of the energy lattice: 1e-6 cm^-1.
TICKS_PER_CM1 = 10**6
# Keys up to 2**53 convert to float64 exactly, so `key_energies`
# returns the correctly rounded lattice value (|E| < ~9e9 cm^-1).
KEY_LIMIT = 2**53
_DENSE_SPAN = 4  # lines spanning fewer sublattice cells each are indexed densely


class ValidationError(ValueError):
    """A molecule or mode violates a structural invariant."""


_KINDS = {numbers.Integral: "an integer", numbers.Real: "a real number"}


def refusal(name: str, value, kind: type, rule: str, ok) -> str | None:
    """Why the field or parameter `name` refuses `value`, or None.

    `value` must be a `kind` number (`numbers.Integral` or
    `numbers.Real`; numpy numbers are, a bool or a str is not) for
    which `ok(value)` holds, as `rule` says.  It is never converted.
    """
    if isinstance(value, bool) or not isinstance(value, kind):
        return f"{name} must be {_KINDS[kind]}, got {value!r}"
    if not ok(value):
        return f"{name} must be {rule}, got {value}"
    return None


def check(name: str, value, kind: type, rule: str, ok) -> None:
    """Raise `refusal`'s reason, if there is one, as a ValueError."""
    if (reason := refusal(name, value, kind, rule, ok)) is not None:
        raise ValueError(reason)


def finite(value) -> bool:
    """Whether `value` is a finite real number: not a bool, a str, nan,
    +-inf or an int beyond float range."""
    try:
        return refusal("", value, numbers.Real, "", math.isfinite) is None
    except OverflowError:  # math.isfinite converts an int to a float
        return False


def nonnegative(value) -> bool:
    """Whether `value` is a `finite` real number >= 0."""
    return finite(value) and value >= 0


@dataclass(frozen=True)
class Mode:
    """One vibrational normal mode.  Its number is its 1-based position
    in the molecule's `modes`.

    Parameters
    ----------
    energy : float
        Vibrational quantum energy in cm^-1; must be positive.
    huang_rhys : float
        Dimensionless Huang-Rhys factor S >= 0, the mean number of
        quanta excited in this mode by the electronic transition.
    """

    energy: float
    huang_rhys: float


@dataclass(frozen=True)
class Molecule:
    """A named set of modes plus the zero-phonon-line energy.

    `transition` selects the sign of the vibrational energy offsets:
    "absorption" adds quanta above e00, "emission" subtracts.

    Construction checks every invariant: a str name, the transition, a
    finite e00 >= 0, each mode's finite energy > 0 and finite S >= 0 (a
    bool or a str is not `finite`), and at most 3M-5 modes for
    `atom_count` M, an integer (a bool or float is not).  Every
    violation is reported together in one ValidationError (`refusal`
    gives each field's), naming modes by position.  A molecule with
    zero modes is legal (its spectrum is a pure 0-0 line).
    """

    name: str
    e00: float
    transition: str  # "absorption" | "emission"
    modes: tuple[Mode, ...] = field(default_factory=tuple)
    atom_count: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        problems: list[str | None] = []
        if not isinstance(self.name, str):
            problems.append(f"name must be a string, got {self.name!r}")
        if self.transition not in ("absorption", "emission"):
            problems.append(
                f"transition must be 'absorption' or 'emission', got {self.transition!r}"
            )
        problems.append(refusal("e00", self.e00, numbers.Real, ">= 0", nonnegative))
        for i, mode in enumerate(self.modes, 1):
            if not (finite(mode.energy) and mode.energy > 0):
                problems.append(f"mode {i}: energy > 0 violated (got {mode.energy!r})")
            if not nonnegative(mode.huang_rhys):
                problems.append(f"mode {i}: huang_rhys >= 0 violated (got {mode.huang_rhys!r})")
        if self.atom_count is not None:
            problems.append(refusal("atom_count", self.atom_count, numbers.Integral, "positive",
                                    lambda m: m >= 1))
            # in Python ints: numpy's would wrap
            if problems[-1] is None and len(self.modes) > (bound := 3 * int(self.atom_count) - 5):
                problems[-1] = (f"{len(self.modes)} modes exceeds 3M-5 = {bound} "
                                f"for {self.atom_count} atoms")
        problems = [p for p in problems if p is not None]
        if problems:
            raise ValidationError(f"invalid molecule {self.name!r}: " + "; ".join(problems))

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

    Construction refuses a bool or a str for either number (`check`)
    and anything but a bool (numpy's too) for `threshold_mode`, naming
    the field; numpy numbers pass.
    """

    efficiency: float = 1.0
    dark_mean: float = 0.0
    threshold_mode: bool = False

    def __post_init__(self):
        check("efficiency", self.efficiency, numbers.Real, "in (0, 1]", lambda e: 0 < e <= 1)
        check("dark_mean", self.dark_mean, numbers.Real, ">= 0 and finite", nonnegative)
        if not isinstance(self.threshold_mode, (bool, np.bool_)):
            raise ValueError(f"threshold_mode must be a bool, got {self.threshold_mode!r}")

    def recorded(self, s: float, k: int | None) -> tuple[float, int | None]:
        """(mean, top): one mode's recorded count is Poisson(mean) clipped at top.

        Loss thins Poisson(s) photons to Poisson(efficiency * s) and dark
        counts add Poisson(dark_mean); a click detector clips at 1 and the
        cap at `k` (None: no cap).  Both engines take the law from here,
        and the mean is a float64 whatever numbers made it.
        """
        if self.threshold_mode:
            k = 1 if k is None else min(k, 1)
        return float(self.efficiency) * float(s) + float(self.dark_mean), k


IDEAL_DETECTOR = DetectorModel()


def result_provenance(m: Molecule, d: DetectorModel, **fields) -> dict:
    """A result's provenance: molecule, the result's `fields`, detector, version."""
    return {"molecule": m.name, **fields, **vars(d), "version": __version__}


def energy_keys(energies) -> np.ndarray:
    """int64 lattice keys of energies in cm^-1: round(E * TICKS_PER_CM1).

    Raises ValueError for non-finite energies or energies whose key
    would exceed `KEY_LIMIT`.
    """
    e = np.asarray(energies, dtype=float)
    # exactly |E * TICKS_PER_CM1| <= KEY_LIMIT in float64, checked before the product can overflow
    if not np.all(np.abs(e) <= KEY_LIMIT / TICKS_PER_CM1):
        raise ValueError(
            f"energies must be finite and within +/-{KEY_LIMIT / TICKS_PER_CM1:.6g} cm^-1"
        )
    return np.rint(e * TICKS_PER_CM1).astype(np.int64)


def key_energies(keys) -> np.ndarray:
    """Energies in cm^-1 of lattice keys; true division makes each the
    correctly rounded lattice value."""
    return np.asarray(keys, dtype=np.int64) / TICKS_PER_CM1


def sum_by_key(keys, weights) -> tuple[np.ndarray, np.ndarray]:
    """Distinct sorted keys and the summed weight on each, zero totals kept.

    Each key's weights are summed by `np.bincount` in input order, so the
    sums have the same bits however the keys are indexed: as key - min
    where they span under `_DENSE_SPAN` x their count, else by stable sort.
    Callers pass keys on one lattice as its cells (`sublattice`), where
    lines that are sparse in keys are dense.  int64 weights come back
    int64, exact while each total is below 2**53.
    """
    keys, weights = np.asarray(keys), np.asarray(weights)
    if keys.size == 0:
        return keys, weights
    lo = keys.min()
    if keys.max() - lo < _DENSE_SPAN * keys.size:
        cell = keys - lo
        nz = np.flatnonzero(np.bincount(cell))
        distinct = lo + nz
    else:
        order = np.argsort(keys, kind="stable")  # stable: each key's weights stay in order
        ordered = keys[order]
        first = np.empty(keys.size, dtype=bool)
        first[0], first[1:] = True, ordered[1:] != ordered[:-1]
        cell, weights, nz = np.cumsum(first) - 1, weights[order], slice(None)
        distinct = ordered[first]
    return distinct, np.bincount(cell, weights)[nz].astype(weights.dtype, copy=False)


def sublattice(m: Molecule) -> tuple[int, int, list[int]]:
    """(origin, step, cells per quantum) of `m`'s transition keys.

    Every transition key is origin + step * c for an integer cell c:
    origin is key(e00), step the gcd of the mode keys (1 without modes),
    and one quantum of mode i moves c by the i-th signed cell count.
    Both engines work in cells and form keys once at the end.
    """
    ticks = energy_keys(m.energies) * m.sign
    step = math.gcd(*map(int, ticks)) or 1
    return int(energy_keys(m.e00)), step, (ticks // step).tolist()


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
        If omega is not a positive finite number, gradient is not
        finite, or S overflows float64.
    """
    check("omega", omega, numbers.Real, "positive and finite", lambda w: finite(w) and w > 0)
    check("gradient", gradient, numbers.Real, "finite", finite)
    omega, gradient = float(omega), float(gradient)  # an int G^2 could pass float range
    # omega * (G/omega)^2 / 2 simplified.  Where G^2 is not normal or 2 omega overflows,
    # that rounds S off or gives 0 or inf; dividing G by omega first keeps a normal S.
    s = gradient * gradient / (2.0 * omega)
    if gradient * gradient < np.finfo(float).tiny or not 0.0 < s < math.inf:
        alt = gradient / omega * gradient / 2.0
        if alt >= np.finfo(float).tiny:
            s = alt
    if not math.isfinite(s):
        raise ValueError(f"S = G^2/(2 omega) overflows for omega={omega!r}, gradient={gradient!r}")
    return s


def prune_modes(m: Molecule, threshold: float) -> Molecule:
    """Drop modes with Huang-Rhys factor <= threshold, keeping order.

    Survivors are renumbered by their new positions.  Idempotent:
    pruning twice at the same threshold is a no-op the second time.
    """
    check("threshold", threshold, numbers.Real, ">= 0 and finite", nonnegative)
    return replace(m, modes=tuple(mode for mode in m.modes if mode.huang_rhys > threshold))
