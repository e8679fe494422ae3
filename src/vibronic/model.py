"""Domain types: modes, molecules, the detector model, Huang-Rhys ingestion.

A `Molecule` checks its own invariants when it is constructed, so every
entry point (the library, the file reader, the CLI) holds a valid one.
A mode is numbered by its 1-based position in `Molecule.modes`; that
number keys the sampler's random sub-streams.

Public constructors and numeric functions refuse their numbers
through `check` (or, where all problems are reported together,
`refusal`), naming the field or parameter: a bool, a str or any other
non-number is refused before the field's rule, so numpy numbers and
huge ints pass where their rule holds.  `check` returns what it
accepts as a Python number, an `int` for an integer field and a
`float` for a real one; constructors store that (`store`; a
`Molecule` converts its numbers once every check has passed) and
functions compute with it, so a numpy input gives the arithmetic of
the Python number it equals and nothing downstream converts again.
`finite` is the one test of a finite real number.

The per-mode count law, shared by both engines and stated here once:
mode i's recorded count J is Poisson(efficiency * S_i + dark_mean),
clipped at 1 by a click detector and at the cutoff K
(`DetectorModel.recorded`); at the ideal detector its pmf is the
one-dimensional Franck-Condon factor (`fc_factor_1d`).  SOS convolves
`mode_distribution`'s vector of P(J = j), j = 0..top.  The sampler
splits events by the hazards h_j = P(J = j | J >= j) (`hazards`), which
keep their own form rather than reading that vector: without a cap J
is unbounded, so no finite vector holds it, and above the mean 1/h_j
is `tail_ratio`'s upward series, which needs no pmf value, so deep in
the tail nothing underflows to 0/0 or cancels in 1 - head.

All spectral energies (mode quanta, zero-phonon line) are in cm^-1.
Huang-Rhys factors are dimensionless, so everything downstream of
`hr_from_gradient` is unit-free.

Energies are quantized once, to int64 keys on one lattice of
`TICKS_PER_CM1` ticks per cm^-1, so transition energies are exact
integer sums that both engines and the fidelity join agree on.
`sublattice` gives the coarser lattice both engines merge on, its
cells one gcd of the mode keys apart, and `sum_by_key` merges lines
that land on one key or cell, summing each key's weights in input
order however it indexes the keys.  The sampler merges a cell's int64
moves without it, since integer sums do not depend on their order and
a call pays for its every cell: `sampling._merge` counts dense cells
in a table spanned from its runs' ends and sums sparse ones by a
stable sort and `np.add.reduceat` (~10 us a merge less than
`sum_by_key`), and `sampling._split_few` sums a walk over a few lines
in a dict, with no array call.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__

__all__ = [
    "Mode",
    "Molecule",
    "DetectorModel",
    "IDEAL_DETECTOR",
    "LineSpectrum",
    "fc_factor_1d",
    "mode_distribution",
    "tail_ratio",
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

# Above this j, or this log(s^j), the direct product risks overflow,
# so switch to log-space evaluation.
_LOG_SPACE_J = 20
_LOG_DIRECT_MAX = 700.0


class ValidationError(ValueError):
    """A molecule or mode violates a structural invariant."""


_KINDS = {numbers.Integral: "an integer", numbers.Real: "a real number"}


def refusal(name: str, value, kind: type, rule: str, ok) -> str | None:
    """Why the field or parameter `name` refuses `value`, or None.

    `value` must be a `kind` number (`numbers.Integral` or
    `numbers.Real`; numpy numbers are, a bool or a str is not) for
    which `ok(value)` holds, as `rule` says.
    """
    if isinstance(value, bool) or not isinstance(value, kind):
        return f"{name} must be {_KINDS[kind]}, got {value!r}"
    if not ok(value):
        return f"{name} must be {rule}, got {value}"
    return None


def check(name: str, value, kind: type, rule: str, ok) -> int | float:
    """Raise `refusal`'s reason, if there is one, as a ValueError; else
    return `value` as a Python number: `int(value)` for an integer
    `kind`, `float(value)` for a real one (an int past 2**53 rounds to
    the nearest float)."""
    if (reason := refusal(name, value, kind, rule, ok)) is not None:
        raise ValueError(reason)
    return int(value) if kind is numbers.Integral else float(value)


def store(obj, name: str, kind: type, rule: str, ok) -> None:
    """`check` the frozen dataclass field `name` of `obj` and store the
    Python number it returns."""
    object.__setattr__(obj, name, check(name, getattr(obj, name), kind, rule, ok))


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
    finite e00 >= 0, `modes` an iterable of `Mode`s (not a str; stored
    as a tuple), each mode's finite energy > 0 and finite S >= 0 (a
    bool or a str is not `finite`), and at most 3M-5 modes for
    `atom_count` M, an integer (a bool or float is not).  Every
    violation is reported together in one ValidationError (`refusal`
    gives each field's), naming modes by position.  Only a molecule
    that passes them all stores its numbers as Python numbers (`check`):
    e00 and each mode's energy and S as floats, `atom_count` as an int.
    A molecule with zero modes is legal (its spectrum is a pure 0-0 line).
    """

    name: str
    e00: float
    transition: str  # "absorption" | "emission"
    modes: tuple[Mode, ...] = field(default_factory=tuple)
    atom_count: int | None = None

    def __post_init__(self):
        problems: list[str | None] = []
        sequence = isinstance(self.modes, Iterable) and not isinstance(self.modes, str)
        if not sequence:
            problems.append(f"modes must be a sequence of Mode, got {self.modes!r}")
        object.__setattr__(self, "modes", tuple(self.modes) if sequence else ())
        if not isinstance(self.name, str):
            problems.append(f"name must be a string, got {self.name!r}")
        if self.transition not in ("absorption", "emission"):
            problems.append(
                f"transition must be 'absorption' or 'emission', got {self.transition!r}"
            )
        problems.append(refusal("e00", self.e00, numbers.Real, ">= 0", nonnegative))
        for i, mode in enumerate(self.modes, 1):
            if not isinstance(mode, Mode):
                problems.append(f"mode {i}: must be a Mode, got {mode!r}")
                continue
            if not (finite(mode.energy) and mode.energy > 0):
                problems.append(f"mode {i}: energy > 0 violated (got {mode.energy!r})")
            if not nonnegative(mode.huang_rhys):
                problems.append(f"mode {i}: huang_rhys >= 0 violated (got {mode.huang_rhys!r})")
        if self.atom_count is not None:
            problems.append(refusal("atom_count", self.atom_count, numbers.Integral, "positive",
                                    lambda m: m >= 1))
            if problems[-1] is None:
                object.__setattr__(self, "atom_count", int(self.atom_count))
                if len(self.modes) > (bound := 3 * self.atom_count - 5):
                    problems[-1] = (f"{len(self.modes)} modes exceeds 3M-5 = {bound} "
                                    f"for {self.atom_count} atoms")
        problems = [p for p in problems if p is not None]
        if problems:
            raise ValidationError(f"invalid molecule {self.name!r}: " + "; ".join(problems))
        object.__setattr__(self, "e00", float(self.e00))
        object.__setattr__(self, "modes", tuple(Mode(float(mode.energy), float(mode.huang_rhys))
                                                for mode in self.modes))

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
    the field; numpy numbers pass, stored as Python floats and a bool.
    """

    efficiency: float = 1.0
    dark_mean: float = 0.0
    threshold_mode: bool = False

    def __post_init__(self):
        store(self, "efficiency", numbers.Real, "in (0, 1]", lambda e: 0 < e <= 1)
        store(self, "dark_mean", numbers.Real, ">= 0 and finite", nonnegative)
        if not isinstance(self.threshold_mode, (bool, np.bool_)):
            raise ValueError(f"threshold_mode must be a bool, got {self.threshold_mode!r}")
        object.__setattr__(self, "threshold_mode", bool(self.threshold_mode))

    def recorded(self, s: float, k: int | None) -> tuple[float, int | None]:
        """(mean, top): one mode's recorded count is Poisson(mean) clipped at top.

        Loss thins Poisson(s) photons to Poisson(efficiency * s) and dark
        counts add Poisson(dark_mean); a click detector clips at 1 and the
        cap at `k` (None: no cap).  Both engines take the law from here.
        `s` must be a finite real >= 0 and `k` an integer >= 0 or None;
        `check` refuses anything else by name, so the mean is a Python
        float and the top a Python int or None whatever numbers are given.
        A mean that overflows to inf is refused by its formula's name.
        """
        if not (type(s) is float and 0.0 <= s < math.inf
                and (k is None or type(k) is int and k >= 0)):
            s = check("s", s, numbers.Real, ">= 0 and finite", nonnegative)
            if k is not None:
                k = check("k", k, numbers.Integral, ">= 0", lambda n: n >= 0)
        if self.threshold_mode:
            k = 1 if k is None else min(k, 1)
        if (mean := self.efficiency * s + self.dark_mean) == math.inf:  # finite terms overflowed
            raise ValueError(f"efficiency * s + dark_mean must be finite, got {mean}")
        return mean, k


IDEAL_DETECTOR = DetectorModel()


def check_cutoff(k: int, overflow: str) -> int:
    """The cutoff K as a Python int; refuse one that is not an integer
    >= 0 or an unknown overflow rule, naming the value."""
    k = check("max_quanta", k, numbers.Integral, ">= 0", lambda n: n >= 0)
    if overflow not in ("truncate", "cap"):
        raise ValueError(f"overflow must be 'truncate' or 'cap', got {overflow!r}")
    return k


def fc_factor_1d(s: float, j: int) -> float:
    """One-dimensional Franck-Condon factor s^j e^-s / j!.

    Equals the Poisson pmf at j with mean s; always in [0, 1].
    Evaluated in log space for j > 20 to dodge factorial overflow, and
    for any j where s^j alone would overflow.  `s` must be a finite real
    >= 0 and `j` an integer in [0, 2**53], where lgamma(j + 1) is finite;
    `check` refuses anything else by name.
    """
    if not (isinstance(s, float) and 0.0 <= s < math.inf and type(j) is int and 0 <= j <= 2**53):
        s = check("s", s, numbers.Real, ">= 0 and finite", nonnegative)
        j = check("j", j, numbers.Integral, ">= 0 and <= 2**53", lambda n: 0 <= n <= 2**53)
    if s == 0.0:
        return 1.0 if j == 0 else 0.0
    if j <= _LOG_SPACE_J and j * math.log(s) < _LOG_DIRECT_MAX:
        return s**j * math.exp(-s) / math.factorial(j)
    return math.exp(j * math.log(s) - s - math.lgamma(j + 1))


def mode_distribution(s: float, k: int, overflow: str = "truncate",
                      d: DetectorModel = IDEAL_DETECTOR) -> np.ndarray:
    """Probability of each count `d` records for one mode, j = 0..top.

    The count is Poisson(mean) clipped at top, (mean, top) =
    `d.recorded(s, K)`; a click detector's clip piles P(j >= 1) onto 1
    under either overflow.  At the cutoff K, "truncate" keeps raw
    Poisson pmf values (sums to the regularized CDF, < 1); "cap" piles
    the tail mass P(j >= K) onto the K bin, so the vector sums to 1
    like clipped samples do.  A K that is not an integer >= 0 (a bool
    included) or another overflow is refused, as `SosConfig` refuses it,
    and so is an `s` that is not a finite real >= 0.
    """
    s = check("s", s, numbers.Real, ">= 0 and finite", nonnegative)
    k = check_cutoff(k, overflow)
    mean, top = d.recorded(s, k)
    p = np.array([fc_factor_1d(mean, j) for j in range(top + 1)])
    if overflow == "cap" or top == d.recorded(s, None)[1]:
        if mean < top:  # sum the tail upward, where 1 - head would cancel
            p[top] *= tail_ratio(mean, top)
        else:  # the tail is >= 1/2, so 1 - head loses nothing
            p[top] = 1.0 - p[:top].sum()
    return p


def tail_ratio(mean: float, j: int) -> float:
    """P(J >= j) / P(J = j) for J ~ Poisson(mean) and j > mean.

    The series 1 + mean/(j+1) + mean^2/((j+1)(j+2)) + ... is summed
    upward until a term no longer changes it; every ratio mean/i < 1,
    so the terms fall.  It needs no pmf value, so it neither underflows
    nor cancels deep in the tail.
    """
    total, term = 0.0, 1.0
    while total + term != total:
        total, j = total + term, j + 1
        term *= mean / j
    return total


def hazards(mean: float, top: int | None, start: int = 0):
    """Yield h_j = P(J = j | J >= j), j = start, start + 1, ..., for the
    recorded count J: Poisson(mean) clipped at `top` (None: unbounded),
    so h_top = 1 and an unbounded sequence never ends.

    `start` must be 0, the top or above the mean, as the sampler's walks
    start, so no head P(J < start) is needed.  For j <= mean, h_j = p_j
    / (1 - head), head summed upward from 0: the tail there is >= ~1/2,
    so the subtraction loses nothing.  Above the mean, h_j = 1 /
    `tail_ratio(mean, j)`, which needs no p_j and so cannot give 0/0 or
    a value above 1 deep in the tail.
    """
    head = 0.0
    for j in itertools.count(start):
        if j == top:
            yield 1.0
            return
        if j <= mean:
            p = fc_factor_1d(mean, j)
            yield p / (1.0 - head)
            head += p
        else:
            yield 1.0 / tail_ratio(mean, j)


@dataclass
class LineSpectrum:
    """A discrete stick spectrum: one-dimensional arrays of finite,
    strictly increasing energies (cm^-1) and finite, non-negative
    intensities.  `provenance` is the spectrum's one metadata record;
    `io.write_spectrum` writes it as the file header."""

    energies: np.ndarray
    intensities: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.energies = np.asarray(self.energies, dtype=float)
        self.intensities = np.asarray(self.intensities, dtype=float)
        if self.energies.shape != self.intensities.shape:
            raise ValueError("energies and intensities must have equal length")
        if self.energies.ndim != 1:
            raise ValueError("energies and intensities must be one-dimensional")
        if not (np.isfinite(self.energies).all() and np.isfinite(self.intensities).all()):
            raise ValueError("energies and intensities must be finite")
        if not (self.energies[1:] > self.energies[:-1]).all():
            raise ValueError("energies must be strictly increasing")
        if np.any(self.intensities < 0):
            raise ValueError("intensities must be non-negative")

    def __len__(self) -> int:
        return self.energies.size

    @property
    def total(self) -> float:
        return float(self.intensities.sum())


def result_provenance(m: Molecule, d: DetectorModel, **fields) -> dict:
    """A result's provenance: molecule, the result's `fields`, detector, version."""
    return {"molecule": m.name, **fields, **vars(d), "version": __version__}


def energy_keys(energies) -> np.ndarray:
    """int64 lattice keys of energies in cm^-1: round(E * TICKS_PER_CM1).

    Raises ValueError for non-finite energies or energies whose key
    would exceed `KEY_LIMIT`.
    """
    ticks, bound = np.array(energies, dtype=float), KEY_LIMIT / TICKS_PER_CM1  # one buffer
    # exactly |E * TICKS_PER_CM1| <= KEY_LIMIT in float64, checked before the product can
    # overflow; a nan fails both comparisons, since min and max propagate it
    if ticks.size and not (-bound <= ticks.min() and ticks.max() <= bound):
        raise ValueError(f"energies must be finite and within +/-{bound:.6g} cm^-1")
    ticks *= TICKS_PER_CM1
    return np.rint(ticks, out=ticks).astype(np.int64)


def key_energies(keys) -> np.ndarray:
    """Energies in cm^-1 of lattice keys; true division makes each the
    correctly rounded lattice value."""
    return np.asarray(keys, dtype=np.int64) / TICKS_PER_CM1


def sum_by_key(keys, weights) -> tuple[np.ndarray, np.ndarray]:
    """Distinct sorted keys and the summed weight on each, zero totals kept.

    Each key's weights are summed by `np.bincount` in input order, so the
    sums have the same bits however the keys are indexed: as key - min
    where they span under `_DENSE_SPAN` x their count, else by stable sort.
    A key with one weight w so gets 0.0 + w (-0.0 comes back 0.0): the
    bits `analysis._keyed` forms in place, skipping this merge, when a
    spectrum's keys already ascend and all differ.  Callers pass keys
    on one lattice as its cells (`sublattice`), where lines that are
    sparse in keys are dense.  int64 weights come back int64, exact
    while each total is below 2**53.
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
    origin, *ticks = energy_keys([m.e00, *m.energies]).tolist()
    step = math.gcd(*ticks) or 1
    return origin, step, [m.sign * k // step for k in ticks]


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
    omega = check("omega", omega, numbers.Real, "positive and finite",
                  lambda w: finite(w) and w > 0)
    gradient = check("gradient", gradient, numbers.Real, "finite", finite)
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
    threshold = check("threshold", threshold, numbers.Real, ">= 0 and finite", nonnegative)
    return replace(m, modes=tuple(mode for mode in m.modes if mode.huang_rhys > threshold))
