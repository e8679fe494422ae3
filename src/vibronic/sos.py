"""Exact sum-over-states reference spectra.

The spectrum is the distribution of E00 +/- sum_i E_i j_i over all
configurations (j_1, ..., j_N) with each j_i <= K, weighted by the
product of the probabilities that a detector records each j_i
(`DetectorModel.recorded`; for the ideal detector, the one-dimensional
Franck-Condon factors), so a reference is exact for samples taken
through its detector.  It is built by one algorithm, a mode-by-mode
convolution on the integer energy lattice: each mode contributes K+1
sticks, and sticks on one key are summed after every mode, in one order,
on one dense array over the cells a run can reach (chosen once, where
the configurations could fill it) or by `sum_by_key`.  A step costs
cells or live sticks x (K+1), not (1+K)^N, within a work budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from . import model
from .model import (IDEAL_DETECTOR, DetectorModel, Molecule, check_key_reach, key_energies,
                    result_provenance, sum_by_key)

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

    `enumeration_budget` bounds the terms (cells or live sticks x
    (K+1)) that any one convolution step may materialize.  Both it and
    `max_quanta` are integers (numpy integers too; a bool or a float
    is refused), the budget >= 1; `fc_prune`, when set, is a finite
    real number >= 0 (a bool is refused).
    """

    max_quanta: int = 1
    fc_prune: float | None = None
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET
    overflow: str = "truncate"  # "truncate" | "cap"

    def __post_init__(self):
        model.check("enumeration_budget", self.enumeration_budget, Integral, ">= 1",
                    lambda n: n >= 1)
        _check_cutoff(self.max_quanta, self.overflow)
        if self.fc_prune is not None:
            model.check("fc_prune", self.fc_prune, Real, ">= 0 and finite", model.nonnegative)


def _check_cutoff(k: int, overflow: str) -> None:
    """Refuse a cutoff K that is not an integer >= 0 or an unknown
    overflow rule, naming the value."""
    model.check("max_quanta", k, Integral, ">= 0", lambda n: n >= 0)
    if overflow not in ("truncate", "cap"):
        raise ValueError(f"overflow must be 'truncate' or 'cap', got {overflow!r}")


@dataclass
class LineSpectrum:
    """A discrete stick spectrum: finite, strictly increasing energies
    (cm^-1) with finite, non-negative intensities.  `provenance` is the
    spectrum's one metadata record; `io.write_spectrum` writes it as the
    file header."""

    energies: np.ndarray
    intensities: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.energies = np.asarray(self.energies, dtype=float)
        self.intensities = np.asarray(self.intensities, dtype=float)
        if self.energies.shape != self.intensities.shape:
            raise ValueError("energies and intensities must have equal length")
        if not (np.isfinite(self.energies).all() and np.isfinite(self.intensities).all()):
            raise ValueError("energies and intensities must be finite")
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
    for any j where s^j alone would overflow.  `s` must be a finite real
    >= 0 and `j` an integer in [0, 2**53], where lgamma(j + 1) is finite;
    `model.check` refuses anything else by name.
    """
    if not (isinstance(s, float) and 0.0 <= s < math.inf and type(j) is int and 0 <= j <= 2**53):
        model.check("s", s, Real, ">= 0 and finite", model.nonnegative)
        model.check("j", j, Integral, ">= 0 and <= 2**53", lambda n: 0 <= n <= 2**53)
        s, j = float(s), int(j)  # numpy's float32 powers would overflow
    if s == 0.0:
        return 1.0 if j == 0 else 0.0
    if j <= _LOG_SPACE_J and j * math.log(s) < _LOG_DIRECT_MAX:
        return s**j * math.exp(-s) / math.factorial(j)
    return math.exp(j * math.log(s) - s - math.lgamma(j + 1))


def state_count(n_modes: int, k: int) -> int:
    """Exact configuration count (1+K)^N, arbitrary precision; each
    argument an integer >= 0."""
    model.check("n_modes", n_modes, Integral, ">= 0", lambda n: n >= 0)
    model.check("k", k, Integral, ">= 0", lambda n: n >= 0)
    return (1 + int(k)) ** int(n_modes)  # numpy integers would wrap


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
    model.check("s", s, Real, ">= 0 and finite", model.nonnegative)
    _check_cutoff(k, overflow)
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


def build_reference_spectrum(m: Molecule, cfg: SosConfig,
                             d: DetectorModel = IDEAL_DETECTOR) -> LineSpectrum:
    """Exact reference stick spectrum up to cutoff K, as detector `d` records it.

    Modes are convolved one at a time on the integer energy lattice;
    sticks sharing a key are summed after every mode, which is
    algebraically identical to enumerating all (1+K)^N configurations.
    `cfg.enumeration_budget` bounds each step's work, cells or live
    sticks x (top+1) terms, top = min(K, the detector's clip).

    Sticks sit on the cells c of `model.sublattice`, key = origin +
    step * c.  A run whose cells, span = top x sum_i |c_i| + 1, fit the
    budget (span x (top+1) terms) and number under `model._DENSE_SPAN`
    x `state_count(N, top)` is dense: each step adds p_j x the array,
    shifted j quanta, to a zeroed array in `sum_by_key`'s j order, so
    every stick has the merge's bits.  Else each step merges by
    `sum_by_key`, and one past the budget raises
    BudgetExceededError.  A budget in [max live sticks, span) x (top+1)
    so takes the slower sparse run, unrefused; under the default budget
    that needs over 2.5e7 cells at K=3.

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
    origin, step, steps = model.sublattice(m)
    span = top * sum(map(abs, steps)) + 1  # the cells a finished run can reach
    check_key_reach(abs(origin) + step * (span - 1))
    dense = (span * (top + 1) <= cfg.enumeration_budget
             and span < model._DENSE_SPAN * state_count(len(steps), top))
    cells, inten, c0 = np.zeros(1, dtype=np.int64), np.array([1.0]), 0  # dense: inten[i] at c0 + i
    # Canonical mode order fixes the float order of the intensity
    # products, so the result is independent of the caller's mode
    # permutation, bit for bit.
    for mode, ts in sorted(zip(m.modes, steps), key=lambda ms: (ms[0].energy, ms[0].huang_rhys)):
        if not dense and cells.size * (top + 1) > cfg.enumeration_budget:
            raise BudgetExceededError(cells.size * (top + 1), cfg.enumeration_budget)
        p = mode_distribution(mode.huang_rhys, k, cfg.overflow, d)
        if dense:
            y, base = np.zeros(inten.size + top * abs(ts)), top * -min(ts, 0)
            for j in range(top + 1):  # j-major from 0.0, as `sum_by_key` sums
                y[base + j * ts:base + j * ts + inten.size] += p[j] * inten
            inten, c0 = y, c0 - base
            if cfg.fc_prune is not None:
                inten[inten < cfg.fc_prune] = 0.0
                nz = np.flatnonzero(inten)  # trimmed, so no step spans dead cells
                inten, c0 = (inten[nz[0]:nz[-1] + 1], c0 + nz[0]) if nz.size else (inten[:0], c0)
            continue
        shifted = cells + ts * np.arange(top + 1)[:, None]
        cells, inten = sum_by_key(shifted.ravel(), (p[:, None] * inten).ravel())
        # Exactly-zero sticks only arise from modes whose recorded mean
        # is 0 (or underflow); dropping them keeps such modes invisible.
        live = inten > 0.0
        if cfg.fc_prune is not None:
            live &= inten >= cfg.fc_prune
        cells, inten = cells[live], inten[live]
    if dense:
        nz = np.flatnonzero(inten)
        cells, inten = c0 + nz, inten[nz]

    prov = result_provenance(m, d, engine="sos", max_quanta=k, overflow=cfg.overflow,
                             fc_prune=cfg.fc_prune)
    return LineSpectrum(key_energies(origin + step * cells), inten, provenance=prov)
