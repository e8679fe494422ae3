"""Exact sum-over-states reference spectra.

The spectrum is the distribution of E00 +/- sum_i E_i j_i over all
configurations (j_1, ..., j_N) with each j_i <= K, weighted by the
product of the probabilities that a detector records each j_i, each
from `mode_distribution` (the per-mode count law, stated in `model`),
so a reference is exact for samples taken through its detector.  It
is built by one algorithm, a mode-by-mode convolution on the integer
energy lattice: each mode contributes K+1 sticks, and sticks on one
key are summed after every mode, in one order, on one dense array over
the cells a run can reach (chosen once, where the configurations could
fill it) or by `sum_by_key`.  A step costs cells or live sticks x
(K+1), not (1+K)^N, within a work budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from . import model
# The engine looks `mode_distribution` up in this module, so patching it here sees each call.
from .model import (IDEAL_DETECTOR, DetectorModel, Molecule, check_key_reach, key_energies,
                    mode_distribution, result_provenance, sum_by_key)

__all__ = [
    "SosConfig",
    "BudgetExceededError",
    "state_count",
    "build_reference_spectrum",
    "DEFAULT_ENUMERATION_BUDGET",
]

DEFAULT_ENUMERATION_BUDGET = 10**8


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
    `max_quanta` are integers (numpy integers too, stored as Python
    ints; a bool or a float is refused), the budget >= 1; `fc_prune`,
    when set, is a finite real number >= 0 (a bool is refused), stored
    as a Python float.
    """

    max_quanta: int = 1
    fc_prune: float | None = None
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET
    overflow: str = "truncate"  # "truncate" | "cap"

    def __post_init__(self):
        model.store(self, "enumeration_budget", Integral, ">= 1", lambda n: n >= 1)
        object.__setattr__(self, "max_quanta", model.check_cutoff(self.max_quanta, self.overflow))
        if self.fc_prune is not None:
            model.store(self, "fc_prune", Real, ">= 0 and finite", model.nonnegative)


def state_count(n_modes: int, k: int) -> int:
    """Exact configuration count (1+K)^N, arbitrary precision; each
    argument an integer >= 0."""
    n_modes = model.check("n_modes", n_modes, Integral, ">= 0", lambda n: n >= 0)
    k = model.check("k", k, Integral, ">= 0", lambda n: n >= 0)
    return (1 + k) ** n_modes


def build_reference_spectrum(m: Molecule, cfg: SosConfig,
                             d: DetectorModel = IDEAL_DETECTOR) -> model.LineSpectrum:
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
    # Dense steps fill one of two span-long buffers from the other, so a run allocates
    # them once, not a fresh, page-faulting array per mode.
    buffers = (np.empty(span), np.empty(span)) if dense else ()
    for n, (mode, ts) in enumerate(sorted(zip(m.modes, steps),
                                          key=lambda ms: (ms[0].energy, ms[0].huang_rhys))):
        if not dense and cells.size * (top + 1) > cfg.enumeration_budget:
            raise BudgetExceededError(cells.size * (top + 1), cfg.enumeration_budget)
        p = mode_distribution(mode.huang_rhys, k, cfg.overflow, d)
        if dense:
            y, base = buffers[n % 2][:inten.size + top * abs(ts)], top * -min(ts, 0)
            y.fill(0.0)
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
        buffers = ()  # frees the one inten is not in
        cells = np.flatnonzero(inten)
        inten = inten[cells]
        cells += c0
    # keys formed in the cells' own buffer: one array besides the result's
    cells *= step
    cells += origin
    prov = result_provenance(m, d, engine="sos", max_quanta=k, overflow=cfg.overflow,
                             fc_prune=cfg.fc_prune)
    return model.LineSpectrum(key_energies(cells), inten, provenance=prov)
