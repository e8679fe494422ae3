"""Spectrum post-processing: normalization, fidelity, broadening,
and sampler-vs-reference convergence studies."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .model import DetectorModel, Molecule, energy_keys
from .sampling import SampledSpectrum, SamplerConfig, sample_spectrum
from .sos import LineSpectrum, SosConfig, build_reference_spectrum

__all__ = [
    "BroadeningKernel",
    "EnergyGrid",
    "ConvergenceReport",
    "GridError",
    "as_line_spectrum",
    "normalize",
    "fidelity",
    "broaden",
    "convergence_study",
]

NORMALIZATION_MODES = ("raw", "unit_l1", "unit_l2", "max_one", "zero_zero_one")

# EnergyGrid.around: margin beyond the outer sticks and step, in FWHM.
GRID_MARGIN_FWHM = 10.0
GRID_STEP_FWHM = 0.05


class GridError(ValueError):
    """An energy grid violates its invariants."""


@dataclass(frozen=True)
class BroadeningKernel:
    """Unit-area line shape applied to every stick.

    shape : "lorentzian" or "gaussian"
    fwhm : full width at half maximum in cm^-1, > 0
    """

    shape: str
    fwhm: float

    def __post_init__(self):
        if self.shape not in ("lorentzian", "gaussian"):
            raise ValueError(f"shape must be 'lorentzian' or 'gaussian', got {self.shape!r}")
        if not (self.fwhm > 0):
            raise ValueError(f"fwhm must be > 0, got {self.fwhm}")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.shape == "lorentzian":
            gamma = self.fwhm / 2.0
            return gamma / (math.pi * (x * x + gamma * gamma))
        sigma = self.fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        return np.exp(-(x * x) / (2.0 * sigma * sigma)) / (sigma * math.sqrt(2.0 * math.pi))


@dataclass(frozen=True)
class EnergyGrid:
    """Uniform evaluation grid in cm^-1."""

    start: float
    stop: float
    step: float

    _MAX_POINTS = 10**7

    def __post_init__(self):
        if not self.stop > self.start:
            raise GridError(f"stop ({self.stop}) must exceed start ({self.start})")
        if not self.step > 0:
            raise GridError(f"step must be > 0, got {self.step}")
        if (self.stop - self.start) / self.step > self._MAX_POINTS:
            raise GridError(
                f"grid of {(self.stop - self.start) / self.step:.3g} points "
                f"exceeds the {self._MAX_POINTS} guard"
            )

    def points(self) -> np.ndarray:
        n = int(math.floor((self.stop - self.start) / self.step)) + 1
        return self.start + self.step * np.arange(n)

    @classmethod
    def around(cls, energies, fwhm: float):
        """Grid spanning the sticks with GRID_MARGIN_FWHM * FWHM padding
        and step GRID_STEP_FWHM * FWHM."""
        energies = np.asarray(energies, dtype=float)
        return cls(
            float(energies.min()) - GRID_MARGIN_FWHM * fwhm,
            float(energies.max()) + GRID_MARGIN_FWHM * fwhm,
            GRID_STEP_FWHM * fwhm,
        )


@dataclass
class ConvergenceReport:
    """Fidelity statistics over independent sampler runs per event count."""

    event_counts: list[int]
    mean_fidelity: np.ndarray
    std_fidelity: np.ndarray
    runs: int
    provenance: dict = field(default_factory=dict)


def as_line_spectrum(spec) -> LineSpectrum:
    """View any spectrum (stick or sampled histogram) as a LineSpectrum."""
    if isinstance(spec, LineSpectrum):
        return spec
    if isinstance(spec, SampledSpectrum):
        return LineSpectrum(
            spec.energies,
            spec.counts.astype(float),
            provenance=dict(spec.provenance),
        )
    raise TypeError(f"cannot interpret {type(spec).__name__} as a spectrum")


def normalize(spec, mode: str, e00: float | None = None) -> LineSpectrum:
    """Rescale a spectrum's intensities.

    Modes: "raw" (no-op copy, also of an empty spectrum), "unit_l1"
    (sum 1), "unit_l2" (sum of squares 1), "max_one", and
    "zero_zero_one" (intensity 1 at the stick whose lattice key equals
    that of `e00`).  The result's provenance records the mode as
    "normalization".
    """
    if mode not in NORMALIZATION_MODES:
        raise ValueError(f"unknown normalization mode {mode!r}")
    line = as_line_spectrum(spec)
    inten = line.intensities
    if mode == "raw":
        scale = 1.0
    elif len(line) == 0:
        raise ValueError("cannot normalize an empty spectrum")
    elif mode == "unit_l1":
        scale = inten.sum()
    elif mode == "unit_l2":
        scale = math.sqrt(float(inten @ inten))
    elif mode == "max_one":
        scale = inten.max()
    else:
        if e00 is None:
            raise ValueError("zero_zero_one normalization requires e00")
        hit = energy_keys(line.energies) == energy_keys(e00)
        if not hit.any():
            raise ValueError(f"no stick at the 0-0 energy {e00}")
        scale = float(inten[hit][0])
    if scale <= 0:
        raise ValueError("cannot normalize a spectrum with no intensity")
    return LineSpectrum(
        line.energies.copy(),
        inten / scale,
        provenance={**line.provenance, "normalization": mode},
    )


def _keyed(spec) -> tuple[np.ndarray, np.ndarray]:
    """Strictly increasing lattice keys of a spectrum and the summed
    intensity (scaled to max 1, so norms stay finite) on each key."""
    line = as_line_spectrum(spec)
    if len(line) == 0 or not np.any(line.intensities > 0):
        raise ValueError("fidelity requires non-empty spectra with intensity")
    keys = energy_keys(line.energies)  # non-decreasing, as energies increase
    first = np.flatnonzero(np.diff(keys, prepend=keys[0] - 1))
    return keys[first], np.add.reduceat(line.intensities / line.intensities.max(), first)


def fidelity(p, q, norm: str = "l2") -> float:
    """Overlap of two spectra on their shared energy lattice.

    "l2" (default): inner product of L2-normalized intensity vectors;
    1 iff the spectra are proportional, 0 for disjoint support.
    "bhattacharyya": sum of sqrt(p_i * q_i) over L1-normalized vectors.
    Both are symmetric and invariant to overall intensity scale.
    Lines are joined on exact lattice keys, searching the smaller
    spectrum's keys in the larger one's.
    """
    if norm not in ("l2", "bhattacharyya"):
        raise ValueError(f"norm must be 'l2' or 'bhattacharyya', got {norm!r}")
    (kp, vp), (kq, vq) = sorted((_keyed(p), _keyed(q)), key=lambda kv: kv[0].size)
    at = np.minimum(np.searchsorted(kq, kp), kq.size - 1)
    hit = kq[at] == kp
    a, b = vp[hit], vq[at[hit]]
    if norm == "l2":
        return float(a @ b / (np.linalg.norm(vp) * np.linalg.norm(vq)))
    return float(np.sqrt(a * b).sum() / math.sqrt(vp.sum() * vq.sum()))


def broaden(spec, kernel: BroadeningKernel, grid: EnergyGrid) -> LineSpectrum:
    """Convolve a stick spectrum with a unit-area kernel on a grid.

    The output carries the grid points as energies and the summed
    kernel contributions as intensities, so grid-summed area times the
    step approximates the total stick intensity (Lorentzian tails
    converge slowly; see the package docs for the truncation bound).
    Its provenance is the source's plus the kernel and the grid.
    """
    line = as_line_spectrum(spec)
    x = grid.points()
    if len(line) > 0:
        margin = 5.0 * kernel.fwhm
        if line.energies.min() - grid.start < margin or grid.stop - line.energies.max() < margin:
            warnings.warn(
                "grid margin below 5 FWHM; broadened wings will be clipped",
                stacklevel=2,
            )
    y = np.zeros_like(x)
    # Outer-product evaluation in stick batches keeps memory bounded.
    batch = max(1, 10**7 // max(1, x.size))
    for i in range(0, len(line), batch):
        e = line.energies[i : i + batch]
        w = line.intensities[i : i + batch]
        y += (w[:, None] * kernel(x[None, :] - e[:, None])).sum(axis=0)
    return LineSpectrum(
        x,
        y,
        provenance={
            **line.provenance,
            "broadening": kernel.shape,
            "fwhm": kernel.fwhm,
            "grid": f"{grid.start}:{grid.stop}:{grid.step}",
        },
    )


def run_seed(base_seed: int, tags: tuple[int, ...]) -> int:
    """Derive an independent 64-bit seed for one study cell."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=tags)
    return int(ss.generate_state(1, np.uint64)[0])


def convergence_study(
    m: Molecule,
    cfg_base: SamplerConfig,
    d: DetectorModel,
    event_counts: list[int],
    runs: int,
    sos_cfg: SosConfig,
) -> ConvergenceReport:
    """Mean and standard deviation of fidelity versus event count.

    For each requested event count, `runs` independent samplers through
    detector `d` (each seeded from the base seed) are compared against
    the exact reference of what `d` records, built once from `sos_cfg`.
    Means typically rise toward 1 with event count but are not forced to.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    reference = build_reference_spectrum(m, sos_cfg, d)
    means = []
    stds = []
    for pi, events in enumerate(event_counts):
        vals = []
        for r in range(runs):
            cfg = replace(cfg_base, events=events, seed=run_seed(cfg_base.seed, (pi, r)))
            sampled = sample_spectrum(m, cfg, d)
            vals.append(fidelity(sampled, reference))
        means.append(np.mean(vals))
        stds.append(np.std(vals))
    return ConvergenceReport(
        event_counts=list(event_counts),
        mean_fidelity=np.array(means),
        std_fidelity=np.array(stds),
        runs=runs,
        provenance={
            "molecule": m.name,
            "seed": cfg_base.seed,
            "max_quanta": cfg_base.max_quanta,
            "overflow": sos_cfg.overflow,
            **vars(d),
        },
    )
