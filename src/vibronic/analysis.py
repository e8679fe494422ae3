"""Spectrum post-processing: normalization, fidelity, broadening,
and sampler-vs-reference convergence studies."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from numbers import Integral, Real

import numpy as np

from .model import (KEY_LIMIT, TICKS_PER_CM1, DetectorModel, LineSpectrum, Molecule, check,
                    energy_keys, finite, result_provenance, store, sum_by_key)
from .sampling import SamplerConfig, sample_spectrum
from .sos import SosConfig, build_reference_spectrum

__all__ = [
    "BroadeningKernel",
    "EnergyGrid",
    "ConvergenceReport",
    "GridError",
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


def _width(w) -> bool:
    """Whether `w` is a line width: a `finite` real number > 0."""
    return finite(w) and w > 0


@dataclass(frozen=True)
class BroadeningKernel:
    """Unit-area line shape applied to every stick.

    shape : "lorentzian" or "gaussian"
    fwhm : full width at half maximum in cm^-1, finite and > 0, stored
        as a Python float
    """

    shape: str
    fwhm: float

    def __post_init__(self):
        if self.shape not in ("lorentzian", "gaussian"):
            raise ValueError(f"shape must be 'lorentzian' or 'gaussian', got {self.shape!r}")
        store(self, "fwhm", Real, "finite and > 0", _width)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.shape == "lorentzian":
            gamma = self.fwhm / 2.0
            return gamma / (math.pi * (x * x + gamma * gamma))
        sigma = self.fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        return np.exp(-(x * x) / (2.0 * sigma * sigma)) / (sigma * math.sqrt(2.0 * math.pi))


@dataclass(frozen=True)
class EnergyGrid:
    """Uniform evaluation grid in cm^-1; start, stop and step are finite
    real numbers (`model.finite`), stored as Python floats, or GridError
    names the first that is not."""

    start: float
    stop: float
    step: float

    _MAX_POINTS = 10**7

    def __post_init__(self):
        try:
            for name in ("start", "stop", "step"):
                store(self, name, Real, "finite", finite)
        except ValueError as exc:
            raise GridError(f"grid {self.start}:{self.stop}:{self.step}: {exc}") from None
        if not self.stop > self.start:
            raise GridError(f"stop ({self.stop}) must exceed start ({self.start})")
        if not self.step > 0:
            raise GridError(f"step must be > 0, got {self.step}")
        points = (self.stop - self.start) / self.step
        if points > self._MAX_POINTS:
            raise GridError(f"grid of {points:.3g} points exceeds the {self._MAX_POINTS} guard")

    def points(self) -> np.ndarray:
        n = int(math.floor((self.stop - self.start) / self.step)) + 1
        return self.start + self.step * np.arange(n)

    @classmethod
    def around(cls, energies, fwhm: float):
        """Grid spanning the sticks with GRID_MARGIN_FWHM * FWHM padding
        and step GRID_STEP_FWHM * FWHM; `fwhm` is refused as
        `BroadeningKernel` refuses it."""
        fwhm = check("fwhm", fwhm, Real, "finite and > 0", _width)
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
    provenance: dict = field(default_factory=dict)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b by numpy's loop; BLAS's bits vary with its thread count."""
    return float(np.einsum("i,i", a, b))


def normalize(spec: LineSpectrum, mode: str, e00: float | None = None) -> LineSpectrum:
    """Rescale a spectrum's intensities.

    Modes: "raw" (no-op copy, also of an empty spectrum), "unit_l1"
    (sum 1), "unit_l2" (sum of squares 1), "max_one", and
    "zero_zero_one" (intensity 1 at the stick whose lattice key equals
    that of `e00`, a finite real number on the energy lattice).  The
    result's provenance records the mode as "normalization".
    """
    if mode not in NORMALIZATION_MODES:
        raise ValueError(f"unknown normalization mode {mode!r}")
    inten = spec.intensities
    if mode == "raw":
        scale = 1.0
    elif len(spec) == 0:
        raise ValueError("cannot normalize an empty spectrum")
    elif mode == "unit_l1":
        scale = inten.sum()
    elif mode == "unit_l2":
        scale = math.sqrt(_dot(inten, inten))
    elif mode == "max_one":
        scale = inten.max()
    else:
        if e00 is None:
            raise ValueError("zero_zero_one normalization requires e00")
        e00 = check("e00", e00, Real, "finite and within the energy lattice",
                    lambda e: finite(e) and abs(float(e)) <= KEY_LIMIT / TICKS_PER_CM1)
        hit = energy_keys(spec.energies) == energy_keys(e00)
        if not hit.any():
            raise ValueError(f"no stick at the 0-0 energy {e00}")
        scale = float(inten[hit][0])
    if scale <= 0:
        raise ValueError("cannot normalize a spectrum with no intensity")
    return LineSpectrum(
        spec.energies.copy(),
        inten / scale,
        provenance={**spec.provenance, "normalization": mode},
    )


def _keyed(spec: LineSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """Strictly increasing lattice keys of a spectrum and the summed
    intensity (scaled to max 1, so norms stay finite) on each key.

    A spectrum's keys ascend; where no two lines share one, as nearly
    always, each key's sum is `sum_by_key`'s 0.0 + w (so -0.0 is 0.0),
    formed in the scaled array without sorting or copying it."""
    if len(spec) == 0 or not np.any(spec.intensities > 0):
        raise ValueError("fidelity requires non-empty spectra with intensity")
    keys, scaled = energy_keys(spec.energies), spec.intensities / spec.intensities.max()
    if not (keys[1:] > keys[:-1]).all():
        return sum_by_key(keys, scaled)
    scaled += 0.0
    return keys, scaled


def fidelity(p: LineSpectrum, q: LineSpectrum, norm: str = "l2") -> float:
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
        return _dot(a, b) / math.sqrt(_dot(vp, vp) * _dot(vq, vq))
    return float(np.sqrt(a * b).sum() / math.sqrt(vp.sum() * vq.sum()))


def _smooth_length(n: int) -> int:
    """Least 5-smooth integer >= n: a length numpy.fft transforms fast."""
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            best = min(best, f35 << ((n - 1) // f35).bit_length())
            f35 *= 3
        f5 *= 5
    return best


def broaden(spec: LineSpectrum, kernel: BroadeningKernel, grid: EnergyGrid) -> LineSpectrum:
    """Convolve a stick spectrum with a unit-area kernel on a grid.

    The output carries the grid points as energies and the summed
    kernel contributions as intensities, so grid-summed area times the
    step approximates the total stick intensity.  A window of +/-M
    around a stick keeps (2/pi) atan(2M/FWHM) of a Lorentzian's area.
    Its provenance is the source's plus the kernel and the grid.

    Method: each stick is split linearly between its two neighbouring
    points of a uniform lattice of step h' = grid.step / r (area
    weighting, "cloud in cell"), and the lattice is convolved with the
    kernel sampled at every lattice offset by one real FFT (Hockney &
    Eastwood, Computer Simulation Using Particles, 1988, ch. 5).  r is
    the least integer with h' <= GRID_STEP_FWHM * FWHM, lowered (never
    below 1) so the lattice, which holds every grid point and every
    stick, spans at most EnergyGrid._MAX_POINTS steps; a grid from
    `EnergyGrid.around` has r = 1.  Sticks so far outside an explicit
    grid that even r = 1 exceeds that span raise GridError.  The cost
    is O(L log L) in the lattice length L.

    Binning conserves the total intensity exactly, and a stick on a
    lattice point is exact to roundoff.  Otherwise, at every grid
    point |y - y_direct| <= (h'^2 / 8) max|K''| sum(w), plus roundoff
    of order 1e-15 of the peak, where y_direct is the sum of w K(x - e)
    over the sticks.  max|K''| is 2 / (pi gamma^3) with gamma = FWHM / 2
    for the Lorentzian and 1 / (sigma^3 sqrt(2 pi)) for the Gaussian.
    """
    x = grid.points()
    y = np.zeros_like(x)
    if len(spec) > 0:
        margin = 5.0 * kernel.fwhm
        if spec.energies.min() - grid.start < margin or grid.stop - spec.energies.max() < margin:
            warnings.warn(
                "grid margin below 5 FWHM; broadened wings will be clipped",
                stacklevel=2,
            )
    scale = spec.intensities.max() if len(spec) > 0 else 0.0
    if scale > 0:
        # Stick positions in grid steps from grid.start, and the span in
        # grid steps that the lattice must cover.
        u = (spec.energies - grid.start) / grid.step
        u_lo, u_hi = float(u.min()), float(u.max())
        span = max(x.size - 1, u_hi) - min(0.0, u_lo)
        # lo and hi below lie within r * span + 2 of each other.
        r_cap = max(1, int((EnergyGrid._MAX_POINTS - 2) // max(span, 1.0)))
        target = GRID_STEP_FWHM * kernel.fwhm
        r = min(r_cap, math.ceil(grid.step / target)) if grid.step <= r_cap * target else r_cap
        lo = min(0, math.floor(r * u_lo))
        hi = max((x.size - 1) * r, math.floor(r * u_hi) + 1)
        if hi - lo > EnergyGrid._MAX_POINTS:
            raise GridError(
                f"sticks lie too far outside the grid {grid.start}:{grid.stop}:{grid.step}: "
                f"a lattice holding them and the grid spans {hi - lo:.3g} steps, "
                f"beyond the {EnergyGrid._MAX_POINTS} guard"
            )
        n_lattice = hi - lo + 1
        # Linear split onto lattice indices 0 .. n_lattice - 1.
        v = r * u - lo
        left = np.minimum(np.floor(v).astype(np.int64), n_lattice - 2)
        frac = v - left
        w = spec.intensities / scale
        binned = np.bincount(
            np.concatenate([left, left + 1]),
            weights=np.concatenate([w * (1.0 - frac), w * frac]),
            minlength=n_lattice,
        )
        # Kernel at every offset from a lattice bin to a grid point: the
        # grid point of lattice index p = i*r - lo takes bin m through
        # offset p - m, from -lo - (n_lattice - 1) to (x.size - 1)*r - lo.
        first = -lo - (n_lattice - 1)
        n_kernel = (x.size - 1) * r + n_lattice
        h = grid.step / r
        sampled = kernel(h * np.arange(first, first + n_kernel, dtype=float))
        # Circular convolution of length >= n_kernel: the kept outputs
        # n_lattice - 1 .. n_kernel - 1 are out of the wraparound's reach.
        n_fft = _smooth_length(n_kernel)
        spectrum = np.fft.rfft(binned, n_fft)
        spectrum *= np.fft.rfft(sampled, n_fft)
        conv = np.fft.irfft(spectrum, n_fft)
        y = conv[n_lattice - 1 : n_kernel : r] * scale
        np.maximum(y, 0.0, out=y)
    return LineSpectrum(
        x,
        y,
        provenance={
            **spec.provenance,
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
    the exact reference of what `d` records, built once from `sos_cfg`,
    which must cap (overflow "cap") at the sampler's finite max_quanta
    and prune nothing.  `event_counts` must not be empty, each entry a
    valid `SamplerConfig.events`, and `runs` is an integer >= 1; all
    are refused before any reference is built or any sample drawn.
    `provenance["runs"]` records `runs`.
    Means typically rise toward 1 with event count but are not forced to.
    """
    runs = check("runs", runs, Integral, ">= 1", lambda n: n >= 1)
    if len(event_counts) == 0:
        raise ValueError("event_counts must not be empty")
    cfgs = [replace(cfg_base, events=events) for events in event_counts]
    if sos_cfg.overflow != "cap" or sos_cfg.max_quanta != cfg_base.max_quanta or sos_cfg.fc_prune:
        raise ValueError(
            f"reference law (max_quanta={sos_cfg.max_quanta}, overflow={sos_cfg.overflow!r}, "
            f"fc_prune={sos_cfg.fc_prune}) is not the sampler's "
            f"(max_quanta={cfg_base.max_quanta}, capped, unpruned)")
    reference = build_reference_spectrum(m, sos_cfg, d)
    means = []
    stds = []
    for pi, cfg in enumerate(cfgs):
        vals = []
        for r in range(runs):
            sampled = sample_spectrum(m, replace(cfg, seed=run_seed(cfg_base.seed, (pi, r))), d)
            vals.append(fidelity(sampled, reference))
        means.append(np.mean(vals))
        stds.append(np.std(vals))
    return ConvergenceReport(
        event_counts=[cfg.events for cfg in cfgs],
        mean_fidelity=np.array(means),
        std_fidelity=np.array(stds),
        provenance={**result_provenance(m, d, seed=cfg_base.seed, max_quanta=cfg_base.max_quanta,
                                        overflow=sos_cfg.overflow), "runs": runs},
    )
