"""Linear-scaling sampling engine.

Each vibrational mode is emulated by an attenuated coherent pulse
train seen by a photon detector.  Per event, each mode's recorded
count follows the law `DetectorModel.recorded` states:
Poisson(efficiency * S + dark_mean), clipped at 1 for a click detector
and at the cap K.  Counts are weighted by the mode's integer lattice
key, summed event-wise across modes, and histogrammed on the exact
transition-energy lattice; `model.sum_by_key` merges the chunks into
a `SampledSpectrum`, a `LineSpectrum` of event counts.

`sample_mode` draws the counts one event at a time, the emulation as
the paper describes it.  `sample_spectrum` only needs the histogram,
so it draws that directly: a chunk carries its lines as (lattice key,
events) pairs, and each mode splits every line's events over
j = 0, 1, ... by conditional binomials, Binomial(events left,
P(J = j | J >= j)), the multinomial drawn as a sequence of binomials
(Davis 1993, Comput. Stat. Data Anal. 16:205).  That is the same law
as per-event draws at a cost of live lines x sweep length per mode, so
events enter only through the chunk count.  Where that cost, with a
split step's fixed cost added, would exceed the chunk's events (a huge
recorded mean, or a small chunk), the mode draws its events one at a
time instead, which is then the cheaper exact method.  Either way a
(mode, chunk) cell derives its law and sub-stream once, and refuses a
shift past the energy lattice where it forms the keys.

Reproducibility: every (seed, mode position, chunk) triple owns an
independent counter-based Philox sub-stream, so results are
bit-identical for any worker count or execution order.  Chunks hold a
fixed 10^6 events, so the chunking selects the draws and the version
pins it.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import (IDEAL_DETECTOR, DetectorModel, Molecule, check_key_reach, energy_keys,
                    key_energies, result_provenance, sum_by_key)
from .sos import LineSpectrum, fc_factor_1d, tail_ratio

__all__ = [
    "SamplerConfig",
    "DetectorModel",
    "SampledSpectrum",
    "substream",
    "poisson_draw",
    "sample_mode",
    "sample_spectrum",
    "IDEAL_DETECTOR",
]

# Events per chunk: it bounds a per-event cell's arrays and is the unit
# worker threads share.  It selects the draws, so the version fixes it.
_CHUNK_EVENTS = 1_000_000

# The largest mean numpy's Poisson generator accepts (int64 max - 10 sd).
POISSON_MEAN_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)

# A split step's fixed cost (one vectorized binomial call, ~10 us)
# counted in lines (~0.1 us each per step); one per-event draw costs
# about as much as one line-step.
_SPLIT_STEP_LINES = 128


@dataclass(frozen=True)
class SamplerConfig:
    """Event count, seed and optional count cap.

    `max_quanta=None` leaves drawn counts unbounded.  When set, any
    drawn count above it is capped at that value (the numeric analog
    of a saturating detector), which is also the rule to use when
    comparing against a capped-overflow reference spectrum.
    """

    events: int
    seed: int = 0
    max_quanta: int | None = None

    def __post_init__(self):
        # float64 counts (`SampledSpectrum`, `sum_by_key`) are exact to 2**53
        if not 1 <= self.events <= 2**53:
            raise ValueError(f"events must be >= 1 and <= 2**53, got {self.events}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.max_quanta is not None and self.max_quanta < 0:
            raise ValueError(f"max_quanta must be >= 0, got {self.max_quanta}")


def _chunks(events: int) -> list[tuple[int, int]]:
    """(chunk_index, size) pairs covering `events` in `_CHUNK_EVENTS` chunks."""
    starts = range(0, events, _CHUNK_EVENTS)
    return [(i, min(_CHUNK_EVENTS, events - s)) for i, s in enumerate(starts)]


def substream(seed: int, mode_index: int, chunk_index: int) -> np.random.Generator:
    """Independent counter-based RNG stream for one (mode, chunk) cell."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(mode_index, chunk_index))
    return np.random.Generator(np.random.Philox(ss))


def _check_mean(mean: float) -> None:
    if not 0 <= mean <= POISSON_MEAN_MAX:
        raise ValueError(f"Poisson mean must be in [0, {POISSON_MEAN_MAX:.6g}], got {mean!r}")


def poisson_draw(mean: float, rng: np.random.Generator, size: int | None = None):
    """Exact-distribution Poisson variate(s) with the given mean.

    Mean 0 short-circuits to zeros without consuming the stream.  A
    mean outside [0, POISSON_MEAN_MAX] (or nan) is refused before any
    draw.
    """
    _check_mean(mean)
    if mean == 0.0:
        return 0 if size is None else np.zeros(size, dtype=np.int64)
    return rng.poisson(mean, size=size)


def _recorded(s: float, mode_index: int, cfg: SamplerConfig,
              d: DetectorModel) -> tuple[float, int | None]:
    """`d.recorded` for one mode, its mean refused before any draw."""
    mean, top = d.recorded(s, cfg.max_quanta)
    try:
        _check_mean(mean)
    except ValueError as exc:
        raise ValueError(f"mode {mode_index}: recorded mean efficiency*S + dark_mean: "
                         f"{exc}") from None
    return mean, top


def _sample_mode_chunk(mean: float, top: int | None, rng: np.random.Generator,
                       size: int) -> np.ndarray:
    counts = poisson_draw(mean, rng, size)
    return counts if top is None else np.minimum(counts, top)


def _hazards(mean: float, top: int | None):
    """Yield h_j = P(J = j | J >= j), j = 0, 1, ..., for the recorded
    count J: Poisson(mean) clipped at `top` (None: unbounded), so
    h_top = 1 and an unbounded sequence never ends.

    For j <= mean, h_j = p_j / (1 - head): the tail there is >= ~1/2,
    so the subtraction loses nothing.  Above the mean, h_j =
    1 / `tail_ratio(mean, j)`, which needs no p_j and so cannot give
    0/0 or a value above 1 deep in the tail.
    """
    head = 0.0
    for j in itertools.count():
        if j == top:
            yield 1.0
            return
        if j <= mean:
            p = fc_factor_1d(mean, j)
            yield p / (1.0 - head)
            head += p
        else:
            yield 1.0 / tail_ratio(mean, j)


def _split(keys: np.ndarray, counts: np.ndarray, t: int, mean: float, top: int | None,
           rng: np.random.Generator, step: int) -> tuple[np.ndarray, np.ndarray]:
    """Split each line's events over j = 0, 1, ... by conditional binomials.

    At each j, every line sends Binomial(events left, h_j) of them to
    key + j * t, drawn from `rng` over the lines in key order (a line
    with none left draws nothing); a hazard of 1 sends all that is
    left without a draw.  Stops when nothing is left.  Keys lie on
    keys[0] + `step` * Z, and `step` divides t.
    """
    takes = []
    for j, h in enumerate(_hazards(mean, top)):
        take = counts if h == 1.0 else rng.binomial(counts, h)
        takes.append(take)
        counts = counts - take
        if not counts.any():
            break
    check_key_reach(max(abs(int(keys[0])), abs(int(keys[-1]))) + abs(t) * j)
    takes = np.array(takes)
    hit = takes > 0
    shifted = keys + t * np.arange(j + 1)[:, None]
    return sum_by_key(shifted[hit], takes[hit], step)


def sample_mode(
    s: float,
    mode_index: int,
    cfg: SamplerConfig,
    d: DetectorModel = IDEAL_DETECTOR,
) -> np.ndarray:
    """All `cfg.events` recorded counts for one mode, in event order.

    Deterministic: the same (seed, mode_index, events) always yields a
    bit-identical array.
    """
    mean, top = _recorded(s, mode_index, cfg, d)
    return np.concatenate([_sample_mode_chunk(mean, top, substream(cfg.seed, mode_index, ci), size)
                           for ci, size in _chunks(cfg.events)])


class SampledSpectrum(LineSpectrum):
    """A LineSpectrum whose intensities are event counts (exact in
    float64 below 2**53); `provenance["events"]` records their sum."""

    @property
    def counts(self) -> np.ndarray:
        return self.intensities.astype(np.int64)


def _spectrum_chunk(
    m: Molecule, chunk_index: int, size: int, cfg: SamplerConfig, d: DetectorModel, step: int
) -> tuple[np.ndarray, np.ndarray]:
    """Unique lattice keys and counts for one chunk of events.

    The chunk's histogram starts as one line of `size` events at
    key(e00); each mode then moves every line's events by j quanta,
    drawing only from its (seed, mode, chunk) sub-stream.  A mode
    whose recorded count is always 0 leaves the lines as they are and
    draws nothing.  Every key lies on key(e00) + `step` * Z.
    """
    keys = energy_keys([m.e00])
    counts = np.array([size], dtype=np.int64)
    for i, (s, t) in enumerate(zip(m.huang_rhys, energy_keys(m.energies) * m.sign), 1):
        mean, top = _recorded(s, i, cfg, d)
        if mean == 0.0 or top == 0:
            continue
        t = int(t)
        sweep = mean + 10.0 * math.sqrt(mean) + 10.0
        if top is not None:
            sweep = min(sweep, top + 1)
        rng = substream(cfg.seed, i, chunk_index)
        if (keys.size + _SPLIT_STEP_LINES) * sweep > size:  # per-event draws are cheaper
            j = _sample_mode_chunk(mean, top, rng, size)
            check_key_reach(max(abs(int(keys[0])), abs(int(keys[-1]))) + abs(t) * int(j.max()))
            j *= t  # j is this chunk's own fresh array
            keys, counts = sum_by_key(np.repeat(keys, counts) + j, np.ones(size, np.int64), step)
        else:
            keys, counts = _split(keys, counts, t, mean, top, rng, step)
    return keys, counts


def sample_spectrum(
    m: Molecule,
    cfg: SamplerConfig,
    d: DetectorModel = IDEAL_DETECTOR,
    workers: int = 1,
) -> SampledSpectrum:
    """Sample the full molecule: histogram of per-event transition energies.

    Chunks are independent and may run on any number of worker
    threads; sub-stream keying guarantees the merged histogram is
    identical regardless of schedule.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    chunks = _chunks(cfg.events)
    step = math.gcd(*map(int, energy_keys(m.energies))) or 1
    if workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda c: _spectrum_chunk(m, *c, cfg, d, step), chunks))
    else:
        results = [_spectrum_chunk(m, *c, cfg, d, step) for c in chunks]

    keys, counts = sum_by_key(*map(np.concatenate, zip(*results)), step)
    prov = result_provenance(m, d, engine="sampler", events=cfg.events, seed=cfg.seed,
                             max_quanta=cfg.max_quanta, generator="philox-seedseq")
    return SampledSpectrum(key_energies(keys), counts, provenance=prov)
