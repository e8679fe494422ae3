"""Linear-scaling sampling engine.

Each vibrational mode is emulated by an attenuated coherent pulse
train seen by a photon detector.  Per event, each mode's recorded
count follows the law `DetectorModel.recorded` states:
Poisson(efficiency * S + dark_mean), clipped at 1 for a click detector
and at the cap K.  Counts are weighted by the mode's quantum on the
energy lattice, summed event-wise across modes, and histogrammed on
the exact transition-energy lattice; `model.sum_by_key` merges the
chunks into a `SampledSpectrum`, a `LineSpectrum` of event counts.

`sample_mode` draws the counts one event at a time, the emulation as
the paper describes it.  `sample_spectrum` only needs the histogram,
so it draws that directly, on SOS's sublattice (`model.sublattice`):
a chunk carries its lines as (cell, events) pairs, and each (mode,
chunk) cell counts how many of each line's events record j quanta,
as (j, line, events), in one of two ways.  It splits every line's
events over j = 0, 1, ... by conditional binomials, Binomial(events
left, P(J = j | J >= j)), the multinomial drawn as a sequence of
binomials (Davis 1993, Comput. Stat. Data Anal. 16:205): the same law
as per-event draws at a cost of live lines x sweep length, so events
enter only through the chunk count.  Where that cost, with a split
step's fixed cost added, would exceed the chunk's events (a huge
recorded mean, or a small chunk), it draws its events one at a time
and counts them per (j, line) by one `np.bincount`, or by
`sum_by_key` where that table would pass `model._DENSE_SPAN` cells an
event.  The call plans once, before any draw: it derives each mode's
law and sweep length (refusing a mean numpy cannot draw, whichever
mode it is) and drops the modes that always record 0.  Whichever way
it draws, a cell opens its sub-stream once, refuses a shift past the
energy lattice, and moves its lines by one `sum_by_key` of cell[line]
+ j x the mode's cells per quantum; keys are formed once, from the
merged cells.

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
from numbers import Integral, Real

import numpy as np

from . import model
from .model import IDEAL_DETECTOR, DetectorModel, Molecule, key_energies, result_provenance
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
    """Event count, seed and optional count cap, each an integer (numpy
    integers too; a bool or a float such as 1e6 is refused).

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
        model.check("events", self.events, Integral, ">= 1 and <= 2**53",
                    lambda n: 1 <= n <= 2**53)
        model.check("seed", self.seed, Integral, ">= 0", lambda n: n >= 0)
        if self.max_quanta is not None:
            model.check("max_quanta", self.max_quanta, Integral, ">= 0", lambda n: n >= 0)


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


def _split(counts: np.ndarray, mean: float, top: int | None, rng: np.random.Generator) -> tuple:
    """Split each line's events over j = 0, 1, ... by conditional binomials.

    At each j, every line sends Binomial(events left, h_j) of them to j
    quanta, drawn from `rng` over the lines in order (a line with none
    left draws nothing); a hazard of 1 sends all that is left without a
    draw.  Stops when nothing is left.  Returns (at, events) for the
    entries with events > 0, at = j * lines + line ascending.
    """
    takes = []
    for h in _hazards(mean, top):
        takes.append(counts if h == 1.0 else rng.binomial(counts, h))
        counts = counts - takes[-1]
        if not counts.any():
            break
    takes = np.concatenate(takes)  # row j holds lines 0, 1, ...
    at = takes.nonzero()[0]
    return at, takes[at]


def sample_mode(
    s: float,
    mode_index: int,
    cfg: SamplerConfig,
    d: DetectorModel = IDEAL_DETECTOR,
) -> np.ndarray:
    """All `cfg.events` recorded counts for one mode, in event order.

    Deterministic: the same (seed, mode_index, events) always yields a
    bit-identical array.  `s` is a finite real >= 0 and `mode_index`,
    the mode's 1-based number, an integer >= 1.
    """
    model.check("s", s, Real, ">= 0 and finite", model.nonnegative)
    model.check("mode_index", mode_index, Integral, ">= 1", lambda n: n >= 1)
    mean, top = _recorded(s, mode_index, cfg, d)
    return np.concatenate([_sample_mode_chunk(mean, top, substream(cfg.seed, mode_index, ci), size)
                           for ci, size in _chunks(cfg.events)])


class SampledSpectrum(LineSpectrum):
    """A LineSpectrum whose intensities are event counts (exact in
    float64 below 2**53); `provenance["events"]` records their sum."""

    @property
    def counts(self) -> np.ndarray:
        return self.intensities.astype(np.int64)


def _spectrum_chunk(plan: list, chunk_index: int, size: int, seed: int,
                    lattice: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Unique sublattice cells and counts for one chunk of events.

    The chunk's histogram starts as one line of `size` events at cell 0
    (key(e00)); each planned mode (i, cells per quantum, mean, top,
    sweep) then moves every line's events by j quanta, drawing only
    from the (seed, i, chunk) sub-stream, which it opens once.
    `lattice` is `model.sublattice(m)`.
    """
    origin, step, _ = lattice
    cells, counts = np.zeros(1, dtype=np.int64), np.array([size], dtype=np.int64)
    for i, t, mean, top, sweep in plan:
        rng = substream(seed, i, chunk_index)
        if (cells.size + _SPLIT_STEP_LINES) * sweep > size:  # per-event draws are cheaper
            j = _sample_mode_chunk(mean, top, rng, size)
            lo = int(j.min())  # (j - lo, line) as one index cannot overflow
            at = (j - lo) * cells.size + np.repeat(np.arange(cells.size), counts)
            if at.max() < model._DENSE_SPAN * size:  # count events per (j - lo, line) in a table
                at = np.flatnonzero(table := np.bincount(at))
                events = table[at]
            else:  # a huge mean: sort the events, allocating no lines x spread table
                at, events = model.sum_by_key(at, np.ones(size, np.int64))
        else:
            lo, (at, events) = 0, _split(counts, mean, top, rng)
        j = at // cells.size  # at = (j - lo) * lines + line ascends, so j - lo does
        line = at - cells.size * j
        edge = max(abs(origin + step * int(cells[0])), abs(origin + step * int(cells[-1])))
        model.check_key_reach(edge + step * abs(t) * (int(j[-1]) + lo))
        cells, counts = model.sum_by_key(cells[line] + t * (j + lo), events)
    return cells, counts


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
    model.check("workers", workers, Integral, ">= 1", lambda n: n >= 1)
    origin, step, quanta = lattice = model.sublattice(m)
    laws = [(i, t, *_recorded(s, i, cfg, d))  # a refused mean raises before any sub-stream opens
            for i, (s, t) in enumerate(zip(m.huang_rhys, quanta), 1)]
    plan = [(i, t, mean, top, min(mean + 10.0 * math.sqrt(mean) + 10.0,
                                  math.inf if top is None else top + 1))  # the sweep
            for i, t, mean, top in laws if mean > 0.0 and top != 0]  # silent modes draw nothing
    chunks = _chunks(cfg.events)
    if workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda c: _spectrum_chunk(plan, *c, cfg.seed, lattice), chunks))
    else:
        results = [_spectrum_chunk(plan, *c, cfg.seed, lattice) for c in chunks]

    cells, counts = model.sum_by_key(*map(np.concatenate, zip(*results)))
    prov = result_provenance(m, d, engine="sampler", events=cfg.events, seed=cfg.seed,
                             max_quanta=cfg.max_quanta, generator="philox-seedseq")
    return SampledSpectrum(key_energies(origin + step * cells), counts, provenance=prov)
