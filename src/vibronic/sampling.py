"""Linear-scaling sampling engine.

Each vibrational mode is emulated by an attenuated coherent pulse
train seen by a photon detector.  Per event, each mode's recorded
count follows the per-mode count law that `model` states:
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
in one of two ways.  It splits every line's events over j = 0, 1, ...
by conditional binomials, Binomial(events left, h_j) with the law's
hazards h_j = P(J = j | J >= j) (`model.hazards`), the multinomial
drawn as a sequence of binomials (Davis 1993, Comput. Stat. Data Anal.
16:205): the same law as per-event draws.  After j = 0 a step draws
only over the lines with events left; numpy draws nothing for a line
with none, so this gives the bits of a draw over every line, and a
cell's work is the lines it must split.  Where the lines x sweep
length, with a split step's fixed cost added, would exceed the chunk's
events (a huge recorded mean, or a small chunk),
it draws its events one at a time and counts them per (j, line) by
one `np.bincount`, or by `sum_by_key` where that table would pass
`model._DENSE_SPAN` cells an event.  The call plans once, before any
draw: it derives each mode's law and sweep length (refusing a mean
numpy cannot draw, whichever mode it is), drops the modes that always
record 0, and orders the rest by ascending recorded mean, equal means
in position order.  A low-mean mode moves few events and so adds few
lines; splitting those first keeps the line count low while most
modes are split.  Whichever way it draws, a cell opens its sub-stream
once, refuses a shift past the energy lattice, and moves its lines by
one `sum_by_key` of cell + j x the mode's cells per quantum; keys are
formed once, from the merged cells.  A call of one chunk skips the
final merge: its cells already ascend and differ.

Reproducibility: every (seed, mode position, chunk) cell owns a
counter-based Philox sub-stream (Salmon et al., SC'11).  A call
derives one 128-bit key from `SeedSequence(seed)`, and each chunk's
Philox starts each cell at counter (0, 0, chunk, position); Philox
counts up from there in the low 128 bits, so the cells' streams are
disjoint ranges of 2**128 blocks under one key, independent by
construction and bit-identical for any worker count or order.  A
position past 2**64 folds its high bits into the key's spawn key.
Chunks hold a fixed 10^6 events, so the chunking selects the draws
and the version pins it.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from . import model
from .model import (IDEAL_DETECTOR, DetectorModel, LineSpectrum, Molecule, hazards, key_energies,
                    result_provenance)

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

# numpy draws int64 counts; the largest mean its Poisson generator
# accepts is int64 max - 10 sd.
_INT64_MAX = np.iinfo(np.int64).max
POISSON_MEAN_MAX = float(_INT64_MAX - np.sqrt(_INT64_MAX) * 10)

# A split step's fixed cost (one vectorized binomial call, ~10 us)
# counted in lines (~0.1 us each per step); one per-event draw costs
# about as much as one line-step.
_SPLIT_STEP_LINES = 128

# numpy keeps freed blocks under 1 KiB for reuse, up to 7 of each size,
# and its binomial checks n with three temporaries of n bytes.  A draw
# over fewer lines is padded with empty lines to a power of two, so the
# draws meet ten block sizes, not one for every live-line count.
_CACHED_BYTES = 1024


@dataclass(frozen=True)
class SamplerConfig:
    """Event count, seed and optional count cap, each an integer (numpy
    integers too, stored as Python ints; a bool or a float such as 1e6
    is refused).

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
        model.store(self, "events", Integral, ">= 1 and <= 2**53", lambda n: 1 <= n <= 2**53)
        model.store(self, "seed", Integral, ">= 0", lambda n: n >= 0)
        if self.max_quanta is not None:
            model.store(self, "max_quanta", Integral, ">= 0", lambda n: n >= 0)


def _chunks(events: int) -> list[tuple[int, int]]:
    """(chunk_index, size) pairs covering `events` in `_CHUNK_EVENTS` chunks."""
    starts = range(0, events, _CHUNK_EVENTS)
    return [(i, min(_CHUNK_EVENTS, events - s)) for i, s in enumerate(starts)]


def _key(seed: int, high: int = 0) -> np.ndarray:
    """The Philox key of `seed`'s streams for modes at positions
    high * 2**64 to (high + 1) * 2**64 - 1."""
    return np.random.SeedSequence(seed, spawn_key=(high,)).generate_state(2, np.uint64)


def _cell_stream(rng: np.random.Generator, key: np.ndarray, mode_index: int,
                 chunk_index: int) -> np.random.Generator:
    """`rng`, its Philox reset to the (mode, chunk) cell's stream: `key`
    at counter (0, 0, chunk_index, mode_index mod 2**64), its buffer
    empty.  Philox counts up in the counter's low 128 bits, so each
    cell owns 2**128 blocks."""
    rng.bit_generator.state = {
        "bit_generator": "Philox", "buffer": [0, 0, 0, 0], "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0,
        "state": {"key": key, "counter": [0, 0, chunk_index, mode_index % 2**64]}}
    return rng


def substream(seed: int, mode_index: int, chunk_index: int) -> np.random.Generator:
    """Independent counter-based RNG stream for one (mode, chunk) cell,
    built fresh: the stream `sample_spectrum` draws that cell from.
    `seed` is an integer >= 0, `mode_index` the mode's 1-based number
    and `chunk_index` an integer in [0, 2**64)."""
    seed = model.check("seed", seed, Integral, ">= 0", lambda n: n >= 0)
    mode_index = model.check("mode_index", mode_index, Integral, ">= 1", lambda n: n >= 1)
    chunk_index = model.check("chunk_index", chunk_index, Integral, "in [0, 2**64)",
                              lambda n: 0 <= n < 2**64)
    key = _key(seed, mode_index >> 64)
    return _cell_stream(np.random.Generator(np.random.Philox(key=key)), key,
                        mode_index, chunk_index)


def _check_mean(mean: float) -> float:
    if isinstance(mean, float) and 0.0 <= mean <= POISSON_MEAN_MAX:
        return mean
    return model.check("Poisson mean", mean, Real, f"in [0, {POISSON_MEAN_MAX:.6g}]",
                       lambda x: 0 <= x <= POISSON_MEAN_MAX)


def poisson_draw(mean: float, rng: np.random.Generator, size: int | None = None):
    """Exact-distribution Poisson variate(s) with the given mean.

    numpy returns zeros for mean 0 and draws nothing, so such a call
    leaves `rng` where it was.  A mean that is not a real number (a
    bool or a str included) or lies outside [0, POISSON_MEAN_MAX] (nan
    does) is refused by `model.check` before any draw.
    """
    return rng.poisson(_check_mean(mean), size=size)


def _recorded(s: float, mode_index: int, cfg: SamplerConfig,
              d: DetectorModel) -> tuple[float, int | None]:
    """`d.recorded` for one mode, its mean refused before any draw.  A cap
    at or above the int64 maximum never binds on numpy's int64 draws,
    so it is taken as no cap."""
    k = cfg.max_quanta
    mean, top = d.recorded(s, None if k is not None and k >= _INT64_MAX else k)
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


def _padded(counts: np.ndarray) -> np.ndarray:
    """`counts`, or under `_CACHED_BYTES` lines `counts` then zeros to
    a power of two; numpy draws nothing for a line of 0 events."""
    if counts.size >= _CACHED_BYTES:
        return counts
    padded = np.zeros(1 << (counts.size - 1).bit_length(), dtype=np.int64)
    padded[:counts.size] = counts
    return padded


def _split(cells: np.ndarray, counts: np.ndarray, t: int, mean: float, top: int | None,
           rng: np.random.Generator, reach: tuple[int, int]) -> tuple:
    """Move each line's events by j = 0, 1, ... quanta of `t` cells by
    conditional binomials.

    At each j, every line with events left sends Binomial(events left,
    h_j) of them to cell + j * t, drawn from `rng` over those lines in
    cell order; a hazard of 1 sends all that is left without a draw.
    numpy draws nothing for a line with none left, so drawing over the
    live lines alone gives the bits a draw over every line would.
    Stops when nothing is left.  `reach` = (the lines' largest |key|,
    key ticks a quantum) refuses a step past the energy lattice before
    it is formed.  Returns the (cell, events) moves with events > 0.
    """
    edge, tick = reach
    moved, events = [], []
    for j, h in enumerate(hazards(mean, top)):
        model.check_key_reach(edge + tick * j)
        if h == 1.0:  # all lines left are live
            moved.append(cells + t * j)
            events.append(counts)
            break
        take = rng.binomial(_padded(counts), h)[:counts.size]
        at = take.nonzero()[0]
        moved.append(cells[at] + t * j)
        events.append(take[at])
        live = np.subtract(counts, take, out=take).nonzero()[0]
        if not live.size:
            break
        cells, counts = cells[live], take[live]
    return np.concatenate(moved), np.concatenate(events)


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
    s = model.check("s", s, Real, ">= 0 and finite", model.nonnegative)
    mode_index = model.check("mode_index", mode_index, Integral, ">= 1", lambda n: n >= 1)
    mean, top = _recorded(s, mode_index, cfg, d)
    return np.concatenate([_sample_mode_chunk(mean, top, substream(cfg.seed, mode_index, ci), size)
                           for ci, size in _chunks(cfg.events)])


class SampledSpectrum(LineSpectrum):
    """A LineSpectrum whose intensities are event counts (exact in
    float64 below 2**53); `provenance["events"]` records their sum."""

    @property
    def counts(self) -> np.ndarray:
        return self.intensities.astype(np.int64)


def _spectrum_chunk(plan: list, chunk_index: int, size: int, key: np.ndarray,
                    lattice: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Unique sublattice cells and counts for one chunk of events.

    The chunk's histogram starts as one line of `size` events at cell 0
    (key(e00)); each planned mode (i, cells per quantum, mean, top,
    sweep) then moves every line's events by j quanta, drawing only
    from the (i, chunk) cell's stream under `key`, which it opens once.
    `lattice` is `model.sublattice(m)`.
    """
    origin, step, _ = lattice
    rng = np.random.Generator(np.random.Philox(key=key))
    cells, counts = np.zeros(1, dtype=np.int64), np.array([size], dtype=np.int64)
    for i, t, mean, top, sweep in plan:
        _cell_stream(rng, key, i, chunk_index)
        edge = max(abs(origin + step * int(cells[0])), abs(origin + step * int(cells[-1])))
        if (cells.size + _SPLIT_STEP_LINES) * sweep > size:  # per-event draws are cheaper
            j = _sample_mode_chunk(mean, top, rng, size)
            lo = int(j.min())  # (j - lo, line) as one index cannot overflow
            at = (j - lo) * cells.size + np.repeat(np.arange(cells.size), counts)
            if at.max() < model._DENSE_SPAN * size:  # count events per (j - lo, line) in a table
                at = np.flatnonzero(table := np.bincount(at))
                events = table[at]
            else:  # a huge mean: sort the events, allocating no lines x spread table
                at, events = model.sum_by_key(at, np.ones(size, np.int64))
            j = at // cells.size  # at = (j - lo) * lines + line ascends, so j - lo does
            line = at - cells.size * j
            model.check_key_reach(edge + step * abs(t) * (int(j[-1]) + lo))
            cells, counts = model.sum_by_key(cells[line] + t * (j + lo), events)
        else:
            moved = _split(cells, counts, t, mean, top, rng, (edge, step * abs(t)))
            cells, counts = model.sum_by_key(*moved)
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
    workers = model.check("workers", workers, Integral, ">= 1", lambda n: n >= 1)
    origin, step, quanta = lattice = model.sublattice(m)
    laws = [(i, t, *_recorded(s, i, cfg, d))  # a refused mean raises before any sub-stream opens
            for i, (s, t) in enumerate(zip(m.huang_rhys, quanta), 1)]
    plan = [(i, t, mean, top, min(mean + 10.0 * math.sqrt(mean) + 10.0,
                                  math.inf if top is None else top + 1))  # the sweep
            for i, t, mean, top in sorted(laws, key=lambda law: law[2])  # ascending mean
            if mean > 0.0 and top != 0]  # silent modes draw nothing
    key, chunks = _key(cfg.seed), _chunks(cfg.events)
    if workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda c: _spectrum_chunk(plan, *c, key, lattice), chunks))
    else:
        results = [_spectrum_chunk(plan, *c, key, lattice) for c in chunks]

    # one chunk's cells already ascend and differ, its counts int64
    cells, counts = (results[0] if len(results) == 1
                     else model.sum_by_key(*map(np.concatenate, zip(*results))))
    prov = result_provenance(m, d, engine="sampler", events=cfg.events, seed=cfg.seed,
                             max_quanta=cfg.max_quanta, generator="philox-counter")
    return SampledSpectrum(key_energies(origin + step * cells), counts, provenance=prov)
