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
chunk) cell moves every line's events by the mode's recorded count j,
with the law of per-event draws, in one of two ways.  A recorded mean
<= `_TREE_MEAN` (100) or a top of 1 walks: at j = 0, 1, ..., each line
sends Binomial(events left, h_j) to count j, h_j = P(J = j | J >= j)
(`model.hazards`; Davis 1993, Comput. Stat. Data Anal. 16:205).  A
larger mean goes down a tree of conditional binomials (Malefaki &
Iliopoulos 2007, Comput. Stat. Data Anal. 51:5471), each node sending
Binomial(events, P(left | node)) left and the rest right.  The tree is
complete, each node cut at the midpoint of its counts, so its window
of w counts takes ceil(log2(w + 1)) levels.  It ends in the walk at
the top or where the law left sums to under 2**-54, so no unbounded
tail is lumped; below the mean, such a tail is one numpy's binomial
never draws, and the tree leaves it out.  `model` weighs the law, both
the hazards and the tree's window (`model.window_bounds`,
`model.law_window`); this module computes no pmf value, it only draws.

The call plans once, before any draw: it derives each mode's law and
tree (refusing a mean numpy cannot draw, whichever mode it is), drops
the modes that always record 0, and orders the rest by ascending
recorded mean, equal means in position order: a low-mean mode moves few
events and so adds few lines.  A cell opens its sub-stream once,
derives each walk's hazards as it steps, refuses a move past the energy
lattice, and merges its moved lines, cell + j x the mode's cells per
quantum, into distinct ascending cells; keys are formed once, from the
merged cells.

At small event counts a call costs its cells, not its events, so a
walk over fewer than `_FEW_LINES` lines draws one line at a time.  A
walk's moves are one ascending run per j, merged by a table where the
cells are dense, else by one stable sort and `np.add.reduceat`; int64
sums do not depend on their order.

Reproducibility: every (seed, mode position, chunk) cell owns a
counter-based Philox sub-stream (Salmon et al., SC'11).  A call
derives one 128-bit key from `SeedSequence(seed)`, and each cell sets
its thread's Philox to that key at counter (0, 0, chunk, position);
Philox counts up from there in the low 128 bits, so the cells' streams
are disjoint ranges of 2**128 blocks under one key, independent by
construction and bit-identical for any worker count or order.  A
position past 2**64 folds its high bits into the key's spawn key.
`sample_spectrum`'s chunks hold a fixed 10^6 events, so its chunking
selects its draws and the version pins it; `sample_mode` draws every
event of a mode from that mode's chunk-0 stream.
"""

from __future__ import annotations

import math
import threading
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

# Events per `sample_spectrum` chunk, the unit worker threads share.  It
# selects the draws, so the version fixes it.
_CHUNK_EVENTS = 1_000_000

# numpy draws int64 counts; the largest mean its Poisson generator
# accepts is int64 max - 10 sd.
_INT64_MAX = np.iinfo(np.int64).max
POISSON_MEAN_MAX = float(_INT64_MAX - np.sqrt(_INT64_MAX) * 10)

# Only a recorded mean above this takes a tree; the version fixes it.
# It was set where the walk beat version 0.5.0's median-cut tree (as the
# last mode at 1e6 events, 0.57/0.91/1.22x its time at S = 30/90/120 on
# 12 modes).  The complete tree runs 0.90/0.73/0.67x the walk's time at
# S = 30/60/90 there, but 1.40x with every S of those 12 modes x 20 and
# a threshold of ln 2.  Above 92.95, h_j < 1/2 on every tree leaf, so a
# tree's walk starts only at the top or at the law's 2**-54 end.
_TREE_MEAN = 100.0

# The most counts a tree may span (~17 sd at a mean of ~4e9): a wider
# one would not fit in memory, so its mode is refused.
_WINDOW_MAX = 2**20

# Under this many lines a walk draws one scalar binomial a line (~1 us
# each), not one array call a step (~8-17 us, then ~0.1 us a line): the
# same bits.  16 beat 8, 24 and 32 on `pentacene_like_8`.
_FEW_LINES = 16

# numpy keeps freed blocks under 1 KiB for reuse, up to 7 of each size,
# and its binomial checks n with three temporaries of n bytes.  A draw
# over fewer lines is padded with empty lines to a power of two, so the
# draws meet ten block sizes, not one for every live-line count.
_CACHED_BYTES = 1024

_THREAD = threading.local()


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


def _generator() -> np.random.Generator:
    """A Generator over this thread's Philox.  `_cell_stream` sets all of
    its state before a cell draws, so one Philox serves every call on a
    thread (building one costs ~10 us)."""
    if (bits := getattr(_THREAD, "philox", None)) is None:
        bits = _THREAD.philox = np.random.Philox(0)
    return np.random.Generator(bits)


def substream(seed: int, mode_index: int, chunk_index: int) -> np.random.Generator:
    """Independent counter-based RNG stream for one (mode, chunk) cell,
    built fresh: the stream `sample_spectrum` draws that cell from, and
    at chunk 0 the one `sample_mode` draws all the mode's events from.
    `seed` is an integer >= 0, `mode_index` the mode's 1-based number
    and `chunk_index` an integer in [0, 2**64)."""
    seed = model.check("seed", seed, Integral, ">= 0", lambda n: n >= 0)
    mode_index = model.check("mode_index", mode_index, Integral, ">= 1", lambda n: n >= 1)
    chunk_index = model.check("chunk_index", chunk_index, Integral, "in [0, 2**64)",
                              lambda n: 0 <= n < 2**64)
    key = _key(seed, mode_index >> 64)
    return _cell_stream(np.random.Generator(np.random.Philox(key=key)), key,
                        mode_index, chunk_index)


def _check_mean(mean: float, name: str = "Poisson mean") -> float:
    if isinstance(mean, float) and 0.0 <= mean <= POISSON_MEAN_MAX:
        return mean
    return model.check(name, mean, Real, f"in [0, {POISSON_MEAN_MAX:.6g}]",
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
    """`d.recorded` for one mode, its mean refused before any draw, the
    refusal prefixed by the mode's number alone.  A cap at or above the
    int64 maximum never binds on numpy's int64 draws, so it is taken as
    no cap."""
    k = cfg.max_quanta
    try:
        mean, top = d.recorded(s, None if k is not None and k >= _INT64_MAX else k)
        _check_mean(mean, "recorded Poisson mean")
    except ValueError as exc:
        raise ValueError(f"mode {mode_index}: {exc}") from None
    return mean, top


def _padded(values: np.ndarray) -> np.ndarray:
    """`values`, or under `_CACHED_BYTES` lines `values` then zeros to
    a power of two; numpy draws nothing for a line of 0 events."""
    if values.size >= _CACHED_BYTES:
        return values
    padded = np.zeros(1 << (values.size - 1).bit_length(), dtype=values.dtype)
    padded[:values.size] = values
    return padded


def _law(i: int, t: int, mean: float, top: int | None, origin: int, step: int) -> tuple:
    """Plan one mode: (position `i`, `t` cells and `step * |t|` keys a
    quantum, and the law `_split` draws: mean, top, the walk's first
    count c0 and the tree (P(left) per level, lo) or None).  Every cell
    of the mode shares it exactly, whatever its events.

    A recorded mean <= `_TREE_MEAN` or a top of 1 is one walk from 0.
    Else the tree's leaves are lo .. c0 - 1 and the walk, (lo, c0) =
    `model.window_bounds(mean, top)`, weighed by `model.law_window`:
    below lo and from c0 on the law sums to under 2**-54, or c0 is the
    top.  The tree is complete: its L = (c0 - lo).bit_length() levels
    cut each node's leaves, padded with zero weights to 2**L, at their
    midpoint, so node k's children are 2k and 2k + 1.  A node's P(left)
    is its left half's weight over both halves', each summed pairwise
    from the leaves, so a node deep in a tail keeps its digits; a node
    whose left half weighs 0 gets 0.
    A tree is refused if its counts but those 6 sd below the mean pass
    the energy lattice (`origin`: key(e00)), or if c0 - lo >
    `_WINDOW_MAX`."""
    tick, tree, c0 = step * abs(t), None, 0
    if top != 1 and mean > _TREE_MEAN:
        floor = min(int(mean - 6.0 * math.sqrt(mean)), top or math.inf)
        model.check_key_reach(tick * floor - abs(origin))
        lo, c0 = model.window_bounds(mean, top)
        if c0 - lo > _WINDOW_MAX:
            raise ValueError(f"mode {i}: recorded mean {mean:.6g} spreads over more than 2**20 "
                             "counts, more than the sampler plans")
        w, levels = np.zeros(1 << (c0 - lo).bit_length()), []
        w[:c0 - lo + 1] = model.law_window(mean, lo, c0)
        while w.size > 1:  # from the leaves up
            left, w = w[0::2], w[0::2] + w[1::2]
            levels.append(np.divide(left, w, out=np.zeros_like(w), where=left > 0.0))
        tree = (levels[::-1], lo) if levels else None
    return i, t, tick, (mean, top, c0, tree)


def _split(cells: np.ndarray, counts: np.ndarray, t: int, law: tuple, rng: np.random.Generator,
           reach: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Move each line's events by j quanta of `t` cells, j drawn by the
    mode's `law` (`_law`); return the moved lines merged.  `reach` =
    (the lines' largest |key|, key ticks a quantum) refuses a move past
    the energy lattice before it is formed.

    A tree goes a level at a time: one draw from `rng` over the level's
    (line, node, events > 0) items, in line (cell) order, then node
    order; each sends Binomial(events, P(left)) to node 2k and the rest
    to node 2k + 1, and after the last level leaf j < c0 takes cell + j
    * t.  The lines at leaf c0, or all lines if there is no tree, then
    walk in cell order: at j = c0, c0 + 1, ..., every line with events
    left sends Binomial(events left, h_j) to cell + j * t, in one draw
    over those lines (numpy draws nothing for a line of none), and
    h_j = 1 sends the rest without one.  `_split_few` walks fewer than
    `_FEW_LINES`.
    """
    mean, top, c0, tree = law
    edge, tick = reach
    if tree is not None:
        (levels, lo), nodes = tree, np.zeros(cells.size, np.int64)
        for prob in levels:
            take = rng.binomial(_padded(counts), _padded(prob[nodes]))[:cells.size]
            counts = np.column_stack((take, counts - take)).ravel()
            at = counts.nonzero()[0]
            up = at >> 1
            cells, nodes, counts = cells[up], 2 * nodes[up] + (at & 1), counts[at]
        j = lo + nodes
        model.check_key_reach(edge + tick * int(j.max()))
        at, walk = j < c0, j == c0  # a line reaches leaf c0 once, so these stay in cell order
        parts = [model.sum_by_key(cells[at] + t * j[at], counts[at])]
        if walk.any():
            law = (mean, top, c0, None)
            parts.append(_split(cells[walk], counts[walk], t, law, rng, reach))
        return _merge(*zip(*parts))
    walk = enumerate(hazards(mean, top, c0), c0)
    if cells.size < _FEW_LINES:
        return _split_few(cells, counts, t, walk, rng, reach)
    moved, events = [], []
    for j, h in walk:
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
    return _merge(moved, events)


def _split_few(cells: np.ndarray, counts: np.ndarray, t: int, walk, rng: np.random.Generator,
               reach: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """`_split`'s walk over few lines, one line at a time: a scalar draw
    per live line in cell order, the moves summed per cell in a dict."""
    edge, tick = reach
    moved, lines = {}, list(zip(cells.tolist(), counts.tolist()))
    for j, h in walk:
        model.check_key_reach(edge + tick * j)
        shift, live = t * j, []
        for c, n in lines:
            k = n if h == 1.0 else rng.binomial(n, h)
            if k:
                moved[c + shift] = moved.get(c + shift, 0) + k
            if n > k:
                live.append((c, n - k))
        if not live:
            break
        lines = live
    cells = sorted(moved)
    return np.array(cells, dtype=np.int64), np.array([moved[c] for c in cells], dtype=np.int64)


def _merge(moved: list, events: list) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ascending cells and the int64 events on each, of a
    cell's moves: `moved` holds ascending runs of cells (one a walk's
    step, or one a part of `_split`), `events` their events (each > 0).

    Dense cells are counted in a table, as `sum_by_key` counts them,
    its span taken from the runs' ends; sparse ones are sorted (a
    stable sort merges runs) and summed per cell by `np.add.reduceat`.
    int64 sums do not depend on their order, so both give the counts
    `sum_by_key` would, without its min and max passes and float
    bincount: merged by it, `pentacene_like_8` at K=1 and 1e7 events
    ran 1.16x slower, and by its sort branch alone 1.09x.
    """
    lo = min(int(run[0]) for run in moved if run.size)
    hi = max(int(run[-1]) for run in moved if run.size)
    cells, counts = np.concatenate(moved), np.concatenate(events)
    if hi - lo < model._DENSE_SPAN * cells.size:  # count per cell - lo in a table
        table = np.bincount(cells - lo, counts)
        at = table.nonzero()[0]
        return lo + at, table[at].astype(np.int64)
    order = np.argsort(cells, kind="stable")
    cells = cells[order]
    at = np.concatenate(([0], (cells[1:] != cells[:-1]).nonzero()[0] + 1))
    return cells[at], np.add.reduceat(counts[order], at)


def sample_mode(
    s: float,
    mode_index: int,
    cfg: SamplerConfig,
    d: DetectorModel = IDEAL_DETECTOR,
) -> np.ndarray:
    """All `cfg.events` recorded counts for one mode, in event order,
    drawn in one call from the mode's `substream(seed, mode_index, 0)`.

    Deterministic: the same (seed, mode_index, events) always yields a
    bit-identical array, and its first n counts are the n-event call's.
    `s` is a finite real >= 0 and `mode_index`, the mode's 1-based
    number, an integer >= 1.
    """
    s = model.check("s", s, Real, ">= 0 and finite", model.nonnegative)
    mode_index = model.check("mode_index", mode_index, Integral, ">= 1", lambda n: n >= 1)
    mean, top = _recorded(s, mode_index, cfg, d)
    counts = poisson_draw(mean, substream(cfg.seed, mode_index, 0), cfg.events)
    return counts if top is None else np.minimum(counts, top, out=counts)


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
    (key(e00)); each planned mode (`_law`) then moves every line's
    events by j quanta (`_split`), drawing only from the (i, chunk)
    cell's stream under `key`, which it opens once.  `lattice` is
    `model.sublattice(m)`.
    """
    origin, step, _ = lattice
    rng = _generator()
    cells, counts = np.zeros(1, dtype=np.int64), np.array([size], dtype=np.int64)
    for i, t, tick, law in plan:
        _cell_stream(rng, key, i, chunk_index)
        edge = max(abs(origin + step * int(cells[0])), abs(origin + step * int(cells[-1])))
        cells, counts = _split(cells, counts, t, law, rng, (edge, tick))
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
    plan = [_law(i, t, mean, top, origin, step)
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
