"""Linear-scaling sampling engine.

Each vibrational mode is emulated by an attenuated coherent pulse
train seen by a photon detector.  Per event, each mode's recorded
count is drawn once from the law `DetectorModel.recorded` states:
Poisson(efficiency * S + dark_mean), clipped at 1 for a click detector
and at the cap K.  Counts are weighted by the mode's integer lattice
key, summed event-wise across modes, and histogrammed on the exact
transition-energy lattice.  Work is O(events * modes).

Reproducibility: every (seed, mode, chunk) triple owns an independent
counter-based Philox sub-stream, so results are bit-identical for any
worker count or execution order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .model import (IDEAL_DETECTOR, DetectorModel, Molecule, check_key_reach, energy_keys,
                    key_energies)

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

DEFAULT_CHUNK_SIZE = 1_000_000

# The largest mean numpy's Poisson generator accepts (int64 max - 10 sd).
POISSON_MEAN_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


@dataclass(frozen=True)
class SamplerConfig:
    """Event count, seed, optional count cap, and chunking granularity.

    `max_quanta=None` leaves drawn counts unbounded.  When set, any
    drawn count above it is capped at that value (the numeric analog
    of a saturating detector), which is also the rule to use when
    comparing against a capped-overflow reference spectrum.
    """

    events: int
    seed: int = 0
    max_quanta: int | None = None
    chunk_size: int = DEFAULT_CHUNK_SIZE

    def __post_init__(self):
        if self.events < 1:
            raise ValueError(f"events must be >= 1, got {self.events}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.max_quanta is not None and self.max_quanta < 0:
            raise ValueError(f"max_quanta must be >= 0, got {self.max_quanta}")

    def chunks(self) -> list[tuple[int, int]]:
        """(chunk_index, size) pairs covering all events."""
        starts = range(0, self.events, self.chunk_size)
        return [(i, min(self.chunk_size, self.events - s)) for i, s in enumerate(starts)]


def substream(seed: int, mode_index: int, chunk_index: int) -> np.random.Generator:
    """Independent counter-based RNG stream for one (mode, chunk) cell."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(mode_index, chunk_index))
    return np.random.Generator(np.random.Philox(ss))


def poisson_draw(mean: float, rng: np.random.Generator, size: int | None = None):
    """Exact-distribution Poisson variate(s) with the given mean.

    Mean 0 short-circuits to zeros without consuming the stream.  A
    mean outside [0, POISSON_MEAN_MAX] (or nan) is refused before any
    draw.
    """
    if not 0 <= mean <= POISSON_MEAN_MAX:
        raise ValueError(f"Poisson mean must be in [0, {POISSON_MEAN_MAX:.6g}], got {mean!r}")
    if mean == 0.0:
        return 0 if size is None else np.zeros(size, dtype=np.int64)
    return rng.poisson(mean, size=size)


def _sample_mode_chunk(s: float, mode_index: int, chunk_index: int, size: int,
                       cfg: SamplerConfig, d: DetectorModel) -> np.ndarray:
    rng = substream(cfg.seed, mode_index, chunk_index)
    mean, top = d.recorded(s, cfg.max_quanta)
    try:
        counts = poisson_draw(mean, rng, size)
    except ValueError as exc:
        raise ValueError(
            f"mode {mode_index}: recorded mean efficiency*S + dark_mean: {exc}"
        ) from None
    return counts if top is None else np.minimum(counts, top)


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
    parts = [
        _sample_mode_chunk(s, mode_index, ci, size, cfg, d)
        for ci, size in cfg.chunks()
    ]
    return np.concatenate(parts)


@dataclass
class SampledSpectrum:
    """Event-count histogram over exact transition-energy lattice values."""

    energies: np.ndarray
    counts: np.ndarray
    total_events: int
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.energies = np.asarray(self.energies, dtype=float)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if int(self.counts.sum()) != self.total_events:
            raise ValueError("counts must sum to total_events")

    def __len__(self) -> int:
        return self.energies.size


def _spectrum_chunk(
    m: Molecule, chunk_index: int, size: int, cfg: SamplerConfig, d: DetectorModel
) -> tuple[np.ndarray, np.ndarray]:
    """Unique lattice keys and counts for one chunk of events."""
    origin = int(energy_keys(m.e00))
    acc = np.zeros(size, dtype=np.int64)
    reach = abs(origin)
    for mode, t in zip(m.modes, energy_keys(m.energies) * m.sign):
        j = _sample_mode_chunk(mode.huang_rhys, mode.index, chunk_index, size, cfg, d)
        reach += abs(int(t)) * int(j.max())
        check_key_reach(reach)
        j *= t  # j is this chunk's own fresh array
        acc += j
    keys, counts = np.unique(acc, return_counts=True)
    return keys + origin, counts


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
    chunks = cfg.chunks()
    if workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda c: _spectrum_chunk(m, *c, cfg, d), chunks))
    else:
        results = [_spectrum_chunk(m, *c, cfg, d) for c in chunks]

    keys, inverse = np.unique(np.concatenate([k for k, _ in results]), return_inverse=True)
    counts = np.zeros(keys.size, dtype=np.int64)
    np.add.at(counts, inverse, np.concatenate([c for _, c in results]))

    return SampledSpectrum(
        key_energies(keys),
        counts,
        total_events=cfg.events,
        provenance={
            "molecule": m.name,
            "engine": "sampler",
            "events": cfg.events,
            "seed": cfg.seed,
            "max_quanta": cfg.max_quanta,
            "generator": "philox-seedseq",
            **vars(d),
        },
    )
