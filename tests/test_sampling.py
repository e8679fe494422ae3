import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from vibronic import sampling
from vibronic.analysis import BroadeningKernel, EnergyGrid, broaden, fidelity, normalize
from vibronic.model import Mode, Molecule, energy_keys, key_energies
from vibronic.sampling import (
    IDEAL_DETECTOR,
    DetectorModel,
    SamplerConfig,
    _hazards,
    poisson_draw,
    sample_mode,
    sample_spectrum,
    substream,
)
from vibronic.sos import LineSpectrum, mode_distribution


def molecule(hr, energies=None, e00=0.0):
    energies = energies or [500.0 + 100.0 * i for i in range(len(hr))]
    modes = tuple(Mode(energy=e, huang_rhys=s) for e, s in zip(energies, hr))
    return Molecule("m", e00, "absorption", modes)


def apply_detector(j, d, rng, max_quanta=None):
    """Oracle: the detector chain photon by photon.

    Loss thins each photon with probability `efficiency` (binomial),
    then dark counts add, then a click detector saturates at 1, then
    the optional cap applies.  The sampler instead draws the thinned
    count directly as Poisson(efficiency * S).
    """
    out = np.asarray(j)
    if d.efficiency < 1.0:
        out = rng.binomial(out, d.efficiency)
    if d.dark_mean > 0.0:
        out = out + rng.poisson(d.dark_mean, size=out.shape)
    if d.threshold_mode:
        out = np.minimum(out, 1)
    if max_quanta is not None:
        out = np.minimum(out, max_quanta)
    return out


def assert_same_counts(a, b):
    """Two samples of per-event counts agree in frequency for every
    count value, within 4 sigma of the difference of two proportions."""
    n = a.size
    for v in np.union1d(np.unique(a), np.unique(b)):
        pa, pb = (a == v).mean(), (b == v).mean()
        p = (pa + pb) / 2.0
        assert abs(pa - pb) <= 4.0 * math.sqrt(2.0 * p * (1.0 - p) / n) + 1e-12, v


def oracle_counts(s, d, seed, n, max_quanta=None):
    rng = substream(seed, 1, 0)
    return apply_detector(poisson_draw(s, rng, size=n), d, rng, max_quanta)


def replay_split(m, cfg, d=IDEAL_DETECTOR):
    """Oracle: the sampler's cell rule, one dict of lines per chunk.

    Each (mode i, chunk) cell draws from `substream(seed, i, chunk)`:
    for j = 0, 1, ..., Binomial(events left, h_j) over every line in key
    order, a line with none left included (it draws nothing), and a
    hazard of 1 takes all that is left.  A mode that records 0 draws
    nothing.
    """
    hist = {}
    for ci, size in sampling._chunks(cfg.events):
        lines = {int(energy_keys(m.e00)): size}
        for i, mode in enumerate(m.modes, 1):
            mean, top = d.recorded(mode.huang_rhys, cfg.max_quanta)
            if mean == 0.0 or top == 0:
                continue
            t, rng = int(energy_keys(mode.energy)) * m.sign, substream(cfg.seed, i, ci)
            keys = sorted(lines)
            left = np.array([lines[k] for k in keys], dtype=np.int64)
            lines = {}
            for j, h in enumerate(_hazards(mean, top)):
                take = left if h == 1.0 else rng.binomial(left, h)
                for k, n in zip(keys, take.tolist()):
                    if n:
                        lines[k + j * t] = lines.get(k + j * t, 0) + n
                left = left - take
                if not left.any():
                    break
        for k, n in lines.items():
            hist[k] = hist.get(k, 0) + n
    keys = sorted(hist)
    return np.array(keys, dtype=np.int64), np.array([hist[k] for k in keys])


def replay_per_event(m, cfg, d=IDEAL_DETECTOR):
    """Oracle: the sampler's per-event cells, one array of event keys
    per chunk.

    Each chunk's events start at key(e00); each mode then pairs the
    sorted keys with its `sample_mode` counts for that chunk and moves
    each event by its count times the mode's key.
    """
    draws = [sample_mode(mode.huang_rhys, i, cfg, d) for i, mode in enumerate(m.modes, 1)]
    keys = []
    for ci, size in sampling._chunks(cfg.events):
        e = np.full(size, int(energy_keys(m.e00)), dtype=np.int64)
        lo = ci * sampling._CHUNK_EVENTS
        for mode, j in zip(m.modes, draws):
            e = np.sort(e) + int(energy_keys(mode.energy)) * m.sign * j[lo:lo + size]
        keys.append(e)
    return np.unique(np.concatenate(keys), return_counts=True)


class TestPoissonDraw:
    def test_zero_mean_always_zero(self):
        rng = substream(0, 1, 0)
        assert poisson_draw(0.0, rng) == 0
        assert not poisson_draw(0.0, rng, size=1000).any()

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            poisson_draw(-0.1, substream(0, 1, 0))

    def test_zero_fraction_quarter_mean(self):
        n = 10**6
        draws = poisson_draw(0.25, substream(123, 1, 0), size=n)
        p = math.exp(-0.25)
        tol = 3.0 * math.sqrt(p * (1 - p) / n)
        assert abs((draws == 0).mean() - p) < tol

    def test_sample_mean_unit(self):
        n = 10**6
        draws = poisson_draw(1.0, substream(321, 1, 0), size=n)
        assert abs(draws.mean() - 1.0) < 3.0 / math.sqrt(n)


class TestHazards:
    def test_against_poisson(self):
        # h_j = P(J = j) / P(J >= j) wherever scipy's pmf is normal
        for s in np.append(np.geomspace(1e-9, 60.0, 200), 400.0):
            n = int(s + 10.0 * math.sqrt(s) + 30.0)
            h = np.fromiter(itertools.islice(_hazards(s, None), n), float, n)
            assert ((h >= 0.0) & (h <= 1.0)).all(), s
            j = np.arange(n)
            want = scipy.stats.poisson.pmf(j, s) / scipy.stats.poisson.sf(j - 1, s)
            ok = scipy.stats.poisson.pmf(j, s) > 1e-250
            assert (np.abs(h[ok] - want[ok]) <= 1e-12 * want[ok]).all(), s

    def test_cap_takes_all_at_top(self):
        for s in (0.0, 0.3, 5.0):
            for top in (0, 1, 4):
                h = list(_hazards(s, top))
                assert len(h) == top + 1 and h[-1] == 1.0, (s, top)


class TestApplyDetector:
    """The sampler's recorded counts against the photon-by-photon oracle."""

    def test_ideal_is_identity(self):
        j = np.arange(10)
        assert np.array_equal(apply_detector(j, IDEAL_DETECTOR, substream(0, 1, 0)), j)
        # with no detector effects the sampler records the raw draws
        n = 10**4
        got = sample_mode(0.7, 1, SamplerConfig(events=n, seed=3))
        assert np.array_equal(got, oracle_counts(0.7, IDEAL_DETECTOR, 3, n))

    def test_threshold_saturates(self):
        d = DetectorModel(threshold_mode=True)
        assert apply_detector(5, d, substream(0, 1, 0)) == 1
        n = 10**5
        got = sample_mode(2.0, 1, SamplerConfig(events=n, seed=4), d)
        assert np.array_equal(got, oracle_counts(2.0, d, 4, n))

    def test_thinning_mean(self):
        n = 10**6
        d = DetectorModel(efficiency=0.8)
        got = sample_mode(0.25, 1, SamplerConfig(events=n, seed=77), d)
        want = oracle_counts(0.25, d, 78, n)
        mean = 0.8 * 0.25
        for out in (got, want):
            assert abs(out.mean() - mean) < 3.0 * math.sqrt(mean / n)
        assert_same_counts(got, want)

    def test_dark_counts_add(self):
        n = 10**5
        d = DetectorModel(dark_mean=0.5)
        got = sample_mode(0.0, 1, SamplerConfig(events=n, seed=78), d)
        want = oracle_counts(0.0, d, 79, n)
        for out in (got, want):
            assert abs(out.mean() - 0.5) < 3.0 * math.sqrt(0.5 / n)
        assert_same_counts(got, want)

    def test_max_quanta_cap(self):
        assert np.array_equal(
            apply_detector(np.array([0, 1, 5, 9]), IDEAL_DETECTOR, substream(0, 1, 0), 3),
            [0, 1, 3, 3],
        )
        n = 10**4
        got = sample_mode(2.5, 1, SamplerConfig(events=n, seed=5, max_quanta=3))
        assert np.array_equal(got, oracle_counts(2.5, IDEAL_DETECTOR, 5, n, max_quanta=3))

    def test_one_draw_of_the_recorded_law(self):
        # every detector records one Poisson(eta*S + dark) draw per
        # event from the cell's stream, clipped at min(K, 1 if click)
        n = 10**4
        d = DetectorModel(efficiency=0.7, dark_mean=0.3, threshold_mode=True)
        for k, top in ((None, 1), (0, 0), (3, 1)):
            got = sample_mode(0.9, 2, SamplerConfig(events=n, seed=6, max_quanta=k), d)
            want = np.minimum(poisson_draw(0.7 * 0.9 + 0.3, substream(6, 2, 0), n), top)
            assert np.array_equal(got, want)

    def test_invalid_efficiency(self):
        with pytest.raises(ValueError):
            DetectorModel(efficiency=0.0)
        with pytest.raises(ValueError):
            DetectorModel(efficiency=1.5)


class TestSampleMode:
    def test_zero_s_all_zero(self):
        cfg = SamplerConfig(events=10000, seed=5)
        assert not sample_mode(0.0, 1, cfg).any()

    def test_threshold_one_fraction(self):
        n = 10**6
        cfg = SamplerConfig(events=n, seed=9)
        out = sample_mode(0.25, 1, cfg, DetectorModel(threshold_mode=True))
        p = 1.0 - math.exp(-0.25)
        tol = 3.0 * math.sqrt(p * (1 - p) / n)
        assert abs(out.mean() - p) < tol
        assert set(np.unique(out)) <= {0, 1}

    def test_determinism(self, monkeypatch):
        monkeypatch.setattr(sampling, "_CHUNK_EVENTS", 7000)
        cfg = SamplerConfig(events=50000, seed=31)
        a = sample_mode(0.3, 2, cfg)
        b = sample_mode(0.3, 2, cfg)
        assert np.array_equal(a, b)

    def test_per_photon_thinning_matches_direct_statistically(self):
        # every detector effect at once, capped: the sampler's direct
        # Poisson(eta*S) draw against photon-by-photon thinning
        n = 10**6
        d = DetectorModel(efficiency=0.7, dark_mean=0.1)
        direct = sample_mode(0.4, 1, SamplerConfig(events=n, seed=40, max_quanta=2), d)
        thinned = oracle_counts(0.4, d, 41, n, max_quanta=2)
        mean = 0.7 * 0.4 + 0.1
        uncapped = sample_mode(0.4, 1, SamplerConfig(events=n, seed=42), d)
        assert abs(uncapped.mean() - mean) < 3.0 * math.sqrt(mean / n)
        assert_same_counts(direct, thinned)


# explicit ids, so that adding or deleting a case renames no other
@pytest.mark.parametrize("kw, match", [
    pytest.param({"events": 0}, "events must be >= 1", id="kw0-events must be >= 1"),
    pytest.param({"events": 10, "max_quanta": -1}, "max_quanta must be >= 0",
                 id="kw2-max_quanta must be >= 0"),
    pytest.param({"events": 2**53 + 1}, r"<= 2\*\*53, got 9007199254740993",
                 id=r"kw3-<= 2\*\*53, got 9007199254740993"),
    pytest.param({"events": 10, "seed": -1}, "seed must be >= 0, got -1",
                 id="kw4-seed must be >= 0"),
    pytest.param({"events": 2.5}, "events must be an integer, got 2.5", id="events-float"),
    pytest.param({"events": True}, "events must be an integer, got True", id="events-bool"),
    pytest.param({"events": 1e6}, r"events must be an integer, got 1000000\.0",
                 id="events-1e6"),
    pytest.param({"events": 10, "seed": 1.0}, r"seed must be an integer, got 1\.0",
                 id="seed-float"),
    pytest.param({"events": 10, "seed": False}, "seed must be an integer, got False",
                 id="seed-bool"),
    pytest.param({"events": 10, "max_quanta": 1.5}, r"max_quanta must be an integer, got 1\.5",
                 id="max_quanta-float"),
    pytest.param({"events": 10, "max_quanta": True}, "max_quanta must be an integer, got True",
                 id="max_quanta-bool"),
])
def test_sampler_config_refuses(kw, match):
    with pytest.raises(ValueError, match=match):
        SamplerConfig(**kw)


def test_sampler_config_takes_numpy_integers():
    cfg = SamplerConfig(events=np.int64(5000), seed=np.uint32(3), max_quanta=np.int16(2))
    spec = sample_spectrum(molecule([0.3, 0.1]), cfg)
    assert int(spec.counts.sum()) == 5000


def test_sampler_config_fields():
    # the version fixes the chunking; no field schedules the work
    assert [f.name for f in dataclasses.fields(SamplerConfig)] == [
        "events", "seed", "max_quanta"]


class TestSampleSpectrum:
    def test_zero_mode_molecule(self):
        m = molecule([], e00=7777.0)
        spec = sample_spectrum(m, SamplerConfig(events=500, seed=2))
        assert list(spec.energies) == [7777.0]
        assert list(spec.counts) == [500]

    def test_one_mode_threshold_fractions(self):
        n = 10**6
        m = molecule([0.25], energies=[500.0])
        spec = sample_spectrum(
            m, SamplerConfig(events=n, seed=17), DetectorModel(threshold_mode=True)
        )
        frac = dict(zip(spec.energies.tolist(), (spec.counts / n).tolist()))
        p0 = math.exp(-0.25)
        assert abs(frac[0.0] - p0) < 0.0013
        assert abs(frac[500.0] - (1.0 - p0)) < 0.0013

    def test_counts_sum_to_events(self):
        m = molecule([0.3, 0.1])
        spec = sample_spectrum(m, SamplerConfig(events=12345, seed=3))
        assert int(spec.counts.sum()) == 12345 == spec.provenance["events"]
        assert spec.counts.dtype == np.int64
        assert np.array_equal(spec.counts, spec.intensities)

    def test_is_a_line_spectrum(self):
        # the analysis layer takes a sampled spectrum as it is
        spec = sample_spectrum(molecule([0.3, 0.1]), SamplerConfig(events=5000, seed=3))
        assert isinstance(spec, LineSpectrum)
        assert normalize(spec, "unit_l1").total == pytest.approx(1.0)
        assert fidelity(spec, spec) == pytest.approx(1.0)
        kernel = BroadeningKernel("gaussian", 20.0)
        assert len(broaden(spec, kernel, EnergyGrid.around(spec.energies, 20.0))) > 0

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_refused(self, workers):
        with pytest.raises(ValueError, match="workers"):
            sample_spectrum(molecule([0.3]), SamplerConfig(events=100), workers=workers)

    def test_energies_on_lattice(self):
        m = molecule([0.5, 0.8], energies=[300.0, 700.0], e00=1000.0)
        spec = sample_spectrum(m, SamplerConfig(events=20000, seed=4))
        for e in spec.energies:
            r = e - 1000.0
            # representable as 300 a + 700 b with small non-negative ints
            ok = any(
                abs(r - (300.0 * a + 700.0 * b)) < 1e-9
                for a in range(20)
                for b in range(20)
            )
            assert ok, e

    def test_appending_zero_s_mode_bit_identical(self):
        cfg = SamplerConfig(events=30000, seed=8)
        m1 = molecule([0.3, 0.2])
        m2 = molecule([0.3, 0.2, 0.0])
        s1 = sample_spectrum(m1, cfg)
        s2 = sample_spectrum(m2, cfg)
        assert np.array_equal(s1.energies, s2.energies)
        assert np.array_equal(s1.counts, s2.counts)

    @pytest.mark.parametrize("workers", [2, 8])
    def test_worker_count_invisible(self, workers, monkeypatch):
        monkeypatch.setattr(sampling, "_CHUNK_EVENTS", 9000)
        m = molecule([0.25, 0.1, 0.4])
        cfg = SamplerConfig(events=64000, seed=13)
        base = sample_spectrum(m, cfg, workers=1)
        par = sample_spectrum(m, cfg, workers=workers)
        assert np.array_equal(base.energies, par.energies)
        assert np.array_equal(base.counts, par.counts)

    @pytest.mark.parametrize("hr, energies", [
        ([0.5, 0.2, 0.8], [100.0, 300.0, 700.0]),
        ([0.8, 0.2, 0.5], [700.0, 300.0, 100.0]),
        ([0.5, 0.2, 0.8], [100.001, 300.37, 700.5]),  # cells 0.001 cm^-1 apart
    ])
    def test_streams_keyed_by_position(self, hr, energies, monkeypatch):
        # the mode at 1-based position i draws from sub-stream i of each
        # chunk, so the spectrum is the replay of the cell rule
        monkeypatch.setattr(sampling, "_CHUNK_EVENTS", 7000)
        cfg = SamplerConfig(events=20000, seed=6)
        m = molecule(hr, energies=energies, e00=1000.0)
        spec = sample_spectrum(m, cfg)
        keys, counts = replay_split(m, cfg)
        assert np.array_equal(spec.energies, key_energies(keys))
        assert np.array_equal(spec.counts, counts)

    @pytest.mark.parametrize("d, max_quanta, energies", [
        pytest.param(IDEAL_DETECTOR, None, [100.0, 300.0, 700.0], id="ideal"),
        pytest.param(DetectorModel(efficiency=0.7, dark_mean=0.1), 3, [100.0, 300.0, 700.0],
                     id="loss-dark-K3"),
        pytest.param(DetectorModel(threshold_mode=True), None, [100.0, 300.0, 700.0],
                     id="click"),
        pytest.param(IDEAL_DETECTOR, None, [100.001, 300.37, 700.5], id="ideal-incommensurate"),
        pytest.param(DetectorModel(efficiency=0.7, dark_mean=0.1), 3, [100.001, 300.37, 700.5],
                     id="loss-dark-K3-incommensurate"),
    ])
    def test_per_event_cells_replay(self, d, max_quanta, energies, monkeypatch):
        # 60-event chunks make every cell draw per event (`_split` is
        # removed to show it), so the spectrum is the per-event replay;
        # incommensurate energies put the lines far apart on the sublattice
        monkeypatch.setattr(sampling, "_CHUNK_EVENTS", 60)
        monkeypatch.setattr(sampling, "_split", None)
        m = molecule([0.5, 0.2, 0.8], energies=energies, e00=1000.0)
        cfg = SamplerConfig(events=1000, seed=21, max_quanta=max_quanta)
        spec = sample_spectrum(m, cfg, d)
        keys, counts = replay_per_event(m, cfg, d)
        assert np.array_equal(spec.energies, key_energies(keys))
        assert np.array_equal(spec.counts, counts)

    @pytest.mark.parametrize("chunk_events, per_event_draws", [(10**5, 0), (10**4, 10)])
    def test_huge_mean_mode_law(self, chunk_events, per_event_draws, monkeypatch):
        # S = 400 sweeps ~610 counts: a chunk of 1e5 events splits its
        # line, one of 1e4 events draws per event; both follow the law
        monkeypatch.setattr(sampling, "_CHUNK_EVENTS", chunk_events)
        draws = []
        monkeypatch.setattr(sampling, "poisson_draw",
                            lambda *a, **k: draws.append(a) or poisson_draw(*a, **k))
        cfg = SamplerConfig(events=10**5, seed=400)
        spec = sample_spectrum(molecule([400.0], energies=[100.0]), cfg)
        assert len(draws) == per_event_draws
        obs = np.zeros(701)
        obs[np.rint(spec.energies / 100.0).astype(int)] = spec.counts
        exp = mode_distribution(400.0, 700, "cap") * cfg.events
        big = exp >= 5.0  # merge the sparse tails into one bin
        _, p_value = scipy.stats.chisquare(np.append(obs[big], obs[~big].sum()),
                                           np.append(exp[big], exp[~big].sum()))
        assert p_value > 1e-4

    @pytest.mark.parametrize("chunk_events, methods", [
        (10**4, {"_sample_mode_chunk", "_split"}), (10**5, {"_split"})])
    def test_each_cell_derives_law_and_stream_once(self, chunk_events, methods, monkeypatch):
        # S = 400 draws per event in chunks of 1e4 and splits in 1e5; the
        # small modes split.  Every cell derives its law and opens its
        # sub-stream exactly once, whichever method it takes.
        monkeypatch.setattr(sampling, "_CHUNK_EVENTS", chunk_events)
        calls = {name: [] for name in ("_recorded", "substream", "_sample_mode_chunk", "_split")}
        for name, log in calls.items():
            real = getattr(sampling, name)
            monkeypatch.setattr(sampling, name,
                                lambda *a, _real=real, _log=log: _log.append(a) or _real(*a))
        m = molecule([400.0, 0.2, 0.05], energies=[100.0, 230.0, 517.0], e00=1000.0)
        cfg = SamplerConfig(events=2 * 10**5, seed=4)
        sample_spectrum(m, cfg)
        cells = [(i, ci) for ci, _ in sampling._chunks(cfg.events) for i in (1, 2, 3)]
        assert sorted(a[1:] for a in calls["substream"]) == sorted(cells)
        assert sorted(a[1] for a in calls["_recorded"]) == sorted(i for i, _ in cells)
        assert {name for name in methods if calls[name]} == methods
        assert len(calls["_sample_mode_chunk"]) + len(calls["_split"]) == len(cells)
        for log in calls.values():
            log.clear()
        sample_mode(400.0, 1, cfg)
        assert len(calls["_recorded"]) == 1
        assert (len(calls["substream"]) == len(calls["_sample_mode_chunk"])
                == len(sampling._chunks(cfg.events)))

    def test_huge_mean_per_event_cell_memory_bounded(self, monkeypatch):
        # ~400 live lines meet S = 1e8 at 1 cm^-1 in a 1e4-event chunk: the
        # counts spread over ~7.5e4 values, so a (j, line) table of them
        # would take ~0.3 GB; the cell sorts its 1e4 events instead
        monkeypatch.setattr(sampling, "_CHUNK_EVENTS", 10**4)
        energies = [101.013, 203.37, 307.5, 1.0]
        m = molecule([2.0, 2.0, 2.0, 1e8], energies=energies)
        cfg = SamplerConfig(events=10**4, seed=5)
        assert len(sample_spectrum(molecule([2.0] * 3, energies=energies[:3]), cfg)) > 350
        tracemalloc.start()
        try:
            spec = sample_spectrum(m, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert int(spec.counts.sum()) == 10**4
        assert peak < 16 * 2**20, peak

    def test_split_cell_refuses_past_lattice(self):
        # S = 400 splits one line of 1e5 events; counts past ~300 at
        # 3e7 cm^-1 a quantum leave the +/-9e9 cm^-1 lattice
        with pytest.raises(ValueError, match="lattice"):
            sample_spectrum(molecule([400.0], energies=[3e7]),
                            SamplerConfig(events=10**5, seed=1))

    def test_max_quanta_caps_lattice(self):
        m = molecule([2.5], energies=[500.0])
        cfg = SamplerConfig(events=50000, seed=19, max_quanta=1)
        spec = sample_spectrum(m, cfg)
        assert set(spec.energies.tolist()) <= {0.0, 500.0}
