import math

import numpy as np
import pytest

from vibronic.analysis import BroadeningKernel, EnergyGrid, broaden, fidelity, normalize
from vibronic.model import Mode, Molecule, energy_keys, key_energies
from vibronic.sampling import (
    IDEAL_DETECTOR,
    DetectorModel,
    SamplerConfig,
    poisson_draw,
    sample_mode,
    sample_spectrum,
    substream,
)
from vibronic.sos import LineSpectrum


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

    def test_determinism(self):
        cfg = SamplerConfig(events=50000, seed=31, chunk_size=7000)
        a = sample_mode(0.3, 2, cfg)
        b = sample_mode(0.3, 2, cfg)
        assert np.array_equal(a, b)

    def test_chunking_invisible(self):
        # same (seed, mode): the stream is keyed per chunk, so chunk
        # size changes the draws; but a fixed config is reproducible
        cfg1 = SamplerConfig(events=10000, seed=1, chunk_size=10000)
        cfg2 = SamplerConfig(events=10000, seed=1, chunk_size=10000)
        assert np.array_equal(sample_mode(0.2, 1, cfg1), sample_mode(0.2, 1, cfg2))

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
    def test_worker_count_invisible(self, workers):
        m = molecule([0.25, 0.1, 0.4])
        cfg = SamplerConfig(events=64000, seed=13, chunk_size=9000)
        base = sample_spectrum(m, cfg, workers=1)
        par = sample_spectrum(m, cfg, workers=workers)
        assert np.array_equal(base.energies, par.energies)
        assert np.array_equal(base.counts, par.counts)

    @pytest.mark.parametrize("hr, energies", [
        ([0.5, 0.2, 0.8], [100.0, 300.0, 700.0]),
        ([0.8, 0.2, 0.5], [700.0, 300.0, 100.0]),
    ])
    def test_streams_keyed_by_position(self, hr, energies):
        # the mode at 1-based position i draws from sub-stream i, so the
        # spectrum is the histogram of sum_i key_i * sample_mode(S_i, i)
        cfg = SamplerConfig(events=20000, seed=6, chunk_size=7000)
        spec = sample_spectrum(molecule(hr, energies=energies, e00=1000.0), cfg)
        acc = sum(int(energy_keys(e)) * sample_mode(s, i, cfg)
                  for i, (e, s) in enumerate(zip(energies, hr), 1))
        keys, counts = np.unique(acc + int(energy_keys(1000.0)), return_counts=True)
        assert np.array_equal(spec.energies, key_energies(keys))
        assert np.array_equal(spec.counts, counts)

    def test_max_quanta_caps_lattice(self):
        m = molecule([2.5], energies=[500.0])
        cfg = SamplerConfig(events=50000, seed=19, max_quanta=1)
        spec = sample_spectrum(m, cfg)
        assert set(spec.energies.tolist()) <= {0.0, 500.0}
