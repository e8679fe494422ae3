import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.special
import scipy.stats

from vibronic import model, sos
from vibronic.analysis import fidelity, normalize
from vibronic.cli import main
from vibronic.fixtures import (anthracene_like_12, fine_acene_like, large_acene_like,
                               naphthalene_like_9, pentacene_like_8, pentacene_like_18)
from vibronic.io import read_spectrum, write_molecule
from vibronic.model import (IDEAL_DETECTOR, DetectorModel, LineSpectrum, Mode, Molecule,
                            energy_keys, fc_factor_1d)
from vibronic.sampling import SamplerConfig, sample_spectrum
from vibronic.sos import (
    BudgetExceededError,
    SosConfig,
    build_reference_spectrum,
    mode_distribution,
    state_count,
)


def molecule(hr, energies=None, e00=0.0, transition="absorption"):
    energies = energies or [500.0 + 100.0 * i for i in range(len(hr))]
    modes = tuple(Mode(energy=e, huang_rhys=s) for e, s in zip(energies, hr))
    return Molecule("m", e00, transition, modes)


# Exact oracle: explicit enumeration of every configuration in
# {0..K}^N, in plain Python, independent of the convolution engine.

def fc_factor_config(m, quanta):
    """Multi-mode Franck-Condon factor: product of per-mode factors."""
    if len(quanta) != m.n_modes:
        raise ValueError(f"configuration length {len(quanta)} != mode count {m.n_modes}")
    out = 1.0
    for mode, j in zip(m.modes, quanta):
        out *= fc_factor_1d(mode.huang_rhys, j)
    return out


def transition_energy(m, quanta):
    """Transition energy E00 +/- sum_i E_i j_i, summed in mode order."""
    if len(quanta) != m.n_modes:
        raise ValueError(f"configuration length {len(quanta)} != mode count {m.n_modes}")
    acc = 0.0
    for mode, j in zip(m.modes, quanta):
        acc += mode.energy * j
    return m.e00 + m.sign * acc


def enumerate_configurations(m, k, fc_prune=None, overflow="truncate"):
    """Yield (quanta, fc, key) for every configuration in {0..K}^N.

    Order is mixed-radix counting with the last mode fastest; `key` is
    the exact integer lattice key.  With `fc_prune` set, a subtree whose
    partial FC product is already below it is skipped.  "cap" puts each
    mode's tail mass P(j >= K) on j = K.
    """
    n = m.n_modes
    tab = [[fc_factor_1d(md.huang_rhys, j) for j in range(k + 1)] for md in m.modes]
    if overflow == "cap":
        for row in tab:
            row[k] = 1.0 - math.fsum(row[:k])
    ticks = [m.sign * int(t) for t in energy_keys(m.energies)]
    origin = int(energy_keys(m.e00))

    def rec(i, partial_fc, partial_key, prefix):
        if i == n:
            yield prefix, partial_fc, partial_key
            return
        for j in range(k + 1):
            fc = partial_fc * tab[i][j]
            if fc_prune is not None and fc < fc_prune:
                continue
            yield from rec(i + 1, fc, partial_key + ticks[i] * j, prefix + (j,))

    yield from rec(0, 1.0, origin, ())


def enumerated_spectrum(m, k, fc_prune=None, overflow="truncate"):
    """{key: summed intensity} over enumerated configurations."""
    out = {}
    for _, fc, key in enumerate_configurations(m, k, fc_prune, overflow):
        out[key] = out.get(key, 0.0) + fc
    return {key: i for key, i in out.items() if i > 0.0}


def step_kinds(m, cfg, d=IDEAL_DETECTOR):
    """The reference, and one letter per SOS step: "s" merged by
    `sum_by_key`, "D" added on the dense array.  A run's steps are all
    of one kind."""
    kinds = []

    def dist(*args):
        kinds.append("D")
        return mode_distribution(*args)

    def merge(*args):
        kinds[-1] = "s"
        return model.sum_by_key(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sos, "mode_distribution", dist)
        mp.setattr(sos, "sum_by_key", merge)
        return build_reference_spectrum(m, cfg, d), "".join(kinds)


def dense_and_sparse_agree(m, cfg, d=IDEAL_DETECTOR):
    """Assert the default build is bit-identical to one with every step
    sparse and every merge sorted; return the default's step kinds."""
    ref, kinds = step_kinds(m, cfg, d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_DENSE_SPAN", 0)
        forced, forced_kinds = step_kinds(m, cfg, d)
    assert forced_kinds == "s" * m.n_modes
    assert ref.energies.tobytes() == forced.energies.tobytes()
    assert ref.intensities.tobytes() == forced.intensities.tobytes()
    return kinds


class TestFcFactor1d:
    def test_undisplaced_ground(self):
        assert fc_factor_1d(0.0, 0) == 1.0

    def test_undisplaced_excited(self):
        assert fc_factor_1d(0.0, 3) == 0.0

    def test_quarter(self):
        assert fc_factor_1d(0.25, 1) == pytest.approx(0.25 * math.exp(-0.25), rel=1e-14)

    def test_unity(self):
        assert fc_factor_1d(1.0, 1) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            fc_factor_1d(-0.1, 0)

    def test_negative_j_rejected(self):
        with pytest.raises(ValueError):
            fc_factor_1d(0.5, -1)

    def test_numpy_numbers_in_float64(self):
        # float32 arithmetic overflowed s^j to inf, and inf * e^-s is nan
        assert fc_factor_1d(np.float32(1e30), 2) == 0.0
        assert fc_factor_1d(np.float32(0.5), np.int64(3)) == fc_factor_1d(0.5, 3)
        assert mode_distribution(np.float32(1e30), 3).tolist() == [0.0] * 4

    def test_large_j_log_space(self):
        # independent log-gamma oracle
        s, j = 3.0, 60
        expected = math.exp(j * math.log(s) - s - scipy.special.gammaln(j + 1))
        assert fc_factor_1d(s, j) == pytest.approx(expected, rel=1e-12)
        assert 0.0 <= fc_factor_1d(s, j) <= 1.0

    def test_huge_s_no_overflow(self):
        # s**j alone would overflow a float; the factor underflows to 0
        assert fc_factor_1d(1e300, 2) == 0.0
        assert fc_factor_1d(1e200, 5) == 0.0

    def test_in_unit_interval(self):
        for s in (0.01, 0.5, 1.0, 5.0, 30.0):
            for j in range(40):
                assert 0.0 <= fc_factor_1d(s, j) <= 1.0


class TestFcFactorConfig:
    def test_all_zero_quanta(self):
        m = molecule([0.1, 0.4, 0.7])
        total = sum(md.huang_rhys for md in m.modes)
        assert fc_factor_config(m, (0, 0, 0)) == pytest.approx(math.exp(-total), rel=1e-13)

    def test_zero_s_annihilates(self):
        m = molecule([0.5, 0.0])
        assert fc_factor_config(m, (1, 1)) == 0.0

    def test_two_modes_derived(self):
        m = molecule([0.5, 0.5])
        assert fc_factor_config(m, (1, 1)) == pytest.approx(
            (0.5 * math.exp(-0.5)) ** 2, rel=1e-13
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fc_factor_config(molecule([0.5]), (1, 1))


class TestTransitionEnergy:
    def test_absorption(self):
        m = molecule([0.1, 0.1], energies=[500.0, 1000.0], e00=10000.0)
        assert transition_energy(m, (1, 2)) == 12500.0

    def test_zero_vector_gives_00_line(self):
        m = molecule([0.1, 0.1], e00=18650.0)
        assert transition_energy(m, (0, 0)) == 18650.0

    def test_emission_sign_flip(self):
        m = molecule([0.1], energies=[500.0], e00=10000.0, transition="emission")
        assert transition_energy(m, (2,)) == 9000.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            transition_energy(molecule([0.1]), (1, 1))


class TestStateCount:
    def test_8_modes_k1(self):
        assert state_count(8, 1) == 256

    def test_18_modes_k1(self):
        assert state_count(18, 1) == 262144

    def test_empty(self):
        assert state_count(0, 3) == 1

    @pytest.mark.parametrize("n_modes, k", [(-1, 1), (1, -1)])
    def test_negative_refused(self, n_modes, k):
        with pytest.raises(ValueError, match="must be >= 0"):
            state_count(n_modes, k)

    def test_exact_big_count(self):
        assert state_count(30, 3) == 4**30

    def test_numpy_integers_exact(self):
        # (1 + np.int64(3)) ** 32 wraps int64 to 0
        assert state_count(32, np.int64(3)) == 4**32
        assert state_count(np.uint8(200), np.int32(1)) == 2**200

    def test_budget_guard_carries_count(self):
        # the refused step's work, live sticks x (K+1), not (1+K)^N:
        # after two modes at K=3 there are 16 distinct sticks
        m = molecule([0.1, 0.2, 0.3], energies=[100.0, 1000.0, 10000.0])
        with pytest.raises(BudgetExceededError) as err:
            build_reference_spectrum(m, SosConfig(max_quanta=3, enumeration_budget=63))
        assert err.value.count == 16 * 4
        assert err.value.budget == 63
        # a click detector records 0 or 1 whatever K: its steps hold
        # live sticks x 2 terms, and the third step's 4 x 2 fits in 8
        click = DetectorModel(threshold_mode=True)
        spec = build_reference_spectrum(m, SosConfig(max_quanta=100, enumeration_budget=8), click)
        assert len(spec) == 8
        with pytest.raises(BudgetExceededError) as err:
            build_reference_spectrum(m, SosConfig(max_quanta=100, enumeration_budget=7), click)
        assert err.value.count == 4 * 2


class TestEnumerate:
    """The enumeration oracle itself, and the engine against it."""

    def test_two_modes_k1_order(self):
        m = molecule([0.1, 0.2])
        configs = [c for c, _, _ in enumerate_configurations(m, 1)]
        assert configs == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_prune_zero_equals_disabled(self):
        m = molecule([0.3, 0.6])
        assert list(enumerate_configurations(m, 2, fc_prune=0.0)) == list(
            enumerate_configurations(m, 2)
        )
        assert len(list(enumerate_configurations(m, 2))) == state_count(2, 2)
        full = build_reference_spectrum(m, SosConfig(max_quanta=2))
        zero = build_reference_spectrum(m, SosConfig(max_quanta=2, fc_prune=0.0))
        assert np.array_equal(full.energies, zero.energies)
        assert np.array_equal(full.intensities, zero.intensities)

    def test_prune_drops_weak_branch(self):
        m = molecule([0.25])
        configs = [c for c, _, _ in enumerate_configurations(m, 1, fc_prune=0.2)]
        assert configs == [(0,)]
        spec = build_reference_spectrum(m, SosConfig(max_quanta=1, fc_prune=0.2))
        assert list(spec.energies) == [0.0]

    def test_budget_refusal(self):
        # 4 incommensurate modes, S ~ 50, K = 100: nothing merges or is
        # pruned, so the fourth step would hold ~1e6 x 101 > 1e8 terms
        m = molecule([50.0, 49.0, 51.0, 50.5],
                     energies=[100.0, 141.421356, 173.205081, 223.606798])
        with pytest.raises(BudgetExceededError) as err:
            build_reference_spectrum(m, SosConfig(max_quanta=100))
        assert err.value.count > 10**8

    def test_convolution_matches_enumeration(self):
        # random small molecules whose mode energies include pairs one
        # lattice tick apart; both overflow rules; both transitions
        rng = np.random.default_rng(20260)
        for trial in range(40):
            n = int(rng.integers(1, 6))
            base = rng.uniform(100.0, 600.0, size=n)
            twins = rng.random(n) < 0.5
            base[1:][twins[1:]] = base[:-1][twins[1:]] + 1e-6 * rng.integers(-1, 2)
            m = molecule(list(rng.uniform(0.0, 1.5, size=n)), energies=list(base),
                         e00=float(rng.uniform(0.0, 30000.0)),
                         transition=("absorption", "emission")[trial % 2])
            k = int(rng.integers(0, 4))
            overflow = ("truncate", "cap")[trial % 3 == 0]
            spec = build_reference_spectrum(m, SosConfig(max_quanta=k, overflow=overflow))
            oracle = enumerated_spectrum(m, k, overflow=overflow)
            keys = sorted(oracle)
            assert energy_keys(spec.energies).tolist() == keys
            assert np.abs(spec.intensities - [oracle[key] for key in keys]).max() <= 1e-15

    def test_prune_keeps_at_least_enumeration_mass(self):
        # every configuration enumeration-pruning keeps survives per-step
        # pruning, so each kept stick holds at least the oracle's mass
        rng = np.random.default_rng(77)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            m = molecule(list(rng.uniform(0.05, 1.2, size=n)),
                         energies=list(rng.choice(np.arange(100, 400), n, replace=False)))
            prune = float(10.0 ** rng.uniform(-5, -1))
            spec = build_reference_spectrum(m, SosConfig(max_quanta=3, fc_prune=prune))
            got = dict(zip(energy_keys(spec.energies).tolist(), spec.intensities))
            for key, i in enumerated_spectrum(m, 3, fc_prune=prune).items():
                assert got[key] >= i - 1e-15
            assert spec.total >= sum(enumerated_spectrum(m, 3, fc_prune=prune).values()) - 1e-14


def poisson_cdf(k, s):
    """Independent oracle: regularized upper incomplete gamma."""
    return scipy.stats.poisson.cdf(k, s) if s > 0 else 1.0


class TestReferenceSpectrum:
    def test_one_mode_sticks(self):
        m = molecule([0.25], energies=[500.0])
        spec = build_reference_spectrum(m, SosConfig(max_quanta=1))
        assert np.allclose(spec.energies, [0.0, 500.0])
        assert spec.intensities[0] == pytest.approx(math.exp(-0.25), abs=1e-12)
        assert spec.intensities[1] == pytest.approx(0.25 * math.exp(-0.25), abs=1e-12)

    def test_zero_modes(self):
        m = molecule([], e00=12345.0)
        spec = build_reference_spectrum(m, SosConfig(max_quanta=3))
        assert list(spec.energies) == [12345.0]
        assert list(spec.intensities) == [1.0]
        # no mode, no convolution step: a huge K allocates nothing
        spec = build_reference_spectrum(m, SosConfig(max_quanta=10**12))
        assert list(spec.energies) == [12345.0]

    def test_large_k_completeness(self):
        m = molecule([0.3, 0.8, 0.1])
        spec = build_reference_spectrum(m, SosConfig(max_quanta=40))
        assert spec.total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_raw_total_matches_poisson_cdf(self, k):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = rng.integers(1, 7)
            hr = rng.uniform(0.0, 1.0, size=n)
            m = molecule(list(hr))
            spec = build_reference_spectrum(m, SosConfig(max_quanta=k))
            expected = np.prod([poisson_cdf(k, s) for s in hr])
            assert spec.total == pytest.approx(expected, abs=1e-10)

    def test_cap_overflow_sums_to_one(self):
        m = molecule([0.5, 1.0])
        spec = build_reference_spectrum(m, SosConfig(max_quanta=2, overflow="cap"))
        assert spec.total == pytest.approx(1.0, abs=1e-12)

    def test_permutation_invariance_bit_identical(self):
        hr = [0.3, 0.1, 0.45]
        energies = [700.0, 500.0, 1100.0]
        m1 = molecule(hr, energies=energies)
        perm = [2, 0, 1]
        m2 = molecule([hr[i] for i in perm], energies=[energies[i] for i in perm])
        cfg = SosConfig(max_quanta=3)
        s1 = build_reference_spectrum(m1, cfg)
        s2 = build_reference_spectrum(m2, cfg)
        assert np.array_equal(s1.energies, s2.energies)
        assert np.array_equal(s1.intensities, s2.intensities)

    def test_zero_s_mode_leaves_spectrum_unchanged(self):
        m1 = molecule([0.3, 0.2])
        m2 = molecule([0.3, 0.2, 0.0])
        cfg = SosConfig(max_quanta=2)
        s1 = build_reference_spectrum(m1, cfg)
        s2 = build_reference_spectrum(m2, cfg)
        assert np.array_equal(s1.energies, s2.energies)
        assert np.array_equal(s1.intensities, s2.intensities)

    def test_prune_produces_subset_intensities(self):
        m = molecule([0.2, 0.6])
        full = build_reference_spectrum(m, SosConfig(max_quanta=3, fc_prune=0.0))
        pruned = build_reference_spectrum(m, SosConfig(max_quanta=3, fc_prune=1e-3))
        lookup = dict(zip(full.energies.tolist(), full.intensities.tolist()))
        for e, i in zip(pruned.energies.tolist(), pruned.intensities.tolist()):
            assert i <= lookup[e] + 1e-15
        assert pruned.total <= full.total

    def test_emission_spectrum_descends_from_e00(self):
        m = molecule([0.4], energies=[500.0], e00=10000.0, transition="emission")
        spec = build_reference_spectrum(m, SosConfig(max_quanta=2))
        assert list(spec.energies) == [9000.0, 9500.0, 10000.0]

    def test_zero_zero_line_decreases_with_s(self):
        cfg = SosConfig(max_quanta=1)
        i_small = build_reference_spectrum(molecule([0.1]), cfg).intensities[0]
        i_large = build_reference_spectrum(molecule([0.3]), cfg).intensities[0]
        assert i_large < i_small

    def test_degenerate_energies_merge(self):
        # two identical-energy modes: (0,1) and (1,0) land on one stick
        m = molecule([0.2, 0.3], energies=[500.0, 500.0])
        spec = build_reference_spectrum(m, SosConfig(max_quanta=1))
        assert len(spec) == 3
        assert np.all(np.diff(spec.energies) > 0)


def photon_by_photon_pmf(s, d, k, overflow, n=80):
    """Oracle: the recorded-count pmf built one detector stage at a time.

    Poisson(S) photons, each surviving with probability `efficiency`
    (binomial thinning), plus independent Poisson(dark_mean) dark
    counts, then the click clip at 1, then the cutoff K: "truncate"
    drops counts above K, "cap" piles them onto K.
    """
    j = np.arange(n)
    photons = scipy.stats.poisson.pmf(j, s)
    survived = scipy.stats.binom.pmf(j[:, None], j[None, :], d.efficiency) @ photons
    seen = np.convolve(survived, scipy.stats.poisson.pmf(j, d.dark_mean))[:n]
    if d.threshold_mode:
        seen = np.array([seen[0], seen[1:].sum()])
    if seen.size > k + 1:
        tail = seen[k:].sum()
        seen = seen[: k + 1]
        if overflow == "cap":
            seen[k] = tail
    return seen


DETECTORS = {
    "ideal": DetectorModel(),
    "loss": DetectorModel(efficiency=0.35),
    "dark": DetectorModel(dark_mean=0.4),
    "click": DetectorModel(threshold_mode=True),
    "loss+dark": DetectorModel(efficiency=0.7, dark_mean=0.05),
    "loss+click": DetectorModel(efficiency=0.6, threshold_mode=True),
    "dark+click": DetectorModel(dark_mean=0.2, threshold_mode=True),
    "all": DetectorModel(efficiency=0.8, dark_mean=1.5, threshold_mode=True),
}


class TestModeDistribution:
    @pytest.mark.parametrize("name", list(DETECTORS))
    @pytest.mark.parametrize("overflow", ["truncate", "cap"])
    def test_matches_photon_by_photon_oracle(self, name, overflow):
        d = DETECTORS[name]
        for s in (0.0, 0.1, 1.3, 4.0):
            for k in (0, 1, 3):
                got = mode_distribution(s, k, overflow, d)
                want = photon_by_photon_pmf(s, d, k, overflow)
                assert got.shape == want.shape, (s, k)
                assert np.abs(got - want).max() <= 1e-12, (s, k)

    @pytest.mark.parametrize("k", range(1, 12))
    def test_capped_tail_against_survival_function(self, k):
        # the capped bin is P(j >= K); computed as 1 - head it cancels
        # to noise (-2.2e-16 at the first S below, 0 at the second)
        for s in np.append(np.geomspace(1e-9, 60.0, 200), [9.056877407612766e-06, 1e-4]):
            tail = mode_distribution(s, k, "cap")[-1]
            want = scipy.stats.poisson.sf(k - 1, s)
            assert tail >= 0.0
            assert abs(tail - want) <= 1e-12 * want, (s, k)

    @pytest.mark.parametrize("k, overflow, match", [
        (2, "Cap", "overflow must be 'truncate' or 'cap', got 'Cap'"),
        (2, "clip", "overflow must be 'truncate' or 'cap', got 'clip'"),
        (-1, "truncate", "max_quanta must be >= 0, got -1"),
        (-1, "cap", "max_quanta must be >= 0, got -1"),
        (1.5, "truncate", r"max_quanta must be an integer, got 1\.5"),
        (True, "cap", "max_quanta must be an integer, got True"),
    ])
    def test_refuses_what_sos_config_refuses(self, k, overflow, match):
        # an unknown rule once fell back to truncation, a negative K to [],
        # and K=True indexed p[True], scaling every bin (sum 1.18 at S=0.5)
        with pytest.raises(ValueError, match=match):
            mode_distribution(0.5, k, overflow)

    @pytest.mark.parametrize("build", [
        pytest.param(lambda m, d: mode_distribution(1e308, 1, "cap", d), id="mode_distribution"),
        pytest.param(lambda m, d: build_reference_spectrum(m, SosConfig(max_quanta=1), d),
                     id="build_reference_spectrum"),
    ])
    def test_overflowing_recorded_mean_refused(self, build):
        # S and dark_mean are each finite, but their sum overflows to inf:
        # refused by the recorded mean's formula, not as fc_factor_1d's s
        m, d = molecule([1e308]), DetectorModel(dark_mean=1e308)
        want = r"^efficiency \* s \+ dark_mean must be finite, got inf$"
        with pytest.raises(ValueError, match=want):
            build(m, d)

    def test_click_tail_against_survival_function(self):
        for s in np.geomspace(1e-9, 60.0, 50):
            got = mode_distribution(s, 3, "truncate", DETECTORS["click"])[1]
            assert abs(got + math.expm1(-s)) <= 1e-12 * -math.expm1(-s), s

    def test_reference_through_detector(self):
        # a click detector's reference has only 0/1 per mode and sums
        # to 1 even under truncation; dark counts light up an S = 0 mode
        m = molecule([0.5, 0.0], energies=[500.0, 700.0])
        click = build_reference_spectrum(m, SosConfig(max_quanta=3), DETECTORS["click"])
        assert click.energies.tolist() == [0.0, 500.0]
        assert click.total == pytest.approx(1.0, abs=1e-15)
        dark = build_reference_spectrum(m, SosConfig(max_quanta=1, overflow="cap"),
                                        DETECTORS["dark"])
        assert dark.energies.tolist() == [0.0, 500.0, 700.0, 1200.0]
        assert dark.provenance["dark_mean"] == 0.4


class TestLattice:
    def test_near_degenerate_modes_stay_distinct(self):
        # 100.0 and 100.0000008 cm^-1 are one tick apart: every
        # configuration keeps its own line in both engines
        m = molecule([0.3, 0.3], energies=[100.0, 100.0000008])
        ref = build_reference_spectrum(m, SosConfig(max_quanta=2, overflow="cap"))
        sampled = sample_spectrum(m, SamplerConfig(events=10**6, seed=12, max_quanta=2))
        assert len(ref) == 9
        assert len(sampled) == 9
        assert np.array_equal(sampled.energies, ref.energies)
        assert fidelity(sampled, ref) >= 0.9999
        scaled = normalize(ref, "zero_zero_one", e00=0.0)
        assert scaled.intensities[0] == 1.0
        assert scaled.energies[0] == 0.0

    @pytest.mark.parametrize("m", [
        *(f() for f in (pentacene_like_8, pentacene_like_18, naphthalene_like_9,
                        anthracene_like_12, large_acene_like)),
        replace(anthracene_like_12(), transition="emission"),
        molecule([0.3, 0.3], energies=[100.0, 100.0000008]),
        fine_acene_like(6),
    ], ids=lambda m: f"{m.name}-{m.transition}")
    def test_sublattice_and_sort_merges_agree(self, m):
        # a run lays its sticks out once: on a dense array over the modes'
        # sublattice where the configurations could fill it, else merged;
        # with every step merged by sort it has the same bits
        steps = dense_and_sparse_agree(m, SosConfig(max_quanta=3, overflow="cap"))
        assert steps in ("D" * m.n_modes, "s" * m.n_modes)
        if m.n_modes in (12, 18, 66):
            assert steps == "D" * m.n_modes

    @pytest.mark.parametrize("m, cfg, d, steps", [
        (pentacene_like_18(), SosConfig(max_quanta=3), DetectorModel(threshold_mode=True),
         "D{18}"),
        (pentacene_like_18(), SosConfig(max_quanta=3, overflow="cap"),
         DetectorModel(efficiency=0.6, dark_mean=0.01), "D{18}"),
        # pruned and dense; the array is trimmed to its live cells after
        # each step, before the 5000 cm^-1 mode spreads it
        (molecule([0.5] * 7, energies=[100.0] * 6 + [5000.0]),
         SosConfig(max_quanta=3, overflow="cap", fc_prune=1e-4), IDEAL_DETECTOR, "D{7}"),
        # every stick pruned on the dense array: the same empty spectrum
        (molecule([1.0] * 8, energies=[100.0] * 8), SosConfig(max_quanta=3, fc_prune=0.2),
         IDEAL_DETECTOR, "D{8}"),
        # incommensurate energies: the sublattice step is one tick, never dense
        (molecule([md.huang_rhys for md in anthracene_like_12().modes],
                  energies=[md.energy + u for md, u in zip(
                      anthracene_like_12().modes, np.random.default_rng(13).uniform(0, 1, 12))]),
         SosConfig(max_quanta=2), IDEAL_DETECTOR, "s{12}"),
        # 8,129 reachable cells, not under 4 x 2^8 configurations: sparse
        (pentacene_like_8(), SosConfig(max_quanta=1, overflow="cap"), IDEAL_DETECTOR, "s{8}"),
    ], ids=["threshold", "lossy", "pruned-trimmed", "pruned-empty", "incommensurate",
            "configuration-bound"])
    def test_dense_and_sparse_steps_agree(self, m, cfg, d, steps):
        assert re.fullmatch(steps, dense_and_sparse_agree(m, cfg, d))

    def test_budget_bound_picks_layout(self):
        # the 66-mode K=3 run reaches 193,204 cells: dense iff their
        # 772,816 terms fit the budget, with the same bits either way
        m, cfg = large_acene_like(), SosConfig(max_quanta=3, overflow="cap")
        sparse, sparse_kinds = step_kinds(m, replace(cfg, enumeration_budget=772815))
        dense, dense_kinds = step_kinds(m, replace(cfg, enumeration_budget=772816))
        assert (sparse_kinds, dense_kinds) == ("s" * 66, "D" * 66)
        assert sparse.energies.tobytes() == dense.energies.tobytes()
        assert sparse.intensities.tobytes() == dense.intensities.tobytes()

    def test_budget_counts_dense_sticks_as_sparse(self, monkeypatch):
        # a dense run's cells x (K+1) fit the budget (772,816 above) and its
        # live sticks never outnumber its cells, so it is never refused; a
        # refused run is sparse: same step, same int count as forced sparse
        cfg = SosConfig(max_quanta=3, overflow="cap", enumeration_budget=4 * 10**5)
        with pytest.raises(BudgetExceededError) as err:
            build_reference_spectrum(large_acene_like(), cfg)
        monkeypatch.setattr(model, "_DENSE_SPAN", 0)
        with pytest.raises(BudgetExceededError) as forced:
            build_reference_spectrum(large_acene_like(), cfg)
        assert type(err.value.count) is int
        assert err.value.count == forced.value.count == 415232

    def test_lattice_range_refused(self):
        # keys past 2**53 ticks (~9e9 cm^-1) would lose exactness, and
        # past 2**63 an int64 sum would wrap: both engines refuse first
        with pytest.raises(ValueError, match="lattice"):
            build_reference_spectrum(molecule([0.1], energies=[1e9]), SosConfig(max_quanta=10))
        with pytest.raises(ValueError, match="lattice"):
            sample_spectrum(molecule([1e6], energies=[1e4]), SamplerConfig(events=100, seed=1))
        with pytest.raises(ValueError, match="lattice"):
            sample_spectrum(molecule([1e17], energies=[1e4]), SamplerConfig(events=100, seed=1))
        with pytest.raises(ValueError, match="finite"):
            energy_keys([1.0, float("inf")])

    def test_66_mode_k3_exact_gate(self, tmp_path):
        # the CLI builds the K=3 capped reference of the 66-mode fixture
        # under the default budget, and a capped sample converges to it
        m = large_acene_like(66)
        mol, out = tmp_path / "a66.json", tmp_path / "ref.csv"
        write_molecule(m, mol)
        assert main(["sos", str(mol), "--max-quanta", "3", "--overflow", "cap",
                     "--out", str(out)]) == 0
        ref = read_spectrum(out)
        assert len(ref) == 178628
        assert abs(ref.total - 1.0) <= 1e-9
        sampled = sample_spectrum(m, SamplerConfig(events=10**6, seed=66, max_quanta=3))
        assert fidelity(sampled, ref) >= 0.995


class TestSosConfig:
    @pytest.mark.parametrize("bad", [-1e-3, float("nan")])
    def test_bad_fc_prune_rejected(self, bad):
        with pytest.raises(ValueError, match="fc_prune"):
            SosConfig(fc_prune=bad)

    @pytest.mark.parametrize("kw, match", [
        ({"max_quanta": -1}, "max_quanta must be >= 0"),
        ({"overflow": "clip"}, "overflow must be 'truncate' or 'cap'"),
        ({"max_quanta": 1.5}, r"max_quanta must be an integer, got 1\.5"),
        ({"max_quanta": True}, "max_quanta must be an integer, got True"),
        ({"enumeration_budget": 1e8}, r"enumeration_budget must be an integer, got 100000000\.0"),
        ({"enumeration_budget": False}, "enumeration_budget must be an integer, got False"),
        ({"enumeration_budget": 0}, "enumeration_budget must be >= 1, got 0"),
        ({"enumeration_budget": -5}, "enumeration_budget must be >= 1, got -5"),
        ({"fc_prune": True}, "fc_prune must be a real number, got True"),
        ({"fc_prune": "1e-3"}, "fc_prune must be a real number, got '1e-3'"),
    ])
    def test_bad_config_rejected(self, kw, match):
        with pytest.raises(ValueError, match=match):
            SosConfig(**kw)

    def test_numpy_integers_accepted(self):
        cfg = SosConfig(max_quanta=np.int64(2), enumeration_budget=np.int32(10**6),
                        fc_prune=np.float32(0.0))
        assert build_reference_spectrum(molecule([0.5], energies=[500.0]), cfg).total > 0.98

    @pytest.mark.parametrize("k", [1, 3])
    def test_numpy_cutoff_builds_the_python_ints_reference(self, k):
        m = pentacene_like_8()
        want = build_reference_spectrum(m, SosConfig(max_quanta=k, overflow="cap"))
        got = build_reference_spectrum(m, SosConfig(max_quanta=np.int64(k), overflow="cap"))
        assert np.array_equal(got.energies, want.energies)
        assert np.array_equal(got.intensities, want.intensities)
        assert got.provenance == want.provenance

    def test_numpy_cutoff_past_the_lattice_refused_as_python_int(self):
        # an int64 K made the span wrap, warning and quoting a wrapped reach
        m = pentacene_like_8()
        with pytest.raises(ValueError) as python:
            build_reference_spectrum(m, SosConfig(max_quanta=2**40))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as numpy:
                build_reference_spectrum(m, SosConfig(max_quanta=np.int64(2**40)))
        assert str(numpy.value) == str(python.value)
        assert "8.93683e+15 cm^-1" in str(numpy.value)


class TestLineSpectrum:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="^energies must be strictly increasing$"):
            LineSpectrum(np.array([2.0, 1.0]), np.array([1.0, 1.0]))
        for energies in ([math.nan], [0.0, math.inf], [-math.inf, 0.0]):
            with pytest.raises(ValueError, match="^energies and intensities must be finite$"):
                LineSpectrum(energies, np.ones(len(energies)))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="^energies and intensities must have equal length$"):
            LineSpectrum([0.0, 1.0], [1.0])

    @pytest.mark.parametrize("energies, intensities", [
        (5.0, 1.0), ([[0.0, 1.0], [2.0, 3.0]], [[1.0, 1.0], [1.0, 1.0]])])
    def test_rejects_other_dimensions(self, energies, intensities):
        with pytest.raises(ValueError,
                           match="^energies and intensities must be one-dimensional$"):
            LineSpectrum(energies, intensities)

    def test_rejects_negative_intensity(self):
        with pytest.raises(ValueError, match="^intensities must be non-negative$"):
            LineSpectrum(np.array([1.0, 2.0]), np.array([1.0, -1.0]))
        # a nan or inf would pass every other check and make fidelity
        # and normalize return nan
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                LineSpectrum([0.0, 1.0], [bad, 1.0])
