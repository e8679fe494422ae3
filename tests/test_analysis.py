import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vibronic import analysis
from vibronic.analysis import (
    GRID_STEP_FWHM,
    BroadeningKernel,
    EnergyGrid,
    GridError,
    _keyed,
    _smooth_length,
    broaden,
    convergence_study,
    fidelity,
    normalize,
)
from vibronic.fixtures import pentacene_like_8
from vibronic.model import LineSpectrum, Mode, Molecule, energy_keys, sum_by_key
from vibronic.sampling import DetectorModel, SamplerConfig, sample_spectrum
from vibronic.sos import SosConfig


def sticks(pairs):
    e, i = zip(*sorted(pairs))
    return LineSpectrum(np.array(e, dtype=float), np.array(i, dtype=float))


def direct_broaden(spec, kernel, grid):
    """The O(sticks x grid) sum of w K(x - e) over the sticks: the
    oracle `broaden` is held to.  Stick batches keep memory bounded."""
    x = grid.points()
    y = np.zeros_like(x)
    batch = max(1, 10**7 // max(1, x.size))
    for i in range(0, len(spec), batch):
        e = spec.energies[i : i + batch]
        w = spec.intensities[i : i + batch]
        y += (w[:, None] * kernel(x[None, :] - e[:, None])).sum(axis=0)
    return y


def binning_bound(spec, kernel, grid):
    """broaden's documented error bound, (h'^2 / 8) max|K''| sum(w), with
    h' = grid.step / r and r the least integer with h' <= GRID_STEP_FWHM * FWHM."""
    h = grid.step / math.ceil(grid.step / (GRID_STEP_FWHM * kernel.fwhm))
    if kernel.shape == "lorentzian":
        curvature = 2.0 / (math.pi * (kernel.fwhm / 2.0) ** 3)
    else:
        sigma = kernel.fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        curvature = 1.0 / (sigma**3 * math.sqrt(2.0 * math.pi))
    return h * h / 8.0 * curvature * spec.intensities.sum()


def random_sticks(seed, n=200, lo=0.0, hi=3000.0):
    rng = np.random.default_rng(seed)
    return LineSpectrum(np.sort(rng.uniform(lo, hi, n)), rng.uniform(0.0, 1.0, n))


class TestNormalize:
    def test_max_one(self):
        out = normalize(sticks([(0, 2.0), (500, 1.0)]), "max_one")
        assert np.allclose(out.intensities, [1.0, 0.5])

    def test_zero_zero_one(self):
        out = normalize(sticks([(0, 2.0), (500, 1.0)]), "zero_zero_one", e00=0.0)
        assert np.allclose(out.intensities, [1.0, 0.5])

    def test_unit_l2_three_four_five(self):
        out = normalize(sticks([(0, 3.0), (500, 4.0)]), "unit_l2")
        assert np.allclose(out.intensities, [0.6, 0.8])

    def test_unit_l1(self):
        out = normalize(sticks([(0, 3.0), (500, 1.0)]), "unit_l1")
        assert out.intensities.sum() == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            normalize(sticks([(0, 0.0), (500, 0.0)]), "unit_l1")

    def test_missing_00_stick_rejected(self):
        with pytest.raises(ValueError, match="0-0"):
            normalize(sticks([(100, 1.0)]), "zero_zero_one", e00=0.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            normalize(sticks([(0, 1.0)]), "unit_l3")

    def test_zero_zero_one_requires_e00(self):
        with pytest.raises(ValueError, match="requires e00"):
            normalize(sticks([(0, 1.0)]), "zero_zero_one")

    @pytest.mark.parametrize("mode", ["raw", "unit_l1", "max_one"])
    def test_mode_recorded_in_provenance(self, mode):
        spec = LineSpectrum([0.0, 500.0], [2.0, 1.0], provenance={"molecule": "x"})
        out = normalize(spec, mode)
        assert out.provenance == {"molecule": "x", "normalization": mode}
        assert spec.provenance == {"molecule": "x"}

    def test_raw_keeps_an_empty_spectrum(self):
        assert len(normalize(LineSpectrum([], []), "raw")) == 0
        with pytest.raises(ValueError, match="empty"):
            normalize(LineSpectrum([], []), "unit_l1")


class TestFidelity:
    def test_self_is_one(self):
        p = sticks([(0, 0.8), (500, 0.2), (1000, 0.05)])
        assert fidelity(p, p) == pytest.approx(1.0, abs=1e-14)

    def test_disjoint_supports(self):
        p = sticks([(0, 1.0)])
        q = sticks([(500, 1.0)])
        assert fidelity(p, q) == 0.0

    def test_half_overlap(self):
        p = sticks([(0, 1.0)])
        q = sticks([(0, 1.0), (500, 1.0)])
        assert fidelity(p, q) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_symmetry(self):
        p = sticks([(0, 0.5), (500, 0.4)])
        q = sticks([(0, 0.1), (700, 0.9)])
        assert fidelity(p, q) == fidelity(q, p)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, c):
        p = sticks([(0, 0.5), (500, 0.4), (800, 0.02)])
        q = sticks([(0, 0.3), (500, 0.6)])
        scaled = LineSpectrum(p.energies, p.intensities * c)
        assert fidelity(scaled, q) == pytest.approx(fidelity(p, q), rel=1e-9)

    def test_rigid_shift_invariance(self):
        p = sticks([(0, 0.5), (500, 0.4)])
        q = sticks([(0, 0.3), (500, 0.6)])
        shift = 1234.0
        ps = LineSpectrum(p.energies + shift, p.intensities)
        qs = LineSpectrum(q.energies + shift, q.intensities)
        assert fidelity(ps, qs) == pytest.approx(fidelity(p, q), abs=1e-12)

    def test_bhattacharyya_self_is_one(self):
        p = sticks([(0, 0.8), (500, 0.2)])
        assert fidelity(p, p, norm="bhattacharyya") == pytest.approx(1.0, abs=1e-12)

    def test_unknown_norm_rejected(self):
        with pytest.raises(ValueError, match="norm must be"):
            fidelity(sticks([(0, 1.0)]), sticks([(0, 1.0)]), norm="l1")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fidelity(sticks([(0, 0.0)]), sticks([(0, 1.0)]))

    def test_one_tick_lines_merge(self):
        # energies closer than one lattice tick are one line: summed,
        # not overwritten
        p = sticks([(0.0, 1.0), (0.1, 1.0), (0.1 + 1e-10, 1.0)])
        q = sticks([(0.0, 1.0), (0.1, 2.0)])
        assert fidelity(p, q) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("spec", [
        random_sticks(3, n=500),
        # lines within one tick share a key: two repeats, one of three lines
        sticks([(0.0, 0.1), (1e-7, 0.7), (2e-7, 0.3), (5.0, 1.0), (5.0 + 1e-7, 1 / 3)]),
        sticks([(0.0, 1.0), (2.0, -0.0), (3.0, 0.25)]),  # -0.0 comes back 0.0
        sample_spectrum(pentacene_like_8(), SamplerConfig(events=10**4, seed=2)),  # counts
    ], ids=["floats", "repeats", "negative-zero", "counts"])
    def test_keyed_is_the_merge_bit_for_bit(self, spec):
        # lines whose keys ascend skip the merge's sort: the same bits as
        # the merge, and as summing each key's scaled weights from 0.0 in order
        keys, weights = _keyed(spec)
        merged_keys, merged = sum_by_key(energy_keys(spec.energies),
                                         spec.intensities / spec.intensities.max())
        assert keys.tolist() == merged_keys.tolist()
        assert weights.tobytes() == merged.tobytes()
        oracle: dict[int, float] = {}
        scaled = (spec.intensities / spec.intensities.max()).tolist()
        for k, w in zip(energy_keys(spec.energies).tolist(), scaled):
            oracle[k] = oracle.get(k, 0.0) + w
        assert np.array(list(oracle.values())).tobytes() == weights.tobytes()

    def test_float_noise_keys_align(self):
        e = 0.1 + 0.2  # 0.30000000000000004
        p = LineSpectrum(np.array([e]), np.array([1.0]))
        q = LineSpectrum(np.array([0.3]), np.array([1.0]))
        assert fidelity(p, q) == pytest.approx(1.0, abs=1e-12)


class TestBroaden:
    def test_lorentzian_peak(self):
        k = BroadeningKernel("lorentzian", 30.0)
        spec = sticks([(0.0, 1.0)])
        grid = EnergyGrid(-600.0, 600.0, 1.0)
        out = broaden(spec, k, grid)
        peak = out.intensities[np.argmin(np.abs(out.energies))]
        assert peak == pytest.approx(2.0 / (math.pi * 30.0), abs=1e-9)

    def test_gaussian_peak(self):
        fwhm = 100.0
        sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        out = broaden(
            sticks([(0.0, 1.0)]),
            BroadeningKernel("gaussian", fwhm),
            EnergyGrid(-2000.0, 2000.0, 1.0),
        )
        peak = out.intensities[np.argmin(np.abs(out.energies))]
        assert peak == pytest.approx(1.0 / (sigma * math.sqrt(2.0 * math.pi)), rel=1e-12)

    def test_gaussian_area_conservation(self):
        fwhm = 50.0
        spec = sticks([(0.0, 0.7), (300.0, 0.3)])
        grid = EnergyGrid(-20 * fwhm, 300.0 + 20 * fwhm, fwhm / 20.0)
        out = broaden(spec, BroadeningKernel("gaussian", fwhm), grid)
        area = np.trapezoid(out.intensities, out.energies)
        assert area == pytest.approx(1.0, rel=1e-3)

    def test_lorentzian_truncated_area_analytic(self):
        # over +/- 20 FWHM a Lorentzian retains only 2/pi * atan(40)
        fwhm = 30.0
        grid = EnergyGrid(-20 * fwhm, 20 * fwhm, fwhm / 50.0)
        out = broaden(sticks([(0.0, 1.0)]), BroadeningKernel("lorentzian", fwhm), grid)
        area = np.trapezoid(out.intensities, out.energies)
        assert area == pytest.approx(2.0 / math.pi * math.atan(40.0), rel=1e-3)

    def test_narrow_grid_warns(self):
        with pytest.warns(UserWarning, match="margin"):
            broaden(
                sticks([(0.0, 1.0)]),
                BroadeningKernel("lorentzian", 30.0),
                EnergyGrid(-50.0, 50.0, 1.0),
            )

    def test_provenance_records_kernel_and_grid(self):
        spec = LineSpectrum([0.0], [1.0], provenance={"comments": ["# engine: sos"]})
        grid = EnergyGrid(-600.0, 600.0, 1.5)
        out = broaden(spec, BroadeningKernel("gaussian", 30.0), grid)
        assert out.provenance == {"comments": ["# engine: sos"], "broadening": "gaussian",
                                  "fwhm": 30.0, "grid": "-600.0:600.0:1.5"}

    def test_around_spans_ten_fwhm_at_fwhm_over_twenty(self):
        grid = EnergyGrid.around([100.0, 400.0], 30.0)
        assert (grid.start, grid.stop, grid.step) == (-200.0, 700.0, 1.5)

    def test_grid_guard(self):
        with pytest.raises(GridError):
            EnergyGrid(0.0, 1.0, 1e-9)
        with pytest.raises(GridError):
            EnergyGrid(10.0, 0.0, 1.0)
        with pytest.raises(GridError):
            EnergyGrid(0.0, 10.0, -1.0)

    def test_bad_kernel(self):
        with pytest.raises(ValueError):
            BroadeningKernel("voigt", 30.0)
        with pytest.raises(ValueError):
            BroadeningKernel("gaussian", 0.0)

    @pytest.mark.parametrize("fwhm", [math.inf, math.nan])
    def test_non_finite_fwhm_refused(self, fwhm):
        with pytest.raises(ValueError, match="fwhm must be finite"):
            BroadeningKernel("lorentzian", fwhm)

    @pytest.mark.parametrize("start, stop, step", [
        (0.0, 400.0, math.inf), (-math.inf, 400.0, 1.0), (0.0, math.inf, 1.0),
        (0.0, 400.0, math.nan), (math.nan, 400.0, 1.0),
    ])
    def test_non_finite_grid_refused(self, start, stop, step):
        with pytest.raises(GridError, match="must be finite"):
            EnergyGrid(start, stop, step)

    @pytest.mark.parametrize("shape", ["lorentzian", "gaussian"])
    @pytest.mark.parametrize("coarse", [False, True], ids=["around", "coarse"])
    @pytest.mark.parametrize("n", [1, 200])
    def test_off_lattice_within_bound(self, shape, coarse, n):
        # the coarse grid's step is FWHM/3, so broaden refines it by r = 7;
        # one stick leaves the bound little slack, and 200 overlap
        kernel = BroadeningKernel(shape, 30.0)
        spec = random_sticks(seed=81, n=n)
        grid = (EnergyGrid(-300.0, 3300.0, 10.0) if coarse
                else EnergyGrid.around(spec.energies, kernel.fwhm))
        want = direct_broaden(spec, kernel, grid)
        err = np.abs(broaden(spec, kernel, grid).intensities - want).max()
        assert err <= binning_bound(spec, kernel, grid) + 1e-12 * want.max()

    @pytest.mark.parametrize("shape", ["lorentzian", "gaussian"])
    @pytest.mark.parametrize("step, lattice_step", [(1.0, 1.0), (3.0, 1.5)])
    def test_on_lattice_sticks_exact(self, shape, step, lattice_step):
        # step 3 at FWHM 30 is refined by r = 2, so sticks at multiples of
        # 1.5 sit on lattice points between the grid points
        rng = np.random.default_rng(82)
        e = -600.0 + lattice_step * np.unique(rng.integers(400, 2400, 200))
        spec = LineSpectrum(e, rng.uniform(0.0, 1.0, e.size))
        kernel = BroadeningKernel(shape, 30.0)
        grid = EnergyGrid(-600.0, 4200.0, step)
        want = direct_broaden(spec, kernel, grid)
        err = np.abs(broaden(spec, kernel, grid).intensities - want).max()
        assert err <= 1e-12 * want.max()

    @pytest.mark.parametrize("shape", ["lorentzian", "gaussian"])
    def test_sticks_outside_explicit_grid(self, shape):
        kernel = BroadeningKernel(shape, 30.0)
        spec = random_sticks(seed=83, lo=0.0, hi=6000.0)
        grid = EnergyGrid(2000.0, 2600.0, 2.0)
        with pytest.warns(UserWarning, match="margin"):
            out = broaden(spec, kernel, grid)
        want = direct_broaden(spec, kernel, grid)
        assert np.abs(out.intensities - want).max() <= (
            binning_bound(spec, kernel, grid) + 1e-12 * want.max())

    def test_sticks_far_outside_grid_refused(self):
        grid = EnergyGrid(0.0, 100.0, 1.0)
        far = 100.0 + (EnergyGrid._MAX_POINTS + 10) * grid.step
        with pytest.raises(GridError, match="outside the grid"), pytest.warns(UserWarning):
            broaden(sticks([(50.0, 1.0), (far, 1.0)]), BroadeningKernel("gaussian", 30.0),
                    grid)

    @pytest.mark.parametrize("scale", [1e308, 1e300, 5e-324, 1e-310])
    @pytest.mark.parametrize("shape", ["lorentzian", "gaussian"])
    def test_extreme_intensities_finite_and_nonnegative(self, scale, shape):
        rng = np.random.default_rng(84)
        e = np.sort(rng.uniform(0.0, 3000.0, 50))
        spec = LineSpectrum(e, scale * np.ones(e.size))
        kernel = BroadeningKernel(shape, 30.0)
        grid = EnergyGrid.around(e, kernel.fwhm)
        y = broaden(spec, kernel, grid).intensities
        assert np.all(np.isfinite(y)) and np.all(y >= 0.0)
        if scale == 1e300:
            want = direct_broaden(spec, kernel, grid)
            assert np.abs(y - want).max() <= (
                binning_bound(spec, kernel, grid) + 1e-12 * want.max())

    def test_all_zero_spectrum_gives_zeros(self):
        spec = LineSpectrum(np.array([0.0, 500.0]), np.zeros(2))
        out = broaden(spec, BroadeningKernel("lorentzian", 30.0), EnergyGrid(-600.0, 1100.0, 1.5))
        assert out.intensities.size == out.energies.size and not out.intensities.any()

    @pytest.mark.parametrize("fwhm", [0.3, 7.7, 30.0, 123.456])
    def test_around_grid_is_the_lattice(self, fwhm, monkeypatch):
        # with r = 1 and every stick inside the grid, the lattice is the
        # grid, so the kernel spans 2n - 1 offsets over n grid points
        lengths = []
        rfft = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda a, n: lengths.append(n) or rfft(a, n))
        spec = random_sticks(seed=85, n=20, lo=1000.0, hi=1000.0 + 40 * fwhm)
        grid = EnergyGrid.around(spec.energies, fwhm)
        broaden(spec, BroadeningKernel("gaussian", fwhm), grid)
        assert lengths == [_smooth_length(2 * grid.points().size - 1)] * 2

    @pytest.mark.parametrize("shape", ["lorentzian", "gaussian"])
    @pytest.mark.parametrize("w", [0.8, 30.0, 1e25])
    def test_float32_fwhm_gives_its_floats_band(self, shape, w):
        # float32 squared gamma = 5e24 to inf at w = 1e25: an all-zero band
        spec = sticks([(0.0, 0.7), (300.0, 0.3)])
        exact = float(np.float32(w))
        grid = EnergyGrid.around(spec.energies, np.float32(w))
        assert grid == EnergyGrid.around(spec.energies, exact)
        got = broaden(spec, BroadeningKernel(shape, np.float32(w)), grid)
        want = broaden(spec, BroadeningKernel(shape, exact), grid)
        assert got.intensities.tobytes() == want.intensities.tobytes()
        assert got.provenance == want.provenance
        assert want.intensities.sum() * grid.step == pytest.approx(1.0, rel=0.1)

    def test_smooth_length(self):
        smooth = sorted(2**a * 3**b * 5**c for a in range(13) for b in range(8) for c in range(6))
        for n in range(1, 4000):
            assert _smooth_length(n) == next(m for m in smooth if m >= n)


def test_package_import_loads_no_scipy():
    # scipy.fft alone takes longer to import than the whole package
    code = "import sys, vibronic; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_sums_independent_of_blas_threads():
    # OpenBLAS splits a dot of over 10,000 elements across its threads,
    # which changes the sum's last bits; `fidelity` and unit_l2
    # `normalize` sum by numpy's own loop, so 1 and 2 threads agree
    code = """if True:
        import numpy as np
        from vibronic.analysis import fidelity, normalize
        from vibronic.model import LineSpectrum
        rng = np.random.default_rng(11)
        p, q = (LineSpectrum(np.arange(50_000.0), rng.random(50_000)) for _ in range(2))
        print(fidelity(p, q).hex(), normalize(p, "unit_l2").intensities.sum().hex())
    """
    out = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": n}).stdout
           for n in ("1", "2")]
    assert out[0] == out[1] and out[0].strip()


class TestConvergenceStudy:
    @staticmethod
    def toy_molecule():
        return Molecule(
            "toy", 0.0, "absorption",
            (Mode(500.0, 0.25), Mode(900.0, 0.1)),
        )

    def test_single_run_zero_std(self):
        m = self.toy_molecule()
        report = convergence_study(
            m,
            SamplerConfig(events=1, seed=5, max_quanta=2),
            DetectorModel(),
            [100, 1000],
            runs=1,
            sos_cfg=SosConfig(max_quanta=2, overflow="cap"),
        )
        assert np.all(report.std_fidelity == 0.0)
        assert np.all((0.0 <= report.mean_fidelity) & (report.mean_fidelity <= 1.0))

    def test_fidelity_improves_with_events(self):
        m = self.toy_molecule()
        report = convergence_study(
            m,
            SamplerConfig(events=1, seed=6, max_quanta=2),
            DetectorModel(),
            [100, 100000],
            runs=5,
            sos_cfg=SosConfig(max_quanta=2, overflow="cap"),
        )
        # stochastic, but 1000x more events should not be worse here
        assert report.mean_fidelity[1] > report.mean_fidelity[0]
        assert report.mean_fidelity[1] > 0.999

    @pytest.mark.parametrize("d", [DetectorModel(efficiency=0.5), DetectorModel(dark_mean=0.2)],
                             ids=["loss", "dark"])
    def test_detector_scored_against_its_own_reference(self, d):
        # against the ideal reference these plateau near 0.979 and 0.80
        report = convergence_study(
            pentacene_like_8(),
            SamplerConfig(events=1, seed=8, max_quanta=1),
            d,
            [10**5],
            runs=3,
            sos_cfg=SosConfig(max_quanta=1, overflow="cap"),
        )
        assert report.mean_fidelity[0] >= 0.999
        assert {k: report.provenance[k] for k in vars(d)} == vars(d)

    @pytest.mark.parametrize("k, sos_cfg", [
        (None, SosConfig(max_quanta=1, overflow="cap")),
        (1, SosConfig(max_quanta=1, overflow="truncate")),
        (1, SosConfig(max_quanta=2, overflow="cap")),
        (1, SosConfig(max_quanta=1, overflow="cap", fc_prune=0.01)),
    ], ids=["unbounded-sampler", "truncated-reference", "other-cap", "pruned-reference"])
    def test_reference_of_another_law_refused(self, k, sos_cfg):
        # each mismatch scores mean F ~0.999 on pentacene_like_8 at 1e5
        # events against ~0.99999 for the matched law: a biased score
        with pytest.raises(ValueError, match="is not the sampler's"):
            convergence_study(pentacene_like_8(), SamplerConfig(events=1, seed=9, max_quanta=k),
                              DetectorModel(), [100], 1, sos_cfg)

    def test_no_runs_refused(self):
        with pytest.raises(ValueError, match="runs must be >= 1"):
            convergence_study(self.toy_molecule(), SamplerConfig(events=1, seed=9, max_quanta=1),
                              DetectorModel(), [100], 0, SosConfig(max_quanta=1, overflow="cap"))

    def test_no_event_counts_refused(self):
        # an empty list used to return an empty report
        with pytest.raises(ValueError, match="event_counts must not be empty"):
            convergence_study(self.toy_molecule(), SamplerConfig(events=1, seed=9, max_quanta=1),
                              DetectorModel(), [], 1, SosConfig(max_quanta=1, overflow="cap"))

    def test_event_counts_refused_before_any_work(self, monkeypatch):
        # [100, 0] built the reference and drew three samples before refusing 0
        calls = []
        for name in ("build_reference_spectrum", "sample_spectrum"):
            monkeypatch.setattr(analysis, name, lambda *a, name=name, **kw: calls.append(name))
        with pytest.raises(ValueError, match="events must be >= 1"):
            convergence_study(self.toy_molecule(), SamplerConfig(events=1, seed=9, max_quanta=1),
                              DetectorModel(), [100, 0], 3, SosConfig(max_quanta=1, overflow="cap"))
        assert calls == []

    def test_numpy_event_counts_reported_as_python_ints(self):
        report = convergence_study(self.toy_molecule(),
                                   SamplerConfig(events=1, seed=9, max_quanta=1), DetectorModel(),
                                   [np.int64(100)], 1, SosConfig(max_quanta=1, overflow="cap"))
        assert report.event_counts == [100] and type(report.event_counts[0]) is int

    def test_provenance_records_runs_last(self):
        d = DetectorModel(efficiency=0.8)
        report = convergence_study(self.toy_molecule(),
                                   SamplerConfig(events=1, seed=9, max_quanta=1), d, [100], 3,
                                   SosConfig(max_quanta=1, overflow="cap"))
        assert report.provenance["runs"] == 3
        assert list(report.provenance) == ["molecule", "seed", "max_quanta", "overflow",
                                           *vars(d), "version", "runs"]
        assert not hasattr(report, "runs")
