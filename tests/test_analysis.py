import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vibronic.analysis import (
    BroadeningKernel,
    EnergyGrid,
    GridError,
    broaden,
    convergence_study,
    fidelity,
    normalize,
)
from vibronic.fixtures import pentacene_like_8
from vibronic.model import Mode, Molecule
from vibronic.sampling import DetectorModel, SamplerConfig
from vibronic.sos import LineSpectrum, SosConfig


def sticks(pairs):
    e, i = zip(*sorted(pairs))
    return LineSpectrum(np.array(e, dtype=float), np.array(i, dtype=float))


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

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fidelity(sticks([(0, 0.0)]), sticks([(0, 1.0)]))

    def test_one_tick_lines_merge(self):
        # energies closer than one lattice tick are one line: summed,
        # not overwritten
        p = sticks([(0.0, 1.0), (0.1, 1.0), (0.1 + 1e-10, 1.0)])
        q = sticks([(0.0, 1.0), (0.1, 2.0)])
        assert fidelity(p, q) == pytest.approx(1.0, abs=1e-12)

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


class TestConvergenceStudy:
    @staticmethod
    def toy_molecule():
        return Molecule(
            "toy", 0.0, "absorption",
            (Mode(1, 500.0, 0.25), Mode(2, 900.0, 0.1)),
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
