import math

import pytest
from hypothesis import given, strategies as st

from vibronic.model import (
    DetectorModel,
    Mode,
    Molecule,
    ValidationError,
    hr_from_gradient,
    prune_modes,
    validate_molecule,
)


def make_molecule(hr_values, energy=500.0, **kw):
    modes = tuple(
        Mode(index=i + 1, energy=energy + i, huang_rhys=s)
        for i, s in enumerate(hr_values)
    )
    return Molecule(name="test", e00=10000.0, transition="absorption", modes=modes, **kw)


class TestHrFromGradient:
    def test_direct_formula(self):
        # dQ = G/omega = 1, S = omega * dQ^2 / 2 = 1
        assert hr_from_gradient(2.0, 2.0) == pytest.approx(1.0, rel=1e-15)

    def test_zero_gradient(self):
        assert hr_from_gradient(5.0, 0.0) == 0.0

    def test_half(self):
        assert hr_from_gradient(1.0, 1.0) == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("omega", [0.0, -1.0, math.nan, math.inf])
    def test_bad_omega(self, omega):
        with pytest.raises(ValueError):
            hr_from_gradient(omega, 1.0)

    @given(
        st.floats(min_value=1e-6, max_value=1e6),
        st.floats(min_value=-1e3, max_value=1e3),
    )
    def test_algebraic_identity(self, omega, g):
        assert hr_from_gradient(omega, g) == g * g / (2.0 * omega)


class TestValidateMolecule:
    def test_valid_passes_through(self):
        m = make_molecule([0.1, 0.2])
        assert validate_molecule(m) is m

    def test_negative_energy_named(self):
        m = Molecule(
            "bad", 1000.0, "absorption",
            (Mode(1, -10.0, 0.1),),
        )
        with pytest.raises(ValidationError, match="mode 1.*energy > 0"):
            validate_molecule(m)

    def test_mode_count_within_atom_bound(self):
        # 8 modes, 36 atoms: well under 3*36 - 5 = 103
        m = make_molecule([0.1] * 8, atom_count=36)
        validate_molecule(m)

    def test_mode_count_exceeding_atom_bound(self):
        m = make_molecule([0.1] * 5, atom_count=3)
        with pytest.raises(ValidationError, match="3M-5"):
            validate_molecule(m)

    def test_empty_mode_list_valid(self):
        validate_molecule(make_molecule([]))

    def test_duplicate_index(self):
        m = Molecule(
            "dup", 0.0, "absorption",
            (Mode(1, 500.0, 0.1), Mode(1, 600.0, 0.1)),
        )
        with pytest.raises(ValidationError, match="duplicate|index"):
            validate_molecule(m)

    def test_negative_hr(self):
        m = Molecule("neg", 0.0, "absorption", (Mode(1, 500.0, -0.2),))
        with pytest.raises(ValidationError, match="huang_rhys"):
            validate_molecule(m)

    def test_bad_transition(self):
        m = Molecule("t", 0.0, "fluorescence", ())
        with pytest.raises(ValidationError, match="transition"):
            validate_molecule(m)


class TestPruneModes:
    def test_threshold_zero_keeps_positive_modes(self):
        m = make_molecule([0.2, 0.05])
        assert prune_modes(m, 0.0).modes == m.modes

    def test_default_threshold(self):
        m = make_molecule([0.2, 1e-7, 0.05])
        pruned = prune_modes(m, 1e-5)
        assert [md.huang_rhys for md in pruned.modes] == [0.2, 0.05]
        assert [md.index for md in pruned.modes] == [1, 2]

    def test_all_below_threshold(self):
        m = make_molecule([1e-8, 1e-9])
        pruned = prune_modes(m, 1e-5)
        assert pruned.n_modes == 0
        validate_molecule(pruned)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            prune_modes(make_molecule([0.1]), -1.0)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=2.0), max_size=12),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_idempotent(self, hr, threshold):
        m = make_molecule(hr)
        once = prune_modes(m, threshold)
        twice = prune_modes(once, threshold)
        assert once == twice


class TestDetectorModel:
    @pytest.mark.parametrize("kw", [
        {"efficiency": 0.0}, {"efficiency": 1.5}, {"efficiency": math.nan},
        {"dark_mean": -0.1}, {"dark_mean": math.nan}, {"dark_mean": math.inf},
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            DetectorModel(**kw)

    def test_recorded_law(self):
        assert DetectorModel().recorded(0.3, None) == (0.3, None)
        assert DetectorModel().recorded(0.3, 2) == (0.3, 2)
        assert DetectorModel(efficiency=0.5, dark_mean=0.1).recorded(0.4, 3) == (0.5 * 0.4 + 0.1, 3)
        click = DetectorModel(threshold_mode=True)
        assert click.recorded(2.0, None) == (2.0, 1)
        assert click.recorded(2.0, 3) == (2.0, 1)
        assert click.recorded(2.0, 0) == (2.0, 0)
