import math
import re
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from vibronic.model import (
    KEY_LIMIT,
    TICKS_PER_CM1,
    DetectorModel,
    Mode,
    Molecule,
    ValidationError,
    energy_keys,
    hr_from_gradient,
    prune_modes,
    sum_by_key,
)


def make_molecule(hr_values, energy=500.0, **kw):
    modes = tuple(Mode(energy=energy + i, huang_rhys=s) for i, s in enumerate(hr_values))
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
        # the bits of g*g/(2 omega) are pinned only where G^2 is a normal float
        assume(g * g >= np.finfo(float).tiny)
        assert hr_from_gradient(omega, g) == g * g / (2.0 * omega)

    @given(
        st.floats(min_value=1e-6, max_value=1e6),
        st.floats(min_value=-1.4e-154, max_value=1.4e-154),  # G^2 < tiny
    )
    def test_subnormal_square_within_two_roundings(self, omega, g):
        # where G^2 is not normal, a normal S still carries its exact value to
        # within the two roundings of G/omega*G (2 x 2**-53 < 4.5e-16)
        s = hr_from_gradient(omega, g)
        if s >= np.finfo(float).tiny:
            exact = Fraction(g) ** 2 / (2 * Fraction(omega))
            assert abs(Fraction(s) - exact) <= Fraction(4.5e-16) * exact

    @pytest.mark.parametrize("omega, gradient", [(1e-320, 1.0), (2.0, 1e200), (1.0, 1e155)])
    def test_overflow_refused_naming_inputs(self, omega, gradient):
        with pytest.raises(ValueError, match=re.escape(f"omega={omega!r}, gradient={gradient!r}")):
            hr_from_gradient(omega, gradient)

    def test_largest_finite_kept(self):
        assert hr_from_gradient(1.0, 1e154) == 1e154 * 1e154 / 2.0

    @pytest.mark.parametrize("omega, gradient, s", [
        (1e10, 1e155, 5e299),  # G^2 overflows
        (1e-300, 1e-170, 5e-41),  # G^2 is subnormal
        (1e-300, 3e-162, 4.5e-24),  # G^2 is two subnormal ulps
        (1e-300, 1e-200, 5e-101),  # G^2 underflows to 0
        (1.5e308, 1e154, 1 / 3),  # 2 omega overflows
    ])
    def test_finite_s_returned(self, omega, gradient, s):
        assert hr_from_gradient(omega, gradient) == pytest.approx(s, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("gradient", [math.nan, math.inf, -math.inf])
    def test_non_finite_gradient_refused(self, gradient):
        with pytest.raises(ValueError, match="gradient must be finite"):
            hr_from_gradient(1.0, gradient)


class TestValidateMolecule:
    def test_valid_passes_through(self):
        m = make_molecule([0.1, 0.2])
        assert m.huang_rhys == [0.1, 0.2]

    def test_negative_energy_named(self):
        with pytest.raises(ValidationError, match="mode 1.*energy > 0"):
            Molecule("bad", 1000.0, "absorption", (Mode(-10.0, 0.1),))

    def test_mode_count_within_atom_bound(self):
        # 8 modes, 36 atoms: well under 3*36 - 5 = 103
        make_molecule([0.1] * 8, atom_count=36)
        make_molecule([0.1] * 8, atom_count=np.int64(36))

    def test_mode_count_exceeding_atom_bound(self):
        with pytest.raises(ValidationError, match="3M-5"):
            make_molecule([0.1] * 5, atom_count=3)

    def test_numpy_atom_count_bound_in_python_ints(self):
        # 3 * np.uint32(1) - 5 wrapped to 4294967294 and let one mode pass
        with pytest.raises(ValidationError, match="1 modes exceeds 3M-5 = -2 for 1 atoms"):
            make_molecule([0.1], atom_count=np.uint32(1))

    def test_empty_mode_list_valid(self):
        make_molecule([])

    def test_negative_hr(self):
        with pytest.raises(ValidationError, match="huang_rhys"):
            Molecule("neg", 0.0, "absorption", (Mode(500.0, -0.2),))

    def test_bad_transition(self):
        with pytest.raises(ValidationError, match="transition"):
            Molecule("t", 0.0, "fluorescence", ())

    @pytest.mark.parametrize("kw, match", [
        ({"transition": "Emission"}, "transition"),
        ({"e00": math.inf}, "e00"),
        ({"e00": math.nan}, "e00"),
        ({"modes": (Mode(500.0, 0.1), Mode(-600.0, 0.1))}, "mode 2: energy > 0"),
        ({"name": None}, "name must be a string"),
        ({"name": ["a", 1]}, "name must be a string"),
        ({"name": 3}, "name must be a string"),
        ({"atom_count": 2.5}, "atom_count must be an integer, got 2.5"),
        ({"atom_count": True}, "atom_count must be an integer, got True"),
        ({"atom_count": "4"}, "atom_count must be an integer, got '4'"),
        ({"modes": 5}, "modes must be a sequence of Mode, got 5"),
        ({"modes": None}, "modes must be a sequence of Mode, got None"),
        ({"modes": ""}, "modes must be a sequence of Mode, got ''"),
        ({"modes": (500.0,)}, "mode 1: must be a Mode, got 500.0"),
        ({"modes": [Mode(500.0, 0.1), "x"]}, "mode 2: must be a Mode, got 'x'"),
    ])
    def test_library_construction_refuses(self, kw, match):
        # No CLI involved: the constructor itself refuses the molecule.
        args = {"name": "lib", "e00": 0.0, "transition": "absorption", "modes": (), **kw}
        with pytest.raises(ValidationError, match=match):
            Molecule(**args)

    def test_every_problem_reported_by_position(self):
        modes = (Mode(500.0, 0.1), Mode(0.0, 0.1), Mode(700.0, math.nan))
        with pytest.raises(ValidationError) as err:
            Molecule("many", -1.0, "emission", modes, atom_count=2)
        msg = str(err.value)
        for part in ("e00 must be >= 0", "mode 2: energy > 0", "mode 3: huang_rhys >= 0",
                     "3 modes exceeds 3M-5 = 1"):
            assert part in msg

    def test_modes_refused_with_other_problems(self):
        with pytest.raises(ValidationError) as err:
            Molecule("bad", -1.0, "absorption", 5, atom_count=0)
        msg = str(err.value)
        for part in ("modes must be a sequence of Mode", "e00 must be >= 0",
                     "atom_count must be positive"):
            assert part in msg

    def test_modes_iterable_stored_as_tuple(self):
        modes = [Mode(500.0, 0.1), Mode(600.0, 0.2)]
        assert Molecule("it", 0.0, "absorption", iter(modes)).modes == tuple(modes)

    def test_replace_revalidates(self):
        m = make_molecule([0.1])
        with pytest.raises(ValidationError, match="transition"):
            replace(m, transition="both")


class TestPruneModes:
    def test_threshold_zero_keeps_positive_modes(self):
        m = make_molecule([0.2, 0.05])
        assert prune_modes(m, 0.0).modes == m.modes

    def test_default_threshold(self):
        m = make_molecule([0.2, 1e-7, 0.05])
        pruned = prune_modes(m, 1e-5)
        assert [md.huang_rhys for md in pruned.modes] == [0.2, 0.05]

    def test_all_below_threshold(self):
        m = make_molecule([1e-8, 1e-9])
        pruned = prune_modes(m, 1e-5)
        assert pruned.n_modes == 0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            prune_modes(make_molecule([0.1]), -1.0)

    def test_nan_threshold_rejected(self):
        # nan compares false with every S, so it would drop every mode
        with pytest.raises(ValueError, match="threshold"):
            prune_modes(make_molecule([0.1]), math.nan)

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
        {"efficiency": True}, {"dark_mean": False}, {"efficiency": "0.5"},
        {"threshold_mode": "no"}, {"threshold_mode": 1}, {"threshold_mode": None},
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            DetectorModel(**kw)

    def test_numpy_values_accepted(self):
        d = DetectorModel(efficiency=np.float32(0.5), dark_mean=np.int64(1),
                          threshold_mode=np.bool_(True))
        assert d.recorded(2.0, None) == (2.0, 1)

    def test_recorded_mean_in_float64(self):
        mean, _ = DetectorModel(efficiency=np.float32(0.7)).recorded(np.float32(0.4), None)
        assert type(mean) is float
        assert mean == float(np.float32(0.7)) * float(np.float32(0.4))

    @pytest.mark.parametrize("s, k, match", [
        ("0.5", None, "^s must be a real number"), (True, None, "^s must be a real number"),
        (math.inf, None, "^s must be >= 0 and finite"), (-0.1, 2, "^s must be >= 0"),
        (0.5, 2.5, "^k must be an integer"), (0.5, True, "^k must be an integer"),
        (0.5, -1, "^k must be >= 0"),
    ])
    def test_recorded_refuses_by_name(self, s, k, match):
        with pytest.raises(ValueError, match=match):
            DetectorModel().recorded(s, k)

    def test_recorded_law(self):
        assert DetectorModel().recorded(0.3, None) == (0.3, None)
        assert DetectorModel().recorded(0.3, 2) == (0.3, 2)
        assert DetectorModel(efficiency=0.5, dark_mean=0.1).recorded(0.4, 3) == (0.5 * 0.4 + 0.1, 3)
        click = DetectorModel(threshold_mode=True)
        assert click.recorded(2.0, None) == (2.0, 1)
        assert click.recorded(2.0, 3) == (2.0, 1)
        assert click.recorded(2.0, 0) == (2.0, 0)


class TestSumByKey:
    @given(st.lists(st.tuples(st.integers(-50, 50), st.integers(0, 10**6)), max_size=60),
           st.booleans(), st.integers(1, 4))
    def test_matches_dict_oracle(self, pairs, as_float, runs):
        # `runs` > 1 lays the input out as already-sorted runs, as the
        # SOS step does; the input otherwise is unsorted with repeats.
        # Integer-valued weights keep float sums exact in any order.
        keys = np.array([k for k, _ in pairs], dtype=np.int64)
        weights = np.array([w for _, w in pairs], dtype=float if as_float else np.int64)
        if runs > 1:
            keys = np.concatenate([np.sort(part) for part in np.array_split(keys, runs)])
        oracle: dict[int, float] = {}
        for k, w in zip(keys.tolist(), weights.tolist()):
            oracle[k] = oracle.get(k, 0) + w
        got_keys, got = sum_by_key(keys, weights)
        assert got_keys.tolist() == sorted(oracle)
        assert got.dtype == weights.dtype
        assert got.tolist() == [oracle[k] for k in sorted(oracle)]

    @given(st.data(), st.integers(1, 60), st.integers(-10**12, 10**12),
           st.integers(4 * 60, 10**9))
    def test_sublattice_and_sort_index_sum_same_bits(self, data, n, lo, step):
        # n cells within 4n are indexed densely; their keys lo + step * cell,
        # step >= 4 * 60, are indexed by sort unless all are equal
        top = data.draw(st.sampled_from([min(3, 4 * n - 1), 4 * n - 1]))
        cells = np.array(data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n)),
                         dtype=np.int64)
        weights = np.array(data.draw(st.lists(st.one_of(st.just(0.0), st.floats(-1e6, 1e6)),
                                              min_size=n, max_size=n)))
        keys = lo + step * cells
        dense_cells, dense = sum_by_key(cells, weights)
        sorted_keys, by_sort = sum_by_key(keys, weights)
        assert sorted_keys.tolist() == sorted(set(keys.tolist()))
        assert (lo + step * dense_cells).tolist() == sorted_keys.tolist()
        assert dense.tobytes() == by_sort.tobytes()

    @pytest.mark.parametrize("step", [1, 7 * 10**6])  # key spacing: dense, sort index
    def test_int_total_just_under_2_53_exact(self, step):
        cells = np.array([0, 1, 0], dtype=np.int64)
        weights = np.array([2**52, 3, 2**52 - 1], dtype=np.int64)
        for keys in (cells, 5 + step * cells):  # cell-indexed and key-indexed merges
            got_keys, got = sum_by_key(keys, weights)
            assert got_keys.tolist() == [keys[0], keys[1]]
            assert got.dtype == np.int64 and got.tolist() == [2**53 - 1, 3]

    def test_empty(self):
        keys, weights = sum_by_key(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert keys.size == 0 and weights.size == 0
        assert keys.dtype == np.int64 and weights.dtype == np.int64


def test_energy_keys_refuses_past_lattice_without_warning():
    # 1e303 * TICKS_PER_CM1 overflows float64; the refusal comes first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite and within"):
            energy_keys([1.0, 1e303])


def test_energy_keys_bound_is_the_key_limit():
    # the largest accepted energy is the one whose key is KEY_LIMIT
    edge = KEY_LIMIT / TICKS_PER_CM1
    assert energy_keys([-edge, edge]).tolist() == [-KEY_LIMIT, KEY_LIMIT]
    with pytest.raises(ValueError, match="finite and within"):
        energy_keys([math.nextafter(edge, math.inf)])


@pytest.mark.parametrize("energies", [[math.nan], [1.0, math.nan], [math.inf, 1.0], [-math.inf],
                                      math.nan])
def test_energy_keys_refuses_non_finite(energies):
    with pytest.raises(ValueError, match="finite and within"):
        energy_keys(energies)


def test_energy_keys_shapes():
    assert energy_keys([]).dtype == np.int64 and energy_keys([]).size == 0
    assert int(energy_keys(1.5)) == 1_500_000
    assert energy_keys(np.array([[0.25], [-2.0000004]])).tolist() == [[250_000], [-2_000_000]]
