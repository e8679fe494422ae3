"""The input contract: every field of a public constructor and every
numeric parameter of a public function either takes a value, storing
it as the Python number (or bool) it equals, or refuses it with a
ValueError naming the field (`model.check`)."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vibronic.analysis import BroadeningKernel, EnergyGrid, convergence_study, normalize
from vibronic.model import DetectorModel, Mode, Molecule, hr_from_gradient, prune_modes
from vibronic.sampling import SamplerConfig, poisson_draw, sample_mode, sample_spectrum, substream
from vibronic.sos import LineSpectrum, SosConfig, fc_factor_1d, mode_distribution, state_count

ACCEPTED = object()  # a function call that passed its checks
STICKS = LineSpectrum([-3.0, 0.0, 1.0, 2.5], [1.0, 2.0, 3.0, 4.0])
MODE = Mode(500.0, np.float64(0.1))  # a numpy S: a huge int threshold would overflow against it
CFG = SamplerConfig(events=10, seed=1)
RNG = np.random.default_rng(1)


def molecule(**kw):
    return Molecule(**{"name": "m", "e00": 0.0, "transition": "absorption", "modes": (MODE,), **kw})


def called(call, *later):
    """`call` as a target: ACCEPTED when it returns, or when a later step,
    a rule across fields, refuses with a message holding one of `later`."""
    def run(value):
        try:
            call(value)
        except ValueError as exc:
            if not any(text in str(exc) for text in later):
                raise
        return ACCEPTED
    return run


# target: (the name its refusals give, as a regex, the kind it takes ("?":
# or None), the call, whose result is the value it stores or ACCEPTED)
TARGETS = {
    # no special value is a sequence of modes: each is refused, as `modes` or `mode 1`
    "Molecule.modes": ("modes?", "modes", lambda v: molecule(modes=v).modes),
    "Mode.energy": ("energy", "real", lambda v: molecule(modes=(Mode(v, 0.1),)).modes[0].energy),
    "Mode.huang_rhys": ("huang_rhys", "real",
                        lambda v: molecule(modes=(Mode(500.0, v),)).modes[0].huang_rhys),
    "Molecule.name": ("name", "str", lambda v: molecule(name=v).name),
    "Molecule.e00": ("e00", "real", lambda v: molecule(e00=v).e00),
    "Molecule.transition": ("transition", "str", lambda v: molecule(transition=v).transition),
    "Molecule.atom_count": ("atom_count", "int?",
                            called(lambda v: molecule(atom_count=v), "3M-5")),
    "DetectorModel.efficiency": ("efficiency", "real",
                                 lambda v: DetectorModel(efficiency=v).efficiency),
    "DetectorModel.dark_mean": ("dark_mean", "real",
                                lambda v: DetectorModel(dark_mean=v).dark_mean),
    "DetectorModel.threshold_mode": ("threshold_mode", "bool",
                                     lambda v: DetectorModel(threshold_mode=v).threshold_mode),
    # the ideal detector records mean s, and top k
    "DetectorModel.recorded.s": ("s", "real", lambda v: DetectorModel().recorded(v, None)[0]),
    "DetectorModel.recorded.k": ("k", "int?", lambda v: DetectorModel().recorded(0.5, v)[1]),
    "SamplerConfig.events": ("events", "int", lambda v: SamplerConfig(events=v).events),
    "SamplerConfig.seed": ("seed", "int", lambda v: SamplerConfig(events=1, seed=v).seed),
    "SamplerConfig.max_quanta": ("max_quanta", "int?",
                                 lambda v: SamplerConfig(events=1, max_quanta=v).max_quanta),
    "SosConfig.max_quanta": ("max_quanta", "int", lambda v: SosConfig(max_quanta=v).max_quanta),
    "SosConfig.fc_prune": ("fc_prune", "real?", lambda v: SosConfig(fc_prune=v).fc_prune),
    "SosConfig.enumeration_budget": ("enumeration_budget", "int",
                                     lambda v: SosConfig(enumeration_budget=v).enumeration_budget),
    "SosConfig.overflow": ("overflow", "str", lambda v: SosConfig(overflow=v).overflow),
    "BroadeningKernel.shape": ("shape", "str", lambda v: BroadeningKernel(v, 30.0).shape),
    "BroadeningKernel.fwhm": ("fwhm", "real", lambda v: BroadeningKernel("gaussian", v).fwhm),
    # a width past ~1.8e307 pads the grid to +-inf
    "EnergyGrid.around.fwhm": ("fwhm", "real", called(lambda v: EnergyGrid.around([0.0], v),
                                                      "start must be finite")),
    # grids also refuse stop <= start and more than 10**7 points, naming no one field
    "EnergyGrid.start": ("start", "real",
                         called(lambda v: EnergyGrid(v, 400.0, 1.0), "must exceed", "guard")),
    "EnergyGrid.stop": ("stop", "real",
                        called(lambda v: EnergyGrid(0.0, v, 1.0), "must exceed", "guard")),
    "EnergyGrid.step": ("step", "real", called(lambda v: EnergyGrid(0.0, 400.0, v), "guard")),
    "hr_from_gradient.omega": ("omega", "real", called(lambda v: hr_from_gradient(v, 1.0))),
    "hr_from_gradient.gradient": ("gradient", "real", called(lambda v: hr_from_gradient(1.0, v))),
    "prune_modes.threshold": ("threshold", "real", called(lambda v: prune_modes(molecule(), v))),
    "fc_factor_1d.s": ("s", "real", called(lambda v: fc_factor_1d(v, 1))),
    "fc_factor_1d.j": ("j", "int", called(lambda v: fc_factor_1d(0.5, v))),
    "state_count.n_modes": ("n_modes", "int", called(lambda v: state_count(v, 0))),
    "state_count.k": ("k", "int", called(lambda v: state_count(0, v))),
    "mode_distribution.s": ("s", "real", called(lambda v: mode_distribution(v, 1))),
    # the sampler refuses a recorded mean past numpy's Poisson limit
    "sample_mode.s": ("s", "real", called(lambda v: sample_mode(v, 1, CFG), "Poisson mean")),
    "sample_mode.mode_index": ("mode_index", "int", called(lambda v: sample_mode(0.5, v, CFG))),
    "poisson_draw.mean": ("mean", "real", called(lambda v: poisson_draw(v, RNG, 3))),
    "substream.seed": ("seed", "int", called(lambda v: substream(v, 1, 0))),
    "substream.mode_index": ("mode_index", "int", called(lambda v: substream(0, v, 0))),
    "substream.chunk_index": ("chunk_index", "int", called(lambda v: substream(0, 1, v))),
    "normalize.e00": ("e00", "real",
                      called(lambda v: normalize(STICKS, "zero_zero_one", e00=v), "no stick")),
    # a reference law that is not the sampler's is refused after `runs` is checked
    "convergence_study.runs": ("runs", "int", called(
        lambda v: convergence_study(molecule(), SamplerConfig(events=1, max_quanta=1),
                                    DetectorModel(), [10], v, SosConfig(max_quanta=2)),
        "is not the sampler's")),
    "sample_spectrum.workers": ("workers", "int",
                                called(lambda v: sample_spectrum(molecule(), CFG, workers=v))),
}

SPECIAL = [True, False, np.bool_(True), "1", "0.5", "", None, [1], math.nan, math.inf, -math.inf,
           10**400, -10**400, np.float64(math.nan), np.float32(math.inf), np.float32(3e38),
           np.int64(-2**63), np.int64(2**63 - 1), "gaussian", "cap"]
VALUES = st.one_of(
    st.sampled_from(SPECIAL),
    st.integers(-3, 12), st.integers(), st.floats(-3.0, 3.0), st.floats(),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(0, 2**32 - 1).map(np.uint32),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.sampled_from([-3.0, 0.0, 1.0, 2.5]).map(np.float32),  # on `STICKS`
)


def is_kind(value, kind) -> bool:
    """Whether `value` is of the kind a target takes, told apart without `model`."""
    if value is None:
        return kind.endswith("?")
    kind = kind.rstrip("?")
    if isinstance(value, (bool, np.bool_, str)):
        return isinstance(value, {"bool": (bool, np.bool_), "str": str}.get(kind, ()))
    if kind == "int":
        return isinstance(value, (int, np.integer))
    try:
        return kind == "real" and math.isfinite(value)
    except (OverflowError, TypeError):  # an int beyond float range, or no number
        return False


STORED = {"int": int, "real": float, "bool": bool, "str": str}  # the type each kind stores


def check_input(target, value):
    """`target` takes `value`, a value of its kind, and stores the Python
    value of that kind equal to it (for a real field, an int past 2**53
    becomes the nearest float), or refuses it with a ValueError naming
    its field."""
    name, kind, call = TARGETS[target]
    try:
        got = call(value)
    except ValueError as exc:
        assert re.search(rf"\b{name}\b", str(exc), re.IGNORECASE), (target, value, str(exc))
        return
    assert is_kind(value, kind), (target, value)
    if got is not ACCEPTED:
        python = None if value is None else STORED[kind.rstrip("?")](value)
        assert got == python and type(got) is type(python), (target, value, got)


@settings(max_examples=1500, deadline=None)
@given(target=st.sampled_from(sorted(TARGETS)), value=VALUES)
def test_every_input_taken_unchanged_or_refused_by_name(target, value):
    check_input(target, value)


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_every_special_value(target):
    # random draws meet each (target, special value) pair only now and then
    for value in SPECIAL:
        check_input(target, value)


@pytest.mark.parametrize("target", [
    "Molecule.atom_count", "SamplerConfig.seed", "SamplerConfig.max_quanta",
    "SosConfig.max_quanta", "SosConfig.enumeration_budget", "state_count.n_modes",
    "state_count.k", "sample_mode.mode_index", "convergence_study.runs",
    "sample_spectrum.workers", "substream.seed", "substream.mode_index",
    "DetectorModel.recorded.k",
])
@pytest.mark.parametrize("huge", [4**66, 10**400])
def test_huge_integers_stay_valid(target, huge):
    # the bench passes enumeration_budget=4**66; no integer field has a float's range
    assert TARGETS[target][2](huge) in (ACCEPTED, huge)
