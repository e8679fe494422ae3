"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or
in the captured output) in addition to asserting, so the suite doubles
as a checklist.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.special
import scipy.stats

from vibronic.analysis import BroadeningKernel, EnergyGrid, broaden, fidelity
from vibronic.fixtures import (
    anthracene_like_12,
    large_acene_like,
    naphthalene_like_9,
    pentacene_like_8,
    pentacene_like_18,
)
from vibronic.io import read_spectrum, write_molecule, write_spectrum
from vibronic.model import Mode, Molecule
from vibronic.sampling import DetectorModel, SamplerConfig, sample_mode, sample_spectrum
from vibronic.sos import LineSpectrum, SosConfig, build_reference_spectrum, fc_factor_1d, state_count


def report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {criterion}: {status} {detail}".rstrip())
    assert passed, f"{criterion} failed: {detail}"


def random_molecule(rng, n_max: int, s_max: float) -> Molecule:
    n = int(rng.integers(1, n_max + 1))
    energies = rng.choice(np.arange(100, 2000), size=n, replace=False)
    hr = rng.uniform(0.02, s_max, size=n)
    modes = tuple(
        Mode(index=i + 1, energy=float(e), huang_rhys=float(s))
        for i, (e, s) in enumerate(zip(sorted(energies), hr))
    )
    return Molecule("random", 0.0, "absorption", modes)


def run_seed(base: int, tag: int) -> int:
    return int(
        np.random.SeedSequence(entropy=base, spawn_key=(tag,)).generate_state(1, np.uint64)[0]
    )


def test_criterion_1_fc_factor_against_log_gamma_oracle():
    """Eq.-level check of the 1-D FC factor against an independently
    coded log-gamma evaluation."""
    worst = 0.0
    for s in (0.0, 0.05, 0.25, 0.5, 1.0, 3.0):
        for j in range(11):
            got = fc_factor_1d(s, j)
            if s == 0.0:
                oracle = 1.0 if j == 0 else 0.0
            else:
                oracle = math.exp(j * math.log(s) - s - scipy.special.gammaln(j + 1))
            err = abs(got - oracle) / max(abs(oracle), 1e-300) if oracle else abs(got)
            worst = max(worst, err)
    report("criterion 1 (fc_factor_1d vs log-gamma oracle)", worst <= 1e-12,
           f"worst rel err {worst:.3e}")


def test_criterion_2_completeness_identity():
    """Raw SOS total equals the product of per-mode Poisson CDFs."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for k in (1, 2, 3, 6):
        for _ in range(10):
            m = random_molecule(rng, n_max=6, s_max=1.0)
            spec = build_reference_spectrum(m, SosConfig(max_quanta=k))
            expected = float(
                np.prod([scipy.stats.poisson.cdf(k, md.huang_rhys) for md in m.modes])
            )
            worst = max(worst, abs(spec.total - expected))
    report("criterion 2 (completeness vs Poisson CDF)", worst <= 1e-10,
           f"worst abs err {worst:.3e}")


def test_criterion_3_small_instance_oracle():
    """Sampled spectra match exact per-line probabilities for tiny
    systems: max deviation <= 5e-3 and chi-square p > 1e-4."""
    worst_dev, worst_p = small_instance_gate(DetectorModel(), seed=31, trials=20)
    ok = worst_dev <= 5e-3 and worst_p > 1e-4
    report("criterion 3 (small-instance sampled vs exact)", ok,
           f"max dev {worst_dev:.2e}, min chi2 p {worst_p:.2e}")


def small_instance_gate(d, seed, trials, events=10**6):
    """Worst per-line deviation and least chi-square p of `trials`
    random tiny molecules sampled through detector `d` against the
    exact capped reference of what `d` records."""
    rng = np.random.default_rng(seed)
    worst_dev, worst_p = 0.0, 1.0
    for trial in range(trials):
        m = random_molecule(rng, n_max=3, s_max=1.0)
        k = int(rng.integers(1, 4))
        ref = build_reference_spectrum(m, SosConfig(max_quanta=k, overflow="cap"), d)
        cfg = SamplerConfig(events=events, seed=run_seed(555, trial), max_quanta=k)
        sampled = sample_spectrum(m, cfg, d)

        probs = dict(zip(np.round(ref.energies, 6).tolist(), ref.intensities.tolist()))
        counts = dict(zip(np.round(sampled.energies, 6).tolist(), sampled.counts.tolist()))
        keys = sorted(set(probs) | set(counts))
        q = np.array([probs.get(key, 0.0) for key in keys])
        obs = np.array([counts.get(key, 0) for key in keys], dtype=float)
        worst_dev = max(worst_dev, float(np.abs(obs / events - q).max()))

        # merge low-expectation bins so the chi-square stat is valid
        exp = q * events
        big = exp >= 5.0
        obs_b = np.concatenate([obs[big], [obs[~big].sum()]]) if (~big).any() else obs[big]
        exp_b = np.concatenate([exp[big], [exp[~big].sum()]]) if (~big).any() else exp[big]
        _, p_value = scipy.stats.chisquare(obs_b, exp_b)
        worst_p = min(worst_p, float(p_value))
    return worst_dev, worst_p


def test_criterion_4_pentacene_like_convergence():
    """8-mode K=1 fixture: mean fidelity over 30 runs > 0.99 at 1e4
    events; >= 0.99999 at 1e8 events."""
    m = pentacene_like_8()
    ref = build_reference_spectrum(m, SosConfig(max_quanta=1, overflow="cap"))

    vals = []
    for r in range(30):
        cfg = SamplerConfig(events=10**4, seed=run_seed(44, r), max_quanta=1)
        vals.append(fidelity(sample_spectrum(m, cfg), ref))
    mean_small = float(np.mean(vals))

    cfg = SamplerConfig(events=10**8, seed=run_seed(44, 1000), max_quanta=1)
    f_large = fidelity(sample_spectrum(m, cfg, workers=4), ref)

    ok = mean_small > 0.99 and f_large >= 0.99999
    report("criterion 4 (8-mode K=1 convergence)", ok,
           f"mean F(1e4)={mean_small:.5f}, F(1e8)={f_large:.8f}")


@pytest.mark.parametrize(
    "fixture,k",
    [(naphthalene_like_9, 3), (anthracene_like_12, 3), (pentacene_like_18, 1)],
    ids=["9-modes-K3", "12-modes-K3", "18-modes-K1"],
)
def test_criterion_5_larger_fixtures_converge(fixture, k):
    """Mean fidelity over 30 runs > 0.99 at 1e5 events."""
    m = fixture()
    ref = build_reference_spectrum(m, SosConfig(max_quanta=k, overflow="cap"))
    vals = []
    for r in range(30):
        cfg = SamplerConfig(events=10**5, seed=run_seed(55, r), max_quanta=k)
        vals.append(fidelity(sample_spectrum(m, cfg), ref))
    mean_f = float(np.mean(vals))
    report(f"criterion 5 ({m.name} K={k})", mean_f > 0.99, f"mean F(1e5)={mean_f:.5f}")


def test_criterion_6_state_counts():
    ok = state_count(8, 1) == 256 and state_count(18, 1) == 262144
    report("criterion 6 (state counts)", ok,
           f"(8,1)={state_count(8, 1)}, (18,1)={state_count(18, 1)}")


def test_criterion_7_cli_throughput(tmp_path):
    """66 modes, unbounded K, 1e5 events through the CLI in < 5 s."""
    mol = tmp_path / "acene66.json"
    write_molecule(large_acene_like(66), mol)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "vibronic.cli", "sample", str(mol),
         "--events", "100000", "--seed", "1", "--out", str(tmp_path / "out.csv")],
        capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - t0
    ok = proc.returncode == 0 and elapsed < 5.0
    report("criterion 7 (66-mode 1e5-event CLI run)", ok, f"{elapsed:.2f} s")


def test_criterion_8_worker_determinism(tmp_path):
    """Identical seeds give byte-identical files for 1, 2, 8 workers."""
    mol = tmp_path / "mol.json"
    write_molecule(pentacene_like_8(), mol)
    outputs = []
    for w in (1, 2, 8):
        out = tmp_path / f"w{w}.csv"
        code = subprocess.run(
            [sys.executable, "-m", "vibronic.cli", "sample", str(mol),
             "--events", "100000", "--seed", "77", "--chunk-size", "15000",
             "--workers", str(w), "--out", str(out)],
            capture_output=True,
        ).returncode
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report("criterion 8 (worker-count determinism)", ok,
           f"{len(outputs[0])} bytes each")


def test_criterion_9_detector_thinning_mean():
    """Recorded mean equals 0.8 * S within 3 sigma at 1e6 events."""
    n = 10**6
    det = DetectorModel(efficiency=0.8)
    ok = True
    details = []
    for i, s in enumerate((0.1, 0.25, 1.0)):
        out = sample_mode(s, 1, SamplerConfig(events=n, seed=run_seed(99, i)), det)
        mean = 0.8 * s
        tol = 3.0 * math.sqrt(mean / n)
        dev = abs(float(out.mean()) - mean)
        ok = ok and dev < tol
        details.append(f"S={s}: dev {dev:.2e} (tol {tol:.2e})")
    report("criterion 9 (detector thinning mean)", ok, "; ".join(details))


@pytest.mark.parametrize("d", [
    DetectorModel(efficiency=0.6),
    DetectorModel(dark_mean=0.3),
    DetectorModel(threshold_mode=True),
    DetectorModel(efficiency=0.7, dark_mean=0.2, threshold_mode=True),
], ids=["loss", "dark", "click", "all"])
def test_criterion_9_detector_small_instance_oracle(d):
    """Criterion 3's gate through each detector kind, against the
    reference of what that detector records."""
    worst_dev, worst_p = small_instance_gate(d, seed=93, trials=5)
    ok = worst_dev <= 5e-3 and worst_p > 1e-4
    report(f"criterion 9 ({d})", ok, f"max dev {worst_dev:.2e}, min chi2 p {worst_p:.2e}")


def test_criterion_10_broadening_and_round_trip(tmp_path):
    """Lorentzian peak value, Gaussian area conservation, and CSV
    byte round-trip.

    The +/-20 FWHM window analytically retains only 2/pi*atan(40) ~
    98.4% of a Lorentzian, so the 0.1% conservation bound is checked
    with the Gaussian kernel (which meets it) and the Lorentzian is
    checked against its exact truncated mass instead.
    """
    fwhm = 30.0
    stick = LineSpectrum(np.array([0.0]), np.array([1.0]))
    grid = EnergyGrid(-20 * fwhm, 20 * fwhm, fwhm / 20.0)

    lor = broaden(stick, BroadeningKernel("lorentzian", fwhm), grid)
    peak = float(lor.intensities[np.argmin(np.abs(lor.energies))])
    peak_ok = abs(peak - 2.0 / (math.pi * fwhm)) <= 1e-9

    gau = broaden(stick, BroadeningKernel("gaussian", fwhm), grid)
    area = float(np.trapezoid(gau.intensities, gau.energies))
    area_ok = abs(area - 1.0) <= 1e-3

    lor_area = float(np.trapezoid(lor.intensities, lor.energies))
    lor_ok = abs(lor_area - 2.0 / math.pi * math.atan(40.0)) <= 1e-3

    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_spectrum(gau, p1)
    again = read_spectrum(p1)
    write_spectrum(again, p2)
    rt_ok = p1.read_bytes() == p2.read_bytes()

    ok = peak_ok and area_ok and lor_ok and rt_ok
    report("criterion 10 (broadening + CSV round-trip)", ok,
           f"peak_ok={peak_ok}, gauss_area={area:.6f}, "
           f"lorentz_area={lor_area:.6f}, round_trip={rt_ok}")
