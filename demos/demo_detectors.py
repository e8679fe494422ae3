"""Effect of detector imperfections on the sampled spectrum.

Samples the 8-mode fixture through an ideal detector, a lossy one, a
dark-count-afflicted one, and threshold (click) detectors.  Each
sample is scored twice: against the exact reference of what that
detector records (F ~ 1: the sampler reproduces the detector's law),
and against the ideal detector's reference (the drop in F measures
how far the detector distorts the spectrum).

Run:  python3 demos/demo_detectors.py
"""

from vibronic import (
    DetectorModel,
    SamplerConfig,
    SosConfig,
    build_reference_spectrum,
    fidelity,
    sample_spectrum,
)
from vibronic.fixtures import pentacene_like_8

molecule = pentacene_like_8()
sos_cfg = SosConfig(max_quanta=1, overflow="cap")
ideal_reference = build_reference_spectrum(molecule, sos_cfg)
cfg = SamplerConfig(events=1_000_000, seed=2718, max_quanta=1)

detectors = {
    "ideal": DetectorModel(),
    "eta=0.8": DetectorModel(efficiency=0.8),
    "dark=0.01": DetectorModel(dark_mean=0.01),
    "threshold (click)": DetectorModel(threshold_mode=True),
    "eta=0.8 + threshold": DetectorModel(efficiency=0.8, threshold_mode=True),
}

print(f"{molecule.name}: 1e6 events, K=1 capped references")
print(f"  {'detector':<22} {'F vs own':>10} {'F vs ideal':>11}")
for label, det in detectors.items():
    sampled = sample_spectrum(molecule, cfg, det)
    own = fidelity(sampled, build_reference_spectrum(molecule, sos_cfg, det))
    print(f"  {label:<22} {own:>10.6f} {fidelity(sampled, ideal_reference):>11.6f}")
