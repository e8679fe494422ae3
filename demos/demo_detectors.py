"""Effect of detector imperfections on the sampled spectrum.

Samples the 8-mode fixture through an ideal detector, a lossy one, a
dark-count-afflicted one, and a threshold (click) detector, reporting
fidelity of each against the exact reference of the ideal detector,
so the drop in F measures how far each detector distorts the spectrum.

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
reference = build_reference_spectrum(
    molecule, SosConfig(max_quanta=1, overflow="cap")
)
cfg = SamplerConfig(events=1_000_000, seed=2718, max_quanta=1)

detectors = {
    "ideal": DetectorModel(),
    "eta=0.8": DetectorModel(efficiency=0.8),
    "dark=0.01": DetectorModel(dark_mean=0.01),
    "threshold (click)": DetectorModel(threshold_mode=True),
    "eta=0.8 + threshold": DetectorModel(efficiency=0.8, threshold_mode=True),
}

print(f"{molecule.name}: 1e6 events, K=1 reference")
for label, det in detectors.items():
    sampled = sample_spectrum(molecule, cfg, det)
    print(f"  {label:<22} F = {fidelity(sampled, reference):.6f}")
