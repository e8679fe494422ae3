"""Synthetic benchmark molecules.

These are NOT tabulated literature values; they are fixed synthetic
parameter sets whose ranges match the qualitative regimes of common
rigid polyacenes (mode energies of a few hundred to ~1600 cm^-1,
Huang-Rhys factors below ~0.5).  They exist so convergence and
performance studies are reproducible without shipping third-party
quantum-chemistry data.
"""

from __future__ import annotations

import numpy as np

from .model import Mode, Molecule

__all__ = [
    "pentacene_like_8",
    "pentacene_like_18",
    "naphthalene_like_9",
    "anthracene_like_12",
    "large_acene_like",
    "fine_acene_like",
]


def _molecule(name: str, e00: float, energies, hr, atom_count=None) -> Molecule:
    return Molecule(name, e00, "absorption", tuple(map(Mode, energies, hr)), atom_count)


def pentacene_like_8() -> Molecule:
    """8 dominant modes, all S <= 0.25 (weak-displacement regime)."""
    energies = [264, 601, 797, 997, 1180, 1340, 1409, 1540]
    hr = [0.120, 0.050, 0.090, 0.060, 0.100, 0.070, 0.250, 0.180]
    return _molecule("pentacene-like-8", 18650.0, energies, hr, atom_count=36)


def pentacene_like_18() -> Molecule:
    """The 8-mode set extended by ten weaker modes (still S <= 0.25)."""
    base = pentacene_like_8()
    extra_e = [310, 458, 523, 688, 862, 948, 1055, 1248, 1487, 1602]
    extra_s = [0.030, 0.012, 0.008, 0.020, 0.015, 0.006, 0.025, 0.010, 0.018, 0.009]
    energies = [m.energy for m in base.modes] + extra_e
    hr = [m.huang_rhys for m in base.modes] + extra_s
    return _molecule("pentacene-like-18", base.e00, energies, hr, atom_count=36)


def naphthalene_like_9() -> Molecule:
    """9 modes, max S ~ 0.33."""
    energies = [389, 512, 702, 938, 1025, 1144, 1380, 1463, 1578]
    hr = [0.080, 0.330, 0.150, 0.060, 0.110, 0.040, 0.290, 0.190, 0.070]
    return _molecule("naphthalene-like-9", 32100.0, energies, hr, atom_count=18)


def anthracene_like_12() -> Molecule:
    """12 modes, max S ~ 0.45."""
    energies = [236, 397, 524, 639, 755, 912, 1008, 1163, 1261, 1403, 1501, 1566]
    hr = [
        0.090, 0.450, 0.120, 0.070, 0.200, 0.050,
        0.160, 0.310, 0.080, 0.260, 0.140, 0.060,
    ]
    return _molecule("anthracene-like-12", 26700.0, energies, hr, atom_count=24)


def large_acene_like(n_modes: int = 66) -> Molecule:
    """A large synthetic mode set for scaling runs (default 66 modes).

    Mode energies are distinct integers in 150..1650 cm^-1 and HR
    factors are log-uniform in [1e-4, 0.45], drawn from the fixed
    seed 7 so the fixture is deterministic.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(7)))
    energies = rng.choice(np.arange(150, 1651), size=n_modes, replace=False)
    energies.sort()
    hr = np.exp(rng.uniform(np.log(1e-4), np.log(0.45), size=n_modes))
    return _molecule(f"large-acene-like-{n_modes}", 26000.0, energies, hr,
                     atom_count=(n_modes + 6) // 3 + 2)


def fine_acene_like(n_modes: int = 66) -> Molecule:
    """`large_acene_like(n_modes)` with each mode energy raised by a
    fixed-seed U(0, 1) draw and rounded to 0.001 cm^-1, as computed
    frequencies are: the mode energies share a 0.001 cm^-1 gcd, not
    1 cm^-1, so far fewer lines coincide.
    """
    m = large_acene_like(n_modes)
    u = np.random.default_rng(0).random(n_modes)
    energies = [round(e + float(x), 3) for e, x in zip(m.energies, u)]
    return _molecule(f"fine-acene-like-{n_modes}", m.e00, energies, m.huang_rhys, m.atom_count)
