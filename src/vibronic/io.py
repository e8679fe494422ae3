"""Molecule JSON and spectrum CSV file formats.

Molecule files are strict JSON: unknown keys are rejected so typos
surface immediately.  Spectrum files are UTF-8 CSV with LF endings,
a `#`-prefixed provenance block (the result's provenance dict, one
`# key: value` line per entry), the exact header
`energy_cm1,intensity`, and shortest-round-trip float formatting so
emit -> parse -> emit is byte-identical.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .model import Mode, Molecule, hr_from_gradient
from .sos import LineSpectrum

__all__ = [
    "MoleculeFileError",
    "SpectrumFileError",
    "read_molecule",
    "molecule_to_dict",
    "write_molecule",
    "read_spectrum",
    "provenance_lines",
    "write_spectrum",
    "write_svg",
]

SPECTRUM_HEADER = "energy_cm1,intensity"

_TOP_KEYS = {"name", "e00_cm1", "transition", "atom_count", "modes"}
_MODE_KEYS = {"energy_cm1", "huang_rhys", "omega", "gradient"}


class MoleculeFileError(ValueError):
    """A molecule JSON document is malformed."""


class SpectrumFileError(ValueError):
    """A spectrum CSV file is malformed."""


def _number(value, label: str) -> float:
    """A JSON number as a float; bools, strings and the rest are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MoleculeFileError(f"{label} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise MoleculeFileError(f"{label} is out of float range") from None


def read_molecule(path) -> Molecule:
    """Parse a molecule JSON file.

    Each mode supplies either `huang_rhys` directly, or `omega` plus
    `gradient` (Huang-Rhys is then computed as G^2 / (2 omega) in the
    caller's consistent unit system).  Supplying both forms on one
    mode is an error.  Numeric fields must be JSON numbers (not bools
    or strings), and `atom_count` an integer.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MoleculeFileError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MoleculeFileError(f"{path}: top level must be a JSON object")

    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise MoleculeFileError(f"{path}: unknown top-level keys: {sorted(unknown)}")
    for key in ("name", "e00_cm1", "transition", "modes"):
        if key not in doc:
            raise MoleculeFileError(f"{path}: missing required key {key!r}")
    if doc["transition"] not in ("absorption", "emission"):
        raise MoleculeFileError(
            f"{path}: transition must be 'absorption' or 'emission', got {doc['transition']!r}"
        )
    if not isinstance(doc["modes"], list):
        raise MoleculeFileError(f"{path}: modes must be a list")
    atom_count = doc.get("atom_count")
    if "atom_count" in doc and (isinstance(atom_count, bool) or not isinstance(atom_count, int)):
        raise MoleculeFileError(f"{path}: atom_count must be an integer, got {atom_count!r}")

    modes = []
    for i, md in enumerate(doc["modes"]):
        label = f"{path}: mode {i + 1}"
        if not isinstance(md, dict):
            raise MoleculeFileError(f"{label}: must be an object")
        unknown = set(md) - _MODE_KEYS
        if unknown:
            raise MoleculeFileError(f"{label}: unknown keys: {sorted(unknown)}")
        if "energy_cm1" not in md:
            raise MoleculeFileError(f"{label}: missing energy_cm1")
        has_s = "huang_rhys" in md
        has_grad = "omega" in md or "gradient" in md
        if has_s and has_grad:
            raise MoleculeFileError(
                f"{label}: supply either huang_rhys or omega+gradient, not both"
            )
        if has_s:
            s = _number(md["huang_rhys"], f"{label}: huang_rhys")
        elif "omega" in md and "gradient" in md:
            omega = _number(md["omega"], f"{label}: omega")
            gradient = _number(md["gradient"], f"{label}: gradient")
            try:
                s = hr_from_gradient(omega, gradient)
            except ValueError as exc:
                raise MoleculeFileError(f"{label}: {exc}") from exc
        else:
            raise MoleculeFileError(
                f"{label}: need huang_rhys, or both omega and gradient"
            )
        energy = _number(md["energy_cm1"], f"{label}: energy_cm1")
        modes.append(Mode(index=i + 1, energy=energy, huang_rhys=s))

    return Molecule(
        name=str(doc["name"]),
        e00=_number(doc["e00_cm1"], f"{path}: e00_cm1"),
        transition=doc["transition"],
        modes=tuple(modes),
        atom_count=atom_count,
    )


def molecule_to_dict(m: Molecule) -> dict:
    doc = {
        "name": m.name,
        "e00_cm1": m.e00,
        "transition": m.transition,
        "modes": [
            {"energy_cm1": md.energy, "huang_rhys": md.huang_rhys} for md in m.modes
        ],
    }
    if m.atom_count is not None:
        doc["atom_count"] = m.atom_count
    return doc


def write_molecule(m: Molecule, path) -> None:
    Path(path).write_text(
        json.dumps(molecule_to_dict(m), indent=2) + "\n", encoding="utf-8"
    )


def provenance_lines(prov: dict) -> list[str]:
    """The `#` header lines of a provenance dict.

    A source file's lines (`prov["comments"]`, as `read_spectrum`
    stores them) come first and verbatim, then `# key: value` for
    every other key in order.  A value with a line break is refused:
    the file could not be read back.
    """
    lines = list(prov.get("comments", []))
    lines += [f"# {k}: {v}" for k, v in prov.items() if k != "comments"]
    for line in lines:
        if line.splitlines() != [line]:
            raise ValueError(f"provenance line {line!r} is not a single line")
    return lines


def write_spectrum(spec: LineSpectrum, path) -> None:
    """Emit a spectrum CSV whose header is the spectrum's provenance
    (`provenance_lines`), so a spectrum read from a file is written
    back byte for byte."""
    lines = provenance_lines(spec.provenance)
    lines.append(SPECTRUM_HEADER)
    for e, i in zip(spec.energies.tolist(), spec.intensities.tolist()):
        lines.append(f"{e!r},{i!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_spectrum(path) -> LineSpectrum:
    """Parse a spectrum CSV; provenance comments are preserved verbatim
    under provenance["comments"] so re-emission is byte-identical.
    Non-finite values (inf, nan) are refused."""
    text = Path(path).read_text(encoding="utf-8")
    comments: list[str] = []
    rows: list[tuple[float, float]] = []
    saw_header = False
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.startswith("#"):
            if saw_header:
                raise SpectrumFileError(f"{path}:{lineno}: comment after header")
            comments.append(line)
            continue
        if not saw_header:
            if line != SPECTRUM_HEADER:
                raise SpectrumFileError(
                    f"{path}:{lineno}: expected header {SPECTRUM_HEADER!r}, got {line!r}"
                )
            saw_header = True
            continue
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise SpectrumFileError(f"{path}:{lineno}: expected two columns")
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise SpectrumFileError(f"{path}:{lineno}: {exc}") from exc
        if not all(map(math.isfinite, rows[-1])):
            raise SpectrumFileError(f"{path}:{lineno}: values must be finite")
    if not saw_header:
        raise SpectrumFileError(f"{path}: missing header line")
    if not rows:
        raise SpectrumFileError(f"{path}: spectrum has no data rows")
    e, i = np.array(rows).T
    if e.size > 1 and not np.all(np.diff(e) > 0):
        raise SpectrumFileError(f"{path}: energies must be strictly increasing")
    return LineSpectrum(e, i, provenance={"comments": comments})


def write_svg(spec: LineSpectrum, path, width: int = 800, height: int = 500) -> None:
    """Minimal single-curve SVG line plot (fixed viewport, linear axes)."""
    x = spec.energies
    y = spec.intensities
    pad = 40
    x0, x1 = float(x.min()), float(x.max())
    y1 = float(y.max()) if y.max() > 0 else 1.0
    xs = pad + (x - x0) / max(x1 - x0, 1e-300) * (width - 2 * pad)
    ys = height - pad - y / y1 * (height - 2 * pad)
    pts = " ".join(f"{px:.2f},{py:.2f}" for px, py in zip(xs, ys))
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1"/>\n'
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" '
        f'stroke="black"/>\n'
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>\n'
        "</svg>\n"
    )
    Path(path).write_text(svg, encoding="utf-8")
