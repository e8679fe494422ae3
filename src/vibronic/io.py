"""Molecule JSON and spectrum CSV file formats.

Molecule files are strict JSON: unknown keys are rejected so typos
surface immediately.  Spectrum files are UTF-8 CSV with LF endings,
a `#`-prefixed provenance block (the result's provenance dict, one
`# key: value` line per entry), the exact header
`energy_cm1,intensity`, and shortest-round-trip float formatting so
emit -> parse -> emit is byte-identical; `write_table` writes every CSV
from its columns, formatting and writing them in fixed blocks of rows.
`read_spectrum` parses all data rows in one pass with exactly
`float()`'s syntax; only when that pass fails (a refused file, or blank
rows, which are skipped) are the rows read one by one, to name the
first bad line.
"""

from __future__ import annotations

import json
import math
from contextlib import suppress
from itertools import chain, repeat
from operator import contains
from numbers import Real
from pathlib import Path

import numpy as np

from .model import LineSpectrum, Mode, Molecule, check, finite, hr_from_gradient

__all__ = [
    "MoleculeFileError",
    "SpectrumFileError",
    "read_molecule",
    "molecule_to_dict",
    "write_molecule",
    "read_spectrum",
    "provenance_lines",
    "write_table",
    "write_spectrum",
    "write_svg",
]

SPECTRUM_HEADER = "energy_cm1,intensity"
_BLOCK_ROWS = 2**14  # rows `write_table` formats per write

_TOP_KEYS = {"name", "e00_cm1", "transition", "atom_count", "modes"}
_MODE_KEYS = {"energy_cm1", "huang_rhys", "omega", "gradient"}


class MoleculeFileError(ValueError):
    """A molecule JSON document is malformed."""


class SpectrumFileError(ValueError):
    """A spectrum CSV file is malformed."""


def read_molecule(path) -> Molecule:
    """Parse a molecule JSON file.

    Each mode supplies either `huang_rhys` directly, or `omega` plus
    `gradient` (Huang-Rhys is then computed as G^2 / (2 omega) in the
    caller's consistent unit system).  Supplying both forms on one
    mode is an error.  Numeric fields must be finite JSON numbers (not
    bools, strings, NaN or Infinity, nor numbers past float range),
    refused by `model.check` under their JSON key, and `atom_count`, if
    present, an integer, not null.  The molecule's own invariants, the
    integer `atom_count` among them, are checked by its constructor.
    Every refusal is a MoleculeFileError naming the file, and the mode
    where it lies.
    """
    label = path  # what a refusal names: the file, then the mode being read
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise ValueError("top level must be a JSON object")
        if unknown := set(doc) - _TOP_KEYS:
            raise ValueError(f"unknown top-level keys: {sorted(unknown)}")
        for key in ("name", "e00_cm1", "transition", "modes"):
            if key not in doc:
                raise ValueError(f"missing required key {key!r}")
        if not isinstance(doc["modes"], list):
            raise ValueError("modes must be a list")
        if "atom_count" in doc and doc["atom_count"] is None:  # Molecule reads None as no count
            raise ValueError("atom_count must be an integer, got None")

        modes = []
        for i, md in enumerate(doc["modes"], 1):
            label = f"{path}: mode {i}"
            if not isinstance(md, dict):
                raise ValueError("must be an object")
            if unknown := set(md) - _MODE_KEYS:
                raise ValueError(f"unknown keys: {sorted(unknown)}")
            if "energy_cm1" not in md:
                raise ValueError("missing energy_cm1")
            if "huang_rhys" in md and ("omega" in md or "gradient" in md):
                raise ValueError("supply either huang_rhys or omega+gradient, not both")
            if "huang_rhys" in md:
                s = check("huang_rhys", md["huang_rhys"], Real, "finite", finite)
            elif "omega" in md and "gradient" in md:  # it names omega and gradient as the file does
                s = hr_from_gradient(md["omega"], md["gradient"])
            else:
                raise ValueError("need huang_rhys, or both omega and gradient")
            modes.append(Mode(check("energy_cm1", md["energy_cm1"], Real, "finite", finite), s))

        label = path
        e00 = check("e00_cm1", doc["e00_cm1"], Real, "finite", finite)
        return Molecule(doc["name"], e00, doc["transition"], tuple(modes), doc.get("atom_count"))
    except json.JSONDecodeError as exc:
        raise MoleculeFileError(f"{path}: not valid JSON: {exc}") from exc
    except ValueError as exc:
        raise MoleculeFileError(f"{label}: {exc}") from None


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


def _python(value):
    """A numpy scalar as its Python number, int as int and float as float."""
    return value.item() if isinstance(value, np.generic) else value


def write_table(prov: dict, header: str, columns, path) -> None:
    """Emit a CSV: `prov`'s header lines, the column `header`, then the
    rows of `columns`, each value by shortest round-trip `repr`,
    comma-joined; UTF-8, LF.  Rows are formatted and written
    `_BLOCK_ROWS` at a time, a numpy column's as the Python numbers of
    `.tolist()` and a numpy scalar in a list as its `.item()`, so the
    text held at once stays one block's whatever the table's length.
    Columns of unequal length are refused (ValueError) before the file
    opens."""
    lines = provenance_lines(prov)
    lines.append(header)
    columns = tuple(columns)
    lengths = [len(column) for column in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns must have equal length, got lengths {lengths}")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
        for start in range(0, max(lengths, default=0), _BLOCK_ROWS):
            block = (column[start:start + _BLOCK_ROWS] for column in columns)
            block = (part.tolist() if isinstance(part, np.ndarray) else map(_python, part)
                     for part in block)
            f.write("\n".join(map(",".join, zip(*(map(repr, part) for part in block)))) + "\n")


def write_spectrum(spec: LineSpectrum, path) -> None:
    """Emit a spectrum CSV (`write_table`) whose header is the spectrum's
    provenance, so a spectrum read from a file is written back byte for
    byte.  A spectrum with no lines is refused before the file is
    opened, as `read_spectrum` would refuse the file."""
    if len(spec) == 0:
        raise ValueError("spectrum has no lines; refusing to write a file with no data rows")
    write_table(spec.provenance, SPECTRUM_HEADER, (spec.energies, spec.intensities), path)


def read_spectrum(path) -> LineSpectrum:
    """Parse a spectrum CSV; provenance comments are kept verbatim under
    provenance["comments"] so re-emission is byte-identical.  A refusal
    (a `LineSpectrum` invariant's too) names the file, a bad row its line."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    n = next((i for i, line in enumerate(lines) if not line.startswith("#")), len(lines))
    if n == len(lines):
        raise SpectrumFileError(f"{path}: missing header line")
    if lines[n] != SPECTRUM_HEADER:
        raise SpectrumFileError(
            f"{path}:{n + 1}: expected header {SPECTRUM_HEADER!r}, got {lines[n]!r}"
        )
    values = _data_rows(path, lines[n + 1:], n + 2)
    if not values.size:
        raise SpectrumFileError(f"{path}: spectrum has no data rows")
    try:
        return LineSpectrum(*values.T, provenance={"comments": lines[:n]})
    except ValueError as exc:
        raise SpectrumFileError(f"{path}: {exc}") from None


def _data_rows(path, rows: list[str], first: int) -> np.ndarray:
    """The data rows, line `first` on, as an (n, 2) array: in one pass
    when every row is two finite `float()` tokens around one comma."""
    if ",".join(rows).count(",") == 2 * len(rows) - 1 and all(map(contains, rows, repeat(","))):
        with suppress(ValueError):
            tokens = chain.from_iterable(map(str.split, rows, repeat(",")))
            values = np.fromiter(map(float, tokens), float, 2 * len(rows))
            if np.isfinite(values).all():
                return values.reshape(-1, 2)
    parsed: list[tuple[float, float]] = []
    for lineno, line in enumerate(rows, first):
        if line.startswith("#"):
            raise SpectrumFileError(f"{path}:{lineno}: comment after header")
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise SpectrumFileError(f"{path}:{lineno}: expected two columns")
        try:
            parsed.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise SpectrumFileError(f"{path}:{lineno}: {exc}") from exc
        if not all(map(math.isfinite, parsed[-1])):
            raise SpectrumFileError(f"{path}:{lineno}: values must be finite")
    return np.array(parsed).reshape(-1, 2)


def write_svg(spec: LineSpectrum, path) -> None:
    """Minimal single-curve SVG line plot (800 x 500 viewport, linear axes)."""
    x, y = spec.energies, spec.intensities
    width, height, pad = 800, 500, 40
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
