"""Command-line interface.

Subcommands: hr, sos, sample, fidelity, broaden, converge.
Exit codes: 0 success, 2 parse/validation error, 3 SOS work budget
exceeded, 4 grid violation.

Every CSV header is the written result's provenance
(`io.provenance_lines`).  `sample` and `converge` draw, so they accept
--seed; when omitted, a process-entropy seed is drawn (or taken from
VIBRONIC_SEED) and recorded in the provenance so any run can be
replayed.  `sos` is deterministic.  `broaden` carries its source's
provenance into its output; `converge` scores against the capped
reference at --max-quanta.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import analysis, io, sampling, sos
from .model import ValidationError, hr_from_gradient, prune_modes, validate_molecule

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_GRID = 4


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("VIBRONIC_SEED")
    if env is not None:
        return int(env)
    return int(np.random.SeedSequence().entropy) & (2**64 - 1)


def _load_molecule(path, prune_s: float | None):
    m = io.read_molecule(path)
    validate_molecule(m)
    if prune_s is not None:
        m = prune_modes(m, prune_s)
    return m


def _detector(args) -> sampling.DetectorModel:
    return sampling.DetectorModel(
        efficiency=args.efficiency, dark_mean=args.dark, threshold_mode=args.threshold
    )


def cmd_hr(args) -> int:
    print(hr_from_gradient(args.omega, args.gradient))
    return EXIT_OK


def cmd_sos(args) -> int:
    m = _load_molecule(args.molecule, args.prune_s)
    cfg = sos.SosConfig(
        max_quanta=args.max_quanta,
        fc_prune=args.fc_prune,
        overflow=args.overflow,
    )
    count = sos.state_count(m.n_modes, cfg.max_quanta)
    t0 = time.perf_counter()
    ref = sos.build_reference_spectrum(m, cfg)
    spec = analysis.normalize(ref, args.normalize, e00=m.e00)
    elapsed = time.perf_counter() - t0
    io.write_spectrum(spec, args.out)
    print(f"states: {count}")
    print(f"raw intensity captured: {ref.total:.12g}")
    print(f"wall time: {elapsed:.3f} s")
    return EXIT_OK


def cmd_sample(args) -> int:
    m = _load_molecule(args.molecule, args.prune_s)
    cfg = sampling.SamplerConfig(
        events=args.events,
        seed=args.seed_value,
        max_quanta=args.max_quanta,
        chunk_size=args.chunk_size,
    )
    t0 = time.perf_counter()
    sampled = sampling.sample_spectrum(m, cfg, _detector(args), workers=args.workers)
    elapsed = time.perf_counter() - t0
    io.write_spectrum(analysis.normalize(sampled, "unit_l1"), args.out)
    throughput = cfg.events * max(m.n_modes, 1) / max(elapsed, 1e-9)
    print(f"events: {cfg.events}")
    print(f"throughput: {throughput:.4g} events*modes/s")
    return EXIT_OK


def cmd_fidelity(args) -> int:
    a = io.read_spectrum(args.spectrum_a)
    b = io.read_spectrum(args.spectrum_b)
    print(f"{analysis.fidelity(a, b, norm=args.norm):.6f}")
    return EXIT_OK


def cmd_broaden(args) -> int:
    spec = io.read_spectrum(args.spectrum)
    kernel = analysis.BroadeningKernel(shape=args.shape, fwhm=args.fwhm)
    if args.grid is not None:
        try:
            start, stop, step = (float(p) for p in args.grid.split(":"))
        except ValueError:
            raise analysis.GridError(
                f"grid must be start:stop:step, got {args.grid!r}"
            ) from None
        grid = analysis.EnergyGrid(start, stop, step)
    else:
        grid = analysis.EnergyGrid.around(spec.energies, kernel.fwhm)
    out = analysis.broaden(spec, kernel, grid)
    io.write_spectrum(out, args.out)
    if args.svg:
        io.write_svg(out, args.svg)
    return EXIT_OK


def cmd_converge(args) -> int:
    m = _load_molecule(args.molecule, args.prune_s)
    event_counts = [int(p) for p in args.events_list.split(",")]
    cfg = sampling.SamplerConfig(
        events=max(event_counts),
        seed=args.seed_value,
        max_quanta=args.max_quanta,
    )
    sos_cfg = sos.SosConfig(max_quanta=args.max_quanta, overflow="cap")
    report = analysis.convergence_study(
        m, cfg, _detector(args), event_counts, args.runs, sos_cfg
    )
    lines = io.provenance_lines({**report.provenance, "runs": report.runs})
    lines.append("events,mean_fidelity,std_fidelity")
    for p, mu, sd in zip(report.event_counts, report.mean_fidelity, report.std_fidelity):
        lines.append(f"{p},{float(mu)!r},{float(sd)!r}")
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vibronic",
        description="Vibronic (Franck-Condon) spectra: exact sum-over-states and linear-scaling sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("molecule", help="molecule JSON file")
        p.add_argument("--prune-s", type=float, default=None,
                       help="drop modes with Huang-Rhys factor <= this")

    def add_draw_flags(p):
        p.add_argument("--seed", type=int, default=None,
                       help="reproducibility seed (default: process entropy)")
        p.add_argument("--efficiency", type=float, default=1.0, help="photon survival in (0, 1]")
        p.add_argument("--dark", type=float, default=0.0, help="mean dark counts per gate")
        p.add_argument("--threshold", action="store_true", help="click detector: clip at 1")

    p = sub.add_parser("hr", help="Huang-Rhys factor from omega and gradient")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--gradient", type=float, required=True)
    p.set_defaults(func=cmd_hr)

    p = sub.add_parser("sos", help="exact sum-over-states reference spectrum")
    add_common(p)
    p.add_argument("--max-quanta", type=int, default=1)
    p.add_argument("--fc-prune", type=float, default=None)
    p.add_argument("--normalize", default="raw", choices=analysis.NORMALIZATION_MODES)
    p.add_argument("--overflow", default="truncate", choices=("truncate", "cap"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sos)

    p = sub.add_parser("sample", help="linear-scaling sampled spectrum")
    add_common(p)
    p.add_argument("--events", type=int, required=True)
    p.add_argument("--max-quanta", type=int, default=None)
    add_draw_flags(p)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--chunk-size", type=int, default=sampling.DEFAULT_CHUNK_SIZE)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("fidelity", help="overlap of two spectrum files")
    p.add_argument("spectrum_a")
    p.add_argument("spectrum_b")
    p.add_argument("--norm", default="l2", choices=("l2", "bhattacharyya"))
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("broaden", help="convolve sticks with a line-shape kernel")
    p.add_argument("spectrum")
    p.add_argument("--shape", default="lorentzian", choices=("lorentzian", "gaussian"))
    p.add_argument("--fwhm", type=float, required=True)
    p.add_argument("--grid", default=None, help="start:stop:step in cm^-1")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_broaden)

    p = sub.add_parser("converge", help="fidelity vs event count study")
    add_common(p)
    p.add_argument("--events-list", required=True, help="comma-separated event counts")
    p.add_argument("--runs", type=int, default=30)
    p.add_argument("--max-quanta", type=int, default=1)
    add_draw_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_converge)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "seed" in args:
            args.seed_value = _resolve_seed(args.seed)
        return args.func(args)
    except sos.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except analysis.GridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GRID
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
