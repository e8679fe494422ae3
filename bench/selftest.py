"""Self-test of the benchmark at tiny sizes, run from the repository root:

    python3 bench/selftest.py

Proves that every oracle passes on a correct op and counts a failure
on a broken one, that the exact counts repeat for a fixed seed and
change with it, that a probe whose name is gone leaves its metrics
out, and that BENCHMARK.json names the metrics `run.py` reports.
Exits 1 if any check does not hold.  Takes about ten seconds.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run

run.import_package()

from spans import ALL_PROBES, LAYER_METRICS, SAMPLER_PROBES, Probe, Tracer, count_changes, layer_metrics  # noqa: E402
from workloads import BigRun, Pipeline, Study  # noqa: E402

from vibronic import sos  # noqa: E402

RESULTS: list[bool] = []

# Twenty modes keep the broadened area inside the 1% oracle: with fewer,
# the 0-0 line at the grid edge holds enough mass for its clipped wing
# to matter.
TINY_MODES = 20


def expect(label: str, ok: bool, detail: str = "") -> None:
    RESULTS.append(ok)
    print(f"PASS {label}" if ok else f"FAIL {label} {detail}".rstrip(), flush=True)


def failures_of(wl, seed: int = 1) -> list[str]:
    return run.run_op(wl, seed, Tracer(SAMPLER_PROBES), False)["failures"]


def perturbed(m):
    """`m` with its strongest mode's Huang-Rhys factor raised by half."""
    top = max(m.modes, key=lambda md: md.huang_rhys)
    return replace(m, modes=tuple(replace(md, huang_rhys=1.5 * md.huang_rhys) if md is top else md
                                  for md in m.modes))


def check_bigrun(workdir: Path) -> None:
    wl = BigRun(events=10**6, warmup_events=10**3)
    wl.setup(workdir)
    got = failures_of(wl)
    expect("bigrun oracle passes a correct op", not got, "; ".join(got))
    wl.reference = sos.build_reference_spectrum(perturbed(wl.molecule),
                                                sos.SosConfig(max_quanta=1, overflow="cap"))
    expect("bigrun oracle fails against a perturbed-molecule reference", bool(failures_of(wl)))


def check_pipeline(workdir: Path) -> None:
    wl = Pipeline(n_modes=TINY_MODES, events=10**5, warm=False)
    wl.setup(workdir)
    got = failures_of(wl)
    expect("pipeline oracle passes a correct op", not got, "; ".join(got))

    real = wl.molecule
    wl.molecule = perturbed(real)  # the library reference now disagrees with the file
    got = failures_of(wl)
    expect("pipeline oracle fails against a perturbed-molecule reference",
           any("fidelity" in f for f in got))
    wl.molecule = real

    wl.mol_path.write_text("{}\n")
    got = failures_of(wl)
    expect("pipeline oracle fails when the CLI rejects its input", bool(got))
    wl.setup(workdir)

    narrow = Pipeline(n_modes=TINY_MODES, events=10**5, warm=False,
                      broaden_args=("--grid", "26000:27000:1.5"))
    narrow.setup(workdir)
    got = failures_of(narrow)
    expect("pipeline oracle fails on a clipped broadening grid",
           any("area" in f for f in got))


def check_study(workdir: Path) -> None:
    wl = Study(event_counts=(10**3,), runs=3, detector_events=10**5, warm=False)
    wl.setup(workdir)
    got = failures_of(wl)
    expect("study oracle passes a correct op", not got, "; ".join(got))

    ideal = sos.build_reference_spectrum(wl.molecule, sos.SosConfig(max_quanta=1, overflow="cap"))
    wl.detector_refs = {name: ideal for name in wl.detector_refs}
    got = failures_of(wl)
    expect("study oracle fails when detector runs meet the ideal reference",
           any("loss detector" in f for f in got))

    short = Study(event_counts=(30,), runs=3, detector_events=10**5, warm=False)
    short.setup(workdir)
    got = failures_of(short)
    expect("study oracle fails on an unconverged study", any("study mean" in f for f in got))


def check_counts(workdir: Path) -> None:
    wl = Pipeline(n_modes=TINY_MODES, events=10**5, warm=False)
    wl.setup(workdir)
    full = Tracer(ALL_PROBES)
    snaps = []
    for seed in (3, 3, 4):
        run.run_op(wl, seed, full, True)
        snaps.append(full.snapshot())
    same = count_changes(snaps[0], snaps[1])
    expect("exact counts repeat for a fixed seed", not same, str(same))
    expect("exact counts change with the seed", bool(count_changes(snaps[0], snaps[2])))
    expect("every layer the pipeline touches is traced",
           {"cli.main", "io.read", "io.write", "analysis.broaden", "analysis.fidelity",
            "analysis.normalize", "sos.build_reference_spectrum",
            "sampling.sample_spectrum"} <= set(snaps[0]["calls"]), str(snaps[0]["calls"]))

    gone = [Probe(p.module, "no_such_name", p.span) if p.attr == "substream" else p
            for p in ALL_PROBES]
    tracer = Tracer(gone)
    run.run_op(wl, 3, tracer, True)
    m = layer_metrics(tracer.snapshot())
    expect("a missing name leaves its metrics out",
           "sampling.cells" not in m and "sampling.rng_setup_s" not in m
           and "sampling.draw_s" in m)


def check_manifest() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {**run.TRACE_METRICS, **{k: v[0] for k, v in LAYER_METRICS.items()}}
    expect("BENCHMARK.json end_to_end matches run.py", e2e == run.END_TO_END,
           f"{e2e} vs {run.END_TO_END}")
    expect("BENCHMARK.json per_layer matches run.py", layers == emitted,
           str(set(layers.items()) ^ set(emitted.items())))
    expect("BENCHMARK.json workloads match run.py",
           [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES))


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR))
    try:
        check_manifest()
        check_bigrun(workdir)
        check_pipeline(workdir)
        check_study(workdir)
        check_counts(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{sum(RESULTS)}/{len(RESULTS)} checks passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
