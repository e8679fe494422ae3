"""Benchmark of the vibronic package, run from the repository root:

    python3 bench/run.py --workload p8-bigrun --seed 1 --seconds 40 --trace 0

Imports the package from `src/` of this checkout, sets the workload up,
then runs ops with fresh seeds derived from `--seed` until `--seconds`
are spent.  Every op is checked against an exact oracle; a failure is
counted, never fatal.

`--trace 0` reports the end-to-end metrics, measured without span
probes (only the top-level sampler calls are timed).  Between its ops
it also takes the set-up samples behind `setup_s`.  `--trace 1`
runs each op seed twice, once with every span probe and once without,
in alternating order, and reports per-layer metrics, the tracing
overhead, and whether the exact counts repeat when the first traced
op is replayed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A fuller record,
with provenance and every op, goes to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path
from statistics import median

from spans import (
    ALL_PROBES,
    LAYER_METRICS,
    SAMPLER_PROBES,
    Tracer,
    count_changes,
    layer_metrics,
    sampler_rate,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("p8-bigrun", "a66-pipeline", "p8-study")

# `setup_s` is the median import time plus the median set-up time over
# this many samples.  The first is the run's own import and set-up; each
# other imports the package in a fresh interpreter, since one process
# imports it only once, and sets a fresh workload object up.
SETUP_SAMPLES = 12

# Metric name -> unit.  `--trace 0` reports END_TO_END; `--trace 1`
# reports spans.LAYER_METRICS plus TRACE_METRICS.
END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "mode_events_per_s": "1/s",
    "peak_rss_mb": "MB",
}
TRACE_METRICS = {
    "trace.op_p50_s": "s",
    "trace.coverage": "ratio",
    "trace_overhead": "ratio",
}


def import_package() -> float:
    """Import vibronic from this checkout; return the seconds it took."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import vibronic
    import vibronic.cli  # noqa: F401  (pulls in every layer)

    elapsed = time.perf_counter() - t0
    origin = Path(vibronic.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"vibronic imported from {origin}, not from {SRC}")
    return elapsed


def fresh_import_s() -> float:
    """Seconds to import vibronic in a fresh interpreter."""
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); t0 = time.perf_counter(); "
            "import vibronic.cli; print(time.perf_counter() - t0)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    return float(done.stdout)


def git_commit() -> str | None:
    """HEAD of the checkout, when it is a git work tree of its own."""
    if not (ROOT / ".git").exists():  # not the HEAD of an enclosing repository
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "vibronic").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, wl) -> dict:
    import numpy
    import vibronic

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "vibronic": vibronic.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": wl.name,
        "params": wl.params(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_op(wl, seed: int, tracer, traced: bool) -> dict:
    """One op under `tracer`, then its oracle; failures are recorded."""
    tracer.reset()
    rec = {"seed": seed, "traced": traced, "failures": []}
    t0 = time.perf_counter()
    try:
        with tracer.installed():
            try:
                out = wl.op(seed)
            finally:
                rec["wall_s"] = time.perf_counter() - t0
        rec["facts"], rec["failures"] = wl.check(out)
    except Exception:
        rec["failures"].append(traceback.format_exc())
    rec.setdefault("wall_s", time.perf_counter() - t0)
    rec["snapshot"] = tracer.snapshot()
    return rec


def setup_workload(name: str, workdir: Path):
    """A fresh workload object, set up; and the seconds that took."""
    from workloads import WORKLOADS

    t0 = time.perf_counter()
    wl = WORKLOADS[name]()
    wl.setup(workdir)
    return wl, time.perf_counter() - t0


def run_untraced(args, wl, light, workdir, import_times, setup_times) -> tuple[list, dict]:
    from workloads import derive_seed

    def sample_setup() -> None:
        import_times.append(fresh_import_s())
        setup_times.append(setup_workload(args.workload, workdir)[1])

    start = time.perf_counter()
    deadline = start + args.seconds
    records = []
    while True:
        records.append(run_op(wl, derive_seed(args.seed, len(records)), light, False))
        # Take the set-up samples between ops, spread over the window,
        # so that they meet the same load on the machine as the ops.
        share = (time.perf_counter() - start) / args.seconds
        while len(setup_times) < min(SETUP_SAMPLES, 1 + int(share * SETUP_SAMPLES)):
            sample_setup()
        est = median(r["wall_s"] for r in records)
        if time.perf_counter() + est > deadline:
            break
    while len(setup_times) < SETUP_SAMPLES:
        sample_setup()
    metrics = {
        "setup_s": median(import_times) + median(setup_times),
        "op_p50_s": median(r["wall_s"] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # A throughput: all ops' sampler work over all their sampler time.
    # Steadier than a median of per-op rates when one op holds a single
    # short sampler call.
    rate = sampler_rate([r["snapshot"] for r in records])
    if rate is not None:
        metrics["mode_events_per_s"] = rate
    return records, metrics


def run_traced(args, wl, light, full) -> tuple[list, dict]:
    from workloads import derive_seed

    deadline = time.perf_counter() + args.seconds
    records = []
    i = 0
    while True:
        seed = derive_seed(args.seed, i)
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            records.append(run_op(wl, seed, full if traced else light, traced))
        i += 1
        est = median(r["wall_s"] for r in records)
        # Leave room for the replay below as well as the next pair.
        if time.perf_counter() + 3 * est > deadline:
            break
    first = next(r for r in records if r["traced"])
    replay = run_op(wl, first["seed"], full, True)
    replay["replay"] = True
    changed = count_changes(first["snapshot"], replay["snapshot"])
    if changed:
        replay["failures"].append(f"exact counts changed on replay: {changed}")
    records.append(replay)

    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    per_op = [layer_metrics(r["snapshot"]) for r in traced]
    metrics = {
        name: median(m[name] for m in per_op)
        for name in LAYER_METRICS
        if all(name in m for m in per_op)
    }
    traced_p50 = median(r["wall_s"] for r in traced)
    metrics["trace.op_p50_s"] = traced_p50
    # Share of the op's wall time spent inside some wrapped call.
    metrics["trace.coverage"] = median(
        sum(r["snapshot"]["self"].values()) / r["wall_s"] for r in traced)
    metrics["trace_overhead"] = traced_p50 / median(r["wall_s"] for r in untraced) - 1.0
    return records, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # One single-threaded process: keep BLAS from starting worker threads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        import_times = [import_package()]
    except ImportError as exc:
        print(f"error: cannot import vibronic from {SRC}: {exc}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        wl, setup_time = setup_workload(args.workload, workdir)
        setup_times = [setup_time]
        prov = provenance(args, wl)
        print("provenance " + json.dumps(prov), flush=True)

        light = Tracer(SAMPLER_PROBES)
        if args.trace:
            records, metrics = run_traced(args, wl, light, Tracer(ALL_PROBES))
        else:
            records, metrics = run_untraced(args, wl, light, workdir, import_times, setup_times)
        prov["import_s"] = import_times
        prov["setup_s"] = setup_times
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for i, r in enumerate(records):
        status = "ok" if not r["failures"] else "FAILED: " + " | ".join(r["failures"])
        kind = "replay" if r.get("replay") else ("traced" if r["traced"] else "untraced")
        print(f"op {i} {kind} seed={r['seed']} wall={r['wall_s']:.4f}s {status}",
              file=sys.stderr if r["failures"] else sys.stdout)

    units = {**END_TO_END, **TRACE_METRICS, **{k: v[0] for k, v in LAYER_METRICS.items()}}
    failed = sum(1 for r in records if r["failures"])
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in sorted(metrics.items())},
    }
    prov["ops"] = len(records)
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(
        {"provenance": prov, "result": result, "ops": records}, indent=1, default=repr))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
