"""Outside-in span recorder for the benchmark.

Spans are recorded by replacing a layer's public function, at the
module attribute its callers look up, with a timing wrapper for the
duration of one op.  The package source is never edited.  A span's
self time is its duration minus the time of the wrapped calls made
inside it, so the self times of one op add up to the traced part of
its wall time.

A probe whose attribute no longer exists is skipped; every metric
that needs it is then left out of the report rather than read as 0.

The recorder assumes one thread: the span stack is shared by all
wrapped calls, and the benchmark calls the sampler with workers=1.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


def _count_sampler(t: "Tracer", args: dict, result) -> None:
    cfg = args["cfg"]
    t.counts["sampling.events"] += cfg.events
    t.counts["sampling.mode_events"] += cfg.events * args["m"].n_modes
    t.counts["sampling.lines"] += len(result)


def _count_cells(t: "Tracer", args: dict, result) -> None:
    t.counts["sampling.cells"] += 1


def _count_reference(t: "Tracer", args: dict, result) -> None:
    t.counts["sos.lines"] += len(result)
    # The least mass any reference of the op captured; 1 under "cap".
    mass = result.total
    t.counts["sos.captured_mass"] = min(t.counts.get("sos.captured_mass", mass), mass)


def _count_fidelity(t: "Tracer", args: dict, result) -> None:
    t.counts["analysis.fidelity_keys"] += len(args["p"]) + len(args["q"])


def _count_broaden(t: "Tracer", args: dict, result) -> None:
    t.counts["analysis.kernel_evals"] += len(args["spec"]) * len(result)


def _count_file(t: "Tracer", args: dict, result) -> None:
    t.counts["io.bytes"] += os.path.getsize(args["path"])


def _count_exit(t: "Tracer", args: dict, result) -> None:
    if result != 0:
        t.failed["cli.main"] += 1


@dataclass(frozen=True)
class Probe:
    """One wrapped name: `module.attr` is recorded as span `span`, and
    `count(tracer, bound_arguments, result)` adds its counts."""

    module: str
    attr: str
    span: str
    count: Callable | None = None


# Top-level sampler calls, looked up by the CLI and the benchmark in
# `sampling` and by `convergence_study` in `analysis`.
SAMPLER_PROBES = (
    Probe("vibronic.sampling", "sample_spectrum", "sampling.sample_spectrum", _count_sampler),
    Probe("vibronic.analysis", "sample_spectrum", "sampling.sample_spectrum", _count_sampler),
)

ALL_PROBES = SAMPLER_PROBES + (
    Probe("vibronic.cli", "main", "cli.main", _count_exit),
    Probe("vibronic.sampling", "substream", "sampling.substream", _count_cells),
    Probe("vibronic.sampling", "poisson_draw", "sampling.poisson_draw"),
    Probe("vibronic.sos", "build_reference_spectrum", "sos.build_reference_spectrum", _count_reference),
    Probe("vibronic.analysis", "build_reference_spectrum", "sos.build_reference_spectrum", _count_reference),
    Probe("vibronic.sos", "mode_distribution", "sos.mode_distribution"),
    Probe("vibronic.analysis", "fidelity", "analysis.fidelity", _count_fidelity),
    Probe("vibronic.analysis", "broaden", "analysis.broaden", _count_broaden),
    Probe("vibronic.analysis", "normalize", "analysis.normalize"),
    Probe("vibronic.analysis", "convergence_study", "analysis.convergence_study"),
    Probe("vibronic.io", "read_spectrum", "io.read", _count_file),
    Probe("vibronic.io", "read_molecule", "io.read", _count_file),
    Probe("vibronic.io", "write_spectrum", "io.write", _count_file),
)


class Tracer:
    """Span totals, self times, call and failure counts for one op."""

    def __init__(self, probes):
        self.probes = tuple(probes)
        self.reset()

    def reset(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(int)
        self.wrapped: set[str] = set()
        self._stack: list[float] = []

    @contextmanager
    def installed(self):
        """Wrap every probe's name for the duration of the block."""
        saved = []
        try:
            for p in self.probes:
                mod = importlib.import_module(p.module)
                fn = getattr(mod, p.attr, None)
                if fn is None:
                    continue
                setattr(mod, p.attr, self._wrap(fn, p))
                saved.append((mod, p.attr, fn))
                self.wrapped.add(p.span)
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def _wrap(self, fn, probe: Probe):
        span = probe.span
        count = probe.count
        sig = inspect.signature(fn) if count is not None else None
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[span] += 1
                raise
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                self.total[span] += dt
                self.self_time[span] += dt - child
                self.calls[span] += 1
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self, bound.arguments, result)
            return result

        return wrapper

    def snapshot(self) -> dict:
        """Plain-dict copy of everything recorded since `reset`."""
        return {
            "total": dict(self.total),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "failed": dict(self.failed),
            "counts": dict(self.counts),
            "wrapped": sorted(self.wrapped),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def sampler_rate(snaps: list[dict]) -> float | None:
    """Events x modes per second of the top-level sampler calls of all
    `snaps` together: their total work over their total time."""
    if not all("sampling.sample_spectrum" in s["wrapped"] for s in snaps):
        return None
    work = sum(s["counts"].get("sampling.mode_events", 0) for s in snaps)
    busy = sum(s["total"].get("sampling.sample_spectrum", 0.0) for s in snaps)
    return _ratio(work, busy)


def _t(span):
    return lambda s: s["total"].get(span, 0.0)


def _self(span):
    return lambda s: s["self"].get(span, 0.0)


def _n(key):
    return lambda s: s["counts"].get(key, 0)


def _failed(*spans):
    return lambda s: sum(s["failed"].get(sp, 0) for sp in spans)


_SAMPLER = "sampling.sample_spectrum"
_DRAW = "sampling.poisson_draw"
_REF = "sos.build_reference_spectrum"

# Per-layer metric name -> (unit, spans it needs, value from a snapshot).
LAYER_METRICS = {
    "sampling.draw_s": ("s", (_DRAW,), _t(_DRAW)),
    "sampling.ns_per_mode_event": (
        "ns", (_DRAW, _SAMPLER),
        lambda s: 1e9 * _ratio(s["total"].get(_DRAW, 0.0), s["counts"].get("sampling.mode_events", 0)),
    ),
    "sampling.events": ("count", (_SAMPLER,), _n("sampling.events")),
    "sampling.rng_setup_s": ("s", ("sampling.substream",), _t("sampling.substream")),
    "sampling.cells": ("count", ("sampling.substream",), _n("sampling.cells")),
    "sampling.calls": ("count", (_SAMPLER,), lambda s: s["calls"].get(_SAMPLER, 0)),
    "sampling.self_s": ("s", (_SAMPLER,), _self(_SAMPLER)),
    "sampling.lines": ("count", (_SAMPLER,), _n("sampling.lines")),
    "sampling.failed": (
        "count", (_SAMPLER,), _failed(_SAMPLER, "sampling.substream", _DRAW),
    ),
    "sos.build_s": ("s", (_REF,), _t(_REF)),
    "sos.self_s": ("s", (_REF,), _self(_REF)),
    "sos.mode_dist_s": ("s", ("sos.mode_distribution",), _t("sos.mode_distribution")),
    "sos.lines": ("count", (_REF,), _n("sos.lines")),
    "sos.captured_mass": ("ratio", (_REF,), _n("sos.captured_mass")),
    "sos.failed": ("count", (_REF,), _failed(_REF, "sos.mode_distribution")),
    "analysis.fidelity_s": ("s", ("analysis.fidelity",), _t("analysis.fidelity")),
    "analysis.fidelity_calls": (
        "count", ("analysis.fidelity",), lambda s: s["calls"].get("analysis.fidelity", 0),
    ),
    "analysis.fidelity_keys": ("count", ("analysis.fidelity",), _n("analysis.fidelity_keys")),
    "analysis.broaden_s": ("s", ("analysis.broaden",), _t("analysis.broaden")),
    "analysis.kernel_evals": ("count", ("analysis.broaden",), _n("analysis.kernel_evals")),
    "analysis.ns_per_kernel_eval": (
        "ns", ("analysis.broaden",),
        lambda s: 1e9 * _ratio(s["total"].get("analysis.broaden", 0.0), s["counts"].get("analysis.kernel_evals", 0)),
    ),
    "analysis.normalize_s": ("s", ("analysis.normalize",), _t("analysis.normalize")),
    "analysis.study_s": (
        "s", ("analysis.convergence_study",), _t("analysis.convergence_study"),
    ),
    "analysis.study_self_s": (
        "s", ("analysis.convergence_study",), _self("analysis.convergence_study"),
    ),
    "analysis.failed": (
        "count", ("analysis.fidelity",),
        _failed("analysis.fidelity", "analysis.broaden", "analysis.normalize",
                "analysis.convergence_study"),
    ),
    "io.read_s": ("s", ("io.read",), _t("io.read")),
    "io.write_s": ("s", ("io.write",), _t("io.write")),
    "io.bytes": ("B", ("io.read", "io.write"), _n("io.bytes")),
    "io.failed": ("count", ("io.read", "io.write"), _failed("io.read", "io.write")),
    "cli.self_s": ("s", ("cli.main",), _self("cli.main")),
    "cli.failed": ("count", ("cli.main",), _failed("cli.main")),
}

# Counts that must repeat bit for bit when an op is replayed with its
# seed; the benchmark compares them on every traced run.
EXACT_COUNTS = (
    "sampling.cells",
    "sampling.events",
    "sampling.lines",
    "sos.lines",
    "analysis.kernel_evals",
    "io.bytes",
)


def count_changes(first: dict, again: dict) -> dict:
    """EXACT_COUNTS that differ between two snapshots of one op seed,
    as name -> (first, again)."""
    out = {}
    for k in EXACT_COUNTS:
        a, b = first["counts"].get(k), again["counts"].get(k)
        if a != b:
            out[k] = (a, b)
    return out


def layer_metrics(snap: dict) -> dict[str, float]:
    """Per-layer values of one traced op; names whose probes were
    not installed are left out."""
    wrapped = set(snap["wrapped"])
    return {
        name: fn(snap)
        for name, (_, needs, fn) in LAYER_METRICS.items()
        if wrapped.issuperset(needs)
    }
