"""In-memory spans for the traced run, and the per-layer metrics from them.

A span records (name, start, end, parent, run).  Names are
``<layer>.<public function>``, where the layer is the ltft module the call
goes into; spans are recorded by the benchmark around its calls into the
layers, never inside the program.  Spans stay in memory until the run ends.
This module imports only the standard library, so the setup-time worker
can load it before it starts its clock.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

# Per-layer time metric -> the leaf spans it sums.
TIME_METRICS = {
    "core.analyze_s": ("core.analyze",),
    "core.synthesize_s": ("core.synthesize",),
    "core.analytic_s": ("core.to_analytic", "core.from_analytic"),
    "lds.generate_s": ("lds.generate_unit_points", "lds.scale_to_box"),
    "frame.diagonal_s": ("frame.frame_diagonal",),
    "frame.inverse_s": ("frame.apply_inverse_frame",),
    "processing.phase_rule_s": ("processing.vocoder_phase_rule",),
    "wavio.read_s": ("wavio.wav_read",),
    "wavio.write_s": ("wavio.wav_write",),
}
ALLOC_SPANS = ("core.analyze", "core.synthesize")


class Tracer:
    """Collects spans; with ``track_alloc`` also tracemalloc peaks."""

    def __init__(self, track_alloc: bool = False) -> None:
        self.spans = []
        self.run = 0
        self.track_alloc = track_alloc
        self.alloc_peak = defaultdict(int)
        self._stack = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span named ``name``."""
        tracking = self.track_alloc and name in ALLOC_SPANS
        if tracking:
            tracemalloc.start()
        try:
            with self.span(name):
                return fn(*args, **kwargs)
        finally:
            if tracking:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.alloc_peak[name] = max(self.alloc_peak[name], peak)


def _per_run(spans):
    runs = defaultdict(list)
    for index, s in enumerate(spans):
        runs[s["run"]].append((index, s))
    return runs


def leaf_seconds(spans) -> dict:
    """Run id -> summed duration of spans with no children."""
    parents = {s["parent"] for s in spans}
    out = defaultdict(float)
    for index, s in enumerate(spans):
        if index not in parents:
            out[s["run"]] += s["end"] - s["start"]
    return out


def name_seconds(spans, names) -> float:
    """Median over runs of the summed duration of spans named ``names``."""
    totals = []
    for items in _per_run(spans).values():
        totals.append(
            sum(s["end"] - s["start"] for _, s in items if s["name"] in names)
        )
    return statistics.median(totals) if totals else 0.0


def layer_self_seconds(spans) -> dict:
    """Mean per run of each layer's self time (duration minus children)."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(float)
    for index, s in enumerate(spans):
        out[s["name"].split(".")[0]] += s["end"] - s["start"] - child[index]
    runs = max(len(_per_run(spans)), 1)
    return {layer: total / runs for layer, total in sorted(out.items())}


def layer_metrics(timed, walls, untraced, probe, counters, setup, alloc_peak):
    """Every per-layer metric from the spans and counters of a traced run.

    ``timed`` are the spans of the traced pipeline runs, ``walls[run]`` the
    wall seconds of each and ``untraced`` the wall seconds of the untraced
    end-to-end runs made alongside; the overhead compares fastest runs,
    which were taken close together in time.  ``probe`` spans time layers
    that the workload's own pipeline does not call.
    """
    out = {}
    for metric, names in TIME_METRICS.items():
        present = any(s["name"] in names for s in timed)
        out[metric] = name_seconds(timed if present else probe, names)
    atoms = counters["atom_samples"]
    out["core.analyze_ns_per_atom_sample"] = out["core.analyze_s"] / atoms * 1e9
    out["core.synthesize_ns_per_atom_sample"] = out["core.synthesize_s"] / atoms * 1e9
    out["core.analyze_peak_alloc_mb"] = alloc_peak["core.analyze"] / 2**20
    out["core.synthesize_peak_alloc_mb"] = alloc_peak["core.synthesize"] / 2**20
    out["core.atom_samples"] = atoms
    out["core.atom_samples_over_predicted"] = atoms / counters["predicted"]
    out["core.on_grid_frac"] = counters["on_grid"] / counters["computed"]
    out["core.window_setup_s"] = setup["window_s"]
    out["cli.import_s"] = setup["import_s"]
    out["lds.points_per_s"] = counters["points"] / out["lds.generate_s"]
    out["frame.diagonal_calls"] = counters["diagonal_calls"]
    for key in ("floor_dropped_energy_frac", "h_kept_min", "h_kept_max"):
        out["frame." + key] = counters[key]
    out["wavio.bytes"] = counters["wav_bytes"]
    leaves = leaf_seconds(timed)
    out["trace.unaccounted_s"] = statistics.median(
        wall - leaves[run] for run, wall in enumerate(walls)
    )
    out["trace.leaf_coverage_frac"] = statistics.median(
        leaves[run] / wall for run, wall in enumerate(walls)
    )
    out["trace.overhead_frac"] = min(walls) / min(untraced) - 1.0
    return out
