"""Span tracer that times the package's layers from outside.

Each layer's public functions are replaced, for the length of a traced
iteration, by wrappers installed under the name their caller looks them
up by (``simulate.hierarchical_p_values``, ``cli.compute_weights``, ...).
A wrapper records a span (name, start, end, parent span, iteration) and
adds the counts the call's arguments or result imply. Spans stay in
memory until the run writes them out.

A span's self time is its duration minus the durations of its direct
children; a metric's time is the summed self time of its spans.
"""

from __future__ import annotations

import csv
import importlib
import os
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np


def _ingest(c, args, kwargs, result):
    c["io.rows_in"] += len(result)
    c["io.bytes_in"] += os.path.getsize(args[0])


def _written(c, args, kwargs, result):
    c["io.bytes_out"] += os.path.getsize(args[0])


def _hashed(c, args, kwargs, result):
    for key in ("inputs", "outputs"):
        c["io.bytes_hashed"] += sum(os.path.getsize(p) for p in kwargs[key].values())


def _one_decision(c, args, kwargs, result):
    c["conformal.decisions"] += 1


def _grouped_decision(c, args, kwargs, result):
    c["conformal.decisions"] += 1
    c["conformal.group_passes"] += len(args[0])


def _weighted_decision(c, args, kwargs, result):
    c["conformal.decisions"] += 1
    c["weighted_decisions"] += 1


def _batch(c, args, kwargs, result):
    c["conformal.decisions"] += np.size(result)


def _grouped_batch(c, args, kwargs, result):
    c["conformal.decisions"] += np.size(result)
    c["conformal.group_passes"] += len(args[0])


def _weighted_batch(c, args, kwargs, result):
    c["conformal.decisions"] += np.size(result)
    c["weighted_decisions"] += np.size(result)


def _kernel_terms(c, args, kwargs, result):
    model, x = args
    c["density.kernel_terms"] += np.size(x) * len(model.support_points)


def _threshold_values(c, args, kwargs, result):
    c["labeling.values"] += len(args[0])


def _mask_values(c, args, kwargs, result):
    c["labeling.values"] += np.size(args[1])


def _cells(c, args, kwargs, result):
    c["simulate.cells"] += len(result.cells)


def _cells_in(c, args, kwargs, result):
    c["evaluation.cells_in"] += len(result.cells)


# (owner, attribute, time metric, calls metric, counter). The owner is a
# module of the package, or a class in one, named as its caller reaches it.
TARGETS = (
    ("cli", "main", "cli.self_s", None, None),
    ("io", "ingest", "io.ingest_s", None, _ingest),
    ("io", "write_decisions_csv", "io.write_s", None, _written),
    ("io", "write_metrics_csv", "io.write_s", None, _written),
    ("io", "write_metrics_json", "io.write_s", None, _written),
    ("io", "write_plot_csv", "io.write_s", None, _written),
    ("io", "build_manifest", "io.manifest_s", None, _hashed),
    ("io", "write_manifest", "io.manifest_s", None, None),
    ("cli", "standard_decision", "conformal.standard_s", "conformal.standard.calls",
     _one_decision),
    ("cli", "hierarchical_decision", "conformal.hierarchical_s",
     "conformal.hierarchical.calls", _grouped_decision),
    ("cli", "weighted_conformal_decision", "conformal.weighted_s",
     "conformal.weighted.calls", _weighted_decision),
    ("simulate", "standard_p_values", "conformal.standard_s", "conformal.standard.calls",
     _batch),
    ("simulate", "hierarchical_p_values", "conformal.hierarchical_s",
     "conformal.hierarchical.calls", _grouped_batch),
    ("simulate", "weighted_p_values", "conformal.weighted_s", "conformal.weighted.calls",
     _weighted_batch),
    ("cli", "fit_kde", "density.fit_s", "density.fit.calls", None),
    ("cli", "mean_shift", "density.fit_s", "density.fit.calls", None),
    ("cli", "quantile_shift", "density.fit_s", "density.fit.calls", None),
    ("simulate", "fit_kde", "density.fit_s", "density.fit.calls", None),
    ("simulate", "mean_shift", "density.fit_s", "density.fit.calls", None),
    ("simulate", "quantile_shift", "density.fit_s", "density.fit.calls", None),
    ("density.DensityModel", "evaluate", "density.evaluate_s", "density.evaluate.calls",
     _kernel_terms),
    ("cli", "compute_weights", "density.weights_s", "density.weights.calls", None),
    ("simulate", "density_ratios", "density.weights_s", "density.weights.calls", None),
    ("simulate", "run_scenario", "simulate.self_s", None, _cells),
    ("simulate.ExperimentConfig", "validate", "simulate.validate_s", None, None),
    ("simulate", "bleu_quantile_threshold", "labeling.s", "labeling.calls",
     _threshold_values),
    ("simulate", "outlier_mask", "labeling.s", "labeling.calls", _mask_values),
    ("simulate", "aggregate", "evaluation.aggregate_s", None, _cells_in),
)

LAYERS = ("cli", "io", "conformal", "density", "simulate", "labeling", "evaluation")

# Every per-layer metric in report order: (name, unit). Times are self
# times; counts and bytes must repeat exactly for a given seed.
PER_LAYER = (
    ("cli.self_s", "s"),
    ("io.ingest_s", "s"), ("io.rows_in", "count"), ("io.bytes_in", "B"),
    ("io.write_s", "s"), ("io.bytes_out", "B"),
    ("io.manifest_s", "s"), ("io.bytes_hashed", "B"),
    ("conformal.standard_s", "s"), ("conformal.standard.calls", "count"),
    ("conformal.hierarchical_s", "s"), ("conformal.hierarchical.calls", "count"),
    ("conformal.group_passes", "count"),
    ("conformal.weighted_s", "s"), ("conformal.weighted.calls", "count"),
    ("conformal.decisions", "count"), ("conformal.decisions_per_call", "ratio"),
    ("density.fit_s", "s"), ("density.fit.calls", "count"),
    ("density.evaluate_s", "s"), ("density.evaluate.calls", "count"),
    ("density.kernel_terms", "count"), ("density.kernel_terms_per_decision", "ratio"),
    ("density.weights_s", "s"), ("density.weights.calls", "count"),
    ("simulate.self_s", "s"), ("simulate.validate_s", "s"), ("simulate.cells", "count"),
    ("labeling.s", "s"), ("labeling.calls", "count"), ("labeling.values", "count"),
    ("evaluation.aggregate_s", "s"), ("evaluation.cells_in", "count"),
    *((f"{layer}.errors", "count") for layer in LAYERS),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
)
TIME_METRICS = tuple(dict.fromkeys(t[2] for t in TARGETS))
COUNT_METRICS = tuple(name for name, unit in PER_LAYER if unit in ("count", "B"))


def ratios(counts: Counter) -> dict[str, float]:
    """Ratio metrics, each over the base named in the README."""
    calls = sum(counts[f"conformal.{rule}.calls"]
                for rule in ("standard", "hierarchical", "weighted"))
    weighted = counts["weighted_decisions"]
    return {
        "conformal.decisions_per_call": counts["conformal.decisions"] / calls if calls else 0.0,
        "density.kernel_terms_per_decision":
            counts["density.kernel_terms"] / weighted if weighted else 0.0,
    }


def _resolve(owner: str):
    module, _, cls = owner.partition(".")
    obj = importlib.import_module(f"conformal_wm.{module}")
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Wraps the package's layer boundaries and keeps spans and counts in memory.

    Wrappers are built once and switched on and off with :meth:`install`
    and :meth:`uninstall`, so untraced iterations run the original code.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.iteration = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.iteration_id = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._metric_of: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []
        for owner_name, attr, time_metric, calls_metric, counter in TARGETS:
            owner = _resolve(owner_name)
            original = vars(owner).get(attr)
            if original is None:
                # the program no longer has this entry point; its metrics read 0
                self.missing.append(f"{owner_name}.{attr}")
                continue
            wrapper = self._wrap(f"{owner_name}.{attr}", time_metric, calls_metric,
                                 counter, original)
            self._patches.append((owner, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, name, time_metric, calls_metric, counter, fn):
        nid = len(self.names)
        self.names.append(name)
        self._metric_of.append(time_metric)
        errors = f"{time_metric.split('.')[0]}.errors"
        stack = self._stack

        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.iteration.append(self.iteration_id)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[errors] += 1
                raise
            finally:
                self.end[sid] = perf_counter()
                stack.pop()
            if calls_metric:
                self.counts[calls_metric] += 1
            if counter:
                counter(self.counts, args, kwargs, result)
            return result

        return wrapper

    def self_times(self) -> dict[int, Counter]:
        """Per iteration: summed self time of each time metric."""
        duration = [e - s for s, e in zip(self.start, self.end)]
        children = [0.0] * len(duration)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                children[parent] += duration[sid]
        out: dict[int, Counter] = {}
        for sid, (nid, it) in enumerate(zip(self.name_id, self.iteration)):
            out.setdefault(it, Counter())[self._metric_of[nid]] += duration[sid] - children[sid]
        return out

    def write_spans(self, path: Path) -> None:
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start", "end", "parent", "iteration"])
            for sid in range(len(self.start)):
                writer.writerow([sid, self.names[self.name_id[sid]], repr(self.start[sid]),
                                 repr(self.end[sid]), self.parent[sid], self.iteration[sid]])
