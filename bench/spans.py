"""Timed spans around calls into the program's layers.

A traced round replaces each public function named in LAYER_CALLS with a
timing wrapper in every module that calls it, runs, and restores the
originals.  Spans are kept in memory: name, start, end and the span that
caused it, plus counters read from the call's arguments and result.  A
layer's self time is its duration minus its child spans' durations.  The
campaign runners are called with one worker thread, so every call runs
in the thread that installed the tracer.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import NamedTuple

from qconsist import buffon, cellgeom, experiments, reconstruct, sensing


def _pocs_counts(args, kwargs, result):
    return {"cycles": result.iterations, "consistent": int(result.consistent)}


def _width_counts(args, kwargs, result):
    return {"rays": result.num_directions}


class Layer(NamedTuple):
    name: str  # span name, the prefix of its metrics
    home: object  # defining module
    attr: str  # function name
    callers: list  # modules whose global name is replaced too
    counter: object  # counters read from (args, kwargs, result), or None
    report: tuple[str, ...]  # reported metric suffixes: "s", "self_s", "calls", counters


# The benchmark calls the top-level campaign functions through their module
# attribute, so its own calls pass through the wrappers too.
LAYER_CALLS = [
    Layer("sensing.gen_ensemble", sensing, "gen_ensemble", [experiments], None, ("s", "calls")),
    Layer("sensing.sample_signal", sensing, "sample_signal", [experiments, cellgeom], None, ("s",)),
    Layer("sensing.sense", sensing, "sense", [experiments, cellgeom], None, ("s",)),
    Layer("cellgeom.build_cell", cellgeom, "build_cell", [experiments, cellgeom], None, ("s",)),
    Layer("cellgeom.estimate_width", cellgeom, "estimate_width", [experiments, cellgeom], _width_counts, ("s", "calls", "rays")),
    Layer("cellgeom.empirical_worst_case", cellgeom, "empirical_worst_case", [experiments], None, ("self_s",)),
    Layer("reconstruct.linear_baseline", reconstruct, "linear_baseline", [experiments], None, ("s", "calls")),
    Layer("reconstruct.qcs_enumerate", reconstruct, "qcs_enumerate", [reconstruct], None, ("s",)),
    Layer("reconstruct.pocs_on_support", reconstruct, "pocs_on_support", [reconstruct], _pocs_counts, ("s", "calls", "consistent", "cycles")),
    Layer("reconstruct.pocs_consistent", reconstruct, "pocs_consistent", [reconstruct], _pocs_counts, ("s", "cycles")),
    Layer("buffon.mixture_p1", buffon, "mixture_p1", [buffon], None, ("s", "calls")),
    Layer("buffon.estimate_p1", buffon, "estimate_p1", [buffon], None, ("s",)),
    Layer("experiments.decay_sweep", experiments, "decay_sweep", [experiments], None, ("self_s",)),
    Layer("experiments.proximity_violation_scan", experiments, "proximity_violation_scan", [experiments], None, ("self_s",)),
]

TIME_SUFFIXES = ("s", "self_s")
LAYER_TIMES = [f"{l.name}.{s}" for l in LAYER_CALLS for s in l.report if s in TIME_SUFFIXES]
LAYER_COUNTS = [f"{l.name}.{s}" for l in LAYER_CALLS for s in l.report if s not in TIME_SUFFIXES]


class Tracer:
    """Collects spans from wrapped calls while installed (a context manager)."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []  # id, name, start, end, parent
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []  # ids of the open spans
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        tracer = self
        calls = name + ".calls"

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            ident = tracer._next_id
            tracer._next_id += 1
            stack.append(ident)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans.append((ident, name, start, time.perf_counter(), parent))
                stack.pop()
            tracer.counts[calls] += 1
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tracer.counts[f"{name}.{key}"] += int(value)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for layer in LAYER_CALLS:
            wrapper = self._wrap(layer.name, getattr(layer.home, layer.attr), layer.counter)
            for module in {id(m): m for m in [layer.home, *layer.callers]}.values():
                self._saved.append((module, layer.attr, getattr(module, layer.attr)))
                setattr(module, layer.attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def totals(self) -> dict[str, float]:
        """Per span name: summed duration ('.s') and self time ('.self_s')."""
        child_s: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for ident, name, start, end, _ in self.spans:
            out[name + ".s"] += end - start
            out[name + ".self_s"] += end - start - child_s[ident]
        return out
