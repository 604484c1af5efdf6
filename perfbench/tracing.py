"""Outside-in layer tracing for the rotta benchmark.

The program under test is not edited: the traced pass replaces each layer
function at every name it is looked up under (``rotta.tta.predict`` and
``rotta.experiment.model_predict`` are two sites of one function) with a
wrapper that records a span ``[name, parent, start, end, outer]`` in memory.
``outer`` is false when a span of the same name is already open, so nested
calls of one layer (``write_json`` inside ``manifest``) are not counted
twice in its inclusive time.  Self time is a span's duration minus the
durations of its direct children.  The wrapper's own cost is measured on an
empty function (:func:`span_cost`), so a command's tracing overhead is that
cost times its number of spans.
"""

from __future__ import annotations

import collections
import os
import time


def _rotations_sampled(tracer, args, kwargs, result):
    tracer.counts["rotations.sampled"] += len(result) - 1  # row 0 is the identity


def _bytes_read(tracer, args, kwargs, result):
    tracer.counts["dataset.bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])


def _raster_work(tracer, args, kwargs, result):
    seeds = args[0] if args else kwargs["seeds"]
    tracer.counts["spheremap.raster_distance_evals"] += int(result.inside.sum()) * len(seeds)


def _svg_size(tracer, args, kwargs, result):
    tracer.counts["spheremap.svg_rects"] += result.count("<rect")
    tracer.counts["spheremap.svg_bytes"] += len(result.encode("utf-8"))


def _external_child(tracer, args, kwargs, result):
    proc = getattr(args[0], "_proc", None)
    if proc is not None:
        tracer.pids.add(proc.pid)


# (module, class or "" for the module itself, attribute, span name, hook).
# A function imported into another module under its own name is a second
# lookup site; leaving one out would hide that path's time.
SITES = (
    ("rotta.cli", "", "run_experiment", "experiment.run_experiment", None),
    ("rotta.cli", "", "run_sweep", "experiment.run_sweep", None),
    ("rotta.cli", "", "run_sphere_map", "experiment.run_sphere_map", None),
    ("rotta.experiment", "", "compute_results", "experiment.compute_results", None),
    ("rotta.experiment", "", "load_dataset", "dataset.load_dataset", _bytes_read),
    ("rotta.experiment", "", "rotation_list", "rotations.rotation_list", _rotations_sampled),
    ("rotta.tta", "", "rotation_list", "rotations.rotation_list", _rotations_sampled),
    ("rotta.experiment", "", "run_tta", "tta.run_tta", None),
    ("rotta.tta", "", "predict", "models.predict", None),
    ("rotta.experiment", "", "model_predict", "models.predict", None),
    ("rotta.models", "EquivariantOracle", "predict", "models.equivariant", None),
    ("rotta.models", "NoisyOracle", "predict", "models.noisy", None),
    ("rotta.models", "ExternalModel", "predict", "models.external", _external_child),
    ("rotta.tta", "", "rotate_input", "voigt.rotate", None),
    ("rotta.experiment", "", "rotate_input", "voigt.rotate", None),
    ("rotta.tta", "", "inverse_rotate_sym", "voigt.rotate", None),
    ("rotta.experiment", "", "inverse_rotate_sym", "voigt.rotate", None),
    ("rotta.tta", "", "aggregate_mean", "tta.reduce", None),
    ("rotta.tta", "", "pointwise_sd", "tta.reduce", None),
    ("rotta.tta", "", "von_mises_sd", "tta.reduce", None),
    ("rotta.experiment", "", "evaluate_dataset", "metrics.evaluate_dataset", None),
    ("rotta.experiment", "", "_write_run_outputs", "experiment.write", None),
    ("rotta.experiment", "_OutputWriter", "write_text", "experiment.write", None),
    ("rotta.experiment", "_OutputWriter", "manifest", "experiment.write", None),
    ("rotta.experiment", "", "project_rotations", "spheremap.project_rotations", None),
    ("rotta.experiment", "", "voronoi_rasterize", "spheremap.voronoi_rasterize", _raster_work),
    ("rotta.experiment", "", "render_svg", "spheremap.render_svg", _svg_size),
    ("rotta.experiment", "", "seeds_csv", "spheremap.seeds_csv", None),
)


class Summary:
    """Per-name call counts, inclusive and self times, and span durations."""

    def __init__(self, spans):
        child = [0.0] * len(spans)
        for _, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.spans = len(spans)
        self.calls = collections.Counter()
        self.inclusive = collections.Counter()
        self.self_time = collections.Counter()
        self.durations = collections.defaultdict(list)
        for i, (name, _, start, end, outer) in enumerate(spans):
            duration = end - start
            self.calls[name] += 1
            self.self_time[name] += duration - child[i]
            if outer:
                self.inclusive[name] += duration
            self.durations[name].append(duration)


class Tracer:
    """In-memory span recorder that patches layer functions in place."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.pids = set()
        self._stack = []
        self._open = collections.Counter()
        self._undo = []

    def wrap(self, name, fn, hook=None):
        spans, stack, open_names = self.spans, self._stack, self._open

        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, 0.0, 0.0, open_names[name] == 0]
            stack.append(len(spans))
            spans.append(record)
            open_names[name] += 1
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
                open_names[name] -= 1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules):
        """Wrap every site in :data:`SITES` that exists in ``modules`` (name -> module)."""
        for module_name, class_name, attr, name, hook in SITES:
            owner = modules[module_name]
            if class_name:
                owner = getattr(owner, class_name, None)
                original = vars(owner).get(attr) if owner is not None else None
            else:
                original = getattr(owner, attr, None)
            if original is None:
                continue
            setattr(owner, attr, self.wrap(name, original, hook))
            self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self):
        """Summary, counts and child pids since the last call; then start afresh."""
        summary = Summary(self.spans)
        counts, pids = self.counts, self.pids
        self.spans.clear()
        self.counts = collections.Counter()
        self.pids = set()
        return summary, counts, pids


def span_cost(calls=20000, repeats=5):
    """Seconds one traced call adds to an untraced one (best of ``repeats``)."""

    def empty():
        pass

    tracer = Tracer()
    traced = tracer.wrap("empty", empty)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            empty()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        best = min(best, (time.perf_counter() - start - plain) / calls)
        tracer.take()
    return best
