"""Per-layer spans and counts, recorded from outside the program.

The tracer replaces chosen module-level functions of the rodd modules with
wrappers by assigning module attributes.  A function that another module
imported by name (``from .linalg import svd``) is replaced in that module's
namespace too, because the importer calls its own binding.  Each wrapped
call records a span (name, start, end, parent) and, where the layer has one,
a count of the work it did.  A layer's time is the self time of its
functions: span duration minus the part covered by traced child spans, so
layer times add up instead of nesting.  Functions that are not traced run
inside their caller's span and count towards the caller.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from collections import defaultdict

# (defining module, function) -> layer the function's self time goes to.
LAYERS = {
    ("rodd.linalg", "svd"): "linalg.svd",
    ("rodd.linalg", "sym_eig"): "linalg.sym_eig",
    ("rodd.theory", "solve_joint"): "theory.solve",
    ("rodd.theory", "joint_loss_and_grad"): "theory.loss",
    ("rodd.theory", "build_adjacency"): "theory.adjacency",
    ("rodd.encoder", "_body_forward"): "encoder.body_forward",
    ("rodd.encoder", "_body_backward"): "encoder.body_backward",
    ("rodd.encoder", "_head_forward"): "encoder.head_forward",
    ("rodd.encoder", "_head_backward"): "encoder.head_backward",
    ("rodd.encoder", "train"): "encoder.train",
    ("rodd.contrastive", "pretrain"): "contrastive.pretrain",
    ("rodd.contrastive", "spectral_contrastive_loss"): "contrastive.loss",
    ("rodd.contrastive", "batch_adjacency"): "contrastive.adjacency",
    ("rodd.contrastive", "augment_batch"): "contrastive.augment",
    ("rodd.ood", "fit_subspaces"): "ood.fit",
    ("rodd.ood", "uncertainty_scores"): "ood.uncertainty",
    ("rodd.ood", "mc_detect"): "ood.mc_detect",
    ("rodd.corruptions", "corrupt_dataset"): "corruptions.corrupt",
    ("rodd.corruptions", "apply_corruption"): "corruptions.corrupt",
    ("rodd.metrics", "evaluate_split"): "metrics.evaluate",
    ("rodd.data", "read_features"): "data.io",
    ("rodd.data", "write_features"): "data.io",
    ("rodd.encoder", "save_model"): "data.io",
    ("rodd.encoder", "load_model"): "data.io",
}

MODULES = (
    "cli", "contrastive", "corruptions", "data", "encoder",
    "linalg", "metrics", "ood", "theory",
)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _rows(args, kwargs, result):
    return len(args[1])


# (defining module, function) -> (count name, work done by one call).
COUNTS = {
    ("rodd.linalg", "svd"): ("linalg.svd_calls", lambda a, k, r: 1),
    ("rodd.linalg", "sym_eig"): ("linalg.sym_eig_calls", lambda a, k, r: 1),
    ("rodd.theory", "joint_loss_and_grad"): ("theory.loss_evals", lambda a, k, r: 1),
    ("rodd.theory", "solve_joint"): ("theory.iterations", lambda a, k, r: len(r.loss_trace) - 1),
    ("rodd.encoder", "_body_forward"): ("encoder.body_forward_rows", _rows),
    ("rodd.contrastive", "augment_batch"): ("contrastive.augment_rows", lambda a, k, r: len(a[0])),
    ("rodd.corruptions", "apply_corruption"): ("corruptions.samples", lambda a, k, r: 1),
    ("rodd.ood", "mc_detect"): ("ood.mc_draws", lambda a, k, r: k.get("k_draws", 50)),
    ("rodd.data", "read_features"): ("data.bytes", _file_bytes),
    ("rodd.data", "write_features"): ("data.bytes", _file_bytes),
    ("rodd.encoder", "save_model"): ("data.bytes", _file_bytes),
    ("rodd.encoder", "load_model"): ("data.bytes", _file_bytes),
}

LAYER_NAMES = list(dict.fromkeys(LAYERS.values()))
COUNT_NAMES = list(dict.fromkeys(name for name, _ in COUNTS.values()))


class Tracer:
    """Holds the spans, self times and counts of the calls made while installed."""

    def __init__(self):
        self._ids: dict[str, int] = {}  # span name -> index in the written name list
        self.spans: list[list] = []  # [name index, start, end, parent span index]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span index, child seconds]
        self._restore: list[tuple] = []

    def reset(self) -> None:
        self.spans.clear()
        self.self_s.clear()
        self.counts.clear()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name; its self time goes to that name."""
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [index, 0.0]
        self.spans.append([self._ids.setdefault(name, len(self._ids)), 0.0, 0.0, parent])
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index][1:3] = start, end
            self.self_s[name] += (end - start) - frame[1]
            if self._stack:
                self._stack[-1][1] += end - start

    def _wrap(self, fn, layer, count):
        def traced(*args, **kwargs):
            result = self.span(layer, fn, *args, **kwargs)
            if count is not None:
                self.counts[count[0]] += count[1](args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every traced function in every module that binds it."""
        import importlib

        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"rodd.{short}")
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj):
                    continue
                key = (obj.__module__, obj.__name__)
                if key not in LAYERS:
                    continue
                if key not in wrappers:
                    wrappers[key] = self._wrap(obj, LAYERS[key], COUNTS.get(key))
                self._restore.append((module, attr, obj))
                setattr(module, attr, wrappers[key])
        missing = set(LAYERS) - set(wrappers)
        if missing:
            self.uninstall()
            raise RuntimeError(f"traced functions not found: {sorted(missing)}")

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def write(self, path) -> None:
        """Write the recorded spans; times are seconds from the first span."""
        origin = min((s[1] for s in self.spans), default=0.0)
        spans = [[n, round(a - origin, 9), round(b - origin, 9), p] for n, a, b, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(self._ids), "fields": ["name", "start", "end", "parent"],
                       "spans": spans}, fh, separators=(",", ":"))
