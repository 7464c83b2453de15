"""Outside-in tracer: spans around the public functions of every package module.

The tracer finds each public function a submodule of the package defines
(``function.__module__`` names the module; that module is the span's
layer) plus the methods listed in ``EXTRA_METHODS``, and rebinds the
function in every namespace of the package that holds it, so calls
through ``from .risk import check_weights`` aliases are seen too. Nothing
in the package's source changes; ``uninstall`` puts the originals back.

Spans are kept in memory, one tuple per call: id, parent id (-1 at the
top), function index, audit id, start and end in ``perf_counter``
seconds. A span's self time is its duration minus the time its direct
children cover; calls run on one thread, so children do not overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
from time import perf_counter

import numpy as np

# methods wrapped in addition to module-level public functions
EXTRA_METHODS = ("dataset.Dataset.x_matrix",)

SPAN_DTYPE = np.dtype([
    ("id", "i8"), ("parent", "i8"), ("fn", "i4"), ("audit", "i4"),
    ("start", "f8"), ("end", "f8"),
])


def _package_modules(package: str) -> list:
    root = importlib.import_module(package)
    modules = [root]
    for info in pkgutil.iter_modules(root.__path__):
        modules.append(importlib.import_module(f"{package}.{info.name}"))
    return modules


class Tracer:
    """Wraps a package's public functions and records a span per call."""

    def __init__(self, package: str = "badgd"):
        self.package = package
        self.modules = _package_modules(package)
        self.names: list[str] = []  # "layer.qualname" per function index
        self._targets: list[tuple] = []  # (owner, attr, original, wrapper)
        self._spans: list[tuple] = []
        self._stack = [-1]
        self._next_id = 0
        self.audit = -1
        self.finished: list[np.ndarray] = []
        self._discover()

    def _layer_of(self, module_name: str) -> str:
        return module_name[len(self.package) + 1:]

    def _discover(self) -> None:
        prefix = self.package + "."
        found = []
        for module in self.modules:
            if not module.__name__.startswith(prefix):
                continue
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    found.append((self._layer_of(module.__name__), attr, obj))
        for dotted in EXTRA_METHODS:
            layer, cls_name, meth = dotted.split(".")
            module = sys.modules.get(prefix + layer)
            cls = getattr(module, cls_name, None)
            fn = vars(cls).get(meth) if isinstance(cls, type) else None
            if inspect.isfunction(fn):
                found.append((layer, f"{cls_name}.{meth}", fn))
        for index, (layer, qualname, fn) in enumerate(found):
            self.names.append(f"{layer}.{qualname}")
            wrapper = self._wrap(fn, index)
            if "." in qualname:
                cls = getattr(sys.modules[prefix + layer], qualname.split(".")[0])
                self._targets.append((cls, qualname.split(".")[1], fn, wrapper))
                continue
            for module in self.modules:
                for attr, obj in vars(module).items():
                    if obj is fn:
                        self._targets.append((module, attr, fn, wrapper))

    def _wrap(self, fn, index: int):
        spans = self._spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, index, self.audit, start, end))

        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._targets:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._targets:
            setattr(owner, attr, original)

    def begin(self, audit: int) -> None:
        """Start attributing spans to ``audit``; ids restart at 0 per audit."""
        self.audit = audit
        self._next_id = 0
        self._stack[:] = [-1]
        self._spans.clear()

    def end(self) -> np.ndarray:
        """Close the current audit and return its spans as an array."""
        spans = np.array(self._spans, dtype=SPAN_DTYPE)
        spans.sort(order="id")
        self._spans.clear()
        self.finished.append(spans)
        return spans

    def save(self, path) -> None:
        """Write every finished audit's spans and the function names."""
        spans = np.concatenate(self.finished) if self.finished else np.empty(0, SPAN_DTYPE)
        np.savez(path, spans=spans, names=np.array(self.names))


def self_times(spans: np.ndarray) -> np.ndarray:
    """Duration of each span minus the time its direct children cover.

    ``spans`` is one audit's spans sorted by id, ids 0..len-1.
    """
    duration = spans["end"] - spans["start"]
    nested = spans["parent"] >= 0
    child_time = np.bincount(
        spans["parent"][nested], weights=duration[nested], minlength=len(spans)
    )
    return duration - child_time


def summarize(spans: np.ndarray, names: list[str]) -> dict:
    """Per-layer and per-function totals of one audit's spans.

    A layer's ``busy_s`` sums the spans that enter it from outside (the
    parent is in another layer, or there is none); its ``self_s`` sums
    the self times of all its spans.
    """
    layers = np.array([name.split(".", 1)[0] for name in names])
    span_layer = layers[spans["fn"]]
    duration = spans["end"] - spans["start"]
    own = self_times(spans)
    has_parent = spans["parent"] >= 0
    parent_index = np.maximum(spans["parent"], 0)
    parent_layer = np.where(has_parent, span_layer[parent_index], "")
    entering = span_layer != parent_layer
    out_layers = {}
    for layer in sorted(set(layers.tolist())):
        mask = span_layer == layer
        out_layers[layer] = {
            "calls": int(mask.sum()),
            "busy_s": float(duration[mask & entering].sum()),
            "self_s": float(own[mask].sum()),
        }
    # a function's total counts only calls not nested in a call of itself
    parent_fn = np.where(has_parent, spans["fn"][parent_index], -1)
    outer = spans["fn"] != parent_fn
    calls = np.bincount(spans["fn"], minlength=len(names))
    total = np.bincount(spans["fn"][outer], weights=duration[outer], minlength=len(names))
    functions = {
        name: {"calls": int(calls[i]), "total_s": float(total[i])}
        for i, name in enumerate(names)
        if calls[i]
    }
    return {"layers": out_layers, "functions": functions}
