"""Span tracing of symprod's layers, installed from outside the library.

:func:`install` replaces each public function of the layer modules with a
wrapper that records one span per call: name, start, end, parent span and
op id.  A function is rebound in every symprod namespace that holds it, so
``from .geometry import classify_points`` in ``symmetric`` is traced too.
Spans stay in memory; :meth:`Tracer.write` dumps them when the run ends.

The layer of a span is the module that defines the function, with two
exceptions:

* ``symmetric.desymmetrize_batch`` and ``symmetric.desymmetrize`` form the
  ``roots`` layer (span ``roots.desymmetrize``).  They are the entry every
  caller uses; the root-finding internals in ``symprod.roots`` are not
  wrapped.
* geometry's constructors and ``validate_domain`` are the steps of
  ``build_domain`` and are not wrapped, so domain validation shows up as
  ``geometry.build_domain`` self time.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

import numpy as np

LAYER_MODULES = ("catalog", "cauchy", "cli", "divdiff", "geometry", "holder",
                 "propermap", "quadrature", "suites", "symmetric")
LAYERS = LAYER_MODULES + ("roots",)
_UNWRAPPED = {
    "geometry": {"circle_contour", "ellipse_contour", "star_contour", "disc", "ellipse",
                 "star", "annulus", "composite", "validate_domain"},
    "symmetric": {"desymmetrize_batch", "desymmetrize"},
}
_ROOT_ENTRIES = ("desymmetrize_batch", "desymmetrize")
TRANSFORMS = ("cauchy.cauchy_transform", "cauchy.norlund_transform",
              "cauchy.symmetrized_transform", "cauchy.derivative_symmetrized")

# Computed, not measured: the dense distance array of distance_to_boundary
# holds points x 2048 validation samples x contours complex128 entries.
DENSE_SAMPLES = 2048
COMPLEX_BYTES = 16


def _rows(z) -> int:
    z = np.asarray(z)
    return 1 if z.ndim <= 1 else int(np.prod(z.shape[:-1]))


def _counters(name: str, args, out) -> dict:
    """Work counts of one call, from its argument and result sizes."""
    if name == "geometry.distance_to_boundary":
        domain, w = args[0], args[1]
        points = int(np.size(w))
        return {"points": points,
                "bytes_computed": points * DENSE_SAMPLES * len(domain.contours) * COMPLEX_BYTES}
    if name == "geometry.classify_points":
        return {"points": int(np.size(args[1]))}
    if name == "roots.desymmetrize":
        return {"rows": _rows(args[0])}
    if name == "cauchy.cauchy_transform":
        return {"points": int(np.size(args[1])), "nodes": len(args[0].grid.nodes)}
    if name in ("cauchy.norlund_transform", "cauchy.symmetrized_transform"):
        return {"points": _rows(args[1]), "nodes": len(args[0].grid.nodes)}
    if name == "cauchy.derivative_symmetrized":
        return {"points": 1, "nodes": len(args[1].grid.nodes)}
    if name == "holder.estimate_exponent":
        m = len(np.asarray(args[0].values))
        return {"points": m, "pairs_computed": m * (m - 1) // 2}
    if name.startswith("suites.") and out is not None and hasattr(out, "comparisons"):
        return {"comparisons": int(out.comparisons)}
    return {}


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self, error_type: type[BaseException]):
        self.error_type = error_type
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.op: int | None = None

    def call(self, name: str, fn, args, kwargs):
        parent = self.stack[-1][0] if self.stack else None
        # frame: [span id in opening order, name, time covered by children]
        nested_same = any(frame[1] == name for frame in self.stack)
        in_transform = name in TRANSFORMS and any(f[1] in TRANSFORMS for f in self.stack)
        frame = [len(self.spans) + len(self.stack), name, 0.0]
        self.stack.append(frame)
        out, failed, refused = None, False, False
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            return out
        except BaseException as exc:
            failed = True
            refused = isinstance(exc, self.error_type)
            raise
        finally:
            end = time.perf_counter()
            self.stack.pop()
            if self.stack:
                self.stack[-1][2] += end - start
            self.spans.append((frame[0], name, parent, self.op, start, end,
                               end - start - frame[2], failed, refused,
                               not nested_same, not in_transform,
                               _counters(name, args, out)))

    def write(self, path: Path) -> None:
        keys = ("id", "name", "parent", "op", "start", "end", "self_s", "failed",
                "refused", "outermost", "outer_transform", "counters")
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s[0]):
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


def install(symprod) -> Tracer:
    """Wrap the layer functions of an imported ``symprod`` package."""
    modules = {m: importlib.import_module(f"symprod.{m}") for m in LAYER_MODULES}
    targets: dict[int, tuple[str, object]] = {}
    for mod_name, mod in modules.items():
        skip = _UNWRAPPED.get(mod_name, set())
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or attr in skip or isinstance(obj, type)
                    or not callable(obj) or getattr(obj, "__module__", None) != mod.__name__):
                continue
            targets[id(obj)] = (f"{mod_name}.{attr}", obj)
    for attr in _ROOT_ENTRIES:
        obj = getattr(modules["symmetric"], attr)
        targets[id(obj)] = ("roots.desymmetrize", obj)

    tracer = Tracer(symprod.SymprodError)
    wrapped = {key: _wrapper(tracer, name, obj) for key, (name, obj) in targets.items()}
    for ns in [symprod, *modules.values()]:
        for attr, obj in list(vars(ns).items()):
            if id(obj) in wrapped and targets[id(obj)][1] is obj:
                setattr(ns, attr, wrapped[id(obj)])
    return tracer


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def aggregate(spans, op_seconds: float, ops: int) -> dict:
    """Per-function and per-layer totals over the spans of timed ops.

    Calls and counters count only the outermost span of each name, so a
    nested ``desymmetrize`` -> ``desymmetrize_batch`` pair is one call.
    Kernel evaluations and refusals count only the outermost transform.
    """
    funcs: dict[str, dict] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    kernel_evals = refused = 0
    for (_id, name, _parent, op, _start, _end, self_s, failed, was_refused,
         outermost, outer_transform, counters) in spans:
        if op is None:
            continue
        entry = funcs.setdefault(name, {"calls": 0, "self_s": 0.0, "failed": 0, "spans": 0})
        entry["spans"] += 1
        entry["self_s"] += self_s
        layer_self[layer_of(name)] += self_s
        if outermost:
            entry["calls"] += 1
            entry["failed"] += int(failed)
            for key, value in counters.items():
                entry[key] = entry.get(key, 0) + value
        if name in TRANSFORMS and outer_transform:
            kernel_evals += counters["points"] * counters["nodes"]
            refused += int(was_refused)
    per_op = {}
    for name, entry in funcs.items():
        for key, value in entry.items():
            if key not in ("spans", "nodes"):
                per_op[f"{name}.{key}"] = value / ops
    per_op["cauchy.kernel_evals"] = kernel_evals / ops
    per_op["cauchy.refused"] = refused / ops
    for layer, seconds in layer_self.items():
        per_op[f"{layer}.self_share"] = seconds / op_seconds if op_seconds > 0 else 0.0
    return {"per_op": per_op, "functions": funcs, "layer_self_s": layer_self}
