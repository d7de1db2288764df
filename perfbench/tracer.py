"""Span tracing of phfiber's layers, installed from outside the package.

`Tracer.install` wraps every public function of each layer module, and every
public method of the classes the module defines, and rebinds the wrapper in
every `phfiber` namespace that binds the original. Modules import each
other's names with `from .x import y`, so patching only the defining module
would miss most calls. A name the package no longer has reads as zero calls.

Each call records a span (name, parent span, start, end) in flat arrays, and
the arrays are reduced to per-name totals after the pass. Self time is a
span's duration minus the durations of its direct children. A generator
function's span covers only the creation of the generator; the work of
iterating it lands in the consumer's self time.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from array import array
from collections import Counter

PACKAGE = "phfiber"
LAYERS = (
    "simplicial",
    "persistence",
    "strata",
    "barcodes",
    "fiber",
    "category",
    "monodromy",
    "structure",
    "io",
    "linalg",
)

# Counts read off return values at the layer boundary: name -> result -> {counter: n}.
RESULT_COUNTERS = {
    "strata.enumerate_filter_strata": lambda r: {"strata.count": len(r)},
    "fiber.fiber_complex": lambda r: {
        "fiber.cells": len(r.cells),
        "fiber.face_pairs": len(r.face_relation),
    },
    "monodromy.monodromy_map": lambda r: {
        "monodromy.cells_mapped": len(r.cell_map),
        "monodromy.cells_collapsed": len(r.collapsed_cells),
    },
    "category.enumerate_morphism_classes": lambda r: {"category.classes": len(r)},
    "io.dumps": lambda r: {"io.out_bytes": len(r.encode())},
}

# (child, ancestor): calls of child made inside a call of ancestor, for yields.
NESTED = (
    ("strata.barcode_of_stratum", "fiber.fiber_complex"),
    ("barcodes.map_bars_raw", "category.enumerate_morphism_classes"),
)


class Tracer:
    """Spans of the layers' calls, timed with `clock` (perf_counter by default)."""

    def __init__(self, layers=LAYERS, clock=time.perf_counter) -> None:
        self.layers = tuple(layers)
        self.clock = clock
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()

    def install(self) -> None:
        """Wrap the layers' public functions and methods in every namespace."""
        replaced = {}
        for layer in self.layers:
            modname = f"{PACKAGE}.{layer}"
            try:
                module = importlib.import_module(modname)
            except ModuleNotFoundError as exc:
                if exc.name != modname:
                    raise
                continue
            for name, value in list(vars(module).items()):
                if name.startswith("_") or getattr(value, "__module__", None) != modname:
                    continue
                if isinstance(value, types.FunctionType):
                    replaced[value] = self._wrap(value, f"{layer}.{name}")
                elif isinstance(value, type):
                    for mname, method in list(vars(value).items()):
                        if not mname.startswith("_") and isinstance(method, types.FunctionType):
                            setattr(value, mname, self._wrap(method, f"{layer}.{name}.{mname}"))
        for modname, module in list(sys.modules.items()):
            if module is None or modname.split(".")[0] != PACKAGE:
                continue
            for name, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in replaced:
                    setattr(module, name, replaced[value])

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        hook = RESULT_COUNTERS.get(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, counters, clock = self.stack, self.counters, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                counters.update(hook(result))
            return result

        return traced

    def summary(self, wall_s: float) -> dict:
        """Per-name calls and self time, counters, yields and the wall split.

        wall_s is the traced pass's own wall time; the part of it outside
        every top-level span is `trace.unattributed_s`.
        """
        n = len(self.span_start)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child = array("d", bytes(8 * n))
        top = 0.0
        for i in range(n):
            d = ends[i] - starts[i]
            p = parents[i]
            if p < 0:
                top += d
            else:
                child[p] += d
        calls = Counter()
        self_s = Counter()
        negative = 0
        for i in range(n):
            nid = names[i]
            own = ends[i] - starts[i] - child[i]
            calls[nid] += 1
            self_s[nid] += own
            negative += own < -1e-9

        ids = {name: k for k, name in enumerate(self.names)}
        nested = Counter()
        for child_name, anc_name in NESTED:
            c_id, a_id = ids.get(child_name, -2), ids.get(anc_name, -2)
            inside = bytearray(n)
            for i in range(n):
                p = parents[i]
                if p >= 0 and (names[p] == a_id or inside[p]):
                    inside[i] = 1
                    if names[i] == c_id:
                        nested[child_name, anc_name] += 1

        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
        for layer in self.layers:
            out[f"{layer}.self_s"] = sum(
                self_s[nid]
                for nid, name in enumerate(self.names)
                if name.split(".")[0] == layer
            )
        out.update(self.counters)
        out["fiber.recheck_yield"] = _ratio(
            self.counters["fiber.cells"],
            nested["strata.barcode_of_stratum", "fiber.fiber_complex"],
        )
        out["category.class_yield"] = _ratio(
            self.counters["category.classes"],
            nested["barcodes.map_bars_raw", "category.enumerate_morphism_classes"],
        )
        out["trace.spans"] = n
        out["trace.unattributed_s"] = wall_s - top
        out["trace.self_sum_s"] = sum(self_s.values())
        out["trace.negative_self_spans"] = negative
        return out


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the workload makes no such calls."""
    return num / den if den else 0.0
