"""Run one ``milnorq`` CLI call with its layers' public functions timed.

Usage: python3 perfbench/tracer.py <milnorq arguments...>

The program is not changed: after importing ``milnorq.cli`` this script
replaces every binding of each function in TRACED with a wrapper that
records a span.  ``from .backend import poly_mul`` and similar imports copy
a function into other modules, so each loaded ``milnorq`` module is searched
for the original object.  Stdout is the program's own; the trace goes to
stderr as the last line, ``perfbench-trace <json>``, holding for each traced
function its call count and self time (span minus the child spans inside
it), plus kernel and solver work counts and the Dickson cache counters.
"""

from __future__ import annotations

import functools
import json
import sys
import time

TRACE_PREFIX = "perfbench-trace "

# module -> traced attributes; "Class.method" names a method.
TRACED = {
    "cli": ["main"],
    "exprio": ["parse_class", "render_class", "class_to_json"],
    "algebra": ["ExtClass.__mul__", "substitute_linear"],
    "backend": ["poly_mul"],
    "steenrod": ["milnor_q", "reduced_power", "apply_word"],
    "invariants": [
        "dickson_polynomial",
        "dickson_classes",
        "moore_class",
        "group_generators",
        "is_invariant",
        "membership_dickson",
        "orbit_size",
        "invariant_dimension",
        "predicted_dimension",
        "ring_generators",
    ],
    "linalg": ["rref", "solve", "kernel_basis"],
    "chern": [
        "total_chern",
        "divisibility_profile",
        "power_of_regular",
        "image_generator",
        "obstruction_table",
    ],
    "torus": ["e8_adjoint_check"],
}


def label(module, attr):
    """Metric prefix of a traced function: ExtClass.__mul__ -> ExtClass_mul."""
    return f"{module}.{attr.replace('.__', '_').strip('_')}"


class Spans:
    """Call counts, total and self time per name, from properly nested spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # [start, time covered by child spans]
        self.stats = {}

    def enter(self):
        self.stack.append([self.clock(), 0.0])

    def exit(self, name):
        start, children = self.stack.pop()
        span = self.clock() - start
        if self.stack:
            self.stack[-1][1] += span
        s = self.stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["total_s"] += span
        s["self_s"] += span - children

    def count(self, name, key, amount):
        s = self.stats[name]
        s[key] = s.get(key, 0) + amount


def poly_mul_work(spans, name, args, result):
    a, b = args[0], args[1]
    spans.count(name, "pairs", len(a) * len(b))
    spans.count(name, "terms_out", len(result))


def rref_work(spans, name, args, result):
    """Cells updated: rows*cols per pivot, as rref rewrites the whole matrix."""
    reduced, pivots = result
    rows, cols = reduced.shape
    spans.count(name, "cells", rows * cols * len(pivots))


WORK = {"backend.poly_mul": poly_mul_work, "linalg.rref": rref_work}


def wrap(spans, name, fn):
    work = WORK.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        spans.enter()
        try:
            result = fn(*args, **kwargs)
        finally:
            spans.exit(name)
        if work is not None:
            work(spans, name, args, result)
        return result

    return traced


def install(spans, modules):
    """Wrap every binding of the TRACED functions; returns missing names."""
    missing = []
    for module, attrs in TRACED.items():
        mod = modules.get(f"milnorq.{module}")
        for attr in attrs:
            name = label(module, attr)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                missing.append(name)
                continue
            wrapper = wrap(spans, name, original)
            if owner_name:
                setattr(owner, method, wrapper)
                continue
            for loaded, m in list(modules.items()):
                if loaded == "milnorq" or loaded.startswith("milnorq."):
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)
    return missing


def cache_counts(modules):
    fn = getattr(modules.get("milnorq.invariants"), "dickson_classes", None)
    info = getattr(getattr(fn, "__wrapped__", fn), "cache_info", None)
    if info is None:
        return {}
    info = info()
    return {
        "invariants.dickson_classes.cache_hits": info.hits,
        "invariants.dickson_classes.cache_misses": info.misses,
    }


def main(argv):
    t0 = time.perf_counter()
    import milnorq.cli

    import_s = time.perf_counter() - t0
    spans = Spans()
    missing = install(spans, sys.modules)
    code = milnorq.cli.main(argv)
    sys.stdout.flush()
    trace = {"cli.import_s": import_s, "missing": missing}
    trace.update(cache_counts(sys.modules))
    for name, s in spans.stats.items():
        for key, value in s.items():
            trace[f"{name}.{key}"] = value
    print(TRACE_PREFIX + json.dumps(trace), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
