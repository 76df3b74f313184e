"""Span tracing at the public boundaries of the arcring modules.

Every public function is wrapped in the module that defines it and in every
module that binds it through ``from ... import``, so each call passes through
exactly one wrapper, whichever name the caller used.  A span records name,
start, end and parent; its self time is its duration minus the time covered
by its child spans.  Spans are kept in memory and written out at the end.

Calls into the hottest modules (``exterior``, ``matchings``: hundreds of
thousands of calls per run) are aggregated into per-name counts and self
time instead of stored spans.  Classes are never wrapped, since that would
break ``isinstance``.
"""

import inspect
import time
from array import array
from collections import Counter

MODULES = ("cli", "matchings", "exterior", "functors", "arc_rings", "centers",
           "springer", "associator", "zlinalg")
HOT_MODULES = ("exterior", "matchings")


def _defining_module(obj):
    """Short arcring module name that defines a wrapped-able function."""
    if inspect.isclass(obj) or not callable(obj):
        return None
    mod = getattr(obj, "__module__", None) or ""
    if not mod.startswith("arcring."):
        return None
    return mod.split(".", 1)[1]


def bindings(modules):
    """(short module name, module, attribute, function, qualified name) of
    every public arcring function bound in `modules`, a dict of short name
    -> imported module: once where it is defined and once per
    ``from ... import`` binding of it."""
    for short, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            home = _defining_module(obj)
            if home is not None:
                yield short, module, attr, obj, f"{home}.{obj.__name__}"


def restore(patched):
    for module, attr, obj in reversed(patched):
        setattr(module, attr, obj)
    patched.clear()


def _cells(matrix):
    return len(matrix) * (len(matrix[0]) if matrix else 0)


class Tracer:
    """Owns the wrappers, the span store and the counters of one run."""

    def __init__(self):
        self.names = []
        self._index = {}
        self.calls = []
        self.self_time = []
        self.raised = Counter()      # (name, exception class) -> count
        self.counters = Counter()    # named counts taken at the boundaries
        self.max_cells = Counter()
        self._resolution_keys = set()
        # stored spans, one entry per span in each array
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # child time of every open span; the root sentinel absorbs the rest
        self._child_time = [0.0]
        self._open = [-1]
        self._patched = []

    def _name_id(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_time.append(0.0)
        return self._index[name]

    # -- wrappers ---------------------------------------------------------

    def _hot_wrapper(self, fn, idx):
        calls, self_time, child_time = self.calls, self.self_time, \
            self._child_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                calls[idx] += 1
                self_time[idx] += dur - child_time.pop()
                child_time[-1] += dur
        return wrapper

    def _span_wrapper(self, fn, idx, hook):
        calls, self_time, child_time = self.calls, self.self_time, \
            self._child_time
        opened, raised = self._open, self.raised
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        name = self.names[idx]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(*args, **kwargs)
            sid = len(names)
            names.append(idx)
            parents.append(opened[-1])
            opened.append(sid)
            child_time.append(0.0)
            t0 = clock()
            starts.append(t0)
            ends.append(t0)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                raised[name, type(exc).__name__] += 1
                raise
            finally:
                t1 = clock()
                ends[sid] = t1
                dur = t1 - t0
                opened.pop()
                calls[idx] += 1
                self_time[idx] += dur - child_time.pop()
                child_time[-1] += dur
        return wrapper

    # -- boundary counters ------------------------------------------------

    def _hooks(self):
        counters, max_cells = self.counters, self.max_cells

        def shape(name):
            def hook(matrix, *args, **kwargs):
                max_cells[name] = max(max_cells[name], _cells(matrix))
            return hook

        def constraint_rows(matrix, *args, **kwargs):
            counters["centers.constraint_rows"] += len(matrix)

        return {
            "zlinalg.column_hnf": shape("zlinalg.column_hnf"),
            "zlinalg.smith_normal_form": shape("zlinalg.smith_normal_form"),
            ("centers", "zlinalg.kernel_basis_Z"): constraint_rows,
        }

    def _count_resolutions(self, fn):
        """`multiply` resolves each distinct monomial pair of one call once;
        count those resolutions and the keys that are new to the run."""
        counters, seen = self.counters, self._resolution_keys

        def wrapper(rule, c, b, a, colored_x, colored_y, theory, *rest):
            counters["arc_rings.resolutions"] += 1
            seen.add((rule.name, theory, c.word, b.word, a.word,
                      colored_x, colored_y))
            return fn(rule, c, b, a, colored_x, colored_y, theory, *rest)
        return wrapper

    # -- install / uninstall ----------------------------------------------

    def install(self, modules):
        """Wrap every public arcring function bound in `modules`, a dict of
        short name -> imported module."""
        hooks = self._hooks()
        for short, module, attr, obj, name in bindings(modules):
            idx = self._name_id(name)
            if name.split(".", 1)[0] in HOT_MODULES:
                wrapper = self._hot_wrapper(obj, idx)
            else:
                hook = hooks.get((short, name), hooks.get(name))
                wrapper = self._span_wrapper(obj, idx, hook)
            self._patched.append((module, attr, obj))
            setattr(module, attr, wrapper)
        arc_rings = modules["arc_rings"]
        original = arc_rings._resolve_monomials
        self._patched.append((arc_rings, "_resolve_monomials", original))
        arc_rings._resolve_monomials = self._count_resolutions(original)

    def uninstall(self):
        restore(self._patched)

    # -- results ----------------------------------------------------------

    def stats(self):
        """Per-name calls and self time, the boundary counters, and the
        derived per-module and resolution figures."""
        out = {"calls": dict(zip(self.names, self.calls)),
               "self_s": dict(zip(self.names, self.self_time)),
               "raised": {f"{n}:{e}": c for (n, e), c in self.raised.items()},
               "max_cells": dict(self.max_cells),
               "counters": dict(self.counters)}
        out["counters"]["arc_rings.resolutions_distinct"] = \
            len(self._resolution_keys)
        module_self = {m: 0.0 for m in MODULES}
        for name, s in out["self_s"].items():
            module_self[name.split(".", 1)[0]] += s
        out["module_self_s"] = module_self
        out["spans"] = len(self.span_name)
        return out

    def write_spans(self, path):
        """Stored spans as tab-separated id, name, parent, start, end."""
        with open(path, "w") as fh:
            fh.write("id\tname\tparent\tstart\tend\n")
            for sid, (idx, parent, start, end) in enumerate(zip(
                    self.span_name, self.span_parent, self.span_start,
                    self.span_end)):
                fh.write(f"{sid}\t{self.names[idx]}\t{parent}\t"
                         f"{start:.9f}\t{end:.9f}\n")

