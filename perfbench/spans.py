"""Spans around glmn's public functions, for the benchmark's traced run.

``install`` wraps every public function of the modules in MODULES, the
arithmetic and construction methods of ``ffield.Field``, the public methods
of ``linalg.Subspace``, the construction of ``enveloping.ReductionContext``
and each entry of ``cli.TASK_RUNNERS``. A
function imported by name into another module (``from .linalg import rref``)
is rebound there too, so every call site goes through the wrapper.

Spans are folded into totals as they close instead of being kept one by
one: a traced run makes millions of field operations. Each span adds to

- its module: the number of spans and the self time (the span's duration
  minus the time its child spans cover);
- each of its groups (its own name, and for some a shared name such as
  ``ffield.op``): the number of outermost calls and their inclusive time,
  so recursion and nesting inside a group are not counted twice.

``cli.main`` is the caller of everything and is left unwrapped, so the time
inside root spans over the process's wall time is the share of the run that
the spans account for.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types

import numpy as np

MODULES = ("ffield", "linalg", "algebra", "enveloping", "verma", "analysis",
           "kw", "cli")
FIELD_OPS = ("add", "neg", "sub", "mul", "inv", "power", "frob", "frob_inv")
METHODS = {
    ("ffield", "Field"): FIELD_OPS + ("__init__", "extend"),
    ("linalg", "Subspace"): ("__init__", "reduce", "contains", "coords", "add",
                             "add_vectors", "intersect"),
    ("enveloping", "ReductionContext"): ("__init__",),
}
UNTRACED = {"cli.main"}


def _extra_groups(name):
    if name.startswith("ffield.Field.") and name.rsplit(".", 1)[1] in FIELD_OPS:
        return ("ffield.op",)
    if name.startswith("verma.build_"):
        return ("verma.build",)
    return ()


def _count_field_op(tracer, args, result, entered):
    if "ffield.op" in entered:
        tracer.counts["ffield.op_elems"] += (
            result.size if isinstance(result, np.ndarray) else 1)


def _count_rref(tracer, args, result, entered):
    rows, cols = np.shape(args[1])
    tracer.counts["linalg.rref_cells"] += rows * cols


def _count_matmul(tracer, args, result, entered):
    n, k = np.shape(args[1])
    tracer.counts["linalg.matmul_macs"] += n * k * np.shape(args[2])[1]


def _count_induced(tracer, args, result, entered):
    tracer.counts["verma.induced_dim_sum"] += result.dim


def _count_spin(tracer, args, result, entered):
    counts = tracer.counts
    counts["analysis.spin_dim_sum"] += result.dim
    if result.dim < args[0].dim:
        counts["analysis.spin_proper"] += 1
    if tracer.open.get("analysis.is_simple") or tracer.open.get("analysis.simple_head"):
        counts["analysis.lines_tried"] += 1


def _count_is_simple(tracer, args, result, entered):
    if result.probabilistic:
        tracer.counts["analysis.sampled_verdicts"] += 1


HOOKS = {
    "linalg.rref": _count_rref,
    "linalg.matmul": _count_matmul,
    "verma.build_induced": _count_induced,
    "analysis.spin": _count_spin,
    "analysis.is_simple": _count_is_simple,
}
HOOKS.update({f"ffield.Field.{op}": _count_field_op for op in FIELD_OPS})
COUNTS = ("ffield.op_elems", "linalg.rref_cells", "linalg.matmul_macs",
          "verma.induced_dim_sum", "analysis.spin_dim_sum",
          "analysis.spin_proper", "analysis.lines_tried",
          "analysis.sampled_verdicts")


class Tracer:
    """Totals of the spans closed so far; see the module docstring."""

    def __init__(self):
        self.stack = [[0.0]]  # child time of each open span; [0] is the root
        self.open = {}        # group -> spans of it now open
        self.calls = {}       # group -> outermost calls
        self.time = {}        # group -> inclusive time of outermost calls
        self.spans = dict.fromkeys(MODULES, 0)
        self.self_s = dict.fromkeys(MODULES, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)

    def wrap(self, fn, name):
        module = name.split(".", 1)[0]
        groups = (name,) + _extra_groups(name)
        hook = HOOKS.get(name)
        stack, open_, calls, time_ = self.stack, self.open, self.calls, self.time
        spans, self_s = self.spans, self.self_s
        for g in groups:
            open_.setdefault(g, 0)
            calls.setdefault(g, 0)
            time_.setdefault(g, 0.0)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            entered = [g for g in groups if not open_[g]]
            for g in groups:
                open_[g] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                spans[module] += 1
                self_s[module] += elapsed - frame[0]
                for g in groups:
                    open_[g] -= 1
                for g in entered:
                    calls[g] += 1
                    time_[g] += elapsed
            if hook is not None:
                hook(self, args, result, entered)
            return result

        return functools.wraps(fn)(traced)

    def totals(self):
        return {"calls": self.calls, "time": self.time, "spans": self.spans,
                "self_s": self.self_s, "counts": self.counts,
                "covered_s": self.stack[0][0]}


def install(tracer):
    """Wrap glmn in place; glmn must be importable and not yet running."""
    mods = {name: importlib.import_module(f"glmn.{name}") for name in MODULES}
    wrapped = {}
    for name, mod in mods.items():
        for attr, obj in vars(mod).items():
            span = f"{name}.{attr}"
            if (attr.startswith("_") or span in UNTRACED
                    or not isinstance(obj, types.FunctionType)
                    or obj.__module__ != mod.__name__):
                continue
            wrapped[obj] = tracer.wrap(obj, span)
    for (name, cls_name), methods in METHODS.items():
        cls = getattr(mods[name], cls_name)
        for meth in methods:
            setattr(cls, meth,
                    tracer.wrap(cls.__dict__[meth], f"{name}.{cls_name}.{meth}"))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "glmn" and not mod_name.startswith("glmn."):
            continue
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    runners = mods["cli"].TASK_RUNNERS
    for task, fn in list(runners.items()):
        runners[task] = tracer.wrap(wrapped.get(fn, fn), f"cli.task.{task}")
