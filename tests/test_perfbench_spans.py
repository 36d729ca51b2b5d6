"""The benchmark's tracer wraps methods it looks up by name.

perfbench/spans.py reads ``cls.__dict__[meth]`` for every name in its
METHODS table, so renaming or moving one of those methods breaks the traced
benchmark run with a KeyError.  Its is_simple hook reads the verdict's
``probabilistic``.  These tests read the tracer from the source (executing
it in a fresh namespace, so nothing is written beside it) and check it
against glmn.
"""

import importlib
from pathlib import Path

from glmn.algebra import Character, Weight, build_algebra
from glmn.analysis import _top_coordinate, is_simple, regular_module
from glmn.ffield import make_field
from glmn.verma import build_baby_verma

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_namespace():
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace


def test_every_traced_method_exists_in_its_class():
    methods = _spans_namespace()["METHODS"]
    assert methods
    for (module, cls_name), names in methods.items():
        cls = getattr(importlib.import_module(f"glmn.{module}"), cls_name)
        missing = [name for name in names if name not in cls.__dict__]
        assert not missing, f"{module}.{cls_name} lacks {missing}"


def test_is_simple_hook_counts_no_sampled_verdict():
    namespace = _spans_namespace()
    tracer = namespace["Tracer"]()
    hook = namespace["HOOKS"]["analysis.is_simple"]
    alg = build_algebra(1, 1, make_field(5))
    chi = Character(alg, {})
    verma = build_baby_verma(alg, chi, Weight(alg.field, [1, 3]))
    rs = alg.root_system()
    regular = regular_module(alg, [rs.f_unit(r) for r in rs.positive], chi)
    # the Verma takes the dual-spin certificate, the regular module the descent
    assert _top_coordinate(verma) is not None and _top_coordinate(regular) is None
    for M in (verma, regular):
        hook(tracer, (M,), is_simple(M), ["analysis.is_simple"])
    assert tracer.counts["analysis.sampled_verdicts"] == 0
