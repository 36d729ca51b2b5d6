"""The benchmark's tracer wraps methods it looks up by name.

perfbench/spans.py reads ``cls.__dict__[meth]`` for every name in its
METHODS table, so renaming or moving one of those methods breaks the traced
benchmark run with a KeyError.  This test reads the table from the source
(executing it in a fresh namespace, so nothing is written beside it) and
checks every name against glmn.
"""

import importlib
from pathlib import Path

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
