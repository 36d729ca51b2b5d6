"""A module's highest weight, highest vector, context and root key are set
once.

ModuleRep.__init__ takes lam, highest_vector, ctx and root_key, and every
builder passes them there: verma.build_induced and induce for each induced
module, quotient_module and regular_module for theirs.  Assigning one of
these fields on another object after the fact fails this test; an object
setting its own field (self.ctx in a ReductionContext, say) does not.  A
stale root_key would hand one module another's memoized spin, so the
action it describes is read-only (tests/test_root_key.py).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "glmn"
FIELDS = {"lam", "ctx", "highest_vector", "root_key"}


def _targets(target):
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _targets(elt)
    elif isinstance(target, ast.Starred):
        yield from _targets(target.value)
    else:
        yield target


def field_assignments(source):
    """(line, field) of each assignment of a field in FIELDS on an object
    other than self, outside ModuleRep.__init__."""
    tree = ast.parse(source)
    allowed = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "ModuleRep":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    allowed.update(map(id, ast.walk(fn)))
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr"
                and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in FIELDS):
            found.append((node.lineno, node.args[1].value))
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for t in _targets(target):
                if (isinstance(t, ast.Attribute) and t.attr in FIELDS
                        and not (isinstance(t.value, ast.Name) and t.value.id == "self")):
                    found.append((t.lineno, t.attr))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_fields_set_only_at_construction(path):
    assert field_assignments(path.read_text()) == []


def test_detects_a_planted_assignment():
    source = ("class ModuleRep:\n"
              "    def __init__(self, M, lam):\n"
              "        self.lam = lam\n"
              "        M.ctx = None\n"
              "    def relabel(self, other):\n"
              "        other.lam = self.lam\n"
              "class ReductionContext:\n"
              "    def __init__(self):\n"
              "        self.ctx = None\n"
              "def quotient(M, Q, hv):\n"
              "    Q.highest_vector, n = hv, 1\n"
              "    Q.lam = M.lam\n"
              "    setattr(Q, 'ctx', M.ctx)\n"
              "    Q.labels = M.labels\n"
              "    Q.root_key = M.root_key\n")
    assert field_assignments(source) == [(6, "lam"), (11, "highest_vector"),
                                         (12, "lam"), (13, "ctx"),
                                         (15, "root_key")]
