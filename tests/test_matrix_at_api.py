"""verma, analysis, series and kw work on raw index arrays; Matrix is API only.

A module's action is one (U, dim, dim) index array and a submodule one
Subspace, so no step inside these modules needs the Matrix wrapper.  It
stays only where the public API takes or returns a Matrix: the returned
maps of induced_hom and frobenius_gram and the conjugator g of
conjugate_character and normalize_character.  Naming Matrix anywhere else
in these modules fails this test; importing it does not.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "glmn"
ALLOWED = {"induced_hom", "frobenius_gram", "conjugate_character",
           "normalize_character"}


def matrix_uses(source):
    """(line, top-level definition) of each use of Matrix outside ALLOWED."""
    found = []
    for node in ast.parse(source).body:
        owner = getattr(node, "name", None)
        if owner in ALLOWED:
            continue
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Name) and sub.id == "Matrix"
                    or isinstance(sub, ast.Attribute) and sub.attr == "Matrix"):
                found.append((sub.lineno, owner))
    return sorted(found)


@pytest.mark.parametrize("name", ["verma", "analysis", "series", "kw"])
def test_matrix_only_at_the_public_api(name):
    assert matrix_uses((SRC / f"{name}.py").read_text()) == []


def test_detects_matrix_inside_a_class_and_a_function():
    source = ("from .linalg import Matrix\n"
              "class ModuleRep:\n"
              "    def power(self):\n"
              "        return Matrix.identity(self.field, 2)\n"
              "def restrict_module(M):\n"
              "    return linalg.Matrix(M.field, M.actions[0])\n"
              "def induced_hom(cols):\n"
              "    return Matrix(None, cols)\n")
    assert matrix_uses(source) == [(4, "ModuleRep"), (6, "restrict_module")]
