"""STACK_ENTRIES, the entry budget of stacks and chunks, lives in verma alone.

Every stack and chunk is cut by verma._stacks or verma._slices, which read
the budget from verma at the call, so patching verma.STACK_ENTRIES resizes
all of them.  A module that imported the constant by value would keep a
copy that such a patch misses; naming STACK_ENTRIES anywhere in a module
but verma, an import included, fails this test.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "glmn"


def budget_uses(source):
    """The lines of source that name STACK_ENTRIES: a name, an attribute or
    an import of it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Name) and node.id == "STACK_ENTRIES"
                or isinstance(node, ast.Attribute) and node.attr == "STACK_ENTRIES"
                or isinstance(node, ast.ImportFrom)
                and any(alias.name == "STACK_ENTRIES" for alias in node.names)):
            found.add(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("name", sorted(p.stem for p in SRC.glob("*.py") if p.stem != "verma"))
def test_only_verma_names_the_stack_budget(name):
    assert budget_uses((SRC / f"{name}.py").read_text()) == []


def test_verma_names_it_and_every_form_is_detected():
    assert budget_uses((SRC / "verma.py").read_text())
    source = ("from .verma import STACK_ENTRIES, _stacks\n"
              "from . import verma\n"
              "def cut(n):\n"
              "    return n // verma.STACK_ENTRIES\n"
              "def chunk(n):\n"
              "    return max(1, STACK_ENTRIES // n)\n")
    assert budget_uses(source) == [1, 4, 6]
