"""No module of the package touches another object's private members.

A name that starts with an underscore, and is not a dunder (`__x__`), is
private to its class or module. Inside `src/cslme` such an attribute is
read or set only on the names `self` and `cls`: code that needs a value
of another object calls its public API, so every private member has one
owner.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cslme"


def private_accesses(source: str) -> list:
    """`obj._name` expressions of `source` whose obj is not the name self or
    cls, as (line, text) in line order."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
            continue
        dunder = node.attr.startswith("__") and node.attr.endswith("__")
        owner = isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
        if not (dunder or owner):
            out.append((node.lineno, ast.unparse(node)))
    return sorted(out)


def test_private_accesses_are_found():
    source = ("x = sol._parts(b)\nok = BlockSolve._pivots_ok(F, L)\ny = a.b._c\n"
              "z = self._Q + cls._k + obj.__class__ + obj.public\n")
    assert private_accesses(source) == [(1, "sol._parts"), (2, "BlockSolve._pivots_ok"),
                                        (3, "a.b._c")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_module_reaches_into_a_private_member(path):
    assert private_accesses(path.read_text()) == []
