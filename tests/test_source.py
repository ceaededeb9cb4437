"""Source-level rules for the package itself.

``assert`` statements vanish under ``python -O``, so internal cross-checks in
the package raise explicit errors instead.  Witnesses are built in one place,
``reports._witness_at``, so every report names states and events the same way.
"""

from __future__ import annotations

import ast
from pathlib import Path

import emck

PACKAGE = Path(emck.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        )
    assert found == []


def test_witnesses_are_built_only_by_the_witness_constructor():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_witness_at":
                allowed.update(id(n) for n in ast.walk(node))
        found.extend(
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            # a bare ``Witness(...)`` or a qualified ``reports.Witness(...)``
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Witness"
            and id(node) not in allowed
        )
    assert found == []
