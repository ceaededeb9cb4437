"""Source-level rules for the package itself.

``assert`` statements vanish under ``python -O``, so internal cross-checks in
the package raise explicit errors instead.
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
