"""Source-level rules for the package itself.

``assert`` statements vanish under ``python -O``, so internal cross-checks in
the package raise explicit errors instead.  Witnesses are built in one place,
``reports._witness_at``, so every report names states and events the same way.
No module imports a name it never uses (``__init__.py`` re-exports), and no
function assigns a local it never reads (``_`` excepted).  Every function and
class of the package is named somewhere besides its own definition and the
package root's re-exports: in the package, the tests, the benchmark, the
scripts or the README; so is every module-level name the package assigns.
The counterexample search and the command line name no claim.  Two algebras
are compared in one place, ``SigmaAlgebra.check_same``.  Every function of
``tests/helpers.py`` is named by a test or another helper, so no oracle goes
unchecked.  The package caches through its one descriptor,
``caching.cached_property``, never ``functools.cached_property``.  A verdict
kernel (a function of ``operators``, ``axioms``, ``theorems`` or
``multiagent`` named ``*_violation``, ``*_mask``, ``*_sweep`` or
``*_profiles``) reads only the integer tables, never the ``Fraction`` ones
(``.table``, ``.tables``, ``.combo_table``).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import emck

PACKAGE = Path(emck.__file__).resolve().parent
ROOT = PACKAGE.parent.parent


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


def test_the_package_caches_only_through_its_own_descriptor():
    """``functools.cached_property`` takes a lock on each first access
    before Python 3.12; ``caching.cached_property`` is the one cache."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = {a.name for a in node.names}
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
                names = {node.attr}
            else:
                continue
            if "cached_property" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_verdict_kernels_read_only_the_integer_tables():
    kernel_suffixes = ("_violation", "_mask", "_sweep", "_profiles")
    fraction_tables = {"table", "tables", "combo_table"}
    found = []
    for module in ("operators", "axioms", "theorems", "multiagent"):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and func.name.endswith(kernel_suffixes):
                found.extend(
                    f"{module}.py:{node.lineno}: {func.name} reads .{node.attr}"
                    for node in ast.walk(func)
                    if isinstance(node, ast.Attribute) and node.attr in fraction_tables
                )
    assert found == []


def _is_sigma(node: ast.AST) -> bool:
    """A bare ``sigma`` or an attribute ``x.sigma``."""
    return getattr(node, "id", getattr(node, "attr", None)) == "sigma"


def test_algebras_are_compared_only_by_check_same():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name == "SigmaAlgebra":
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and node.name == "check_same":
                        allowed.update(id(n) for n in ast.walk(node))
        found.extend(
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and any(_is_sigma(operand) for operand in (node.left, *node.comparators))
            and id(node) not in allowed
        )
    assert found == []


def _names_read(node: ast.AST) -> set[str]:
    """Every name read anywhere under ``node``, nested scopes included; an
    augmented assignment ``x += 1`` reads ``x``."""
    read = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            read.add(n.id)
        elif isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name):
            read.add(n.target.id)
    return read


def _own_scope(func: ast.AST):
    """The nodes of a function, without those of the scopes nested in it."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            stack.extend(ast.iter_child_nodes(node))


def test_no_unused_imports_or_unread_locals_in_the_package():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.name != "__init__.py":  # the package root imports to re-export
            read = _names_read(tree)
            found.extend(
                f"{path.name}:{node.lineno}: {name} imported, never used"
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for name in ((a.asname or a.name).split(".")[0] for a in node.names)
                if name not in read
            )
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                read = _names_read(func)
                found.extend(
                    f"{path.name}:{node.lineno}: {node.id} assigned in {func.name}, never read"
                    for node in _own_scope(func)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Store)
                    and node.id != "_"
                    and node.id not in read
                )
    assert found == []


def _references(tree: ast.AST) -> list[tuple[str, int]]:
    """(identifier, line) of every name, attribute and imported name read in
    the tree, plus every string constant spelled like an identifier (the
    ``getattr``/``monkeypatch.setattr`` form of a name)."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            refs.extend((a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                refs.append((node.value, node.lineno))
    return refs


def test_every_function_and_class_in_the_package_is_named_somewhere():
    named = set()
    for folder in ("tests", "bench", "scripts"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            named.update(name for name, _ in _references(ast.parse(path.read_text("utf-8"))))
    readme = ROOT / "README.md"
    if readme.exists():
        named.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", readme.read_text("utf-8")))
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"  # the package root only re-exports
    }
    refs = {name: _references(tree) for name, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue  # called by the language, not by name
            if node.name in named:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                name == node.name and (other != module or line not in own)
                for other, other_refs in refs.items()
                for name, line in other_refs
            ):
                found.append(f"{module}:{node.lineno}: {node.name}")
    assert found == []


def test_every_function_in_the_test_helpers_is_named_somewhere():
    """A helper that no test calls is an oracle that nothing compares against."""
    helpers = ROOT / "tests" / "helpers.py"
    refs = [
        (path, name, line)
        for path in sorted((ROOT / "tests").glob("*.py"))
        for name, line in _references(ast.parse(path.read_text("utf-8")))
    ]
    found = []
    for node in ast.parse(helpers.read_text("utf-8")).body:
        if not isinstance(node, ast.FunctionDef):
            continue
        own = range(node.lineno, node.end_lineno + 1)
        if not any(
            name == node.name and (path != helpers or line not in own)
            for path, name, line in refs
        ):
            found.append(f"helpers.py:{node.lineno}: {node.name}")
    assert found == []


def test_every_module_level_name_in_the_package_is_read_somewhere():
    """A module constant that nothing reads (a regex a refactor left behind,
    say) is dead code like an uncalled function."""
    named = set()
    for folder in ("tests", "bench", "scripts"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            named.update(name for name, _ in _references(ast.parse(path.read_text("utf-8"))))
    named.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", (ROOT / "README.md").read_text("utf-8")))
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"  # the package root only re-exports
    }
    refs = {name: _references(tree) for name, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            for target in ast.walk(node):
                if not (isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store)):
                    continue
                name = target.id
                if name in named or name.startswith("__") and name.endswith("__"):
                    continue
                if not any(
                    other_name == name and (other != module or line not in own)
                    for other, other_refs in refs.items()
                    for other_name, line in other_refs
                ):
                    found.append(f"{module}:{node.lineno}: {name}")
    assert found == []


def test_the_search_loop_names_no_claim():
    """search_counterexample decides every claim the same way: a claim's
    special handling is declared next to ``CLAIMS``, not branched on in the
    loop."""
    from emck.modelgen import CLAIMS

    tree = ast.parse((PACKAGE / "modelgen.py").read_text(encoding="utf-8"))
    search = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "search_counterexample"
    )
    named = [
        f"modelgen.py:{node.lineno}: {node.value!r}"
        for node in ast.walk(search)
        if isinstance(node, ast.Constant) and node.value in CLAIMS
    ]
    assert named == []


def test_the_cli_names_no_claim():
    """The command line takes its claims from ``CLAIMS``, so registering a
    claim is one ``CLAIMS`` entry."""
    from emck.modelgen import CLAIMS

    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    named = [
        f"cli.py:{node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in CLAIMS
    ]
    assert named == []
