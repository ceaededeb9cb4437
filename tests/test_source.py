"""Source-level rules for the package itself.

``assert`` statements vanish under ``python -O``, so internal cross-checks in
the package raise explicit errors instead.  Witnesses are built in one place,
``reports._witness_at``, so every report names states and events the same way.
No module imports a name it never uses (``__init__.py`` re-exports), and no
function assigns a local it never reads (``_`` excepted).  Every function and
class of the package is named somewhere besides its own definition and the
package root's re-exports: in the package, the tests, the benchmark, the
scripts or the README; so is every module-level name the package assigns.
The counterexample search and the command line name no claim.  A family
is walked in one place, ``modelgen._blocks``.  Two algebras
are compared in one place, ``SigmaAlgebra.check_same``.  Every function of
``tests/helpers.py`` is named by a test or another helper, so no oracle goes
unchecked.  The package caches through its one descriptor,
``caching.cached_property``, never ``functools.cached_property``, and
the kernel modules keep no memo of their own; ``modelgen``'s memos
are keyed by family parameters alone.  A verdict
kernel (a function of ``operators``, ``axioms``, ``theorems`` or
``multiagent`` named ``*_violation``, ``*_mask``, ``*_misses``,
``*_sweep``, ``*_profiles``, ``*_whole``, ``*_status`` or ``*_block``, which
covers the status of every ``modelgen.Claim``) reads only the integer
tables, never the ``Fraction`` ones (``.table``, ``.tables``,
``.combo_table``).  The block count of the factored sweep
calls only such kernels, and its per-state kernels take components, not a
model.  In ``theorems`` and ``multiagent`` only the part rule
``_parts_status`` writes the verdicts "verified" and "falsified", every
registered claim is declared by its parts, and only a public verifier
checks its preconditions (``reports._precondition``); a
``reports.VerificationReport`` stores the status that rule gave it,
computes no verdict of its own, and is built only by the two builders that
ask the rule.  Every claim's verifier returns one, and nothing tests a
report for being a ``CheckReport``.  The integer producers (the four ``SetFunction`` flags,
the threshold levels of ``TypeMapping`` and ``InteractiveModel``,
``theorems.bayes_type_from_poss`` and its ``_conditional``, the null-set test of
``theorems.verify_cor_unique_type`` and ``modelgen``'s ``_random_table``,
``_random_prior``, ``_draw`` and ``_capacity_grid``, and the document reader:
``reports._read_ratio`` and ``dslio``'s ``_ratio``, ``_atom_weights``,
``_resolve_prior``, ``_resolve_types`` and ``_set_function``) build no
``Fraction``: they neither call nor pass to a helper ``Fraction``,
``as_fraction`` or the ``Fraction`` constructors ``SetFunction(...)``,
``Prior(...)`` and ``set_function_from_atom_weights``, read no
``.table``, ``.tables``, ``.weights`` or ``.combo_table``, and measure no
event with ``Prior.measure_mask`` or ``Prior.measure_of``; they
build through ``from_ints``.  Neither does a printer of a stored ratio
(``dslio.serialize_model``, ``dslio.doc_to_dict`` and the witness and note
builders of ``axioms``, ``theorems`` and ``multiagent``): it formats the
integer entry with ``reports._format_ratio``.  Every name the package exports
is used or documented outside the tests.
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


KERNEL_MODULES = ("operators", "axioms", "theorems", "multiagent")


def test_the_kernel_modules_keep_no_memo_of_their_own():
    """A kernel's cache is kept on the component it belongs to, through
    ``caching.cached_property`` (``TypeMapping.cell_masks``,
    ``Prior.cell_masks``, ``Prior.conditionals``), so it dies with the
    components of a search: the kernel modules and ``beliefs`` take no
    cache from ``functools``, and bind no empty container at module level
    or as a default argument."""

    def container(node, empty_only: bool) -> bool:
        if isinstance(node, (ast.Dict, ast.List, ast.Set)):
            return not (empty_only and (getattr(node, "keys", None) or getattr(node, "elts", None)))
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) in {
            "dict", "list", "set", "defaultdict"
        }

    found = []
    for module in (*KERNEL_MODULES, "beliefs"):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{module}.py:{node.lineno}: functools.{a.name}" for a in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
                found.append(f"{module}.py:{node.lineno}: functools.{node.attr}")
            elif isinstance(node, ast.arguments):
                found += [
                    f"{module}.py:{default.lineno}: a container as a default"
                    for default in (*node.defaults, *node.kw_defaults)
                    if container(default, empty_only=False)
                ]
        found += [
            f"{module}.py:{node.lineno}: an empty module-level container"
            for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            and container(node.value, empty_only=True)
        ]
    assert found == []


def test_the_generator_memos_are_keyed_by_family_parameters():
    """``modelgen`` keeps a memo per family, never per model: every function
    it decorates with a ``functools`` cache takes only ``int`` arguments,
    family parameters such as the number of states, so no model component
    (a prior, a type mapping, a correspondence) is kept across calls."""
    tree = ast.parse((PACKAGE / "modelgen.py").read_text(encoding="utf-8"))
    memos = [
        func
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        and any(
            getattr(d, "id", getattr(d, "attr", None)) in {"cache", "lru_cache"}
            for d in (getattr(d, "func", d) for d in func.decorator_list)
        )
    ]
    assert {func.name for func in memos} >= {"_space_for", "_powerset"}
    found = []
    for func in memos:
        args = func.args
        if args.vararg or args.kwarg:
            found.append(f"modelgen.py:{func.lineno}: {func.name} takes * or ** arguments")
        found += [
            f"modelgen.py:{func.lineno}: {func.name}({arg.arg}) is not an int"
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            if arg.annotation is None or ast.unparse(arg.annotation) != "int"
        ]
    assert found == []


KERNEL_SUFFIXES = (
    "_violation", "_mask", "_misses", "_sweep", "_profiles", "_whole", "_status", "_block"
)


def _kernel_module_functions() -> dict[str, tuple[str, ast.FunctionDef]]:
    """Every module-level function of the kernel modules, by name."""
    out = {}
    for module in KERNEL_MODULES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        for func in tree.body:
            if isinstance(func, ast.FunctionDef):
                out[func.name] = module, func
    return out


def test_verdict_kernels_read_only_the_integer_tables():
    fraction_tables = {"table", "tables", "combo_table"}
    found = []
    for name, (module, func) in _kernel_module_functions().items():
        if name.endswith(KERNEL_SUFFIXES):
            found.extend(
                f"{module}.py:{node.lineno}: {name} reads .{node.attr}"
                for node in ast.walk(func)
                if isinstance(node, ast.Attribute) and node.attr in fraction_tables
            )
    assert found == []


INTEGER_PRODUCERS = {
    "beliefs": (
        "SetFunction.normalized",
        "SetFunction.monotone",
        "SetFunction.additive",
        "SetFunction.one_intersection",
        "TypeMapping.levels",
    ),
    "theorems": (
        "bayes_type_from_poss",
        "_conditional",
        "verify_cor_unique_type",
        "_containment_measure_note",
        "_condition_reports",
    ),
    "modelgen": ("_random_table", "_random_prior", "_draw", "_capacity_grid"),
    "dslio": (
        "serialize_model",
        "doc_to_dict",
        "_value_texts",
        "_ratio",
        "_read_once",
        "_atom_weights",
        "_resolve_prior",
        "_resolve_types",
        "_set_function",
    ),
    "reports": ("_read_ratio",),
    "axioms": ("_certainty_witness",),
    "multiagent": ("verify_agreement", "_agreement_report", "InteractiveModel.levels"),
}


def _qualified_functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """Every module-level function by name, and every method as
    ``Class.method``."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    out[f"{node.name}.{item.name}"] = item
    return out


def test_the_integer_producers_build_no_fraction():
    fraction_builders = {
        "Fraction", "as_fraction", "SetFunction", "Prior", "set_function_from_atom_weights"
    }
    fraction_views = {"table", "tables", "weights", "combo_table", "measure_mask", "measure_of"}
    found = []
    for module, names in INTEGER_PRODUCERS.items():
        functions = _qualified_functions(
            ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        )
        for name in names:
            for node in ast.walk(functions[name]):
                if isinstance(node, ast.Attribute) and node.attr in fraction_views:
                    found.append(f"{module}.py:{node.lineno}: {name} reads .{node.attr}")
                elif isinstance(node, ast.Call):
                    if isinstance(node.func, ast.Name) and node.func.id in fraction_builders:
                        found.append(f"{module}.py:{node.lineno}: {name} calls {node.func.id}")
                    # a builder handed to a helper that calls it
                    found.extend(
                        f"{module}.py:{node.lineno}: {name} passes {arg.id}"
                        for arg in (*node.args, *(k.value for k in node.keywords))
                        if isinstance(arg, ast.Name) and arg.id in fraction_builders
                    )
    assert found == []


def test_the_block_count_calls_only_kernels_that_take_components():
    """``theorems._theorem_main_block`` runs the per-state kernels on a
    correspondence that no model holds, so every package function it calls
    is a verdict kernel under the rule above, and a per-state kernel
    (``*_mask``) takes components, never a whole model.  It calls the null
    cell and regularity kernels, and the mask kernel of each of conditions
    (i)-(iii), the right-hand side of the main characterization's parts."""
    functions = _kernel_module_functions()

    def called_by(name: str) -> set[str]:
        return {
            node.func.id
            for node in ast.walk(functions[name][1])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in functions
        }

    called = called_by("_theorem_main_block")
    assert {
        "_null_cell_mask", "_regular_mask", "_containment_mask", "_almost_reverse_mask",
        "_product_mask",
    } <= called
    assert [name for name in called if not name.endswith(KERNEL_SUFFIXES)] == []
    found = [
        f"{module}.py:{func.lineno}: {name} takes a model"
        for name, (module, func) in functions.items()
        if module != "multiagent" and name.endswith("_mask")
        and any(arg.arg == "model" for arg in func.args.args)
    ]
    assert found == []


def test_one_status_rule():
    """``theorems._parts_status`` is the one rule that decides verified or
    falsified from the parts of a claim: nothing else in ``theorems`` or
    ``multiagent``, whose verifiers report the interactive claims, holds
    either word as a literal.  Its name ends as a verdict kernel's, so the
    two guards above cover it."""
    found = []
    for module in ("theorems", "multiagent"):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        inside = {
            id(node)
            for func in tree.body
            if isinstance(func, ast.FunctionDef) and func.name == "_parts_status"
            for node in ast.walk(func)
        }
        found += [
            f"{module}.py:{node.lineno}: {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and node.value in ("verified", "falsified")
            and id(node) not in inside
        ]
    assert found == []


def test_a_verification_report_stores_its_status():
    """``reports.VerificationReport`` holds ``status`` as a dataclass field
    and decides no verdict from its other fields: it defines no property,
    and no method besides its two serializers.  Only the two builders that
    set the field from the part rule, ``theorems._part_report`` and
    ``theorems._claim_report``, build one."""
    tree = ast.parse((PACKAGE / "reports.py").read_text(encoding="utf-8"))
    (report,) = (
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "VerificationReport"
    )
    fields = [node.target.id for node in report.body if isinstance(node, ast.AnnAssign)]
    methods = [node.name for node in report.body if isinstance(node, ast.FunctionDef)]
    assert methods == ["to_dict", "to_json"]
    assert "status" in fields
    builders = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        builders.update(
            f"{path.stem}.{func.name}"
            for func in tree.body
            if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "VerificationReport"
        )
    assert builders == {"theorems._part_report", "theorems._claim_report"}


def test_every_claim_reports_a_verification_report():
    """Every claim's verifier is annotated to return a
    ``reports.VerificationReport``, so no claim reports a bare check, and
    neither the package nor the test helpers ask whether a report is a
    ``CheckReport``."""
    import typing

    from emck.modelgen import CLAIMS
    from emck.reports import VerificationReport

    for name, claim in CLAIMS.items():
        assert typing.get_type_hints(claim.report)["return"] is VerificationReport, name
    found = []
    for path in [*sorted(PACKAGE.glob("*.py")), ROOT / "tests" / "helpers.py"]:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "isinstance"
            and any(getattr(n, "id", None) == "CheckReport" for n in ast.walk(node.args[1]))
        ]
    assert found == []


def test_every_claim_is_declared_by_its_parts():
    """Every claim that ``CLAIMS`` registers is a key of ``theorems._PARTS``,
    so its status is the part rule's, decided from its kernels."""
    from emck.modelgen import CLAIMS
    from emck.theorems import _PARTS

    assert [name for name in CLAIMS if name not in _PARTS] == []


def test_only_a_public_verifier_checks_its_preconditions():
    """``reports._precondition``, which raises AssumptionViolated, is called
    only in the body of a public verifier (``verify_*`` or
    ``agreement_sweep``), so no status, kernel or report builder raises
    it."""
    found = []
    called = 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        public = {
            id(node)
            for func in tree.body
            if isinstance(func, ast.FunctionDef)
            and (func.name.startswith("verify_") or func.name == "agreement_sweep")
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "_precondition"
            ):
                called += 1
                if id(node) not in public:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
    assert called > 0


def test_the_family_walk_is_written_once():
    """``modelgen._blocks`` is the one walk of a family, which
    ``enumerate_models`` and the exhaustive search both read: nothing else in
    the package calls ``_sigmas`` or ``_components``, and the second walk
    ``_block_search`` is gone."""
    walkers = {"_sigmas", "_components"}
    found = []
    walked = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_block_search":
                found.append(f"{path.name}:{node.lineno}: _block_search defined")
            if path.name == "modelgen.py" and isinstance(node, ast.FunctionDef) and (
                node.name == "_blocks"
            ):
                inside.update(id(n) for n in ast.walk(node))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name not in walkers:
                continue
            if id(node) in inside:
                walked.add(name)
            else:
                found.append(f"{path.name}:{node.lineno}: {name} called outside _blocks")
    assert found == []
    assert walked == walkers


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


def _references(tree: ast.AST, strings: bool = True) -> list[tuple[str, int]]:
    """(identifier, line) of every name, attribute and imported name read in
    the tree, plus, with ``strings``, every string constant spelled like an
    identifier (the ``getattr``/``monkeypatch.setattr`` form of a name)."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            refs.extend((a.name, node.lineno) for a in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
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


def test_every_export_is_named_outside_the_tests():
    """An export that only the tests name is an API that nothing uses or
    documents: every name of ``emck.__all__`` is read by the package (its
    own definition and the root's re-exports aside), the scripts or the
    benchmark, or named by the README.  A string spelled like the name (a
    check's ``"up_set"`` label, say) does not count."""
    named = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", (ROOT / "README.md").read_text("utf-8")))
    for folder in ("bench", "scripts"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            refs = _references(ast.parse(path.read_text("utf-8")), strings=False)
            named.update(name for name, _ in refs)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        own = {
            node.name: range(node.lineno, node.end_lineno + 1)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        named.update(
            name
            for name, line in _references(tree, strings=False)
            if line not in own.get(name, ())
        )
    assert sorted(set(emck.__all__) - named) == []


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


def test_the_search_loop_catches_nothing():
    """A claim's hypotheses are the kernels that ``Claim.hypotheses`` names,
    so the loop learns that a model is outside a claim from those alone: it
    catches no exception and reads no hypothesis-not-met status."""
    tree = ast.parse((PACKAGE / "modelgen.py").read_text(encoding="utf-8"))
    loop = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_model_search"
    )
    found = [
        f"modelgen.py:{node.lineno}: {type(node).__name__}"
        for node in ast.walk(loop)
        if isinstance(node, ast.Try)
        or (isinstance(node, ast.Constant) and node.value == "hypothesis-not-met")
    ]
    assert found == []


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
