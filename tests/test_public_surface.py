"""Every public name of the package and every public method has a caller
outside the tests, or a stated reason.

The walk covers each submodule of ``multisecant``.  A public function or
class counts when the submodule defines it (its ``__module__`` is the
submodule), not when it only imports it.  Such a name passes when one of
these holds:

* some module of the package refers to it outside its own definition;
* the benchmark tracer (``perfbench/tracing.py``) refers to it, so
  dropping it is a benchmark change; ``TRACED_ONLY`` below lists each
  name that passes only this way, so that this debt cannot grow unseen;
* it is in ``ALLOWED`` below, which says which ROADMAP item will give it
  a caller.

A public method or property of such a class (dunders excluded) passes
the same way, with ``ALLOWED_METHODS`` as its allowlist; only attribute
accesses count as a use, so a local variable of the same name does not.

References are read from the syntax tree, so a name that only appears in
a docstring or a comment does not count.  Oracles that only the tests
use live in ``tests/oracles.py``, which the package cannot import.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import multisecant

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "multisecant"
TRACING = ROOT / "perfbench" / "tracing.py"

ALLOWED = {
    "ran_min_ambient_dim": "ROADMAP item 3 (bound reductions as checked identities)",
    "jnormal_min_ambient_dim": "ROADMAP item 3 (bound reductions as checked identities)",
}

# Public names with no caller in the package that pass only because the
# tracer refers to them (ROADMAP item 8a lets the tracer drop them).
TRACED_ONLY = {
    "binomial": "tracer counts it as combinat.binomial_calls; only tests call it",
    "check_jnormal_general": "tracer wraps it as normality.check; only tests call it",
    "compute_row": "tracer wraps it as census.compute_row; only tests call it",
    "format_rational": "tracer wraps it; every command prints with str (item 13)",
    "goettsche_a_derived": "tracer wraps it as secants.goettsche; only tests call it (item 13)",
    "parse_csv": "the benchmark's re-ingest op reads census files with it",
    "parse_json": "the benchmark's re-ingest op reads census files with it",
    "secant_count_via_ring": "the oracle workload's ring count",
    "segre_series": "tracer wraps it as bundles.segre; moves to tests/oracles.py (item 13)",
    "verify_rows": "the benchmark's re-ingest op checks census files with it",
}

ALLOWED_METHODS = {
    "ChernVector.degree_consistent": "ROADMAP item 6 (make the consistency promise real)",
}

MODULES = [
    importlib.import_module(f"multisecant.{info.name}")
    for info in pkgutil.iter_modules(multisecant.__path__)
]


def _references(
    tree: ast.AST, skip_definition_of: str | None = None, attributes_only: bool = False
) -> set[str]:
    """Names and attribute names used in ``tree`` (attribute names only,
    with ``attributes_only``), outside the body of a top-level or nested
    definition called ``skip_definition_of``."""
    found = set()

    def visit(node):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name == skip_definition_of
        ):
            return
        if isinstance(node, ast.Name) and not attributes_only:
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


SOURCES = [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")]


def _used_in_package(name: str, attributes_only: bool = False) -> bool:
    return any(
        name in _references(tree, skip_definition_of=name, attributes_only=attributes_only)
        for tree in SOURCES
    )


def _public_names() -> dict[str, object]:
    """Each public function and class a submodule defines, by name."""
    found = {}
    for module in MODULES:
        for name, value in vars(module).items():
            if name.startswith("_"):
                continue
            if inspect.isfunction(value) or inspect.isclass(value):
                if value.__module__ == module.__name__:
                    found[name] = value
    return found


def _public_methods() -> dict[str, str]:
    """``Class.attr`` -> ``attr`` for each public method, classmethod,
    staticmethod and property that a public class defines."""
    found = {}
    for name, cls in sorted(_public_names().items()):
        if not inspect.isclass(cls):
            continue
        for attr, value in vars(cls).items():
            callable_member = inspect.isfunction(value) or isinstance(
                value, (property, classmethod, staticmethod)
            )
            if callable_member and not attr.startswith("_"):
                found[f"{name}.{attr}"] = attr
    return found


def _method_used(attr: str) -> bool:
    return _used_in_package(attr, attributes_only=True) or attr in TRACED


TRACED = _references(ast.parse(TRACING.read_text()))


def test_every_exported_name_has_a_reason():
    unexplained = [
        name
        for name in sorted(_public_names())
        if not (_used_in_package(name) or name in TRACED or name in ALLOWED)
    ]
    # each of these is public but nothing outside the tests uses it: give
    # it a caller, delete it, move a test-only oracle to tests/oracles.py,
    # or name its ROADMAP item in ALLOWED
    assert unexplained == []


def test_allowlist_names_only_exported_test_only_names():
    # an entry whose name gained a caller, or was deleted, must go
    names = _public_names()
    for name in ALLOWED:
        assert name in names
        assert not _used_in_package(name) and name not in TRACED


def test_every_traced_only_name_is_listed():
    unlisted = [
        name
        for name in sorted(_public_names())
        if name in TRACED and not _used_in_package(name) and name not in TRACED_ONLY
    ]
    # each of these passes only because the tracer names it: give it a
    # caller, or list it in TRACED_ONLY with what uses it
    assert unlisted == []


def test_traced_only_names_only_tracer_only_names():
    # an entry whose name gained a package caller, or was deleted, must go
    names = _public_names()
    for name in TRACED_ONLY:
        assert name in names
        assert name in TRACED and not _used_in_package(name)


def test_every_public_method_has_a_reason():
    unexplained = [
        qualified
        for qualified, attr in _public_methods().items()
        if not (_method_used(attr) or qualified in ALLOWED_METHODS)
    ]
    # each of these is a public method nothing outside the tests calls: give
    # it a caller, delete it, move it to a test subclass in tests/oracles.py,
    # or name its ROADMAP item in ALLOWED_METHODS
    assert unexplained == []


def test_method_allowlist_names_only_test_only_methods():
    methods = _public_methods()
    for qualified in ALLOWED_METHODS:
        assert qualified in methods
        assert not _method_used(methods[qualified])


def test_no_package_module_imports_the_oracles():
    # the oracles stay independent of the code they check
    imported = set()
    for tree in SOURCES:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                imported.add(node.module.partition(".")[0])
    assert imported
    assert not imported & {"oracles", "tests", "conftest"}
