"""Every exported name has a caller outside the tests, or a stated reason.

A name in ``multisecant.__all__`` passes when one of these holds:

* some module of the package other than ``__init__.py`` refers to it
  outside its own definition;
* the benchmark tracer (``perfbench/tracing.py``) refers to it, so
  dropping it is a benchmark change;
* it is in ``ALLOWED`` below, which says which test uses it as an
  independent oracle or which ROADMAP item will give it a caller.

References are read from the syntax tree, so a name that only appears in
a docstring or a comment does not count.
"""

import ast
from pathlib import Path

import multisecant

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "multisecant"
TRACING = ROOT / "perfbench" / "tracing.py"

ALLOWED = {
    "double_point_expansion": "oracle: tests/test_acceptance.py::test_criterion_06_bisecant",
    "print_bundle": "oracle: tests/test_exprs.py parser round trip",
    "ran_min_ambient_dim": "ROADMAP item 3 (bound reductions as checked identities)",
    "jnormal_min_ambient_dim": "ROADMAP item 3 (bound reductions as checked identities)",
}


def _references(tree: ast.AST, skip_definition_of: str | None = None) -> set[str]:
    """Names and attribute names used in ``tree``, outside the body of a
    top-level or nested definition called ``skip_definition_of``."""
    found = set()

    def visit(node):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name == skip_definition_of
        ):
            return
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def _used_in_package(name: str) -> bool:
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        if name in _references(ast.parse(path.read_text()), skip_definition_of=name):
            return True
    return False


TRACED = _references(ast.parse(TRACING.read_text()))


def test_every_exported_name_has_a_reason():
    unexplained = [
        name
        for name in sorted(multisecant.__all__)
        if not (_used_in_package(name) or name in TRACED or name in ALLOWED)
    ]
    # each of these is exported but nothing outside the tests uses it: give
    # it a caller, delete it, or name its oracle test or ROADMAP item in ALLOWED
    assert unexplained == []


def test_allowlist_names_only_exported_test_only_names():
    # an entry whose name gained a caller, or was deleted, must go
    for name in ALLOWED:
        assert name in multisecant.__all__
        assert not _used_in_package(name) and name not in TRACED
