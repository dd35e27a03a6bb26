"""Every exported name and public method has a caller outside the tests,
or a stated reason.

A name in ``multisecant.__all__`` passes when one of these holds:

* some module of the package other than ``__init__.py`` refers to it
  outside its own definition;
* the benchmark tracer (``perfbench/tracing.py``) refers to it, so
  dropping it is a benchmark change;
* it is in ``ALLOWED`` below, which says which test uses it as an
  independent oracle or which ROADMAP item will give it a caller.

A public method or property of an exported class (dunders excluded) passes
the same way, with ``ALLOWED_METHODS`` as its allowlist; only attribute
accesses count as a use, so a local variable of the same name does not.

References are read from the syntax tree, so a name that only appears in
a docstring or a comment does not count.
"""

import ast
import inspect
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

ALLOWED_METHODS = {
    "ChernVector.degree_consistent": "ROADMAP item 6 (make the consistency promise real)",
    "FiberRing.diagonal_class": (
        "oracle: tests/test_fiberring.py TestRelations (the diagonal tests) and "
        "TestFormKernel"
    ),
    "FiberRing.hyperplane_class": (
        "oracle: tests/test_fiberring.py::TestRelations::test_hyperplane_power_collapse"
    ),
    "FiberRing.top_monomial": (
        "oracle: tests/test_fiberring.py::TestRingAxioms::test_integrate_normalization"
    ),
    "FiberRingElement.is_zero": (
        "oracle: tests/test_fiberring.py TestRelations and "
        "TestRecursion::test_trivial_bundle_dies"
    ),
    "FiberRingElement.coefficient": (
        "oracle: tests/test_fiberring.py test_coefficient_index_bounds and "
        "test_coefficient_rejects_non_normal_monomials"
    ),
    "TruncatedClassPoly.coefficient": (
        "oracle: tests/test_bundles.py (test_tangent_top_coefficient, "
        "test_duality_with_polynomial_route) and tests/test_classpoly.py"
    ),
}


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


def _used_in_package(name: str, attributes_only: bool = False) -> bool:
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        if name in _references(tree, skip_definition_of=name, attributes_only=attributes_only):
            return True
    return False


def _public_methods() -> dict[str, str]:
    """``Class.attr`` -> ``attr`` for each public method, classmethod,
    staticmethod and property that an exported class defines."""
    found = {}
    for name in sorted(multisecant.__all__):
        cls = getattr(multisecant, name)
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


def test_every_public_method_has_a_reason():
    unexplained = [
        qualified
        for qualified, attr in _public_methods().items()
        if not (_method_used(attr) or qualified in ALLOWED_METHODS)
    ]
    # each of these is a public method nothing outside the tests calls: give
    # it a caller, delete it, or name its oracle test or ROADMAP item in
    # ALLOWED_METHODS
    assert unexplained == []


def test_method_allowlist_names_only_test_only_methods():
    methods = _public_methods()
    for qualified in ALLOWED_METHODS:
        assert qualified in methods
        assert not _method_used(methods[qualified])
