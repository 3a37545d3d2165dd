"""Static guards over the package source: every typed error is raised
somewhere, no check relies on an ``assert`` that ``-O`` strips, every
tolerance literal sits in a named home, only the kernel layer imports
SciPy, and every exported name has a caller in the package."""

import ast
from pathlib import Path

import projgeo
from projgeo import errors

TREES = {
    path.name: ast.parse(path.read_text())
    for path in sorted(Path(projgeo.__file__).parent.glob("*.py"))
}


def _raised_names(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_every_error_class_is_raised():
    declared = {
        node.name
        for node in TREES["errors.py"].body
        if isinstance(node, ast.ClassDef) and node.name != "ProjGeoError"
    }
    assert declared, "no error classes found"
    for name in declared:
        assert issubclass(getattr(errors, name), errors.ProjGeoError)
    raised = set().union(*(_raised_names(tree) for tree in TREES.values()))
    assert sorted(declared - raised) == []


def test_no_assert_statements():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _imported_modules(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


# the named constants where a tolerance literal may stand, besides the
# field defaults of ``Tolerance``
TOLERANCE_HOMES = {
    ("numkernel.py", "HALF_PI_BOUND"),
    ("projections.py", "PROJECTION_ATOL"),
    ("suites.py", "BOUNDS"),
}


def _checked_parts(module: str, stmt) -> list:
    """The parts of a module-level statement that may hold no tolerance
    literal."""
    if isinstance(stmt, ast.ClassDef) and stmt.name == "Tolerance":
        # the field defaults may
        return [node for node in stmt.body if not isinstance(node, ast.AnnAssign)]
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
        if isinstance(target, ast.Name) and (module, target.id) in TOLERANCE_HOMES:
            return []
    return [stmt]


def test_tolerance_literals_have_homes():
    found = [
        f"{module}:{node.lineno} {node.value!r}"
        for module, tree in TREES.items()
        for stmt in tree.body
        for part in _checked_parts(module, stmt)
        for node in ast.walk(part)
        if isinstance(node, ast.Constant)
        and type(node.value) is float
        and 0.0 < node.value < 1e-2
    ]
    assert found == []


def test_only_numkernel_imports_scipy():
    importers = sorted(
        name
        for name, tree in TREES.items()
        if any(m.split(".")[0] == "scipy" for m in _imported_modules(tree))
    )
    assert importers == ["numkernel.py"]


# exported names that no package module calls, each with the reason it stays
TEST_ONLY_EXPORTS = {
    "minimality_competitors": "acceptance criterion 3 calls it",
    "lift_projection": "it states the paper's first claim: a Calkin "
    "projection lifts to a projection",
    "exists_geodesic": "the documented predicate of the existence criterion",
}


def _loaded_names(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_export_has_a_caller():
    exported = {
        alias.asname or alias.name
        for node in TREES["__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    loaded = set().union(
        *(_loaded_names(tree) for name, tree in TREES.items() if name != "__init__.py")
    )
    assert sorted(exported - loaded) == sorted(TEST_ONLY_EXPORTS)
