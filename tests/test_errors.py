"""Static guards over the package source: every typed error is raised
somewhere, no check relies on an ``assert`` that ``-O`` strips, and only
the kernel layer imports SciPy."""

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


def test_only_numkernel_imports_scipy():
    importers = sorted(
        name
        for name, tree in TREES.items()
        if any(m.split(".")[0] == "scipy" for m in _imported_modules(tree))
    )
    assert importers == ["numkernel.py"]
