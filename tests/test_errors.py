"""Static guards over the package source: every typed error is raised
somewhere, no check relies on an ``assert`` that ``-O`` strips, every
tolerance literal sits in a named home, only ``numkernel`` reads
``rank_rtol``, the 17-digit float format is
spelled only in ``serialize``, projections are validated only where they
enter, no module imports SciPy (nor does ``import projgeo`` load it), no
module reads the environment, every exported name has a caller in the
package, and every defaulted parameter is passed by some package call,
and not always as one and the same literal."""

import ast
import subprocess
import sys
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
    ("numkernel.py", "RECON_RTOL"),
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


def test_only_numkernel_reads_rank_rtol():
    # every rank decision goes through Tolerance.rank; the CLI only hands the
    # threshold over, as the --tol-rank default and the Tolerance keyword
    reads = [
        f"{module}:{ast.unparse(node)}"
        for module, tree in TREES.items()
        if module != "numkernel.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "rank_rtol"
    ]
    assert reads == ["cli.py:Tolerance.rank_rtol"]


def test_float_format_is_spelled_only_in_serialize():
    # every float the package writes goes through serialize's one spec
    spelled = {
        module
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and ".17g" in node.value
    }
    assert spelled == {"serialize.py"}


# projections enter the library through these functions, each the door of
# a public entry point, with what it validates; the library's own
# constructions are projections by construction and are not validated again
VALIDATING_FUNCTIONS = {
    "_pair": "the pair of every pair-level entry point",
    "lift_projection": "the tail of the almost-projection it lifts",
    "lift_geodesic": "p and the exceptional blocks of lift_p, as one stack",
    "_block_pairs": "every block of both lifts, tails included, once, as one stack: "
    "the door of lifting_surgery, truncated_index_pairs and existence_dichotomy's lifts",
}


def _functions_calling(tree, name: str) -> set[str]:
    callers = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and name in (
                    getattr(call.func, "id", None),
                    getattr(call.func, "attr", None),
                ):
                    callers.add(node.name)
    return callers


def test_projections_are_validated_where_they_enter():
    callers = set().union(
        *(_functions_calling(tree, "make_projection") for tree in TREES.values())
    )
    assert sorted(callers - VALIDATING_FUNCTIONS.keys()) == []


def test_no_module_imports_scipy():
    importers = sorted(
        name
        for name, tree in TREES.items()
        if any(m.split(".")[0] == "scipy" for m in _imported_modules(tree))
    )
    assert importers == []


def test_import_leaves_scipy_unloaded():
    # a fresh interpreter, so that no other test's import of scipy counts
    src = str(Path(projgeo.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import projgeo; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "False"


def test_no_module_reads_the_environment():
    # thresholds come from a Tolerance, never from the process environment
    found = sorted(
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if (
            isinstance(node, (ast.Import, ast.ImportFrom))
            and any(m.split(".")[0] == "os" for m in _imported_modules(node))
        )
        or getattr(node, "id", getattr(node, "attr", None)) in ("environ", "getenv")
    )
    assert found == []


# public names (exports, module functions and methods of exported classes)
# that no package module calls, each with the reason it stays
TEST_ONLY_EXPORTS = {
    "lift_projection": "it states the paper's first claim: a Calkin "
    "projection lifts to a projection",
    "exists_geodesic": "the documented predicate of the existence criterion",
    "codiagonal_residual": "acceptance criterion 1 checks each minimal exponent with it",
    "adjoint": "the * of the block algebra, which quotient is tested to preserve",
}


def _loaded_names(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _public_names(trees, exported: set[str]) -> set[str]:
    """The exported names, every public module function, and the public
    methods of the exported classes."""
    names = set(exported)
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                names.add(node.name)
            elif isinstance(node, ast.ClassDef) and node.name in exported:
                names.update(f.name for f in node.body if isinstance(f, ast.FunctionDef))
    return {name for name in names if not name.startswith("_")}


def test_every_export_has_a_caller():
    exported = {
        alias.asname or alias.name
        for node in TREES["__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = _public_names(TREES.values(), exported)
    loaded = set().union(
        *(_loaded_names(tree) for name, tree in TREES.items() if name != "__init__.py")
    )
    assert sorted(public - loaded) == sorted(TEST_ONLY_EXPORTS)


# defaulted parameters that no package call site passes, besides those of
# the TEST_ONLY_EXPORTS functions, each with the reason it stays: every
# other option exists because a package caller sets it
UNPASSED_DEFAULTS = {
    ("main", "argv"): "the console entry calls main(); tests pass argv",
}


def _defaulted_parameters(fn) -> list[tuple[int | None, str]]:
    """``(position, name)`` of each parameter with a default; a keyword-only
    one has no position."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return [(i, a.arg) for i, a in enumerate(positional) if i >= first] + [
        (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    ]


def test_every_defaulted_parameter_is_passed():
    # a call site passes a parameter by keyword, by position, or through a
    # starred argument; calls are matched to functions by name
    passed = {}
    for tree in TREES.values():
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                seen = passed.setdefault(name, set())
                seen.update(k.arg for k in call.keywords)
                seen.update(range(len(call.args)))
                if any(isinstance(a, ast.Starred) for a in call.args):
                    seen.add("*")
    unpassed = {
        (fn.name, arg)
        for tree in TREES.values()
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        and not fn.name.startswith("_")
        and fn.name not in TEST_ONLY_EXPORTS
        for position, arg in _defaulted_parameters(fn)
        if not passed.get(fn.name, set()) & {arg, position, "*"}
    }
    assert sorted(unpassed) == sorted(UNPASSED_DEFAULTS)


def _passed_nodes(call, position, arg) -> list:
    """The argument nodes by which a call may pass a parameter: its keyword
    or a ``**`` mapping, and its position or a starred argument up to it."""
    nodes = [k.value for k in call.keywords if k.arg in (arg, None)]
    if position is not None:
        head = call.args[:position + 1]
        nodes += [a for a in head if isinstance(a, ast.Starred)] or head[position:]
    return nodes


def _literal(node) -> str | None:
    """The ``repr`` of a literal's value, or ``None`` for any other node."""
    try:
        return repr(ast.literal_eval(node))
    except ValueError:
        return None


def test_no_defaulted_parameter_takes_one_literal():
    # an option that every package call site passing it sets to the same
    # literal has one value in use: it is a constant, not an option
    functions = {
        fn.name: fn
        for tree in TREES.values()
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
    }
    values = {}
    for tree in TREES.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            if name not in functions:
                continue
            for position, arg in _defaulted_parameters(functions[name]):
                values.setdefault((name, arg), []).extend(
                    _literal(node) for node in _passed_nodes(call, position, arg)
                )
    one_valued = sorted(
        key for key, passed in values.items()
        if passed and None not in passed and len(set(passed)) == 1
    )
    assert one_valued == []
