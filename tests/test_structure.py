"""Structural rules of the package, read from its source.

Each private name in ``OWNERS`` is a decision that one module owns: the
rational form of lambda (the snap rule) and the whole-cell shift scan.
Another module may call the owner's public functions, but neither import
the name nor reach it as an attribute.  No module imports a private
name of ``envelope``, and no module imports a name it never reads.  Only
``gridfn`` cuts a window into cells.  The count of settable values may
not grow unseen, and every default is one that some program leaves out.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "plstab"

OWNERS = {
    "_rational": "plcore",
    "_coarse_to_fine": "reconstruct",
}


def _names_used(tree: ast.AST) -> set[str]:
    """Names imported from other modules, and attributes read, in a module."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


@pytest.mark.parametrize("name, owner", sorted(OWNERS.items()))
def test_private_names_stay_with_their_owner(name, owner):
    modules = sorted(PACKAGE.glob("*.py"))
    assert owner in {path.stem for path in modules}
    users = [
        path.stem
        for path in modules
        if path.stem != owner and name in _names_used(ast.parse(path.read_text()))
    ]
    assert users == [], f"{name} belongs to {owner}"


def _private_imports_from(tree: ast.AST, module: str) -> list[str]:
    """Private names a module imports from a sibling module."""
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
        for alias in node.names
        if alias.name.startswith("_")
    ]


# The envelope checks run by their public names: the pipeline calls the
# same ``four_point_check`` that tests and the benchmark's tracer see.
@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.stem != "envelope"),
    ids=lambda p: p.stem,
)
def test_no_private_import_from_envelope(path):
    names = _private_imports_from(ast.parse(path.read_text()), "envelope")
    assert names == [], f"{path.stem} imports private envelope names"


def _names_read(tree: ast.AST) -> set[str]:
    """Names a module loads; a quoted annotation counts as the names in it."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            read |= _names_read(ast.parse(annotation.value, mode="eval"))
    return read


def _names_imported(tree: ast.AST) -> set[str]:
    """Names bound by the imports of a module, ``__future__`` left out."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    return bound


# ``__init__`` imports names only to re-export them.
@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.stem != "__init__"),
    ids=lambda p: p.stem,
)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text())
    unused = sorted(_names_imported(tree) - _names_read(tree))
    assert unused == [], f"{path.stem} imports names it never reads"


def _forms_cell_centers(tree: ast.AST) -> bool:
    """Whether a module computes cell centers as ``np.arange(...) + 0.5``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            sides = (node.left, node.right)
            if any(
                isinstance(s, ast.Call) and getattr(s.func, "attr", "") == "arange" for s in sides
            ) and any(isinstance(s, ast.Constant) and s.value == 0.5 for s in sides):
                return True
    return False


# Every grid on a window is built by ``gridfn.from_samples``.
@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.stem != "gridfn"),
    ids=lambda p: p.stem,
)
def test_only_gridfn_forms_cell_centers(path):
    assert not _forms_cell_centers(ast.parse(path.read_text())), (
        f"{path.stem} cuts a window into cells; call gridfn.from_samples"
    )


# The settable values of the package: defaulted parameters of public
# functions and methods, defaulted fields of public dataclasses, and CLI
# options.  A new one raises this bound in its own diff.
MAX_SETTABLE_VALUES = 32

BENCH = PACKAGE.parents[1] / "bench"


def _is_public(node: ast.AST) -> bool:
    return not node.name.startswith("_") or node.name == "__init__"


def _is_defaulted_field(node: ast.AST) -> bool:
    """An annotated class attribute with a default (``field()`` needs one too)."""
    if not isinstance(node, ast.AnnAssign) or node.value is None:
        return False
    value = node.value
    if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return True


def _defaulted_parameters(fn: ast.AST, callee: str, bound: int):
    """``(callee, name, position)`` of each defaulted parameter of a function.

    ``position`` counts the call's positional arguments, leaving out the
    ``bound`` leading parameters (``self``); it is None for keyword-only ones.
    """
    positional = (fn.args.posonlyargs + fn.args.args)[bound:]
    for i in range(len(positional) - len(fn.args.defaults), len(positional)):
        yield callee, positional[i].arg, i
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield callee, arg.arg, None


def _defaulted(tree: ast.Module):
    """``(callee, name, position)`` of each defaulted parameter and field of a module.

    ``callee`` is the name a call uses: the function or method, or the
    class for ``__init__`` and for dataclass fields.
    """
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions) and _is_public(node):
            yield from _defaulted_parameters(node, node.name, 0)
        elif isinstance(node, ast.ClassDef) and _is_public(node):
            for m in node.body:
                if isinstance(m, functions) and _is_public(m):
                    static = any(getattr(d, "id", "") == "staticmethod" for d in m.decorator_list)
                    callee = node.name if m.name == "__init__" else m.name
                    yield from _defaulted_parameters(m, callee, 0 if static else 1)
            if any("dataclass" in ast.dump(d) for d in node.decorator_list):
                attrs = [a for a in node.body if isinstance(a, ast.AnnAssign)]
                for i, a in enumerate(attrs):
                    if _is_defaulted_field(a):
                        yield node.name, a.target.id, i


def _settable_values(tree: ast.Module) -> int:
    count = len(list(_defaulted(tree)))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", "") == "add_argument"
            and node.args
            and str(getattr(node.args[0], "value", "")).startswith("--")
        ):
            count += 1
    return count


def test_settable_values_do_not_grow():
    total = sum(_settable_values(ast.parse(p.read_text())) for p in PACKAGE.glob("*.py"))
    assert total <= MAX_SETTABLE_VALUES, f"{total} settable values"


def _omits(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether a call leaves a parameter to its default; ``**kwargs`` leaves all."""
    if any(k.arg is None for k in call.keywords):
        return True
    if any(k.arg == name for k in call.keywords):
        return False
    if position is None:
        return True
    return not any(isinstance(a, ast.Starred) for a in call.args) and len(call.args) <= position


# A default stays only while a program relies on it: some call in the
# package or the benchmark, matched by name, leaves it out.  A default
# that only tests omit becomes a required argument.
@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_default_is_omitted_by_a_program(path):
    calls = [
        node
        for program in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py"))
        for node in ast.walk(ast.parse(program.read_text()))
        if isinstance(node, ast.Call)
    ]
    unused = [
        f"{callee}({name})"
        for callee, name, position in _defaulted(ast.parse(path.read_text()))
        if not any(
            callee in (getattr(c.func, "id", None), getattr(c.func, "attr", None))
            and _omits(c, name, position)
            for c in calls
        )
    ]
    assert unused == [], f"{path.stem}: defaults no program omits"
