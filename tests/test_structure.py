"""Structural rules of the package, read from its source.

Each private name in ``OWNERS`` is a decision that one module owns: the
rational form of lambda (the snap rule) and the whole-cell shift scan.
Another module may call the owner's public functions, but neither import
the name nor reach it as an attribute.  No module imports a name it
never reads.  And the count of settable values may not grow unseen.
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


# The settable values of the package: defaulted parameters of public
# functions and methods, defaulted fields of public dataclasses, and CLI
# options.  A new one raises this bound in its own diff.
MAX_SETTABLE_VALUES = 62


def _defaults(fn: ast.AST) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


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


def _settable_values(tree: ast.Module) -> int:
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    count = 0
    for node in tree.body:
        if isinstance(node, functions) and _is_public(node):
            count += _defaults(node)
        elif isinstance(node, ast.ClassDef) and _is_public(node):
            count += sum(
                _defaults(m) for m in node.body if isinstance(m, functions) and _is_public(m)
            )
            if any("dataclass" in ast.dump(d) for d in node.decorator_list):
                count += sum(_is_defaulted_field(a) for a in node.body)
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
