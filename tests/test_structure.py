"""Structural rules of the package, read from its source.

Each private name in ``OWNERS`` is a decision that one module owns: the
rational form of lambda (the snap rule) and the whole-cell shift scan.
Another module may call the owner's public functions, but neither import
the name nor reach it as an attribute.  And no module imports a name it
never reads.
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
