"""Single-owner rules of the package, read from its source.

Each private name below is a decision that one module owns: the rational
form of lambda (the snap rule) and the whole-cell shift scan.  Another
module may call the owner's public functions, but neither import the
name nor reach it as an attribute.
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
