"""The package holds only what a workflow or the public API runs, and
makes a generation in one place.

Every public top-level function or class of ``src/branchwiener`` must be
referenced in the package outside its own definition, or be listed in
``__all__``.  References that only tests use live in ``tests/oracles.py``.
Only ``simulator._advance`` draws offspring and branches, and only
``simulator._generations`` loops `initial_snapshot` + `step`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "branchwiener"


def _names_used(node) -> set[str]:
    """Names read and attributes taken anywhere under node."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _top_level(package: Path) -> list[tuple[str, ast.stmt]]:
    """(module, node) of each top-level statement of the package."""
    return [
        (path.stem, node)
        for path in sorted(package.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]


def users_of(name: str, package: Path = PACKAGE) -> list[str]:
    """module.name of each top-level function or class that names ``name``."""
    return [
        f"{module}.{node.name}"
        for module, node in _top_level(package)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and name in _names_used(node)
    ]


def unreferenced_public_names(package: Path = PACKAGE) -> list[str]:
    """module.name of each public top-level function or class that nothing
    else in the package names and that no ``__all__`` lists."""
    tops = _top_level(package)
    exported = {
        name
        for _, node in tops
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    }
    used = [_names_used(node) for _, node in tops]
    out = []
    for i, (module, node) in enumerate(tops):
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_") or node.name in exported:
            continue
        if not any(node.name in names for j, names in enumerate(used) if j != i):
            out.append(f"{module}.{node.name}")
    return out


def test_every_public_name_has_a_caller_or_is_exported():
    assert unreferenced_public_names() == []


@pytest.mark.parametrize("name, user", [
    ("_offspring_counts", "simulator._advance"),
    ("_branch", "simulator._advance"),
    ("initial_snapshot", "simulator._generations"),
    ("step", "simulator._generations"),
])
def test_one_place_makes_a_generation(name, user):
    assert users_of(name) == [user]
