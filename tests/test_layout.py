"""The package holds only what a workflow or the public API runs.

Every public top-level function or class of ``src/branchwiener`` must be
referenced in the package outside its own definition, or be listed in
``__all__``.  References that only tests use live in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "branchwiener"


def _names_used(node) -> set[str]:
    """Names read and attributes taken anywhere under node."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def unreferenced_public_names(package: Path = PACKAGE) -> list[str]:
    """module.name of each public top-level function or class that nothing
    else in the package names and that no ``__all__`` lists."""
    tops = [
        (path.stem, node)
        for path in sorted(package.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
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
