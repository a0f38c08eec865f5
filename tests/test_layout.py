"""The package holds only what a workflow runs or the README documents,
and makes a generation in one place.

Every public top-level function or class of ``src/branchwiener`` must be
referenced in the package outside its own definition, or be exported:
shown called in README.md, which is the package's API.  References that
only tests use live in ``tests/oracles.py``.  Every name in ``__all__``
must exist.  Only the public ``simulator.step`` draws offspring and
branches, and only ``simulator._generations`` loops `initial_snapshot` +
`step`: every
generation, the replica ensemble's included, goes through the `step` that a
tracer wraps.  Only ``cli._run_tasks`` runs anything in parallel, on
processes, and no command imports ``concurrent.futures`` at start-up.
Every Hermite product the package takes comes from
``hermite.hermite_products``, and every Gaussian factor (2 pi T)^(+-d/2)
from ``kernel_expansion._gauss_factor``.  Only ``kernel_expansion`` catches
an `OverflowError` from a scalar ``**`` or from ``math.fsum``'s partials: in
``_times_power``, on which ``_power`` builds its refusal, and in ``_fsum``;
``regions`` catches a float's parse and the region moments'.  The series
factors (-T)^(-n) are taken in one function.  Only ``sampler`` names the
stream's hash, keys, tags, uniforms and normal quantile, and no module
imports a private name from it.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import branchwiener

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "branchwiener"
README = ROOT / "README.md"


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


def undocumented_public_names(package: Path = PACKAGE, readme: Path = README) -> list[str]:
    """module.name of each public top-level function or class that nothing
    else in the package names and that README.md never shows called, as
    ``name(``."""
    text = readme.read_text(encoding="utf-8")
    tops = _top_level(package)
    used = [_names_used(node) for _, node in tops]
    out = []
    for i, (module, node) in enumerate(tops):
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_") or re.search(rf"\b{node.name}\(", text):
            continue
        if not any(node.name in names for j, names in enumerate(used) if j != i):
            out.append(f"{module}.{node.name}")
    return out


def test_every_public_name_has_a_caller_or_is_exported():
    assert undocumented_public_names() == []


def test_every_name_in_all_exists():
    assert [n for n in branchwiener.__all__ if not hasattr(branchwiener, n)] == []


@pytest.mark.parametrize("name, user", [
    ("_offspring_counts", "simulator.step"),
    ("_branch", "simulator.step"),
    ("initial_snapshot", "simulator._generations"),
    ("step", "simulator._generations"),
    ("offspring_uniforms", "simulator._offspring_counts"),
    ("child_ids", "simulator._branch"),
    ("displace", "simulator._branch"),
])
def test_one_place_makes_a_generation(name, user):
    assert users_of(name) == [user]


STREAM = {"_mix", "_mix_int", "_key", "_u01", "_ndtri", "_GOLDEN", "_SALT", "_M1", "_M2"}


def test_one_module_owns_the_sampler_stream():
    tops = [(module, node) for module, node in _top_level(PACKAGE) if module != "sampler"]
    where = [
        f"{module}.{node.name}"
        for module, node in tops
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and any(n in STREAM or n.startswith("_TAG_") for n in _names_used(node))
    ]
    imported = [
        f"{module}: {alias.name}"
        for module, node in tops
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "sampler"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert where == [] and imported == []


def test_one_routine_takes_hermite_products():
    # hermite_table stays for the oracles and the README's API.
    assert users_of("hermite_table") == []
    assert sorted(users_of("hermite_products")) == [
        "kernel_expansion._truncation",
        "martingales._pairwise_v",
        "martingales.ensemble_v_matrix",
    ]


def test_one_routine_takes_the_gauss_factor():
    where = [
        f"{module}.{getattr(node, 'name', f'line {node.lineno}')}"
        for module, node in _top_level(PACKAGE)
        if "pi" in _names_used(node)
    ]
    assert where == ["kernel_expansion._gauss_factor"]


def test_one_module_catches_a_power_that_overflows():
    assert sorted(users_of("OverflowError")) == [
        "kernel_expansion._fsum",
        "kernel_expansion._times_power",
        "regions._real",  # float() of a big int
        "regions.moment_matrix",  # one region at a time, to name it
    ]


def test_one_routine_takes_the_series_factors():
    where = [
        f"{module}.{getattr(node, 'name', f'line {node.lineno}')}"
        for module, node in _top_level(PACKAGE)
        for n in ast.walk(node)
        if isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.USub)
        and isinstance(n.operand, ast.Name) and n.operand.id == "T"
    ]
    assert where == ["kernel_expansion._series_factors"]


CONCURRENCY = {"ThreadPoolExecutor", "ProcessPoolExecutor", "threading", "multiprocessing"}


def _names_and_imports(node) -> set[str]:
    """`_names_used` of node, and every dotted part of the modules and names
    that its import statements take."""
    names = _names_used(node)
    for n in ast.walk(node):
        if isinstance(n, (ast.Import, ast.ImportFrom)):
            for module in [getattr(n, "module", None), *(a.name for a in n.names)]:
                names.update((module or "").split("."))
    return names


def test_only_diagnose_runs_in_parallel():
    where = {
        f"{module}.{getattr(node, 'name', f'line {node.lineno}')}"
        for module, node in _top_level(PACKAGE)
        if CONCURRENCY & _names_and_imports(node)
    }
    assert where == {"cli._run_tasks"}


def test_cli_import_leaves_out_concurrent_futures():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    code = "import sys, branchwiener.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.split() == ["False"]
