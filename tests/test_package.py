"""The package's declared surface matches its code: dependencies, modules, exports."""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "futureworld"
#: distribution name -> top-level import name, where the two differ
IMPORT_NAMES = {"pyyaml": "yaml"}


def _project() -> dict:
    return tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]


def _imports(module: str) -> tuple[set[str], set[str]]:
    """(package modules, absolute top-level names) that one package module imports."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    local: set[str] = set()
    absolute: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            absolute.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            absolute.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module:
            local.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom):  # from . import name
            local.update(a.name for a in node.names if (PACKAGE / f"{a.name}.py").exists())
    return local, absolute


def _reachable() -> dict[str, set[str]]:
    """Modules loaded by ``import futureworld`` or a console script, with their imports."""
    entry = {"__init__"} | {
        target.split(":")[0].split(".")[1] for target in _project()["scripts"].values()
    }
    seen: dict[str, set[str]] = {}
    todo = sorted(entry)
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        local, seen[module] = _imports(module)
        todo.extend(local - set(seen))
    return seen


def test_runtime_dependencies_are_the_third_party_imports_of_the_package():
    declared = set()
    for requirement in _project()["dependencies"]:
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower()
        declared.add(IMPORT_NAMES.get(name, name.replace("-", "_")))
    imported = {
        name
        for names in _reachable().values()
        for name in names
        if name not in sys.stdlib_module_names and name != "futureworld"
    }
    assert declared == imported


def test_every_module_is_loaded_and_every_exported_name_resolves():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert modules == set(_reachable())
    package = importlib.import_module("futureworld")
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []


def test_importing_the_package_leaves_out_what_no_default_path_runs():
    """YAML (``--config``) and the thread pool (``max_workers > 1``) load on first use."""
    probe = (
        "import sys, futureworld; "
        "print(sorted({'yaml', 'concurrent.futures'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
