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


#: The records that keep hand-written codecs; see the ``jsonl`` docstring.
HAND_WRITTEN_CODECS: set[tuple[str, str]] = set()


def test_records_take_their_wire_form_from_jsonl():
    """A record is written with ``jsonl.to_row`` and read with ``jsonl.from_row``."""
    codecs = {
        (node.name, item.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in ("to_dict", "from_dict")
    }
    stray = codecs - HAND_WRITTEN_CODECS
    assert stray == set(), "derive the wire form from the fields: jsonl.to_row, jsonl.from_row"


def _probe(code: str, *args: str) -> str:
    """Stdout of ``code`` run by a fresh interpreter that imports the package from src."""
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def test_importing_the_package_leaves_out_what_no_default_path_runs():
    """YAML (``--config``) and numpy (resampling over quota, bootstrap
    intervals) load on first use; rollouts run serially, so no path loads
    ``concurrent.futures``."""
    probe = (
        "import sys, futureworld, futureworld.cli; "
        "print(sorted({'yaml', 'concurrent.futures', 'numpy'} & set(sys.modules)))"
    )
    assert _probe(probe) == "[]"


#: Two evenings of history and a third, each a ``run_due_phases`` call as a
#: cron job makes it, on the default shape: fewer pairs than the daily quota.
_UNDER_QUOTA_EVENINGS = """
import sys
from datetime import datetime, time, timedelta, timezone
from pathlib import Path
from futureworld.orchestrator import CycleConfig, Orchestrator

config = CycleConfig(seed=4, questions_per_day=500, event_rate=60)
done = []
for offset in range(3):
    evening = datetime.combine(config.start_day + timedelta(days=offset), time(21), timezone.utc)
    done += Orchestrator(config, Path(sys.argv[1])).run_due_phases(evening)
print(len(done), sum(1 for phase in done if phase.startswith("resolve")), "numpy" in sys.modules)
"""


def test_a_default_cron_evening_runs_without_numpy(tmp_path):
    # 3 issue + 2 resolve + 3 benchmark phases, the last scoring the first day's batch
    assert _probe(_UNDER_QUOTA_EVENINGS, str(tmp_path)) == "8 2 False"


#: A day with more pairs than its quota, so each domain is resampled by K-means.
_RESAMPLING_DAY = """
import hashlib, sys
from pathlib import Path
from futureworld.orchestrator import BenchmarkSettings, CycleConfig, Orchestrator

config = CycleConfig(
    seed=4, questions_per_day=12, event_rate=60, benchmark=BenchmarkSettings(enabled=False)
)
orch = Orchestrator(config, Path(sys.argv[1]))
before = "numpy" in sys.modules
report = orch.run_issue_phase(config.start_day)
digest = hashlib.sha256(orch.questions_path(config.start_day).read_bytes()).hexdigest()[:16]
print(before, "numpy" in sys.modules, report.filtered_kept, report.questions_issued, digest)
"""

#: A whole simulation over quota: resampling, intervals and the benchmark phase.
_SIMULATION_OVER_QUOTA = """
import sys
from pathlib import Path
from futureworld.orchestrator import CycleConfig, Orchestrator

config = CycleConfig(seed=4, questions_per_day=12, event_rate=60)
result = Orchestrator(config, Path(sys.argv[1])).simulate(2)
print(len(result.cycle_reports), "numpy" in sys.modules, "concurrent.futures" in sys.modules)
"""


def test_a_simulation_over_quota_never_loads_a_thread_pool(tmp_path):
    assert _probe(_SIMULATION_OVER_QUOTA, str(tmp_path)) == "2 True False"


_INTERVALS = """
import sys
from futureworld.jsonl import to_row
from futureworld.scoring import ProbPrediction, summarize_probabilistic

preds = [ProbPrediction(None if i % 7 == 0 else (i * 37 % 101) / 100, i % 3 % 2) for i in range(60)]
before = "numpy" in sys.modules
point = summarize_probabilistic(preds, seed=3, with_intervals=False)
between = "numpy" in sys.modules
report = summarize_probabilistic(preds, seed=3)
same_points = to_row(point) == {**to_row(report), "intervals": {}}
print(before, between, "numpy" in sys.modules, same_points, "numpy.ma" in sys.modules)
print(sorted(report.intervals.items()))
"""


def test_resampling_and_intervals_load_numpy_and_keep_their_values(tmp_path):
    before, after, kept, issued, digest = _probe(_RESAMPLING_DAY, str(tmp_path)).split()
    assert (before, after) == ("False", "True")
    assert int(kept) > int(issued) == 12
    assert digest == "e5c44d748149cf02"
    flags, intervals = _probe(_INTERVALS).splitlines()
    assert flags == "False False True True False"  # an interval loads numpy but not numpy.ma
    assert intervals == (
        "[('accuracy', (0.2995833333333337, 0.55)), "
        "('brier', (0.34148454166666675, 0.5287410416666667)), "
        "('ece', (0.21369607843137256, 0.45085294117647057))]"
    )
