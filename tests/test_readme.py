"""README.md is held to the code: every name it gives resolves and every example runs."""

from __future__ import annotations

import importlib
import re
import shlex
from pathlib import Path

from futureworld import cli
from futureworld.orchestrator import CycleConfig, Orchestrator

ROOT = Path(__file__).resolve().parent.parent
#: the header of the README's table of guarantees
GUARANTEES_HEADER = "| Guarantee | Enforced in | Test |"
#: what a per-day name stands for in the run-directory tree
PLACEHOLDERS = {"<day>": r"\d{4}-\d{2}-\d{2}", "<agent>": r"[a-z]+"}


def _readme() -> str:
    return (ROOT / "README.md").read_text(encoding="utf-8")


def _guarantee_rows() -> list[list[str]]:
    """The cells of each row of the guarantees table: guarantee, enforced in, test."""
    lines = _readme().split(GUARANTEES_HEADER + "\n", 1)[1].splitlines()
    rows = []
    for line in lines[1:]:  # after the |---| separator
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip().strip("|").split(" | ")])
    return rows


def _resolves(entry: str) -> bool:
    """Whether ``module.attr[.attr...]`` names an attribute of a ``futureworld`` module."""
    module, _, attrs = entry.partition(".")
    if not attrs:
        return False
    try:
        value = importlib.import_module(f"futureworld.{module}")
        for attr in attrs.split("."):
            value = getattr(value, attr)
    except (ImportError, AttributeError):
        return False
    return True


def test_each_test_the_readme_names_is_defined_under_tests():
    defined = {
        name
        for path in (ROOT / "tests").rglob("*.py")
        for name in re.findall(r"^\s*def (test_\w+)", path.read_text(encoding="utf-8"), re.M)
    }
    named = set(re.findall(r"`(test_\w+)`", _readme()))
    assert named
    assert sorted(named - defined) == []


def test_each_guarantee_names_the_code_that_enforces_it_and_what_holds_it():
    rows = _guarantee_rows()
    assert rows
    assert [row for row in rows if len(row) != 3] == []
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    unresolved, unheld = [], []
    for guarantee, enforced_in, test in rows:
        entries = re.findall(r"`([^`]+)`", enforced_in)
        if not entries:
            unresolved.append(guarantee)
        unresolved += [entry for entry in entries if not _resolves(entry)]
        if guarantee.startswith("*Gap:*"):
            # a known gap names the open ROADMAP direction that mends it
            direction = re.fullmatch(r"ROADMAP direction (\d+)", test)
            held = direction is not None and re.search(rf"^{direction[1]}\. \*\*", roadmap, re.M)
        else:
            held = re.fullmatch(r"`test_\w+`(, `test_\w+`)*", test)
        if not held:
            unheld.append(guarantee)
    assert unresolved == []
    assert unheld == []


def test_the_readme_config_example_loads(tmp_path):
    example = _readme().split("## Configuration", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    config_file = tmp_path / "cycle.yaml"
    config_file.write_text(example)
    config = CycleConfig.from_yaml(config_file)
    assert config.seed == 6 and config.sources == ("feeds/a.jsonl",)


def test_each_fw_line_of_the_readme_parses():
    lines = [
        line.split("#", 1)[0]
        for block in re.findall(r"```bash\n(.*?)```", _readme(), re.S)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("fw ")
    ]
    commands = {line.split()[1] for line in lines}
    assert commands == {"ingest", "issue", "resolve", "benchmark", "export", "score", "simulate", "cycle"}
    parser = cli.build_parser()
    refused = []
    for line in lines:
        # an optional argument is written in brackets
        argv = shlex.split(re.sub(r"\[([^\]]*)\]", r"\1", line))[1:]
        try:
            parser.parse_args(argv)
        except SystemExit:
            refused.append(line)
    assert refused == []


def test_the_readme_run_directory_tree_is_what_a_simulation_writes(tmp_path):
    tree = _readme().split("Everything the run produced is under the run directory:", 1)[1]
    tree = tree.split("```\n", 2)[1]
    patterns = re.findall(r"^  (\S+)", tree, re.M)
    regexes = [
        re.compile("".join(PLACEHOLDERS.get(part, re.escape(part)) for part in re.split(r"(<\w+>)", p)))
        for p in patterns
    ]
    run_dir = tmp_path / "run"
    config = CycleConfig(seed=11, agents=("oracle", "constant"), questions_per_day=20, event_rate=70)
    Orchestrator(config, run_dir).simulate(2)
    written = sorted(p.relative_to(run_dir).as_posix() for p in run_dir.rglob("*") if p.is_file())

    assert {p.split("/")[0] for p in patterns} == {p.name for p in run_dir.iterdir()}
    assert [p for p, r in zip(patterns, regexes) if not any(r.fullmatch(f) for f in written)] == []
    assert [f for f in written if not any(r.fullmatch(f) for r in regexes)] == []
