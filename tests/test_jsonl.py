from __future__ import annotations

import ast
from pathlib import Path

import futureworld
from futureworld.jsonl import read_jsonl, write_jsonl

PACKAGE = Path(futureworld.__file__).parent

#: Calls that read or write file text.
FILE_TEXT_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}

#: The only code outside ``jsonl`` allowed to make such calls, and why.
ALLOWED = {
    ("jsonl.py", "*"): "the run-directory file format",
    ("ledger.py", "TrajectoryLedger._append_batch"): "the ledger's fsynced log appender",
    ("ledger.py", "read_log_records"): "the ledger's log replay, with its torn-tail rules",
    ("orchestrator.py", "CycleConfig.from_yaml"): "the YAML config load",
    ("prompts.py", "load_default_templates"): "the prompt templates shipped in the package",
}


def _file_text_sites(tree: ast.AST, scope: tuple[str, ...] = ()):
    """Yield (enclosing function, call) for each call that touches file text.

    ``splitlines`` counts when it splits the text a call returned, as in
    ``path.read_text().splitlines()``; it also splits at U+2028 and U+0085.
    """
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _file_text_sites(node, scope + (node.name,))
            continue
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            splits_read_text = name == "splitlines" and isinstance(func.value, ast.Call)
            if name in FILE_TEXT_CALLS or splits_read_text:
                yield ".".join(scope), name
        yield from _file_text_sites(node, scope)


def test_run_directory_files_are_read_and_written_only_through_jsonl():
    used = set()
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        for function, call in _file_text_sites(ast.parse(path.read_text(encoding="utf-8"))):
            key = (path.name, "*") if (path.name, "*") in ALLOWED else (path.name, function)
            if key in ALLOWED:
                used.add(key)
            else:
                stray.append(f"{path.name}: {function or '<module>'} calls {call}()")
    assert stray == [], "read and write run-directory files through futureworld.jsonl"
    assert used == set(ALLOWED), "an allowance is no longer needed; remove it"


def test_jsonl_lines_end_at_newline_only(tmp_path):
    rows = [{"text": "a b\x85c\x1cd\re"}, {"text": ""}]
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, rows)
    assert read_jsonl(path) == rows
