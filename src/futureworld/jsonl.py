"""The run-directory file format: every derived file is read and written here.

A JSONL file holds one canonical JSON object per line, and only ``\\n`` ends
a line: ``str.splitlines`` would also split at U+2028, U+0085 and other
separators that ``ensure_ascii=False`` leaves raw inside strings. The ledger's
day logs share the canonical line but keep their appender and replay, with
the logs' crash rules (fsync, torn tail), in ``ledger``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping


def canonical_encoder() -> Callable[[Any], str]:
    """A serializer to the canonical line; a writer of many rows makes one and reuses it.

    Rows are trees built by ``to_dict``, so the reference-cycle check is
    skipped (a cycle still fails, with ``RecursionError``); it costs about a
    tenth of the encoding.
    """
    return json.JSONEncoder(
        sort_keys=True, separators=(",", ":"), ensure_ascii=False, check_circular=False
    ).encode


def dumps_canonical(obj: Any) -> str:
    """Serialize to the canonical single-line JSON used in every JSONL file."""
    return canonical_encoder()(obj)


def write_atomically(path: Path, chunks: Iterable[str]) -> None:
    """Replace ``path`` with the concatenated text ``chunks``, all or nothing.

    The text goes to a temporary file beside ``path`` that ``os.replace``
    renames over it, so a process that dies or raises part-way leaves the
    previous file, or no file, never a short one. Derived files are not
    fsynced: they can be rebuilt from the durable ledger logs and inputs.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: Path, rows: Iterable[Mapping[str, Any]]) -> None:
    encode = canonical_encoder()
    write_atomically(path, (encode(dict(row)) + "\n" for row in rows))


def write_json(path: Path, payload: Mapping[str, Any]) -> None:
    """Write one JSON document (a report), indented and with sorted keys."""
    write_atomically(path, [json.dumps(payload, sort_keys=True, indent=1) + "\n"])


def read_lines(path: Path) -> list[str]:
    """The lines of a UTF-8 text file, each ending at ``\\n`` only."""
    with open(path, encoding="utf-8", newline="\n") as fh:
        return fh.readlines()


def read_jsonl(path: Path) -> list[dict[str, Any]]:
    return [json.loads(line) for line in read_lines(path) if line.strip()]


def read_json(path: Path) -> Any:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
