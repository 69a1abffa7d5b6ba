"""The run-directory file format: every derived file is read and written here.

A JSONL file holds one canonical JSON object per line, and only ``\\n`` ends
a line: ``str.splitlines`` would also split at U+2028, U+0085 and other
separators that ``ensure_ascii=False`` leaves raw inside strings. The ledger's
day logs share the canonical line, but ``ledger`` alone knows their record
format, appender and replay, with the logs' crash rules (fsync, torn tail).

This module also owns the records' shapes. ``to_row`` and ``from_row`` walk a
dataclass's fields and type hints, so the class is the schema: the key is the
field name, a UTC instant is an RFC 3339 string, a date an ISO string, a
string enum its value and a tuple a list. ``from_row`` checks every value
against its field's type; the YAML config loads through it too. A class's
plan is built on its first use. The ledger writes its trajectories as
text equal to the canonical line of ``to_row``, and its replay decodes them
equal to ``from_row``; both work on the fields directly, so that sibling
rollouts share their equal texts and values. The ledger's export builds its
rows itself; every other record, each report included, has no codec of its
own.
"""

from __future__ import annotations

import enum
import functools
import json
import os
from collections import abc
from dataclasses import MISSING, fields, is_dataclass
from datetime import date, datetime
from pathlib import Path
from types import UnionType
from typing import Any, Callable, Iterable, Iterator, Mapping, TypeVar, Union
from typing import get_args, get_origin, get_type_hints

from .domain import format_rfc3339, parse_rfc3339

R = TypeVar("R")


def to_row(record: Any) -> dict[str, Any]:
    """The wire form of a dataclass record: one key per field."""
    return {name: encode(getattr(record, name)) for name, encode in _row_plan(type(record))}


@functools.cache
def _row_plan(cls: type) -> tuple[tuple[str, Callable[[Any], Any]], ...]:
    hints = get_type_hints(cls)
    return tuple((f.name, _encoder(hints[f.name]) or _same) for f in fields(cls))


def _same(value: Any) -> Any:
    return value


def _encoder(kind: Any) -> Callable[[Any], Any] | None:
    """How a value of type ``kind`` goes on the wire; None when it goes as it is."""
    origin, args = get_origin(kind), get_args(kind)
    if kind is datetime or kind is date:
        return format_rfc3339 if kind is datetime else date.isoformat
    if is_dataclass(kind):
        return to_row
    if origin is Union or origin is UnionType:  # Optional[X] or X | None
        inner = _encoder(args[0])
        return inner and (lambda v: None if v is None else inner(v))
    if origin is tuple:
        item = _encoder(args[0])
        return (lambda v: [item(x) for x in v]) if item else list
    if origin is abc.Mapping or origin is dict:
        item = _encoder(args[1])
        return (lambda v: {k: item(x) for k, x in v.items()}) if item else dict
    return None


def from_row(cls: type[R], row: Any, subject: str = "", strict: bool = False) -> R:
    """The ``cls`` record whose wire form is ``row``, each value checked against its field.

    A wrong-typed value (a float field takes an int; ``true`` is no number), a
    missing key or a failed ``__post_init__`` check raises ``ValueError`` naming
    the dotted path after ``subject`` (the class name by default). Keys that
    are no field are ignored, unless ``strict``: a file with more still loads.
    """
    return _decoder(cls, subject or cls.__name__, strict)(row, "")


@functools.cache
def _decoder(kind: Any, subject: str, strict: bool) -> Callable[[Any, str], Any]:
    """How a value of type ``kind`` is read: a function of the value and its path."""
    origin, args = get_origin(kind), get_args(kind)
    if kind is Any:
        return lambda value, path: value
    if origin is Union or origin is UnionType:  # Optional[X] or X | None
        inner = _decoder(args[0], subject, strict)
        return lambda value, path: None if value is None else inner(value, path)
    if is_dataclass(kind):
        return _record_decoder(kind, subject, strict)
    if isinstance(kind, type) and issubclass(kind, enum.Enum):

        def read_member(value: Any, path: str) -> Any:
            try:
                return kind(value)
            except ValueError:
                names = ", ".join(repr(member.value) for member in kind)
                where = _where(subject, path)
                raise ValueError(f"{where} must be one of {names}, got {value!r}") from None

        return read_member
    if origin is tuple:  # tuple[X, ...]
        item = _decoder(args[0], subject, strict)
        return lambda value, path: tuple(
            item(v, f"{path}[{i}]")
            for i, v in enumerate(_expect(list, "a list", value, subject, path))
        )
    if origin is abc.Mapping or origin is dict:
        key, val = (_decoder(a, subject, strict) for a in args)
        return lambda value, path: {
            key(k, f"{path} keys"): val(v, f"{path}.{k}")
            for k, v in _expect(dict, "a mapping", value, subject, path).items()
        }
    if kind is datetime or kind is date:
        parse, name = (
            (parse_rfc3339, "an RFC 3339 time") if kind is datetime
            else (date.fromisoformat, "a date YYYY-MM-DD")
        )

        def read_text(value: Any, path: str) -> Any:
            if type(value) is kind:  # YAML reads an unquoted date as one
                return value
            try:
                return parse(value)
            except (AttributeError, TypeError, ValueError):
                raise ValueError(f"{_where(subject, path)} must be {name}, got {value!r}") from None

        return read_text

    def read_scalar(value: Any, path: str) -> Any:
        if type(value) is kind:
            return value
        if kind is float and type(value) is int:
            return float(value)
        return _expect(kind, kind.__name__, value, subject, path)

    return read_scalar


def _record_decoder(cls: type, subject: str, strict: bool) -> Callable[[Any, str], Any]:
    hints = get_type_hints(cls)
    plan = {f.name: _decoder(hints[f.name], subject, strict) for f in fields(cls)}
    required = [f.name for f in fields(cls) if f.default is f.default_factory is MISSING]

    def read_record(value: Any, path: str) -> Any:
        raw = _expect(dict, "a mapping", value, subject, path)
        unknown = sorted(map(str, set(raw) - set(plan))) if strict else ()
        if unknown:
            keys = f"keys in {subject} {path}" if path else f"{subject} keys"
            raise ValueError(f"unknown {keys}: {', '.join(unknown)}")
        missing = [n for n in required if n not in raw]
        if missing:
            raise ValueError(f"{_where(subject, path)} lacks required keys: {', '.join(missing)}")
        kwargs = {k: plan[k](v, f"{path}.{k}" if path else k) for k, v in raw.items() if k in plan}
        try:
            return cls(**kwargs)
        except ValueError as exc:  # a check in ``__post_init__``: name the section
            if not path:
                raise
            raise ValueError(f"{subject} {path}: {exc}") from None

    return read_record


def _where(subject: str, path: str) -> str:
    return f"{subject} {path}" if path else subject


def _expect(kind: type, name: str, value: Any, subject: str, path: str) -> Any:
    """``value`` if it is a ``kind`` (a ``bool`` is no number), else a ``ValueError``."""
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ValueError(f"{_where(subject, path)} must be {name}, got {type(value).__name__}")
    return value


#: Serialize to the canonical single-line JSON of every JSONL file. Rows are
#: trees built by ``to_row``, so the reference-cycle check is skipped (a cycle
#: still fails, with ``RecursionError``); it costs about a tenth of the encoding.
dumps_canonical: Callable[[Any], str] = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False, check_circular=False
).encode


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


def write_jsonl(path: Path, rows: Iterable[Mapping[str, Any]]) -> int:
    """Write one canonical line per row, all or nothing; returns how many rows."""
    written = 0

    def lines() -> Iterator[str]:
        nonlocal written
        for row in rows:
            yield dumps_canonical(dict(row)) + "\n"
            written += 1

    write_atomically(path, lines())
    return written


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
