"""JSONL files: one JSON object per line, keys sorted. `write_rows` replaces
a whole file (an eval's items or report) through `write_atomic`, as every
run-dir file is replaced; `append_row` adds one row per write to an
append-only log (a tournament's `rounds.jsonl`, the analysis cache).

A row counts once its newline is written. An append cut short leaves a last
row without one: reading drops that torn row and cuts it off the file, so the
next append starts a line of its own. Any other row that does not decode
raises UserError naming `file:line`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from . import UserError


def write_atomic(path: Path, text: str) -> None:
    """Write `text` to a `.tmp` sibling, then rename it over `path`: readers
    see the old file or the new one, never a torn one."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def encode_rows(rows) -> str:
    """The rows as JSONL text: one row per line, keys sorted."""
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def write_rows(path, rows) -> None:
    """Replace the file at `path`, making its directory, with one row per
    line. Every row is encoded before any file is touched."""
    path = Path(path)
    text = encode_rows(rows)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, text)


def append_row(path, row: dict) -> str:
    """Append `row` to the log at `path` in one write; returns its text."""
    text = json.dumps(row, sort_keys=True)
    data = (text + "\n").encode()
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        while data:
            data = data[os.write(fd, data) :]
    finally:
        os.close(fd)
    return text


def read_rows(path):
    """Yield the log's rows, oldest first, as (text, row) pairs; none when the
    file is missing. A torn last row is dropped, from the file too."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return
    with fh:
        end = 0
        for number, raw in enumerate(fh, 1):
            if not raw.endswith(b"\n"):
                os.truncate(path, end)
                return
            end += len(raw)
            try:
                text = raw[:-1].decode()
                row = json.loads(text)
                if not isinstance(row, dict):
                    raise ValueError("not a JSON object")
            except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError among them
                raise UserError.at(path, number, exc) from None
            yield text, row
