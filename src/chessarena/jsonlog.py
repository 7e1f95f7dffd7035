"""Append-only JSONL logs: one JSON object per line, each appended in one
write. A tournament's `rounds.jsonl` and the analysis cache are such logs.

A row counts once its newline is written. An append cut short leaves a last
row without one: reading drops that torn row and cuts it off the file, so the
next append starts a line of its own. Any other row that does not decode
raises LogFileError naming `file:line`.
"""

from __future__ import annotations

import json
import os


class LogFileError(ValueError):
    """A log row, other than a torn last one, that does not decode."""

    def __init__(self, path, number: int, exc: Exception):
        super().__init__(f"{path}:{number}: {type(exc).__name__}: {exc}")


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
                raise LogFileError(path, number, exc) from None
            yield text, row
