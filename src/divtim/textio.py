"""The rules every text input shares: UTF-8 (a leading byte-order mark
ignored), a path (opened and closed here) or an open file (left open),
blank and ``#`` lines skipped in line-based files, errors by line number,
and every node-keyed row naming a known node, once."""

from __future__ import annotations

from contextlib import nullcontext
from typing import Iterable, Iterator

from .errors import FormatError


def open_text(source, mode: str = "r", newline: str | None = None):
    """A context manager for ``source``: a path opened as UTF-8 (a leading
    byte-order mark skipped when reading, none written), or an open file."""
    if isinstance(source, str):
        encoding = "utf-8-sig" if mode == "r" else "utf-8"
        return open(source, mode, encoding=encoding, newline=newline)
    return nullcontext(source)


def data_lines(source) -> Iterator[tuple[int, str]]:
    """``(line number, stripped line)`` for every line but blank and ``#`` ones."""
    with open_text(source) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield lineno, line


def node_rows(rows: Iterable[tuple[int, list[str]]], index: dict[str, int],
              where: str) -> Iterator[tuple[int, int, list[str]]]:
    """``(line, node id, other fields)`` for each ``(line, fields)`` whose
    first field names a node of ``index``; an unknown node or a node listed
    twice is a :class:`FormatError` naming ``where`` and the line (or row)."""
    first: dict[int, int] = {}
    for at, fields in rows:
        v = index.get(fields[0])
        if v is None:
            raise FormatError(f"{where} {at}: unknown node {fields[0]!r}")
        seen = first.setdefault(v, at)
        if seen != at:
            raise FormatError(f"{where}s {seen} and {at}: node {fields[0]!r} listed twice")
        yield at, v, fields[1:]
