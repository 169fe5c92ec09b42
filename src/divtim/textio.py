"""The rules every text input shares: UTF-8, a path (opened and closed
here) or an open file (left open), blank and ``#`` lines skipped in
line-based files, errors by line number, and no node listed twice."""

from __future__ import annotations

from contextlib import nullcontext
from typing import Iterator

from .errors import FormatError


def open_text(source, mode: str = "r", newline: str | None = None):
    """A context manager for ``source``: a path opened as UTF-8, or an open file."""
    if isinstance(source, str):
        return open(source, mode, encoding="utf-8", newline=newline)
    return nullcontext(source)


def data_lines(source) -> Iterator[tuple[int, str]]:
    """``(line number, stripped line)`` for every line but blank and ``#`` ones."""
    with open_text(source) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield lineno, line


def once(first: dict[str, int], node: str, at: int, where: str) -> None:
    """Record that ``node`` is listed at line (or row) ``at``; twice is an error."""
    seen = first.setdefault(node, at)
    if seen != at:
        raise FormatError(f"{where} {seen} and {at}: node {node!r} listed twice")
