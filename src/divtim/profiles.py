"""Categorical node profiles: schema, loading, synthesis, discretization.

A profile assigns each node at most one value per attribute; absent
cells are missing.  Values are qualified internally by their attribute,
so value "3" of attribute 1 never collides with value "3" of attribute 2.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FormatError
from .rng import stream
from .textio import node_rows, open_text

MISSING = -1


@dataclass
class Schema:
    """Ordered attributes, each with its domain of values."""

    attributes: list[str]
    domains: list[list[str]]

    @property
    def m(self) -> int:
        return len(self.attributes)

    def domain_sizes(self) -> list[int]:
        return [len(d) for d in self.domains]

    def total_domain_size(self) -> int:
        return sum(len(d) for d in self.domains)


@dataclass
class ProfileSet:
    """Per-node sparse categorical tuples plus corpus-wide value counts."""

    schema: Schema
    codes: np.ndarray            # (n, m) int32, MISSING where absent
    value_counts: list[np.ndarray] = field(init=False)  # per attribute, len dom

    def __post_init__(self):
        self.value_counts = [np.bincount(col[col != MISSING], minlength=len(dom))
                             for col, dom in zip(self.codes.T, self.schema.domains)]

    @property
    def node_count(self) -> int:
        return self.codes.shape[0]

    def values_of(self, v: int) -> list[tuple[int, int]]:
        """Qualified (attribute index, value code) pairs present on v."""
        return [(j, c) for j, c in enumerate(self.codes[v].tolist()) if c != MISSING]

    def total_value_occurrences(self) -> int:
        return int(sum(c.sum() for c in self.value_counts))


def _node_cells(source, node_labels: list[str]
                ) -> tuple[list[str], list[tuple[int, list[str]] | None]]:
    """A CSV's attribute names and its rows in node order.

    A leading ``node`` column keys rows by node label; otherwise rows map
    to nodes by position, one row per node.  Each node gets (row number,
    one cell per attribute), or None when a keyed file has no row for it.
    """
    with open_text(source, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader, [])]
        rows = list(enumerate(reader, start=2))
    keyed = header[:1] == ["node"]
    names = header[1:] if keyed else header
    if not names:
        raise FormatError("CSV declares no attributes")
    for rowno, row in rows:
        if len(row) != len(header):
            raise FormatError(f"row {rowno}: {len(row)} cells for {len(header)} columns")
    if not keyed:
        if len(rows) != len(node_labels):
            raise FormatError(f"positional CSV has {len(rows)} rows for {len(node_labels)} nodes")
        return names, rows
    index = {lab: i for i, lab in enumerate(node_labels)}
    by_node: list[tuple[int, list[str]] | None] = [None] * len(node_labels)
    for rowno, v, cells in node_rows(rows, index, "row"):
        by_node[v] = (rowno, cells)
    return names, by_node


def load_profiles(source, node_labels: list[str]) -> ProfileSet:
    """Load a profile CSV (header row, empty cell = missing value).

    A leading ``node`` column keys rows by external node id, and a node
    without a row has every value missing; otherwise rows map positionally
    to dense ids.  Each attribute's domain is its observed values, sorted.
    """
    attr_names, by_node = _node_cells(source, node_labels)
    rows = [cells for _, cells in filter(None, by_node)]
    domains = [sorted({row[j] for row in rows if row[j] != ""}) for j in range(len(attr_names))]
    lookup = [{val: c for c, val in enumerate(dom)} for dom in domains]
    codes = np.full((len(by_node), len(attr_names)), MISSING, dtype=np.int32)
    for v, entry in enumerate(by_node):
        if entry is not None:
            for j, cell in enumerate(entry[1]):
                if cell != "":
                    codes[v, j] = lookup[j][cell]
    return ProfileSet(schema=Schema(attributes=list(attr_names), domains=domains), codes=codes)


def save_profiles(profiles: ProfileSet, path: str, node_labels: list[str] | None = None) -> None:
    """Write profiles as CSV; inverse of :func:`load_profiles`."""
    schema = profiles.schema
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    head = (["node"] + schema.attributes) if node_labels is not None else schema.attributes
    writer.writerow(head)
    for v in range(profiles.node_count):
        cells = ["" if profiles.codes[v, j] == MISSING else schema.domains[j][profiles.codes[v, j]]
                 for j in range(schema.m)]
        writer.writerow(([node_labels[v]] + cells) if node_labels is not None else cells)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def synth_profiles(node_count: int, m: int, domain_sizes: int | list[int],
                   distribution: str = "uniform", *, seed: int) -> ProfileSet:
    """Synthesize one value per attribute per node.

    ``uniform`` draws value indices uniformly from 1..n_i.  ``exponential``
    draws e ~ Exp(1) and maps it to index ceil(e), rejecting draws beyond
    the domain so the truncated shape is preserved.
    """
    if node_count < 1:
        raise ConfigError("need at least one node")
    if m < 1:
        raise ConfigError("need at least one attribute")
    sizes = [domain_sizes] * m if isinstance(domain_sizes, int) else list(domain_sizes)
    if len(sizes) != m or any(s < 1 for s in sizes):
        raise ConfigError("need one positive domain size per attribute")
    rng = stream(seed, 0)
    codes = np.empty((node_count, m), dtype=np.int32)
    for j, size in enumerate(sizes):
        if distribution == "uniform":
            codes[:, j] = rng.integers(0, size, size=node_count)
        elif distribution == "exponential":
            col = np.empty(node_count, dtype=np.int64)
            filled = 0
            while filled < node_count:
                draws = np.ceil(rng.exponential(1.0, size=node_count - filled)).astype(np.int64)
                ok = draws[draws <= size]
                col[filled:filled + len(ok)] = ok
                filled += len(ok)
            codes[:, j] = col - 1
        else:
            raise ConfigError(f"unknown distribution {distribution!r}")
    schema = Schema(attributes=[f"A{j + 1}" for j in range(m)],
                    domains=[[str(i + 1) for i in range(s)] for s in sizes])
    return ProfileSet(schema=schema, codes=codes)


def load_numeric_matrix(source, node_labels: list[str]) -> tuple[np.ndarray, list[str]]:
    """Read a CSV of reals, keyed or positional like a profile CSV, into
    (matrix with one row per node in node order, attribute names).

    Every node needs a row; an empty cell is NaN, any other a finite number.
    """
    names, by_node = _node_cells(source, node_labels)
    mat = np.full((len(by_node), len(names)), np.nan)
    for v, entry in enumerate(by_node):
        if entry is None:
            raise FormatError(f"no row for node {node_labels[v]!r}")
        rowno, cells = entry
        for j, cell in enumerate(cells):
            if cell != "":
                try:
                    x = float(cell)
                except ValueError as exc:
                    raise FormatError(f"row {rowno}: bad number {cell!r}") from exc
                if not math.isfinite(x):
                    raise FormatError(f"row {rowno}: non-finite number {cell!r}")
                mat[v, j] = x
    return mat, names


def quantile_discretize(matrix: np.ndarray, bins: int, attr_names: list[str]) -> ProfileSet:
    """Map each column of reals to bin labels 1..bins by empirical quantiles.

    Boundary ties go to the lower bin; NaN entries become missing values.
    """
    if bins < 2:
        raise ConfigError("need at least two bins")
    matrix = np.asarray(matrix, dtype=np.float64)
    n, m = matrix.shape
    codes = np.full((n, m), MISSING, dtype=np.int32)
    for j in range(m):
        col = matrix[:, j]
        finite = np.isfinite(col)
        if not finite.any():
            raise FormatError(f"attribute {attr_names[j]!r} has no finite values")
        bounds = np.quantile(col[finite], [i / bins for i in range(1, bins)])
        codes[finite, j] = np.searchsorted(bounds, col[finite], side="left")
    schema = Schema(attributes=list(attr_names),
                    domains=[[str(i + 1) for i in range(bins)] for _ in range(m)])
    return ProfileSet(schema=schema, codes=codes)


def derive_numeric_preferences(matrix: np.ndarray) -> np.ndarray:
    """Scale each row into [0, 1] by its own maximum; zero rows stay zero."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if np.any(matrix < 0):
        raise FormatError("preference matrix must be non-negative")
    peaks = matrix.max(axis=1, keepdims=True)
    safe = np.where(peaks > 0, peaks, 1.0)
    return matrix / safe
