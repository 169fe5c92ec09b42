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
from .textio import once, open_text

MISSING = -1


@dataclass
class Schema:
    """Ordered attributes with per-attribute value domains and weights."""

    attributes: list[str]
    domains: list[list[str]]
    weights: np.ndarray | None = None

    def __post_init__(self):
        if len(self.attributes) != len(self.domains):
            raise FormatError("schema: one domain per attribute required")
        if self.weights is None:
            m = len(self.attributes)
            self.weights = np.full(m, 1.0 / m)
        else:
            self.weights = np.asarray(self.weights, dtype=np.float64)
            if abs(float(self.weights.sum()) - 1.0) > 1e-9:
                raise FormatError("schema: attribute weights must sum to 1")
        self._codes = [
            {val: c for c, val in enumerate(dom)} for dom in self.domains
        ]

    @property
    def m(self) -> int:
        return len(self.attributes)

    def domain_sizes(self) -> list[int]:
        return [len(d) for d in self.domains]

    def total_domain_size(self) -> int:
        return sum(len(d) for d in self.domains)

    def code(self, attr: int, value: str) -> int:
        c = self._codes[attr].get(value)
        if c is None:
            raise FormatError(
                f"value {value!r} outside domain of attribute {self.attributes[attr]!r}")
        return c


@dataclass
class ProfileSet:
    """Per-node sparse categorical tuples plus corpus-wide value counts."""

    schema: Schema
    codes: np.ndarray            # (n, m) int32, MISSING where absent
    value_counts: list[np.ndarray] = field(default=None)  # per attribute, len dom

    def __post_init__(self):
        if self.value_counts is None:
            self.value_counts = []
            for j, dom in enumerate(self.schema.domains):
                col = self.codes[:, j]
                present = col[col != MISSING]
                self.value_counts.append(np.bincount(present, minlength=len(dom)))

    @property
    def node_count(self) -> int:
        return self.codes.shape[0]

    def profile_length(self, v: int) -> int:
        return int(np.sum(self.codes[v] != MISSING))

    def values_of(self, v: int) -> list[tuple[int, int]]:
        """Qualified (attribute index, value code) pairs present on v."""
        row = self.codes[v]
        return [(j, int(row[j])) for j in range(self.schema.m) if row[j] != MISSING]

    def total_value_occurrences(self) -> int:
        return int(sum(c.sum() for c in self.value_counts))


def _rows_from_csv(source) -> tuple[list[str], list[list[str]]]:
    with open_text(source, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError("profile CSV is empty") from None
        header, rows = [h.strip() for h in header], list(reader)
    if header and header[0] == "node":
        first: dict[str, int] = {}
        for rowno, row in enumerate(rows, start=2):
            if not row:
                raise FormatError(f"row {rowno}: no node id")
            once(first, row[0], rowno, "rows")
    return header, rows


def load_profiles(source, schema: Schema | None = None,
                  node_labels: list[str] | None = None) -> ProfileSet:
    """Load a profile CSV (header row, empty cell = missing value).

    A leading ``node`` column keys rows by external node id; otherwise
    rows map positionally to dense ids.  Without an explicit schema the
    domains are inferred from the observed values.
    """
    header, rows = _rows_from_csv(source)
    keyed = bool(header) and header[0] == "node"
    attr_names = header[1:] if keyed else header
    if not attr_names:
        raise FormatError("profile CSV declares no attributes")

    if schema is not None:
        if attr_names != schema.attributes:
            unknown = [a for a in attr_names if a not in schema.attributes]
            raise FormatError(f"unknown attribute columns: {unknown or attr_names}")
    else:
        observed: list[dict[str, None]] = [dict() for _ in attr_names]
        for row in rows:
            cells = row[1:] if keyed else row
            for j, cell in enumerate(cells):
                if j < len(attr_names) and cell != "":
                    observed[j].setdefault(cell)
        schema = Schema(attributes=list(attr_names),
                        domains=[sorted(o.keys()) for o in observed])

    if keyed:
        if node_labels is None:
            node_labels = [row[0] for row in rows]
        index = {lab: i for i, lab in enumerate(node_labels)}
        n = len(node_labels)
    else:
        n = len(node_labels) if node_labels is not None else len(rows)
        if node_labels is not None and len(rows) != n:
            raise FormatError(
                f"positional profile CSV has {len(rows)} rows for {n} nodes")
        index = None

    codes = np.full((n, schema.m), MISSING, dtype=np.int32)
    for rowno, row in enumerate(rows):
        if keyed:
            if row[0] not in index:
                raise FormatError(f"profile row {rowno + 2}: unknown node {row[0]!r}")
            v = index[row[0]]
            cells = row[1:]
        else:
            v = rowno
            cells = row
        if len(cells) != schema.m:
            raise FormatError(f"profile row {rowno + 2}: expected {schema.m} cells")
        for j, cell in enumerate(cells):
            if cell != "":
                codes[v, j] = schema.code(j, cell)
    return ProfileSet(schema=schema, codes=codes)


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


def synth_profiles(node_count: int, m: int = 10, domain_sizes: int | list[int] = 10,
                   distribution: str = "uniform", seed: int = 0) -> ProfileSet:
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


def load_numeric_matrix(source) -> tuple[np.ndarray, list[str], list[str] | None]:
    """Read a CSV of reals; returns (matrix, attribute names, node labels or None)."""
    header, rows = _rows_from_csv(source)
    keyed = bool(header) and header[0] == "node"
    names = header[1:] if keyed else header
    labels = [row[0] for row in rows] if keyed else None
    mat = np.full((len(rows), len(names)), np.nan)
    for i, row in enumerate(rows):
        cells = row[1:] if keyed else row
        if len(cells) > len(names):
            raise FormatError(f"row {i + 2}: {len(cells)} cells for {len(names)} columns")
        for j, cell in enumerate(cells):
            if cell != "":
                try:
                    mat[i, j] = float(cell)
                except ValueError as exc:
                    raise FormatError(f"row {i + 2}: bad number {cell!r}") from exc
    return mat, names, labels


def quantile_discretize(matrix: np.ndarray, bins: int,
                        attr_names: list[str] | None = None) -> ProfileSet:
    """Map each column of reals to bin labels 1..bins by empirical quantiles.

    Boundary ties go to the lower bin; NaN entries become missing values.
    """
    if bins < 2:
        raise ConfigError("need at least two bins")
    matrix = np.asarray(matrix, dtype=np.float64)
    n, m = matrix.shape
    if attr_names is None:
        attr_names = [f"A{j + 1}" for j in range(m)]
    codes = np.full((n, m), MISSING, dtype=np.int32)
    for j in range(m):
        col = matrix[:, j]
        finite = col[np.isfinite(col)]
        if len(finite) == 0:
            raise FormatError(f"attribute {attr_names[j]!r} has no finite values")
        bounds = np.quantile(finite, [i / bins for i in range(1, bins)])
        for i in range(n):
            x = col[i]
            if math.isfinite(x):
                codes[i, j] = int(np.searchsorted(bounds, x, side="left"))
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
