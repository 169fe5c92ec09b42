"""Directed diffusion graphs: loading, edge weighting, target selection.

A diffusion graph couples a directed topology with an edge weighting
``b`` (live-edge probabilities in ``(0, 1]``) and a node weighting ``t``
(target scores in ``(0, 1]``).  External node ids may be arbitrary
strings; a dense 0-based id space is built at load time and all numeric
arrays are indexed by dense id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TextIO

import numpy as np

from .errors import ConfigError, FormatError
from .textio import data_lines, once

WEIGHT_MODES = ("explicit", "uniform_indegree", "interaction")


@dataclass
class DiffusionGraph:
    """Immutable directed graph with per-edge b and per-node t.

    Edges are stored once in file order (``src``, ``dst``, ``b``) and as
    CSR-style adjacency in both directions.  ``in_probs``/``out_probs``
    are aligned with the corresponding index arrays; ``in_cum`` holds the
    within-node cumulative sum of incoming probabilities used by the
    one-pick-per-node (LT-style) sampler.
    """

    labels: list[str]
    src: np.ndarray
    dst: np.ndarray
    b: np.ndarray
    t: np.ndarray
    out_indptr: np.ndarray
    out_indices: np.ndarray
    out_probs: np.ndarray
    in_indptr: np.ndarray
    in_indices: np.ndarray
    in_probs: np.ndarray
    in_cum: np.ndarray
    label_ids: dict[str, int] = field(repr=False)

    @property
    def node_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return len(self.src)

    def in_degrees(self) -> np.ndarray:
        return np.diff(self.in_indptr)

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.out_indptr)

    def out_neighbors(self, v: int) -> np.ndarray:
        return self.out_indices[self.out_indptr[v]:self.out_indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        return self.in_indices[self.in_indptr[v]:self.in_indptr[v + 1]]

    def max_in_prob_sum(self) -> float:
        """Largest sum of incoming b over all nodes (LT feasibility check)."""
        if self.edge_count == 0:
            return 0.0
        sums = np.bincount(self.dst, weights=self.b, minlength=self.node_count)
        return float(sums.max())

    def with_probs(self, b: np.ndarray) -> "DiffusionGraph":
        """Same topology and t, new edge probabilities."""
        return _assemble(self.labels, self.label_ids, self.src, self.dst,
                         np.asarray(b, dtype=np.float64), self.t)

    def with_target_scores(self, t: np.ndarray) -> "DiffusionGraph":
        t = np.asarray(t, dtype=np.float64)
        if t.shape != (self.node_count,):
            raise FormatError("target score vector has wrong length")
        if np.any(t <= 0) or np.any(t > 1):
            raise FormatError("target scores must lie in (0, 1]")
        return replace(self, t=t)


def strong_components(graph: DiffusionGraph) -> np.ndarray:
    """Strongly connected component label of every node, by Tarjan's search.

    One iterative depth-first pass over the out-CSR arrays (Tarjan, SIAM J.
    Comput. 1972).  Components are numbered 0, 1, ... in the order the
    search completes them, which is reverse topological order: for every
    edge u -> v between two components, ``label[u] > label[v]``.
    """
    n = graph.node_count
    ptr, heads = graph.out_indptr.tolist(), graph.out_indices.tolist()
    index, low, label = [-1] * n, [0] * n, [-1] * n
    stack, found, visits = [], 0, 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = visits
        visits += 1
        stack.append(root)
        path = [[root, ptr[root]]]          # the DFS path, with each node's next edge
        while path:
            top = path[-1]
            v, e = top
            if e < ptr[v + 1]:
                top[1] = e + 1
                w = heads[e]
                if index[w] < 0:
                    index[w] = low[w] = visits
                    visits += 1
                    stack.append(w)
                    path.append([w, ptr[w]])
                elif label[w] < 0 and index[w] < low[v]:   # w is still on the stack
                    low[v] = index[w]
                continue
            path.pop()
            if path and low[v] < low[path[-1][0]]:
                low[path[-1][0]] = low[v]
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    label[w] = found
                    if w == v:
                        break
                found += 1
    return np.asarray(label, dtype=np.int64)


@dataclass
class TargetSet:
    """Target nodes plus the cumulative score table used for root sampling."""

    members: np.ndarray          # sorted dense ids
    total_score: float
    cum_scores: np.ndarray       # cumulative t over members, cum_scores[-1] == total

    def __len__(self) -> int:
        return len(self.members)


def _assemble(labels, label_ids, src, dst, b, t) -> DiffusionGraph:
    n = len(labels)
    out_order = np.argsort(src, kind="stable")
    in_order = np.argsort(dst, kind="stable")
    out_indptr = np.zeros(n + 1, dtype=np.int64)
    in_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=out_indptr[1:])
    np.cumsum(np.bincount(dst, minlength=n), out=in_indptr[1:])
    out_indices = dst[out_order]
    in_indices = src[in_order]
    out_probs = b[out_order]
    in_probs = b[in_order]
    # The running sum of in_probs within each node, added one position at a
    # time over the nodes with an edge there: every sum is formed in the order
    # np.cumsum forms it, as LT picks compare against these exact values.
    in_deg = np.diff(in_indptr)
    by_deg = np.argsort(-in_deg, kind="stable")
    heads = in_indptr[by_deg]
    longer = np.searchsorted(-in_deg[by_deg], -np.arange(1, in_deg.max(initial=0)))
    in_cum = in_probs.copy()
    for j, count in enumerate(longer.tolist(), start=1):
        at = heads[:count] + j
        in_cum[at] += in_cum[at - 1]
    return DiffusionGraph(labels=labels, label_ids=label_ids, src=src, dst=dst,
                          b=b, t=t, out_indptr=out_indptr, out_indices=out_indices,
                          out_probs=out_probs, in_indptr=in_indptr,
                          in_indices=in_indices, in_probs=in_probs, in_cum=in_cum)


def _in_share(dst: np.ndarray, n: int, weights: np.ndarray | None = None) -> np.ndarray:
    """Each edge's share of its head's incoming weight; 1/in-degree unweighted."""
    return (1.0 if weights is None else weights) / np.bincount(dst, weights, minlength=n)[dst]


def _parse_edge_lines(source, want_weight: bool):
    labels: list[str] = []
    label_ids: dict[str, int] = {}
    src, dst, wts = [], [], []
    seen: set[tuple[int, int]] = set()

    def intern(name: str) -> int:
        i = label_ids.get(name)
        if i is None:
            i = len(labels)
            label_ids[name] = i
            labels.append(name)
        return i

    for lineno, line in data_lines(source):
        parts = line.split()
        if want_weight:
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: expected 'src dst weight'")
        elif len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'src dst' (no weight column in this mode)")
        if parts[0] == parts[1]:
            raise FormatError(f"line {lineno}: self-loop on node {parts[0]!r}")
        u, v = intern(parts[0]), intern(parts[1])
        if (u, v) in seen:
            raise FormatError(f"line {lineno}: duplicate edge {parts[0]!r} -> {parts[1]!r}")
        seen.add((u, v))
        src.append(u)
        dst.append(v)
        if want_weight:
            try:
                w = float(parts[2])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: bad weight {parts[2]!r}") from exc
            if not math.isfinite(w) or w <= 0:
                raise FormatError(f"line {lineno}: weight must be positive and finite")
            wts.append(w)
    return labels, label_ids, np.asarray(src, dtype=np.int64), \
        np.asarray(dst, dtype=np.int64), np.asarray(wts, dtype=np.float64)


def load_graph(source: str | TextIO, weight_mode: str = "uniform_indegree") -> DiffusionGraph:
    """Load an edge list and derive edge probabilities per the chosen mode.

    Lines are whitespace-separated ``src dst [weight]``; ``#`` starts a
    comment.  ``explicit`` requires a weight column in (0, 1];
    ``interaction`` requires a positive per-edge interaction count;
    ``uniform_indegree`` forbids the column and assigns 1/in-degree.
    Every node defaults to target score 1.0 until a node weight file or
    derivation overrides it.
    """
    if weight_mode not in WEIGHT_MODES:
        raise ConfigError(f"unknown weight mode {weight_mode!r}")
    want_weight = weight_mode in ("explicit", "interaction")
    labels, label_ids, src, dst, wts = _parse_edge_lines(source, want_weight)
    n = len(labels)
    if n == 0:
        raise FormatError("edge source contains no edges")
    t = np.ones(n, dtype=np.float64)

    if weight_mode == "explicit":
        if np.any(wts > 1.0):
            raise FormatError("explicit edge weights must lie in (0, 1]")
        b = wts
    else:
        b = _in_share(dst, n, wts if weight_mode == "interaction" else None)
    return _assemble(labels, label_ids, src, dst, b, t)


def load_node_weights(graph: DiffusionGraph, source: str | TextIO) -> DiffusionGraph:
    """Read ``node t`` lines and attach target scores; t must lie in (0, 1]."""
    t = graph.t.copy()
    first: dict[str, int] = {}
    for lineno, line in data_lines(source):
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"node weight line {lineno}: expected 'node t'")
        if parts[0] not in graph.label_ids:
            raise FormatError(f"node weight line {lineno}: unknown node {parts[0]!r}")
        once(first, parts[0], lineno, "node weight lines")
        try:
            val = float(parts[1])
        except ValueError as exc:
            raise FormatError(f"node weight line {lineno}: bad score {parts[1]!r}") from exc
        if not (0 < val <= 1):
            raise FormatError(f"node weight line {lineno}: score must lie in (0, 1]")
        t[graph.label_ids[parts[0]]] = val
    return graph.with_target_scores(t)


def derive_targets_indegree(graph: DiffusionGraph) -> DiffusionGraph:
    """Score nodes by in-degree, min-max normalized into (0, 1].

    The shift by one unit keeps the minimum strictly positive, as target
    scores of exactly zero are not representable.
    """
    indeg = graph.in_degrees().astype(np.float64)
    lo, hi = indeg.min(), indeg.max()
    t = (indeg - lo + 1.0) / (hi - lo + 1.0)
    return graph.with_target_scores(t)


def select_targets(graph: DiffusionGraph, mode: str = "threshold",
                   tau: float | None = None, percent: float | None = None) -> TargetSet:
    """Build the target set by score threshold or by top-percent rank.

    Threshold mode keeps every node with t >= tau.  Top-percent mode
    keeps ceil(q * n / 100) nodes with the highest t, breaking ties by
    ascending node id.
    """
    t = graph.t
    if mode == "threshold":
        if tau is None or not (0.0 <= tau <= 1.0):
            raise ConfigError("threshold mode needs tau in [0, 1]")
        members = np.flatnonzero(t >= tau)
    elif mode == "top_percent":
        if percent is None or not (0.0 < percent <= 100.0):
            raise ConfigError("top-percent mode needs percent in (0, 100]")
        count = math.ceil(percent * graph.node_count / 100.0)
        order = np.lexsort((np.arange(graph.node_count), -t))
        members = np.sort(order[:count])
    else:
        raise ConfigError(f"unknown target mode {mode!r}")
    if len(members) == 0:
        raise ConfigError("empty target set: capital would be identically zero")
    scores = t[members]
    cum = np.cumsum(scores)
    return TargetSet(members=members, total_score=float(cum[-1]), cum_scores=cum)


def save_graph(graph: DiffusionGraph, edge_path: str, node_weight_path: str | None = None) -> None:
    """Write the graph back out as explicit-weight edge and node files."""
    with open(edge_path, "w", encoding="utf-8") as fh:
        for i in range(graph.edge_count):
            fh.write(f"{graph.labels[graph.src[i]]} {graph.labels[graph.dst[i]]} "
                     f"{float(graph.b[i])!r}\n")
    if node_weight_path is not None:
        with open(node_weight_path, "w", encoding="utf-8") as fh:
            for v, label in enumerate(graph.labels):
                fh.write(f"{label} {float(graph.t[v])!r}\n")


def synth_graph(node_count: int, arcs_per_node: int, seed: int,
                score_mode: str = "uniform") -> DiffusionGraph:
    """Random digraph for experiments: each node draws distinct in-neighbors.

    Edge probabilities are uniform-indegree (1 / in-degree); target
    scores are either all ones (``score_mode='ones'``) or drawn uniformly
    from (0, 1] (``score_mode='uniform'``).
    """
    if node_count < 2 or arcs_per_node < 1:
        raise ConfigError("need at least two nodes and one arc per node")
    rng = np.random.Generator(np.random.Philox(key=seed))
    src, dst = [], []
    deg = min(arcs_per_node, node_count - 1)
    for v in range(node_count):
        pool = rng.permutation(node_count)[: deg + 1]
        picked = [int(u) for u in pool if u != v][:deg]
        for u in picked:
            src.append(u)
            dst.append(v)
    labels = [str(i) for i in range(node_count)]
    label_ids = {lab: i for i, lab in enumerate(labels)}
    src_a = np.asarray(src, dtype=np.int64)
    dst_a = np.asarray(dst, dtype=np.int64)
    b = _in_share(dst_a, node_count)
    if score_mode == "ones":
        t = np.ones(node_count, dtype=np.float64)
    elif score_mode == "uniform":
        t = 1.0 - rng.random(node_count)  # (0, 1]
    else:
        raise ConfigError(f"unknown score mode {score_mode!r}")
    return _assemble(labels, label_ids, src_a, dst_a, b, t)
