"""Reverse reachable set sampling with target-score-weighted roots.

A corpus of reverse reachable sets is the sampling backbone: the chance
that a seed set intersects a random set equals the chance that the set's
root gets activated by those seeds.  Roots are drawn from the target set
with probability proportional to their target score, so the fraction of
sets a seed set covers estimates its captured share of total target score.

Sets are drawn in batches by one level-synchronous live-edge kernel,
``live_edge_search``, which also runs the forward Monte Carlo simulation.
A batch always holds ``batch_size(n)`` sets and draws from one stream
keyed by (master seed, phase, batch id); a request for fewer sets
truncates the last batch, so the first m sets of a corpus equal the
m-set corpus.
"""

from __future__ import annotations

from typing import TextIO

import numpy as np

from .errors import ConfigError, FormatError
from .graph import DiffusionGraph, TargetSet
from .rng import phase_seed, stream
from .textio import data_lines, open_text

MODELS = ("ic", "lt")

#: phase tag for corpus streams (estimation phases use their own tags)
CORPUS_PHASE = 0

#: most items (sets or runs) one batch expands at once
MAX_BATCH = 2048
#: a batch's visited mask (one byte per item and node) stays below this
MASK_BYTES = 1 << 19


def check_model(graph: DiffusionGraph, model: str) -> None:
    if model not in MODELS:
        raise ConfigError(f"unknown diffusion model {model!r}")
    if model == "lt" and graph.max_in_prob_sum() > 1.0 + 1e-9:
        raise ConfigError("lt model requires incoming probabilities to sum to <= 1 per node")


def batch_size(node_count: int) -> int:
    """Items per batch: a fixed rule of the node count, never a setting."""
    return max(1, min(MAX_BATCH, MASK_BYTES // node_count))


def sample_roots(targets: TargetSet, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw count target nodes, each with probability t(v) / total target score."""
    if len(targets) == 0:
        raise ConfigError("cannot sample a root from an empty target set")
    i = np.searchsorted(targets.cum_scores, rng.random(count) * targets.total_score,
                        side="right")
    return targets.members[np.minimum(i, len(targets) - 1)]


def _expand(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR positions lo[i]..hi[i]-1 for every i, with the i each came from."""
    deg = hi - lo
    owner = np.repeat(np.arange(deg.size), deg)
    edge = np.arange(owner.size)
    edge += np.repeat(lo - (np.cumsum(deg) - deg), deg)
    return edge, owner


def _lt_pick(graph: DiffusionGraph, v: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One LT trigger per node in v (u w.p. b(u, v), else -1), by a vectorised bisect_right."""
    lo, hi = graph.in_indptr[v], graph.in_indptr[v + 1]
    end, r, cum = hi.copy(), rng.random(v.size), graph.in_cum
    while (active := lo < hi).any():
        mid = (lo + hi) // 2
        right = active & (cum[np.minimum(mid, cum.size - 1)] <= r)
        lo = np.where(right, mid + 1, lo)
        hi = np.where(active & ~right, mid, hi)
    return np.where(lo < end, graph.in_indices[np.minimum(lo, cum.size - 1)], -1)


def live_edge_search(graph: DiffusionGraph, model: str, forward: bool, items: int,
                     start: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Everything reached over live edges in ``items`` independent draws at once.

    A reached node is named by the key ``item * n + node``; ``start`` holds
    distinct keys.  The search expands one level of every item per step:
    IC draws one coin per expanded edge, reverse LT one trigger per
    expanded node, and forward LT draws a node's trigger the first time
    an active in-neighbour asks for it (so at most once per item, and
    never for a start node).  Returns every reached key, start included.
    """
    n = graph.node_count
    ptr, heads, probs = ((graph.out_indptr, graph.out_indices, graph.out_probs) if forward
                         else (graph.in_indptr, graph.in_indices, graph.in_probs))
    seen = np.zeros(items * n, dtype=bool)
    seen[start] = True
    if model == "lt" and forward:
        trigger = np.full(items * n, -2, dtype=np.int32)     # -2: not drawn yet
        trigger[start] = -1
    found, frontier = [start], start
    while frontier.size:
        item, x = np.divmod(frontier, n)
        if model == "lt" and not forward:
            u = _lt_pick(graph, x, rng)
            keys = (item * n + u)[u >= 0]
        else:
            edge, owner = _expand(ptr[x], ptr[x + 1])
            if model == "ic":
                live = rng.random(edge.size) < probs[edge]
                edge, owner = edge[live], owner[live]
            keys = item[owner] * n + heads[edge]
            if model == "lt":
                fresh = np.unique(keys[trigger[keys] == -2])
                trigger[fresh] = _lt_pick(graph, fresh % n, rng)
                keys = keys[trigger[keys] == x[owner]]
        frontier = np.unique(keys[~seen[keys]])
        seen[frontier] = True
        found.append(frontier)
    return np.concatenate(found)


def rr_batch(graph: DiffusionGraph, targets: TargetSet, model: str,
             rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One full batch of reverse reachable sets as ``(roots, set_ptr, members)``.

    Set i's members, in ascending node order, are
    ``members[set_ptr[i]:set_ptr[i + 1]]``; they include its root.
    """
    n, size = graph.node_count, batch_size(graph.node_count)
    roots = sample_roots(targets, rng, size)
    keys = np.sort(live_edge_search(graph, model, False, size,
                                    np.arange(size) * n + roots, rng))
    item, members = np.divmod(keys, n)
    set_ptr = np.concatenate([[0], np.cumsum(np.bincount(item, minlength=size))])
    return roots, set_ptr, members.astype(np.int32)


def join_batches(batches: list, start: int, stop: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sets start..stop-1 of consecutive batches, as one ``(roots, set_ptr, members)``."""
    set_ptr = np.concatenate([[0], np.cumsum(np.concatenate([np.diff(b[1]) for b in batches]))])
    lo, hi = set_ptr[start], set_ptr[stop]
    return (np.concatenate([b[0] for b in batches])[start:stop],
            set_ptr[start:stop + 1] - lo, np.concatenate([b[2] for b in batches])[lo:hi])


class RRCorpus:
    """A fixed collection of reverse reachable sets plus its inverted index.

    Both directions are CSR arrays: set i has root ``roots[i]`` and
    members ``members[set_ptr[i]:set_ptr[i + 1]]``; node v lies in the sets
    ``node_sets[node_ptr[v]:node_ptr[v + 1]]``, listed in ascending order.
    ``target_total`` is the total target score the roots were drawn by.
    The total member count is kept for memory/width accounting.
    """

    def __init__(self, roots, set_ptr, members, node_count: int, target_total: float):
        self.roots = np.asarray(roots, dtype=np.int64)
        self.set_ptr = np.asarray(set_ptr, dtype=np.int64)
        self.members = np.asarray(members, dtype=np.int32)
        self.n_nodes = node_count
        self.target_total = float(target_total)
        self.total_width = int(self.members.size)
        set_of = np.repeat(np.arange(self.theta, dtype=np.int32), np.diff(self.set_ptr))
        self.node_sets = set_of[np.argsort(self.members, kind="stable")]
        self.node_ptr = np.concatenate([[0], np.cumsum(np.bincount(self.members,
                                                                   minlength=node_count))])

    @property
    def theta(self) -> int:
        return len(self.roots)

    def sets_of(self, v: int) -> np.ndarray:
        """Ids of the sets containing v, ascending."""
        return self.node_sets[self.node_ptr[v]:self.node_ptr[v + 1]]

    def prefix(self, m: int) -> "RRCorpus":
        """The corpus of the first m sets."""
        if m == self.theta:
            return self
        return RRCorpus(self.roots[:m], self.set_ptr[:m + 1],
                        self.members[:self.set_ptr[m]], self.n_nodes, self.target_total)

    def covered_mask(self, seed_set) -> np.ndarray:
        mask = np.zeros(self.theta, dtype=bool)
        for v in seed_set:
            mask[self.sets_of(v)] = True
        return mask

    def coverage_fraction(self, seed_set) -> float:
        """Plain fraction of sets intersected by the seed set."""
        return float(self.covered_mask(seed_set).sum()) / self.theta

    def dump(self, sink: str | TextIO) -> None:
        """Debug dump, one line per set: ``id root member*`` (format unstable)."""
        ptr, members = self.set_ptr.tolist(), self.members.tolist()
        with open_text(sink, "w") as fh:
            for i, root in enumerate(self.roots.tolist()):
                fh.write(f"{i} {root} " + " ".join(map(str, members[ptr[i]:ptr[i + 1]])) + "\n")


def load_corpus_dump(source: str | TextIO, node_count: int, target_total: float) -> RRCorpus:
    roots, set_ptr, members = [], [0], []
    for lineno, line in data_lines(source):
        try:
            ids = [int(p) for p in line.split()]
        except ValueError:
            ids = []
        if len(ids) < 3 or ids[0] != len(roots) or not all(0 <= v < node_count for v in ids[1:]):
            raise FormatError(f"corpus dump line {lineno} needs 'id root member*', with "
                              f"id {len(roots)} and nodes below {node_count}: {line!r}")
        roots.append(ids[1])
        members.extend(ids[2:])
        set_ptr.append(len(members))
    return RRCorpus(roots, set_ptr, members, node_count, target_total)


def generate_corpus(graph: DiffusionGraph, targets: TargetSet, model: str,
                    theta: int, master_seed: int, phase: int = CORPUS_PHASE) -> RRCorpus:
    """Generate theta reverse reachable sets, reproducibly.

    Batch b draws only from the stream keyed by (master seed, phase, b),
    and every batch is drawn in full, so the first m sets of a corpus
    equal the corpus of size m.
    """
    if theta < 1:
        raise ConfigError("theta must be at least 1")
    check_model(graph, model)
    base = phase_seed(master_seed, phase)
    batches = [rr_batch(graph, targets, model, stream(base, b))
               for b in range(-(-theta // batch_size(graph.node_count)))]
    return RRCorpus(*join_batches(batches, 0, theta), graph.node_count, targets.total_score)
