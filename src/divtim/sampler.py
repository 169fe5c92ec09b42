"""Reverse reachable set sampling with target-score-weighted roots.

A corpus of reverse reachable sets is the sampling backbone: the chance
that a seed set intersects a random set equals the chance that the set's
root gets activated by those seeds.  Roots are drawn from the target set
with probability proportional to their target score, so coverage of the
corpus directly estimates the captured fraction of total target score.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .errors import ConfigError, FormatError
from .graph import DiffusionGraph, TargetSet, reach
from .rng import phase_seed, stream

MODELS = ("ic", "lt")

#: phase tag for corpus streams (estimation phases use their own tags)
CORPUS_PHASE = 0


def check_model(graph: DiffusionGraph, model: str) -> None:
    if model not in MODELS:
        raise ConfigError(f"unknown diffusion model {model!r}")
    if model == "lt" and graph.max_in_prob_sum() > 1.0 + 1e-9:
        raise ConfigError("lt model requires incoming probabilities to sum to <= 1 per node")


def sample_root(targets: TargetSet, rng: np.random.Generator) -> int:
    """Draw a target node with probability t(v) / total target score."""
    if len(targets) == 0:
        raise ConfigError("cannot sample a root from an empty target set")
    r = rng.random() * targets.total_score
    i = int(np.searchsorted(targets.cum_scores, r, side="right"))
    return int(targets.members[min(i, len(targets) - 1)])


def ic_live(indptr: list, indices: list, probs: list, rng: np.random.Generator):
    """Independent cascade: each edge of x in one CSR direction is live w.p. its b."""
    draw = rng.random

    def live(x: int) -> list[int]:
        return [indices[i] for i in range(indptr[x], indptr[x + 1]) if draw() < probs[i]]
    return live


def lt_trigger(graph: DiffusionGraph, rng: np.random.Generator):
    """Linear threshold: v's single live in-edge comes from u w.p. b(u, v), else none (-1)."""
    indptr, indices, _, cum = graph.in_lists

    def pick(v: int) -> int:
        lo, hi = indptr[v], indptr[v + 1]
        if lo == hi:
            return -1
        if cum[hi - 1] > 1.0 + 1e-9:
            raise ConfigError(f"node {v}: incoming probabilities sum beyond 1")
        j = bisect_right(cum, rng.random(), lo, hi)
        return indices[j] if j < hi else -1
    return pick


@dataclass
class RRSet:
    """One reverse reachable set: every member can reach ``root`` via live edges."""

    id: int
    root: int
    members: np.ndarray

    def __post_init__(self):
        self.members = np.asarray(self.members, dtype=np.int64)


def generate_rr_set(graph: DiffusionGraph, targets: TargetSet, model: str,
                    set_id: int, rng: np.random.Generator) -> RRSet:
    """Sample one root and collect the nodes that reach it under a live-edge draw."""
    root = sample_root(targets, rng)
    if model == "ic":
        live = ic_live(*graph.in_lists[:3], rng)
    elif model == "lt":
        pick = lt_trigger(graph, rng)
        live = lambda x: [u for u in (pick(x),) if u >= 0]  # x's trigger, if it has one
    else:
        raise ConfigError(f"unknown diffusion model {model!r}")
    return RRSet(id=set_id, root=root,
                 members=np.asarray(reach(graph.node_count, [root], live), dtype=np.int64))


class RRCorpus:
    """A fixed collection of reverse reachable sets plus its inverted index.

    ``node_index[v]`` lists the ids of sets containing v (ascending);
    ``root_scores[i]`` is the target score of set i's root.  The total
    member count is kept for memory/width accounting.
    """

    def __init__(self, sets: list[RRSet], node_count: int, t: np.ndarray,
                 target_total: float):
        self.sets = sets
        self.n_nodes = node_count
        self.target_total = float(target_total)
        self.root_scores = np.asarray([t[s.root] for s in sets], dtype=np.float64)
        self.total_root_score = float(self.root_scores.sum())
        self.total_width = int(sum(len(s.members) for s in sets))
        index: list[list[int]] = [[] for _ in range(node_count)]
        for s in sets:
            for v in s.members:
                index[v].append(s.id)
        self.node_index = index

    @property
    def theta(self) -> int:
        return len(self.sets)

    def covered_mask(self, seed_set) -> np.ndarray:
        mask = np.zeros(self.theta, dtype=bool)
        for v in seed_set:
            mask[self.node_index[v]] = True
        return mask

    def coverage_fraction(self, seed_set) -> float:
        """Plain fraction of sets intersected by the seed set."""
        return float(self.covered_mask(seed_set).sum()) / self.theta

    def covered_root_score(self, seed_set) -> float:
        """Sum of root target scores over the sets the seed set intersects."""
        return float(self.root_scores[self.covered_mask(seed_set)].sum())

    def dump(self, sink: str | TextIO) -> None:
        """Debug dump, one line per set: ``id root member*`` (format unstable)."""
        if isinstance(sink, str):
            with open(sink, "w", encoding="utf-8") as fh:
                self.dump(fh)
                return
        for s in self.sets:
            sink.write(f"{s.id} {s.root} " + " ".join(str(int(v)) for v in s.members) + "\n")


def load_corpus_dump(source: str | TextIO, node_count: int, t: np.ndarray,
                     target_total: float) -> RRCorpus:
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return load_corpus_dump(fh, node_count, t, target_total)
    sets = []
    for raw in source:
        parts = raw.split()
        if not parts:
            continue
        if len(parts) < 3:
            raise FormatError("corpus dump line needs 'id root member*'")
        sets.append(RRSet(id=int(parts[0]), root=int(parts[1]),
                          members=np.asarray([int(p) for p in parts[2:]], dtype=np.int64)))
    return RRCorpus(sets, node_count, t, target_total)


def generate_corpus(graph: DiffusionGraph, targets: TargetSet, model: str,
                    theta: int, master_seed: int, phase: int = CORPUS_PHASE) -> RRCorpus:
    """Generate theta reverse reachable sets, reproducibly.

    Set i draws only from the stream keyed by (master seed, phase, i), so
    the first m sets of a corpus equal the corpus of size m.
    """
    if theta < 1:
        raise ConfigError("theta must be at least 1")
    check_model(graph, model)
    base = phase_seed(master_seed, phase)
    sets = [generate_rr_set(graph, targets, model, i, stream(base, i)) for i in range(theta)]
    return RRCorpus(sets, graph.node_count, graph.t, targets.total_score)
