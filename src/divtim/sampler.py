"""Reverse reachable set sampling with target-score-weighted roots.

A corpus of reverse reachable sets is the sampling backbone: the chance
that a seed set intersects a random set equals the chance that the set's
root gets activated by those seeds.  Roots are drawn from the target set
with probability proportional to their target score, so the fraction of
sets a seed set covers estimates its captured share of total target score.

Sets are drawn in batches by one level-synchronous live-edge kernel,
``live_edge_search``, which also runs the forward Monte Carlo simulation.
Both readers, the corpus that selects seeds and the held-out corpus that
checks them, read one phase's sets by index through ``RRStream``: a batch
always holds ``batch_size(n)`` sets and draws from its own stream keyed by
(master seed, phase, batch id), however many batches one kernel call
expands, so the first m sets of a corpus equal the m-set corpus.
"""

from __future__ import annotations

from typing import TextIO

import numpy as np

from .errors import ConfigError
from .graph import DiffusionGraph, TargetSet
from .rng import phase_seed, stream
from .textio import open_text

MODELS = ("ic", "lt")
DEFAULT_THETA_CAP = 2_000_000

#: phase tags of the corpus that selects seeds and of the held-out corpus that checks them
CORPUS_PHASE, CHECK_PHASE = 0, 1
PHASES = {CORPUS_PHASE: "corpus", CHECK_PHASE: "check corpus"}

#: most items (sets or runs) one batch expands at once
MAX_BATCH = 2048
#: a batch's visited mask (one byte per item and node) stays below this; it fixes the draws
MASK_BYTES = 1 << 19
#: RRStream's kernel calls each expand as many whole batches as keep their mask below this
CALL_MASK_BYTES = 4 * MASK_BYTES


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


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct values of keys (what numpy's unique returns), by sort and mask."""
    keys = np.sort(keys)
    keep = np.empty(keys.size, dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys.compress(keep)


def _random(rngs: list[np.random.Generator], cut: np.ndarray) -> np.ndarray:
    """``cut[j + 1] - cut[j]`` uniform draws from each ``rngs[j]``, in turn."""
    return np.concatenate([rng.random(k) for rng, k in zip(rngs, np.diff(cut).tolist())])


def live_edge_search(graph: DiffusionGraph, model: str, forward: bool, items: int,
                     start: np.ndarray, rngs: list[np.random.Generator]) -> np.ndarray:
    """Everything reached over live edges in ``items`` independent draws per generator.

    A reached node is named by the key ``item * n + node``; ``start`` holds
    distinct keys in ascending order, and items ``j * items`` to ``(j + 1) *
    items - 1`` draw from ``rngs[j]`` alone, in key order.  Per level, IC draws
    one coin per expanded edge.  LT draws one number per node, in reverse when
    the node is expanded, forward when an active in-neighbour first asks (never
    for a start node), and an edge into the node is live iff the number lies in
    the edge's ``[in_cum_lo, in_cum)`` (forward ``[out_cum_lo, out_cum_hi)``): at
    most one is, so a forward match is new.  IC deduplicates each level by
    ``_distinct``; reverse LT's levels are distinct and ascending, as its one
    caller, ``RRStream``, starts each item from one root in key order.  Returns
    every reached key, each level sorted.
    """
    n = graph.node_count
    ptr, heads, probs, lo, hi = (
        (graph.out_indptr, graph.out_indices, graph.out_probs, graph.out_cum_lo, graph.out_cum_hi)
        if forward else
        (graph.in_indptr, graph.in_indices, graph.in_probs, graph.in_cum_lo, graph.in_cum))
    bounds = np.arange(len(rngs) + 1) * (items * n)
    if model == "lt" and forward:
        draw = np.full(bounds[-1], np.nan)      # NaN: not drawn yet; inf: a start node
        draw[start] = np.inf
    else:
        seen = np.zeros(bounds[-1], dtype=bool)
        seen[start] = True
    found, frontier = [start], start
    while frontier.size:
        item, x = np.divmod(frontier, n)
        edge, owner = _expand(ptr[x], ptr[x + 1])
        if model == "ic":
            cut = owner.searchsorted(np.searchsorted(frontier, bounds))    # edges per block
            live = _random(rngs, cut) < probs.take(edge)
        else:       # the edge whose interval holds its node's draw is the trigger's
            if forward:
                keys = item.take(owner) * n + heads.take(edge)
                fresh = _distinct(keys.compress(np.isnan(draw.take(keys))))
                draw[fresh] = _random(rngs, np.searchsorted(fresh, bounds))
                r = draw.take(keys)
            else:
                r = _random(rngs, np.searchsorted(frontier, bounds)).take(owner)
            live = (lo.take(edge) <= r) & (r < hi.take(edge))
        live = np.flatnonzero(live)
        edge, owner = edge.take(live), owner.take(live)
        keys = item.take(owner) * n + heads.take(edge)
        if model == "lt" and forward:
            frontier = np.sort(keys)
        else:
            frontier = keys.compress(~seen.take(keys))
            frontier = frontier if model == "lt" else _distinct(frontier)
            seen[frontier] = True
        found.append(frontier)
    return np.concatenate(found)


class RRStream:
    """The reverse reachable sets of one phase, read as prefixes.

    Batch b holds sets ``b * size`` to ``(b + 1) * size - 1``, with ``size = batch_size(n)``,
    and draws only from the stream keyed by (master seed, phase, b).  Batches are drawn whole,
    in order, on demand, and kept, so a set is the same whatever prefix reads it; a read
    expands the batches it lacks together, up to ``CALL_MASK_BYTES`` of mask per call.
    """

    def __init__(self, graph: DiffusionGraph, targets: TargetSet, model: str,
                 master_seed: int, phase: int):
        check_model(graph, model)
        self.graph, self.targets, self.model, self.name = graph, targets, model, PHASES[phase]
        self.base = phase_seed(master_seed, phase)
        self.size = batch_size(graph.node_count)
        self.batches: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def _draw(self, ids: range) -> None:
        n, size, rngs = self.graph.node_count, self.size, [stream(self.base, b) for b in ids]
        roots = [sample_roots(self.targets, rng, size) for rng in rngs]
        keys = live_edge_search(self.graph, self.model, False, size,
                                np.arange(len(ids) * size) * n + np.concatenate(roots), rngs)
        item, members = np.divmod(np.sort(keys), n)
        widths = np.bincount(item, minlength=len(ids) * size).reshape(len(ids), size)
        members = np.split(members.astype(np.int32), np.cumsum(widths.sum(axis=1))[:-1])
        self.batches.extend(zip(roots, widths, members))

    def sets(self, stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The first stop sets as ``(roots, set_ptr, members)``.

        Set j has root ``roots[j]`` and members ``members[set_ptr[j]:set_ptr[j + 1]]``,
        in ascending node order, its root included.
        """
        wanted = -(-stop // self.size)
        per_call = max(1, CALL_MASK_BYTES // (self.size * self.graph.node_count))
        try:
            for at in range(len(self.batches), wanted, per_call):
                self._draw(range(at, min(at + per_call, wanted)))
            roots, widths, members = (np.concatenate(part) for part in zip(*self.batches[:wanted]))
            set_ptr = np.concatenate([[0], np.cumsum(widths)])
            return roots[:stop], set_ptr[:stop + 1], members[:set_ptr[stop]]
        except MemoryError:
            raise MemoryError(f"drawing {stop} RR sets of the {self.name}") from None


class RRCorpus:
    """The inverted index of a fixed collection of reverse reachable sets.

    Node v lies in the sets ``node_sets[node_ptr[v]:node_ptr[v + 1]]``, in
    ascending order, and set i has root ``roots[i]``; the sets' CSR arrays it is
    built from are not kept.  ``target_total`` is the total target score the
    roots were drawn by, and ``total_width`` the member count.
    """

    def __init__(self, roots, set_ptr, members, node_count: int, target_total: float):
        self.roots = np.asarray(roots, dtype=np.int64)
        self.theta = len(self.roots)
        self.n_nodes = node_count
        self.target_total = float(target_total)
        # one sort of the distinct keys member * theta + set lists each node's sets in order
        keys = np.multiply(np.asarray(members, dtype=np.int32), self.theta, dtype=np.int64)
        keys += np.repeat(np.arange(self.theta, dtype=np.int32), np.diff(set_ptr))
        keys.sort()
        self.node_ptr = np.searchsorted(keys, np.arange(node_count + 1) * self.theta)
        keys %= self.theta
        self.node_sets = keys.astype(np.int32)
        self.total_width = int(self.node_sets.size)

    def dump(self, sink: str | TextIO) -> None:
        """Debug dump, one line per set: ``id root member*`` (format unstable), each
        set's members rebuilt from the index in ascending node order, as drawn."""
        order = np.argsort(self.node_sets, kind="stable")
        members = np.repeat(np.arange(self.n_nodes), np.diff(self.node_ptr))[order].tolist()
        ptr = np.searchsorted(self.node_sets[order], np.arange(self.theta + 1)).tolist()
        with open_text(sink, "w") as fh:
            for i, root in enumerate(self.roots.tolist()):
                fh.write(f"{i} {root} " + " ".join(map(str, members[ptr[i]:ptr[i + 1]])) + "\n")


def generate_corpus(graph: DiffusionGraph, targets: TargetSet, model: str,
                    theta: int, master_seed: int) -> RRCorpus:
    """The first theta reverse reachable sets of the corpus phase, so the
    first m sets of a corpus equal the corpus of size m."""
    if theta < 1:
        raise ConfigError("theta must be at least 1")
    return RRCorpus(*RRStream(graph, targets, model, master_seed, CORPUS_PHASE).sets(theta),
                    graph.node_count, targets.total_score)
