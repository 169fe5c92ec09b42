"""Reverse reachable set sampling with target-score-weighted roots.

A corpus of reverse reachable sets is the sampling backbone: the chance
that a seed set intersects a random set equals the chance that the set's
root gets activated by those seeds.  Roots are drawn from the target set
with probability proportional to their target score, so the fraction of
sets a seed set covers estimates its captured share of total target score.

Sets are drawn in batches by one level-synchronous live-edge kernel,
``live_edge_search``, which also runs the forward Monte Carlo simulation.
The corpus that selects seeds and the held-out one that checks them read
their phase's sets through ``RRStream``: batch b holds ``batch_size(n)``
sets drawn from the stream keyed by (master seed, phase, b) alone, so the
first m sets of a corpus are the m-set corpus.
"""

from __future__ import annotations

from typing import Callable, Iterator, TextIO

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
#: the kernel expands a level in frontier slices of at most this many edges (see live_edge_search)
LEVEL_EDGES = 1 << 15


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


def _expand(lo: np.ndarray, deg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR positions lo[i]..lo[i]+deg[i]-1 for every i, with the i each came from."""
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
    """``cut[j + 1] - cut[j]`` uniform draws from each ``rngs[j]``, in turn; a stream
    with none is not called, as ``random(0)`` would leave it where it is."""
    draws = [rng.random(k) for rng, k in zip(rngs, np.diff(cut).tolist()) if k]
    return np.concatenate(draws) if draws else np.empty(0)


def _slices(deg: np.ndarray, groups: np.ndarray) -> Iterator[tuple[int, int]]:
    """Bounds of a level's slices of at most LEVEL_EDGES edges, cut where ``groups`` changes."""
    end, b = np.cumsum(deg), 0
    while b < deg.size:
        a, b = b, end.searchsorted(end[b] - deg[b] + LEVEL_EDGES, "right")
        if b < deg.size:    # back to the start of b's group, past a's if a's alone is over
            b = max(groups.searchsorted(groups[b]), groups.searchsorted(groups[a], "right"))
        yield a, b


def live_edge_search(graph: DiffusionGraph, model: str, forward: bool, items: int,
                     start: np.ndarray, rngs: list[np.random.Generator]) -> Iterator[np.ndarray]:
    """Everything reached over live edges in ``items`` independent draws per generator.

    A reached node is named by the key ``item * n + node``; ``start`` holds
    distinct keys in ascending order, and items ``j * items`` to ``(j + 1) *
    items - 1`` draw from ``rngs[j]`` alone, in key order.  Per level, IC draws
    one coin per expanded edge.  LT draws one number per node, in reverse when
    the node is expanded, forward when an active in-neighbour first asks (never
    for a start node), and an edge into the node is live iff the number lies in
    the edge's ``[in_cum_lo, in_cum)`` (forward ``[out_cum_lo, out_cum_hi)``):
    at most one is, so a forward match is new.  Levels over ``LEVEL_EDGES``
    edges run in frontier slices, each stream drawing in key order across them;
    forward LT cuts only between runs, as a run draws for its whole level at
    once.  IC deduplicates each level by ``_distinct``; reverse LT's levels are
    distinct and ascending, as its one caller, ``RRStream``, starts each item
    from one root in key order.  Yields ``start``, then each level's new keys
    sorted, the last level empty, each once its edge and draw arrays are freed.
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

    def step(frontier: np.ndarray, item: np.ndarray, x: np.ndarray, deg: np.ndarray) -> np.ndarray:
        edge, owner = _expand(ptr[x], deg)
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
        keys = item.take(owner.take(live)) * n + heads.take(edge.take(live))
        return keys if model == "lt" and forward else keys.compress(~seen.take(keys))

    def level(frontier: np.ndarray) -> np.ndarray:
        item, x = np.divmod(frontier, n)
        deg = ptr[x + 1] - ptr[x]
        keys = np.concatenate([step(frontier[a:b], item[a:b], x[a:b], deg[a:b]) for a, b in
                               _slices(deg, item if model == "lt" and forward else frontier)])
        if model == "lt" and forward:
            return np.sort(keys)
        seen[keys] = True
        return keys if model == "lt" else _distinct(keys)

    yield start
    while start.size:
        start = level(start)
        yield start


class RRStream:
    """The reverse reachable sets of one phase as one growing inverted index, read as prefixes.

    Batches of ``size = batch_size(n)`` sets are drawn whole, in order, on demand, so a set is
    the same whatever prefix reads it.  A read expands the batches it lacks together, up to
    ``CALL_MASK_BYTES`` of mask per kernel call, and merges them into the index once: node v
    lies in the drawn sets ``node_sets[node_ptr[v]:node_ptr[v + 1]]``, ascending.
    """

    def __init__(self, graph: DiffusionGraph, targets: TargetSet, model: str,
                 master_seed: int, phase: int):
        check_model(graph, model)
        self.graph, self.targets, self.model, self.name = graph, targets, model, PHASES[phase]
        self.base, self.size = phase_seed(master_seed, phase), batch_size(graph.node_count)
        self.drawn, self.node_sets = 0, np.empty(0, dtype=np.int32)
        self.node_ptr = np.zeros(graph.node_count + 1, dtype=np.int64)

    def _read(self, stop: int) -> None:
        n, size, first = self.graph.node_count, self.size, self.drawn // self.size
        wanted, calls, counts = -(-stop // size), [], np.zeros(n, dtype=np.int64)
        per_call = max(1, CALL_MASK_BYTES // (size * n))
        try:
            for at in range(first, wanted, per_call):
                rngs = [stream(self.base, b) for b in range(at, min(at + per_call, wanted))]
                roots = np.concatenate([sample_roots(self.targets, rng, size) for rng in rngs])
                levels = live_edge_search(self.graph, self.model, False, size,
                                          np.arange(roots.size) * n + roots, rngs)
                item, node = np.divmod(np.concatenate(list(levels)), n)
                np.add.at(counts, node, 1)
                # node * per_call * size + item, below a call's mask bytes: a node's sets in order
                calls.append(np.sort((node * (per_call * size) + item).astype(np.int32)))
            if not calls:
                return
            # each node's old sets, then its new ones call by call: a counting sort by node
            new_ptr = np.concatenate([[0], np.cumsum(counts)])
            node_sets = np.empty(self.node_sets.size + new_ptr[-1], dtype=np.int32)
            node_sets[np.repeat(np.resize([True, False], 2 * n), np.stack(
                [np.diff(self.node_ptr), counts], 1).ravel())] = self.node_sets
            fill = self.node_ptr[1:] + new_ptr[:-1]
            for c, keys in zip(range(self.drawn, wanted * size, per_call * size), calls):
                node, item = np.divmod(keys, per_call * size)
                head = np.flatnonzero(np.diff(node, prepend=-1))    # where each node's run starts
                here, node = np.diff(head, append=node.size), node.take(head)
                node_sets[np.repeat(fill.take(node) - head, here) + np.arange(item.size)] = item + c
                fill[node] += here
        except MemoryError:
            raise MemoryError(f"drawing {stop} RR sets of the {self.name}") from None
        self.node_ptr += new_ptr
        self.node_sets, self.drawn = node_sets, wanted * size

    def sets(self, stop: int) -> RRCorpus:
        """The first stop sets: the index's set ids below stop, shared if that is all of it."""
        self._read(stop)
        node_ptr, node_sets = self.node_ptr, self.node_sets
        targets, base, size = self.targets, self.base, self.size   # roots() must not hold self
        if stop < self.drawn:
            keep = node_sets < stop
            node_ptr = node_ptr - np.searchsorted(np.flatnonzero(~keep), node_ptr)
            node_sets = node_sets.compress(keep)
        return RRCorpus(stop, node_ptr, node_sets, lambda: np.concatenate(
            [sample_roots(targets, stream(base, b), size) for b in range(-(-stop // size))])[:stop])

    def hits(self, seeds: list[int], stop: int) -> int:
        """How many of the first stop sets hold a seed: the distinct ids below stop in its lists."""
        self._read(stop)
        ids = np.concatenate([self.node_sets[:0]] + [
            self.node_sets[self.node_ptr[v]:self.node_ptr[v + 1]] for v in seeds])
        return int(_distinct(ids.compress(ids < stop)).size)


class RRCorpus:
    """The inverted index of theta reverse reachable sets: node v lies in the sets
    ``node_sets[node_ptr[v]:node_ptr[v + 1]]``, ascending.  ``roots()`` draws their
    roots again, as only the dump reads them, and ``total_width`` is the member
    count; the estimator turns a count of covered sets into capital.
    """

    def __init__(self, theta: int, node_ptr: np.ndarray, node_sets: np.ndarray,
                 roots: Callable[[], np.ndarray]):
        self.theta, self.node_ptr, self.node_sets, self.roots = theta, node_ptr, node_sets, roots
        self.total_width = int(node_sets.size)

    def dump(self, sink: str | TextIO) -> None:
        """Debug dump, one line per set: ``id root member*`` (format unstable), each
        set's members rebuilt from the index in ascending node order, as drawn."""
        order, counts = np.argsort(self.node_sets, kind="stable"), np.diff(self.node_ptr)
        members = np.repeat(np.arange(counts.size), counts)[order].tolist()
        ptr = np.searchsorted(self.node_sets[order], np.arange(self.theta + 1)).tolist()
        with open_text(sink, "w") as fh:
            for i, root in enumerate(self.roots().tolist()):
                fh.write(f"{i} {root} " + " ".join(map(str, members[ptr[i]:ptr[i + 1]])) + "\n")


def generate_corpus(graph: DiffusionGraph, targets: TargetSet, model: str,
                    theta: int, master_seed: int) -> RRCorpus:
    """The first theta reverse reachable sets of the corpus phase, so the
    first m sets of a corpus equal the corpus of size m."""
    if theta < 1:
        raise ConfigError("theta must be at least 1")
    return RRStream(graph, targets, model, master_seed, CORPUS_PHASE).sets(theta)
