import io

import numpy as np
import pytest

from divtim.diversity import Coverage
from divtim.graph import DiffusionGraph, _assemble, load_graph
from divtim.profiles import MISSING, ProfileSet, Schema
from divtim.rng import phase_seed, stream
from divtim.sampler import RRCorpus, batch_size, live_edge_search, sample_roots

from oracles import stable_argsort_index


def make_graph(edges, mode="explicit", t=None) -> DiffusionGraph:
    """Build a graph from (src, dst[, prob]) tuples; labels are str(node)."""
    lines = []
    for e in edges:
        if mode == "explicit" or mode == "interaction":
            lines.append(f"{e[0]} {e[1]} {e[2]}")
        else:
            lines.append(f"{e[0]} {e[1]}")
    g = load_graph(io.StringIO("\n".join(lines) + "\n"), mode)
    if t is not None:
        scores = np.ones(g.node_count)
        for label, val in t.items():
            scores[g.label_ids[str(label)]] = val
        g = g.with_target_scores(scores)
    return g


def graph_on(n, edges) -> DiffusionGraph:
    """Graph on dense ids 0..n-1, isolated nodes included, with certain (u, v) edges."""
    src = np.array([u for u, _ in edges], dtype=np.int64)
    dst = np.array([v for _, v in edges], dtype=np.int64)
    labels = [str(v) for v in range(n)]
    return _assemble(labels, {label: v for v, label in enumerate(labels)}, src, dst,
                     np.ones(src.size), np.ones(n))


def mixed_components_graph(rng, n=300, tail=60) -> DiffusionGraph:
    """A giant component through the cycle 0 -> 1 -> 2 -> 0, a sink at every
    tenth node, small components in between, and a chain of ``tail`` nodes
    hanging off node 0; ``n + tail`` nodes in all."""
    sinks = set(range(5, n, 10))
    edges = {(0, 1), (1, 2), (2, 0), (0, n)}
    for u in range(n):
        if u not in sinks:
            edges |= {(u, int(v)) for v in rng.integers(0, n, size=2) if v != u}
    for s in sinks:
        edges.add((int(rng.integers(0, 5)), s))       # every sink is someone's head
    edges |= {(u, u + 1) for u in range(n, n + tail - 1)}
    return make_graph([(u, v, 0.5) for u, v in sorted(edges)])


def csr_from_sets(sets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(roots, set_ptr, members)`` of hand-written (root, members) pairs, set
    ids in list order, as ``drawn`` returns drawn sets."""
    set_ptr = np.cumsum([0] + [len(members) for _, members in sets])
    members = np.array([int(v) for _, mem in sets for v in mem], dtype=np.int32)
    return np.array([root for root, _ in sets], dtype=np.int64), set_ptr, members


def corpus_from_sets(sets, node_count) -> RRCorpus:
    """Corpus from hand-written (root, members) pairs, set ids in list order.

    List each set's members in ascending node order, as ``RRStream`` draws
    them: the corpus keeps only its inverted index, and its dump rebuilds each
    set from it in that order."""
    roots, set_ptr, members = csr_from_sets(sets)
    return RRCorpus(len(roots), *stable_argsort_index(set_ptr, members, node_count),
                    lambda: roots)


def capital_of(corpus, total) -> Coverage:
    """The capital ``estimate_params`` builds on a corpus: each set worth total / theta."""
    return Coverage(corpus.node_ptr, corpus.node_sets, corpus.theta, float(total))


def reach(graph, model, forward, items, start, rngs) -> np.ndarray:
    """Every key ``live_edge_search`` reaches: its levels concatenated, each sorted."""
    return np.concatenate(list(live_edge_search(graph, model, forward, items, start, rngs)))


def drawn(graph, targets, model, master_seed, phase, stop):
    """The first stop RR sets of a phase as ``(roots, set_ptr, members)``, set-major, each
    set's members ascending: batch by batch from the kernel, as ``RRStream`` draws them."""
    n, size, base = graph.node_count, batch_size(graph.node_count), phase_seed(master_seed, phase)
    roots, keys = [], []
    for b in range(-(-stop // size)):
        rng = stream(base, b)
        roots.append(sample_roots(targets, rng, size))
        keys.append(np.sort(reach(graph, model, False, size, np.arange(size) * n + roots[-1],
                                  [rng])) + b * size * n)
    item, members = np.divmod(np.concatenate(keys), n)
    set_ptr = np.searchsorted(item, np.arange(stop + 1))
    return np.concatenate(roots)[:stop], set_ptr, members[:set_ptr[-1]].astype(np.int32)


def coverage_fraction(corpus, seeds) -> float:
    """Fraction of the corpus's sets that the seeds cover."""
    sets = Coverage(corpus.node_ptr, corpus.node_sets, corpus.theta, 1.0)
    for v in seeds:
        sets.commit(v)
    return sets.value()


def make_profiles(rows, domain_sizes=None) -> ProfileSet:
    """Profiles from integer rows; None marks a missing value.

    Domains are 0..max observed (or explicit sizes), stringified.
    """
    m = len(rows[0])
    cols = list(zip(*rows))
    if domain_sizes is None:
        domain_sizes = [max((x for x in col if x is not None), default=-1) + 1
                        for col in cols]
        domain_sizes = [max(d, 1) for d in domain_sizes]
    schema = Schema(attributes=[f"A{j + 1}" for j in range(m)],
                    domains=[[str(i) for i in range(d)] for d in domain_sizes])
    codes = np.full((len(rows), m), MISSING, dtype=np.int32)
    for i, row in enumerate(rows):
        for j, val in enumerate(row):
            if val is not None:
                codes[i, j] = val
    return ProfileSet(schema=schema, codes=codes)


def random_profiles(rng, n, m, domain_size, missing_prob=0.0) -> ProfileSet:
    rows = []
    for _ in range(n):
        row = []
        for _ in range(m):
            if missing_prob and rng.random() < missing_prob:
                row.append(None)
            else:
                row.append(int(rng.integers(0, domain_size)))
        rows.append(tuple(row))
    return make_profiles(rows, [domain_size] * m)


def random_digraph(rng, n, edge_prob=0.3, prob_range=(0.1, 0.9)) -> DiffusionGraph:
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < edge_prob:
                p = float(rng.uniform(*prob_range))
                edges.append((u, v, p))
    if not edges:
        edges = [(0, 1, 0.5)]
    lines = [f"{u} {v} {p}" for u, v, p in edges]
    # mention every node so isolated ones keep dense ids: anchor via extra edges
    g = load_graph(io.StringIO("\n".join(lines) + "\n"), "explicit")
    return g


@pytest.fixture
def chain3():
    # a -> b -> c with certain edges
    return make_graph([("a", "b", 1.0), ("b", "c", 1.0)])


@pytest.fixture
def two_node_half():
    # u -> v with probability 0.5; v is the only meaningful target
    return make_graph([("u", "v", 0.5)], t={"u": 0.1, "v": 1.0})
