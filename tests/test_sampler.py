import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

import divtim
from divtim import sampler
from divtim.errors import ConfigError
from divtim.graph import _assemble, select_targets, synth_graph
from divtim.rng import stream
from divtim.sampler import (CHECK_PHASE, CORPUS_PHASE, RRStream, _distinct, batch_size,
                            generate_corpus, live_edge_search, sample_roots)
from divtim.simulator import simulate

import oracles
from conftest import (capital_of, corpus_from_sets, coverage_fraction, csr_from_sets, drawn,
                      make_graph, reach)

# chi-square critical value, 3 degrees of freedom, p = 0.01
CHI2_3_P01 = 11.345


def drawn_sets(g, ts, model, theta, master_seed):
    """The members of each set that ``generate_corpus`` with these arguments indexes."""
    _, set_ptr, members = drawn(g, ts, model, master_seed, CORPUS_PHASE, theta)
    return np.split(members, set_ptr[1:-1])


def same_index(corpus, sets, m):
    """Whether corpus is the inverted index of the first m of ``sets = (roots, set_ptr, members)``."""
    _, set_ptr, members = sets
    node_ptr, node_sets = oracles.stable_argsort_index(set_ptr[:m + 1], members[:set_ptr[m]],
                                                       len(corpus.node_ptr) - 1)
    return (corpus.theta == m and np.array_equal(corpus.node_ptr, node_ptr)
            and corpus.node_sets.dtype == np.int32 and np.array_equal(corpus.node_sets, node_sets))


def sets_containing(corpus, v):
    return corpus.node_sets[corpus.node_ptr[v]:corpus.node_ptr[v + 1]]


def targets_of(g, tau=0.0):
    return select_targets(g, "threshold", tau=tau)


def ring_with_chords():
    # incoming mass 0.9 per node, so the graph is valid under both models
    return make_graph([(str(u), str((u + 1) % 9), 0.6) for u in range(9)]
                      + [(str(u), str((u + 4) % 9), 0.3) for u in range(9)],
                      t={str(u): 0.1 + 0.1 * u for u in range(9)})


def lt_graph_with_hub(seed, n=300, hub_degree=150):
    """A random graph valid under LT: node 0 has hub_degree in-edges, every
    tenth node (5, 15, ...) has none, the others 1-6, and each node's
    in-mass is drawn from [0.3, 1)."""
    rng = np.random.default_rng(seed)
    src, dst, b = [], [], []
    for v in range(n):
        degree = hub_degree if v == 0 else 0 if v % 10 == 5 else int(rng.integers(1, 7))
        src += rng.choice(np.delete(np.arange(n), v), size=degree, replace=False).tolist()
        dst += [v] * degree
        w = rng.random(degree) + 0.05
        b += (w * rng.uniform(0.3, 1.0) / w.sum()).tolist()
    labels = [str(v) for v in range(n)]
    return _assemble(labels, {label: v for v, label in enumerate(labels)},
                     np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
                     np.array(b), np.ones(n))


def test_sample_root_singleton():
    g = make_graph([("a", "b", 1.0)], t={"a": 0.1, "b": 1.0})
    ts = select_targets(g, "threshold", tau=0.5)
    assert np.all(sample_roots(ts, stream(0, 0), 20) == g.label_ids["b"])


def test_sample_root_uniform_chi_square():
    g = make_graph([("0", "1", 0.5), ("1", "2", 0.5), ("2", "3", 0.5), ("3", "0", 0.5)])
    ts = targets_of(g)  # four nodes, all t=1
    draws = 100_000
    counts = np.bincount(sample_roots(ts, stream(7, 0), draws), minlength=4)
    expected = draws / 4
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < CHI2_3_P01


def test_sample_root_weighted_three_sigma():
    g = make_graph([("0", "1", 0.5)], t={"0": 0.8, "1": 0.2})
    ts = targets_of(g)
    draws = 100_000
    hits = int(np.count_nonzero(sample_roots(ts, stream(3, 0), draws) == 0))
    p = 0.8
    sigma = (p * (1 - p) / draws) ** 0.5
    assert abs(hits / draws - p) < 3 * sigma


def test_rr_set_deterministic_chain():
    g = make_graph([("u", "v", 1.0)], t={"u": 0.1, "v": 1.0})
    ts = select_targets(g, "threshold", tau=0.5)
    corpus = generate_corpus(g, ts, "ic", 1, master_seed=1)
    assert corpus.roots()[0] == g.label_ids["v"]
    assert set(drawn_sets(g, ts, "ic", 1, 1)[0]) == {g.label_ids["u"], g.label_ids["v"]}


def test_rr_set_isolated_root():
    g = make_graph([("a", "b", 1.0)], t={"a": 1.0, "b": 0.1})
    ts = select_targets(g, "threshold", tau=0.5)  # only 'a', which has no in-edges
    assert set(drawn_sets(g, ts, "ic", 1, 1)[0]) == {g.label_ids["a"]}


def test_rr_half_edge_inclusion_rate():
    g = make_graph([("u", "v", 0.5)], t={"u": 0.1, "v": 1.0})
    ts = select_targets(g, "threshold", tau=0.5)
    trials = 100_000
    corpus = generate_corpus(g, ts, "ic", trials, master_seed=5)
    hits = len(sets_containing(corpus, g.label_ids["u"]))
    sigma = (0.25 / trials) ** 0.5
    assert abs(hits / trials - 0.5) < 3 * sigma


@pytest.mark.parametrize("model", ["ic", "lt"])
def test_kernel_matches_reference_sampler(model):
    g = ring_with_chords()
    ts = targets_of(g)
    draws = 20_000
    corpus = generate_corpus(g, ts, model, draws, master_seed=12)
    kernel = np.array([len(sets_containing(corpus, v)) for v in range(g.node_count)]) / draws
    rng = np.random.default_rng(12)
    counts = np.zeros(g.node_count)
    for _ in range(draws):
        counts[oracles.reference_rr_set(g, ts, model, rng)[1]] += 1
    reference = counts / draws
    se = np.sqrt((kernel * (1 - kernel) + reference * (1 - reference)) / draws)
    assert np.all(np.abs(kernel - reference) <= 4 * se), (kernel, reference)


def test_reverse_lt_levels_are_distinct_without_a_dedupe():
    # one root per item: the kernel's reverse LT, which skips _distinct,
    # reaches the keys a search deduplicating every level reaches, in order
    plain = synth_graph(300, 4, seed=21, score_mode="uniform")
    for g in (ring_with_chords(), lt_graph_with_hub(1), plain.with_probs(plain.b * 0.9)):
        ts, n, size = targets_of(g), g.node_count, batch_size(g.node_count)
        for b in range(2):
            start = np.arange(size) * n + sample_roots(ts, stream(7, b), size)
            got = reach(g, "lt", False, size, start, [np.random.default_rng(b)])
            want = oracles.levelwise_reverse_lt(g, start, np.random.default_rng(b))
            assert got.dtype == want.dtype and np.array_equal(got, want)


class CycledDraws:
    """Stands in for a generator: its draws cycle through ``values``."""

    def __init__(self, values):
        self.values, self.drawn = np.asarray(values, dtype=np.float64), 0

    def random(self, size):
        at = (self.drawn + np.arange(size)) % self.values.size
        self.drawn += int(size)
        return self.values[at]


def test_reverse_lt_matches_levelwise_oracle_on_interval_bounds():
    # One item per (node, draw) pair, rooted at the node, so the first level
    # draws these values in key order: 0.0, every in_cum entry (bisect_right
    # goes past an equal entry) and just above each node's in-mass, where no
    # in-neighbour is the trigger; later levels cycle through them again.
    for g in (lt_graph_with_hub(0), lt_graph_with_hub(3), ring_with_chords()):
        n, deg = g.node_count, np.diff(g.in_indptr)
        has = np.flatnonzero(deg)
        roots = np.concatenate([np.arange(n), np.repeat(np.arange(n), deg), has])
        values = np.concatenate([np.zeros(n), g.in_cum,
                                 np.nextafter(g.in_cum[g.in_indptr[has + 1] - 1], 2.0)])
        start = np.arange(roots.size) * n + roots
        got = reach(g, "lt", False, roots.size, start, [CycledDraws(values)])
        want = oracles.levelwise_reverse_lt(g, start, CycledDraws(values))
        assert got.dtype == want.dtype and np.array_equal(got, want)
        reached = np.bincount(got // n, minlength=roots.size) > 1
        assert reached[:n].tolist() == (deg > 0).tolist()       # 0.0 picks the first in-edge
        assert not reached[-has.size:].any()
        assert reached[n:-has.size].any() and not reached[n:-has.size].all()


def test_forward_lt_matches_levelwise_oracle():
    # the kernel tests the asking edge's in_cum interval; the oracle draws a
    # trigger per fresh key by bisect_right and compares it with the asker
    plain = synth_graph(300, 4, seed=21, score_mode="uniform")
    scaled = plain.with_probs(plain.b * 0.9)
    items = 40

    def starts(g, seed):
        rng = np.random.default_rng(seed)
        return np.concatenate([i * g.node_count + np.sort(rng.choice(g.node_count, 3, False))
                               for i in range(items)])

    for g in (ring_with_chords(), lt_graph_with_hub(1), scaled):
        for b in range(2):
            start = starts(g, b)
            got = reach(g, "lt", True, items, start, [np.random.default_rng(b)])
            want = oracles.levelwise_forward_lt(g, start, np.random.default_rng(b))
            assert got.dtype == want.dtype and np.array_equal(got, want)
        # two blocks in one call draw as two calls do
        both = reach(g, "lt", True, items, np.concatenate(
            [starts(g, 0), starts(g, 1) + items * g.node_count]),
            [np.random.default_rng(0), np.random.default_rng(1)])
        apart = [reach(g, "lt", True, items, starts(g, b), [np.random.default_rng(b)])
                 for b in range(2)]
        apart[1] += items * g.node_count
        assert np.array_equal(np.sort(both), np.sort(np.concatenate(apart)))
    # Every node of the scaled graph has the in_cum entries 0.225, 0.45,
    # 0.675, 0.9: each draw lands on one of them (bisect_right goes past an
    # equal entry), on 0.0 or just above the in-mass, where no trigger is picked.
    assert np.array_equal(np.unique(scaled.in_cum), scaled.in_cum[:4])
    ties = np.concatenate([[0.0], scaled.in_cum[:4], [np.nextafter(scaled.in_cum[3], 2.0)]])
    for g, values in ((scaled, ties), (ring_with_chords(), np.unique(ring_with_chords().in_cum))):
        start = starts(g, 2)
        got = reach(g, "lt", True, items, start, [CycledDraws(values[::-1])])
        want = oracles.levelwise_forward_lt(g, start, CycledDraws(values[::-1]))
        assert np.array_equal(got, want) and got.size > start.size


@pytest.mark.parametrize("model", ["ic", "lt"])
def test_rr_stream_groups_batches_within_the_call_budget(model, monkeypatch):
    # a read expands its missing batches together, several per kernel call,
    # and each batch is the one it is when read one batch at a time
    plain = synth_graph(300, 4, seed=21, score_mode="uniform")
    g = plain if model == "ic" else plain.with_probs(plain.b * 0.9)
    ts, size = targets_of(g), batch_size(g.node_count)
    per_call = sampler.CALL_MASK_BYTES // (size * g.node_count)
    count = per_call + 3
    kernel, calls = sampler.live_edge_search, []

    def counted(graph, model, forward, items, start, rngs):
        calls.append((len(rngs), items * len(rngs) * graph.node_count))
        return kernel(graph, model, forward, items, start, rngs)

    monkeypatch.setattr(sampler, "live_edge_search", counted)
    alone = RRStream(g, ts, model, 9, CORPUS_PHASE)
    for b in range(count):
        corpus_alone = alone.sets((b + 1) * size)
    assert [k for k, _ in calls] == [1] * count
    grouped = RRStream(g, ts, model, 9, CORPUS_PHASE)
    grouped.sets(2 * size - 3)
    corpus = grouped.sets(count * size)
    assert [k for k, _ in calls[count:]] == [2, per_call, 1] and per_call > 2
    assert max(mask for _, mask in calls) <= sampler.CALL_MASK_BYTES
    assert np.array_equal(corpus.roots(), corpus_alone.roots())
    assert np.array_equal(corpus.node_ptr, corpus_alone.node_ptr)
    assert np.array_equal(corpus.node_sets, corpus_alone.node_sets)


def test_corpus_rejects_nonpositive_theta():
    g = make_graph([("a", "b", 1.0)])
    with pytest.raises(ConfigError):
        generate_corpus(g, targets_of(g), "ic", 0, master_seed=1)


def test_corpus_prefix_equals_smaller_corpus():
    g = ring_with_chords()
    ts = targets_of(g)
    size = batch_size(g.node_count)
    for model in ("ic", "lt"):
        sets = drawn(g, ts, model, 9, CORPUS_PHASE, 2 * size + 7)
        large = RRStream(g, ts, model, 9, CORPUS_PHASE)
        large.sets(2 * size + 7)
        for m in (50, size, size + 1):
            small, same = generate_corpus(g, ts, model, m, master_seed=9), large.sets(m)
            assert np.array_equal(small.roots(), sets[0][:m])
            assert np.array_equal(same.roots(), sets[0][:m])
            assert same_index(small, sets, m) and same_index(same, sets, m)


def test_rr_stream_reads_by_index(monkeypatch):
    # a set is the same whatever prefix reads it, longer or shorter than the last
    g = ring_with_chords()
    ts = targets_of(g)
    b = batch_size(g.node_count)
    kernel, batches = sampler.live_edge_search, []

    def counted(graph, model, forward, items, start, rngs):
        batches.append(len(rngs))
        return kernel(graph, model, forward, items, start, rngs)

    monkeypatch.setattr(sampler, "live_edge_search", counted)
    for model in ("ic", "lt"):
        sets = drawn(g, ts, model, 9, CORPUS_PHASE, 2 * b + 7)
        rr, batches[:] = RRStream(g, ts, model, 9, CORPUS_PHASE), []
        for stop in (b + 2, 5, 2 * b + 7, b):
            corpus = rr.sets(stop)
            assert np.array_equal(corpus.roots(), sets[0][:stop])
            assert same_index(corpus, sets, stop)
        assert sum(batches) == 3     # each batch drawn once


def test_rr_stream_hits_count_the_prefix_sets_that_hold_a_seed():
    g = synth_graph(300, 4, seed=21, score_mode="uniform")
    ts = targets_of(g, tau=0.5)
    for model in ("ic", "lt"):
        rr = RRStream(g, ts, model, 5, CHECK_PHASE)
        _, set_ptr, members = drawn(g, ts, model, 5, CHECK_PHASE, 2500)
        sets = [set(m.tolist()) for m in np.split(members, set_ptr[1:-1])]
        for seeds, stop in (([], 10), ([3], 2500), ([0, 7, 42], 900), ([0, 7, 42], 2500)):
            assert rr.hits(seeds, stop) == sum(bool(s.intersection(seeds)) for s in sets[:stop])


class CountedDraws:
    """Stands in for a generator: records the size of each draw it is asked for."""

    def __init__(self, seed):
        self.rng, self.asked = np.random.default_rng(seed), []

    def random(self, size):
        self.asked.append(size)
        return self.rng.random(size)


@pytest.mark.parametrize("model, forward", [("ic", False), ("lt", False), ("lt", True)])
def test_one_call_over_many_streams_draws_as_one_call_per_stream(model, forward):
    # Most RR sets and runs die within a few levels while those through the
    # hub go on, so most streams draw nothing on most levels: such a stream is
    # not asked for zero draws, and each stream draws and reaches, level by
    # level, what it draws and reaches in a call of its own.
    g = lt_graph_with_hub(2)
    n, streams, items = g.node_count, 40, 3
    rng = np.random.default_rng(6)
    starts = [np.arange(items) * n + rng.choice(n, items) for _ in range(streams)]
    grouped = [CountedDraws(j) for j in range(streams)]
    levels = list(live_edge_search(g, model, forward, items, np.concatenate(
        [start + j * items * n for j, start in enumerate(starts)]), grouped))
    alone = [CountedDraws(j) for j in range(streams)]
    apart = [[level + j * items * n for level in live_edge_search(g, model, forward, items,
                                                                  start, [alone[j]])]
             for j, start in enumerate(starts)]
    assert len(levels) == max(map(len, apart))
    for depth, level in enumerate(levels):
        assert np.array_equal(level, np.sort(np.concatenate(
            [own[depth] for own in apart if depth < len(own)])))
    assert [s.asked for s in grouped] == [s.asked for s in alone]
    assert 0 not in [k for s in grouped for k in s.asked]
    assert sum(map(len, (s.asked for s in grouped))) < streams * (len(levels) - 1) / 2


def test_only_the_sampler_draws_rr_sets():
    # one stream rule: every RR-set reader goes through sampler.RRStream
    callers = sorted(path.name for path in Path(divtim.__file__).parent.glob("*.py")
                     if re.search(r"(?<!def )\b(sample_roots|phase_seed)\(",
                                  path.read_text(encoding="utf-8")))
    assert callers == ["sampler.py", "simulator.py"]


def test_distinct_equals_np_unique():
    rng = np.random.default_rng(4)
    top = 2048 * 500                      # items * n of a full batch on 500 nodes
    cases = [np.array([], dtype=np.int64), np.array([7], dtype=np.int64),
             np.full(9, 3, dtype=np.int64), rng.integers(0, 50, 1000),
             rng.integers(top - 40, top, 300), rng.integers(0, top, 20_000)]
    for keys in cases:
        got = _distinct(keys)
        assert got.dtype == np.int64 and np.array_equal(got, np.unique(keys))


def test_sampler_dedupes_without_np_unique():
    # the kernel's dedupe is _distinct's sort and mask, not numpy's hash-based unique
    source = (Path(divtim.__file__).parent / "sampler.py").read_text(encoding="utf-8")
    assert not re.search(r"\bnp\.unique\b", source)


def test_index_equals_stable_argsort_construction(monkeypatch):
    # each read merges its new sets into the one index, which lists each
    # node's sets as a stable argsort of the members does; a prefix is its set
    # ids below m.  The kernel's sets on 9 nodes, then made-up ones on 1 to 3000
    rng = np.random.default_rng(8)
    g = ring_with_chords()
    for model in ("ic", "lt"):
        sets = drawn(g, targets_of(g), model, 3, CORPUS_PHASE, 3 * 2048)
        rr = RRStream(g, targets_of(g), model, 3, CORPUS_PHASE)
        for m in (700, 1, 2049, 3 * 2048, 2048):
            assert same_index(rr.sets(m), sets, m)
    made = []

    def kernel(graph, model, forward, items, start, rngs):
        n, first = graph.node_count, len(made)
        made.extend(np.sort(rng.choice(n, int(rng.integers(0, min(n, 9) + 1)), replace=False))
                    for _ in range(items * len(rngs)))
        keys = np.concatenate([i * n + members for i, members in enumerate(made[first:])])
        level = rng.random(keys.size) < 0.5
        yield keys[level]
        yield keys[~level]

    monkeypatch.setattr(sampler, "live_edge_search", kernel)
    for n in (1, 40, 3000):
        labels = [str(v) for v in range(n)]
        none = np.zeros(0, dtype=np.int64)
        g = _assemble(labels, {v: i for i, v in enumerate(labels)}, none, none, np.zeros(0),
                      np.ones(n))
        rr, size, made[:] = RRStream(g, targets_of(g), "ic", 3, CORPUS_PHASE), batch_size(n), []
        for stop in (size + 1, 1, 3 * size + 5, 2 * size):
            corpus = rr.sets(stop)
            sets = csr_from_sets([(0, members) for members in made])
            assert same_index(corpus, sets, stop)
            node_ptr, node_sets = oracles.stable_argsort_index(sets[1], sets[2], n)
            assert np.array_equal(rr.node_ptr, node_ptr) and np.array_equal(rr.node_sets, node_sets)


def test_corpus_forced_membership():
    g = make_graph([("u", "v", 1.0)], t={"u": 0.1, "v": 1.0})
    ts = select_targets(g, "threshold", tau=0.5)
    for members in drawn_sets(g, ts, "ic", 100, 2):
        assert set(members) == {g.label_ids["u"], g.label_ids["v"]}


def test_corpus_index_inverts_membership():
    g = make_graph([(str(u), str(v), 0.4) for u in range(6) for v in range(6) if u != v][:20])
    ts = targets_of(g)
    corpus = generate_corpus(g, ts, "ic", 150, master_seed=4)
    sets = drawn_sets(g, ts, "ic", 150, 4)
    for i in range(corpus.theta):
        for v in sets[i]:
            assert i in sets_containing(corpus, v)
    for v in range(g.node_count):
        ids = sets_containing(corpus, v)
        assert np.all(np.diff(ids) > 0)
        for i in ids:
            assert v in sets[i]
    assert corpus.total_width == sum(len(members) for members in sets)


def test_root_scores_match_roots():
    g = make_graph([("0", "1", 0.5)], t={"0": 0.7, "1": 0.9})
    ts = targets_of(g)
    corpus = generate_corpus(g, ts, "ic", 50, master_seed=6)
    capital = capital_of(corpus, ts.total_score)     # every set holds its root, 0 or 1
    capital.commit(0)
    capital.commit(1)
    assert capital.value() == ts.total_score == pytest.approx(1.6)
    for root, members in zip(corpus.roots(), drawn_sets(g, ts, "ic", 50, 6)):
        assert root in members


def test_lt_requires_subunit_in_mass():
    g = make_graph([("a", "c", 0.8), ("b", "c", 0.8)])
    with pytest.raises(ConfigError):
        generate_corpus(g, targets_of(g), "lt", 10, master_seed=0)


def test_lt_chain_follows_single_pick():
    g = make_graph([("u", "v", 1.0)], t={"u": 0.1, "v": 1.0})
    ts = select_targets(g, "threshold", tau=0.5)
    for members in drawn_sets(g, ts, "lt", 50, 3):
        assert set(members) == {g.label_ids["u"], g.label_ids["v"]}


def test_coverage_fraction_and_scores():
    corpus = corpus_from_sets([(0, [0, 1]), (2, [2]), (0, [0])], 3)
    assert coverage_fraction(corpus, [0]) == pytest.approx(2 / 3)
    assert coverage_fraction(corpus, [2]) == pytest.approx(1 / 3)
    assert coverage_fraction(corpus, [0, 2]) == 1.0
    capital = capital_of(corpus, 1.75)
    capital.commit(0)
    capital.commit(2)
    assert capital.value() == 1.75


# sha256 of the corpus phase's first 2000 (roots, set_ptr, members) as
# little-endian int64, drawn batch by batch as ``drawn`` does, and of the
# simulate report's repr, on
# synth_graph(300, 4, seed=21): a change here is a change of the draws,
# and must be named as one
GOLDEN_DRAWS = {
    "ic": ("2157837b0656e4014b28bd0660fd685dfa6c1223001e5e378b7628a0fa8bf95f",
           "428f99058e8d37404fb476dded3f76940b80111a695d15f200b5b1c6d2c6b1a5"),
    "lt": ("59c7698fa16db396dd398115debd3c4cfd3c5da389ab4ce5d0887f2fe6220134",
           "574f8046e921d7fff89c443c327032cc241d601eed697d521fe1c6a652968ada"),
}


@pytest.mark.parametrize("model", ["ic", "lt"])
def test_draws_match_golden_digests(model):
    g = synth_graph(300, 4, seed=21, score_mode="uniform")
    ts = select_targets(g, "threshold", tau=0.5)
    digest = hashlib.sha256()
    for a in drawn(g, ts, model, 5, CORPUS_PHASE, 2000):     # two batches
        digest.update(a.astype("<i8").tobytes())
    report = simulate(g, model, [0, 7, 42, 99, 250], 2000, 5, ts)
    assert (digest.hexdigest(), hashlib.sha256(repr(report).encode()).hexdigest()) \
        == GOLDEN_DRAWS[model]


# sha256 of the inverted index (node_ptr, node_sets) as little-endian int64
# on the GOLDEN_DRAWS corpus, as the stable argsort of the members built it
GOLDEN_INDEX = {
    "ic": "e3ab246bb4e7635e4359e88e86193c27c43c6dd2f8b4fdc54a2ab0e8a25e5c31",
    "lt": "6e9383dde45e68a94dde163d23dcc86014c2094184692112b1b2ee61ed2443a9",
}


@pytest.mark.parametrize("model", ["ic", "lt"])
def test_index_matches_golden_digest(model):
    g = synth_graph(300, 4, seed=21, score_mode="uniform")
    ts = select_targets(g, "threshold", tau=0.5)
    corpus = generate_corpus(g, ts, model, 2000, master_seed=5)
    digest = hashlib.sha256()
    for a in (corpus.node_ptr, corpus.node_sets):
        digest.update(a.astype("<i8").tobytes())
    assert digest.hexdigest() == GOLDEN_INDEX[model]


@pytest.mark.parametrize("model", ["ic", "lt"])
def test_corpus_holds_only_its_index(model):
    # node_sets (4 B per member) and node_ptr (8 B per node plus one): no
    # set-major copy of the members, and no roots, which are drawn again
    g = synth_graph(300, 4, seed=21, score_mode="uniform")
    ts = select_targets(g, "threshold", tau=0.5)
    corpus = generate_corpus(g, ts, model, 2000, master_seed=5)
    # the estimator turns a count of covered sets into capital, so no total lives here
    assert sorted(vars(corpus)) == ["node_ptr", "node_sets", "roots", "theta", "total_width"]
    held = sum(a.nbytes for a in vars(corpus).values() if isinstance(a, np.ndarray))
    assert held <= 4 * corpus.total_width + 8 * (g.node_count + 1)
    # and so does each phase's stream, after reads of R1's sets and R2's hits
    r1, r2 = (RRStream(g, ts, model, 5, phase) for phase in (CORPUS_PHASE, CHECK_PHASE))
    r1.sets(900)
    r1.sets(2000)
    r2.hits([0, 7], 1000)
    r2.hits([0, 7], 4000)
    for rr in (r1, r2):
        held = sum(a.nbytes for a in vars(rr).values() if isinstance(a, np.ndarray))
        assert rr.drawn >= 2000 and held <= 4 * rr.node_sets.size + 8 * (g.node_count + 1)


@pytest.mark.parametrize("model, forward", [("ic", False), ("lt", False), ("lt", True)])
def test_levels_cut_into_slices_equal_whole_levels(model, forward, monkeypatch):
    # A level over the edge budget is expanded in frontier slices, forward LT's
    # only between runs, and each stream draws in key order across them, so
    # every level, every draw and every stream's state match the whole level's.
    # On the hub's graph one node, and one run's level, exceed a budget of 5.
    g = lt_graph_with_hub(5)
    n, items, streams = g.node_count, 4, 3
    rng = np.random.default_rng(12)
    per_item = 3 if forward else 1        # reverse LT starts each item from one root
    start = np.concatenate([np.sort(rng.choice(n, per_item, replace=False)) + i * n
                            for i in range(items * streams)])

    def run():
        """Every level, ``conftest.reach`` and the streams' next draws."""
        rngs, again = ([stream(7, j) for j in range(streams)] for _ in range(2))
        levels = list(live_edge_search(g, model, forward, items, start, rngs))
        return levels, reach(g, model, forward, items, start, again), [r.random() for r in rngs]

    whole, expand, sizes = run(), sampler._expand, []

    def counted(lo, deg):
        sizes.append((deg.size, int(deg.sum())))
        return expand(lo, deg)

    monkeypatch.setattr(sampler, "_expand", counted)
    monkeypatch.setattr(sampler, "LEVEL_EDGES", 5)
    sliced = run()
    assert len(sliced[0]) == len(whole[0]) > 2
    assert all(np.array_equal(a, b) for a, b in zip(sliced[0], whole[0]))
    assert np.array_equal(sliced[1], whole[1]) and sliced[2] == whole[2]
    assert len(sizes) > len(whole[0]) and max(edges for _, edges in sizes) > 5
    if not forward:
        assert all(edges <= 5 or nodes == 1 for nodes, edges in sizes)


def test_sliced_stream_and_simulation_equal_whole_levels(monkeypatch):
    # one RR read over several streams per kernel call, and a simulate report,
    # under a budget that cuts nearly every level, equal the default budget's
    plain = synth_graph(300, 4, seed=21, score_mode="uniform")
    ts = targets_of(plain, tau=0.5)
    size = batch_size(plain.node_count)
    assert sampler.CALL_MASK_BYTES // (size * plain.node_count) > 2

    def outputs():
        got = []
        for g, model in ((plain, "ic"), (plain.with_probs(plain.b * 0.9), "lt")):
            rr = RRStream(g, ts, model, 4, CORPUS_PHASE)
            rr.sets(3 * size + 5)
            got += [rr.node_ptr, rr.node_sets, simulate(g, model, [0, 9, 77], size + 3, 4, ts)]
        return got

    whole = outputs()
    monkeypatch.setattr(sampler, "LEVEL_EDGES", 64)
    sliced = outputs()
    for a, b in zip(sliced, whole):
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
