import numpy as np
import pytest

from divtim.errors import ConfigError
from divtim.graph import select_targets
from divtim.rng import stream
from divtim.sampler import (RRCorpus, RRSet, generate_corpus, generate_rr_set,
                            load_corpus_dump, sample_root)

from conftest import make_graph

# chi-square critical value, 3 degrees of freedom, p = 0.01
CHI2_3_P01 = 11.345


def targets_of(g, tau=0.0):
    return select_targets(g, "threshold", tau=tau)


def test_sample_root_singleton():
    g = make_graph([("a", "b", 1.0)], t={"a": 0.1, "b": 1.0})
    ts = select_targets(g, "threshold", tau=0.5)
    rng = stream(0, 0)
    assert all(sample_root(ts, rng) == g.label_ids["b"] for _ in range(20))


def test_sample_root_uniform_chi_square():
    g = make_graph([("0", "1", 0.5), ("1", "2", 0.5), ("2", "3", 0.5), ("3", "0", 0.5)])
    ts = targets_of(g)  # four nodes, all t=1
    rng = stream(7, 0)
    draws = 100_000
    counts = np.zeros(4)
    for _ in range(draws):
        counts[sample_root(ts, rng)] += 1
    expected = draws / 4
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < CHI2_3_P01


def test_sample_root_weighted_three_sigma():
    g = make_graph([("0", "1", 0.5)], t={"0": 0.8, "1": 0.2})
    ts = targets_of(g)
    rng = stream(3, 0)
    draws = 100_000
    hits = sum(1 for _ in range(draws) if sample_root(ts, rng) == 0)
    p = 0.8
    sigma = (p * (1 - p) / draws) ** 0.5
    assert abs(hits / draws - p) < 3 * sigma


def test_rr_set_deterministic_chain():
    g = make_graph([("u", "v", 1.0)], t={"u": 0.1, "v": 1.0})
    ts = select_targets(g, "threshold", tau=0.5)
    rr = generate_rr_set(g, ts, "ic", 0, stream(1, 0))
    assert rr.root == g.label_ids["v"]
    assert set(rr.members) == {g.label_ids["u"], g.label_ids["v"]}


def test_rr_set_isolated_root():
    g = make_graph([("a", "b", 1.0)], t={"a": 1.0, "b": 0.1})
    ts = select_targets(g, "threshold", tau=0.5)  # only 'a', which has no in-edges
    rr = generate_rr_set(g, ts, "ic", 0, stream(1, 0))
    assert set(rr.members) == {g.label_ids["a"]}


def test_rr_half_edge_inclusion_rate():
    g = make_graph([("u", "v", 0.5)], t={"u": 0.1, "v": 1.0})
    ts = select_targets(g, "threshold", tau=0.5)
    u = g.label_ids["u"]
    trials = 100_000
    hits = 0
    for i in range(trials):
        rr = generate_rr_set(g, ts, "ic", i, stream(5, i))
        hits += u in rr.members
    sigma = (0.25 / trials) ** 0.5
    assert abs(hits / trials - 0.5) < 3 * sigma


def test_corpus_rejects_nonpositive_theta():
    g = make_graph([("a", "b", 1.0)])
    with pytest.raises(ConfigError):
        generate_corpus(g, targets_of(g), "ic", 0, master_seed=1)


def test_corpus_prefix_equals_smaller_corpus():
    g = make_graph([(str(u), str((u + 1) % 9), 0.6) for u in range(9)]
                   + [(str(u), str((u + 4) % 9), 0.3) for u in range(9)])
    ts = targets_of(g)
    for model in ("ic", "lt"):
        small = generate_corpus(g, ts, model, 50, master_seed=9)
        large = generate_corpus(g, ts, model, 200, master_seed=9)
        assert [s.root for s in small.sets] == [s.root for s in large.sets[:50]]
        for a, b in zip(small.sets, large.sets):
            assert np.array_equal(a.members, b.members)


def test_corpus_forced_membership():
    g = make_graph([("u", "v", 1.0)], t={"u": 0.1, "v": 1.0})
    ts = select_targets(g, "threshold", tau=0.5)
    corpus = generate_corpus(g, ts, "ic", 100, master_seed=2)
    for s in corpus.sets:
        assert set(s.members) == {g.label_ids["u"], g.label_ids["v"]}


def test_corpus_index_inverts_membership():
    g = make_graph([(str(u), str(v), 0.4) for u in range(6) for v in range(6) if u != v][:20])
    ts = targets_of(g)
    corpus = generate_corpus(g, ts, "ic", 150, master_seed=4)
    for s in corpus.sets:
        for v in s.members:
            assert s.id in corpus.node_index[v]
    for v, ids in enumerate(corpus.node_index):
        for i in ids:
            assert v in corpus.sets[i].members
    assert corpus.total_width == sum(len(s.members) for s in corpus.sets)


def test_root_scores_match_roots():
    g = make_graph([("0", "1", 0.5)], t={"0": 0.7, "1": 0.9})
    ts = targets_of(g)
    corpus = generate_corpus(g, ts, "ic", 50, master_seed=6)
    for s, score in zip(corpus.sets, corpus.root_scores):
        assert score == g.t[s.root]


def test_lt_requires_subunit_in_mass():
    g = make_graph([("a", "c", 0.8), ("b", "c", 0.8)])
    with pytest.raises(ConfigError):
        generate_corpus(g, targets_of(g), "lt", 10, master_seed=0)


def test_lt_chain_follows_single_pick():
    g = make_graph([("u", "v", 1.0)], t={"u": 0.1, "v": 1.0})
    ts = select_targets(g, "threshold", tau=0.5)
    corpus = generate_corpus(g, ts, "lt", 50, master_seed=3)
    for s in corpus.sets:
        assert set(s.members) == {g.label_ids["u"], g.label_ids["v"]}


def test_corpus_dump_roundtrip(tmp_path):
    g = make_graph([("0", "1", 0.7), ("1", "2", 0.7)])
    ts = targets_of(g)
    corpus = generate_corpus(g, ts, "ic", 25, master_seed=8)
    path = tmp_path / "corpus.txt"
    corpus.dump(str(path))
    back = load_corpus_dump(str(path), g.node_count, g.t, ts.total_score)
    assert back.theta == corpus.theta
    for a, b in zip(corpus.sets, back.sets):
        assert a.root == b.root and np.array_equal(a.members, b.members)


def test_coverage_fraction_and_scores():
    sets = [RRSet(0, 0, [0, 1]), RRSet(1, 2, [2]), RRSet(2, 0, [0])]
    t = np.array([0.5, 1.0, 0.25])
    corpus = RRCorpus(sets, 3, t, target_total=1.75)
    assert corpus.coverage_fraction([0]) == pytest.approx(2 / 3)
    assert corpus.covered_root_score([0]) == pytest.approx(1.0)
    assert corpus.covered_root_score([2]) == pytest.approx(0.25)
