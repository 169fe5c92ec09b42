import numpy as np
import pytest

from divtim.diversity import AttributeWiseDiversity
from divtim.errors import ConfigError
from divtim.graph import select_targets
from divtim.sampler import generate_corpus
from divtim.selector import build_seed_set, objective_value

from conftest import corpus_from_sets, make_graph, make_profiles, random_profiles


def manual_corpus(sets, n, t=None, target_total=None):
    t = np.ones(n) if t is None else np.asarray(t, dtype=float)
    total = float(t.sum()) if target_total is None else target_total
    return corpus_from_sets(sets, n, t, total)


def flat_profiles(n, m=2, d=4, seed=0):
    rng = np.random.default_rng(seed)
    return random_profiles(rng, n, m, d)


def test_hand_traced_coverage_pick():
    # node 0 sits in all three sets, node 1 in one; alpha=1, k=1 -> pick node 0
    corpus = manual_corpus([(3, [0, 3]), (3, [0, 1, 3]), (3, [0, 3])], n=4)
    div = AttributeWiseDiversity(flat_profiles(4))
    res = build_seed_set(corpus, 1, 1.0, div)
    assert res.seeds == [0]
    assert res.trace[0].capital_gain == pytest.approx(3.0)


def test_alpha_one_equals_pure_weighted_coverage():
    rng = np.random.default_rng(5)
    n, theta = 9, 60
    sets = [(int(rng.integers(0, n)),
             list(np.unique(rng.integers(0, n, size=rng.integers(1, 5)))))
            for _ in range(theta)]
    t = rng.uniform(0.1, 1.0, size=n)
    corpus = manual_corpus(sets, n, t=t)
    div = AttributeWiseDiversity(flat_profiles(n))
    res = build_seed_set(corpus, 3, 1.0, div)

    # independent greedy weighted max-coverage
    covered = set()
    expect = []
    for _ in range(3):
        best, best_gain = -1, 0.0
        for v in range(n):
            gain = sum(t[s_root] for i, (s_root, mem) in enumerate(sets)
                       if i not in covered and v in mem)
            if gain > best_gain:
                best, best_gain = v, gain
        if best < 0:
            break
        expect.append(best)
        covered |= {i for i, (_, mem) in enumerate(sets) if best in mem}
    assert res.seeds == expect


def test_alpha_zero_equals_pure_diversity_greedy():
    n = 8
    ps = flat_profiles(n, m=2, d=3, seed=2)
    corpus = manual_corpus([(0, [0])], n)  # corpus is irrelevant at alpha=0
    res = build_seed_set(corpus, 4, 0.0, AttributeWiseDiversity(ps))

    ref = AttributeWiseDiversity(ps)
    expect = []
    remaining = set(range(n))
    for _ in range(4):
        gains = sorted(((ref.gain(v), -v) for v in remaining), reverse=True)
        g, neg_v = gains[0]
        if g <= 0:
            break
        expect.append(-neg_v)
        remaining.discard(-neg_v)
        ref.commit(-neg_v)
    assert res.seeds == expect


def test_lazy_equals_eager_on_random_instances():
    rng = np.random.default_rng(11)
    for trial in range(25):
        n = int(rng.integers(5, 12))
        theta = int(rng.integers(10, 80))
        sets = [(int(rng.integers(0, n)),
                 list(np.unique(rng.integers(0, n, size=rng.integers(1, 6)))))
                for _ in range(theta)]
        t = rng.uniform(0.1, 1.0, size=n)
        corpus = manual_corpus(sets, n, t=t)
        ps = flat_profiles(n, seed=trial)
        alpha = float(rng.uniform(0, 1))
        k = int(rng.integers(1, 5))
        lazy = build_seed_set(corpus, k, alpha, AttributeWiseDiversity(ps), lazy=True)
        eager = build_seed_set(corpus, k, alpha, AttributeWiseDiversity(ps), lazy=False)
        assert lazy.seeds == eager.seeds


def test_selection_deterministic():
    g = make_graph([(str(u), str((u + 1) % 10), 0.5) for u in range(10)])
    ts = select_targets(g, "threshold", tau=0.0)
    ps = flat_profiles(10, seed=3)
    runs = []
    for _ in range(2):
        corpus = generate_corpus(g, ts, "ic", 300, master_seed=21)
        res = build_seed_set(corpus, 3, 0.6, AttributeWiseDiversity(ps))
        runs.append((res.seeds, res.expected_capital, res.diversity_value))
    assert runs[0] == runs[1]


def test_zero_gain_nodes_never_selected():
    # only node 0 covers anything; profiles identical so diversity saturates
    corpus = manual_corpus([(0, [0])], n=3)
    ps = make_profiles([(0,), (0,), (0,)], domain_sizes=[1])
    with pytest.warns(UserWarning, match="positive gain"):
        res = build_seed_set(corpus, 3, 1.0, AttributeWiseDiversity(ps))
    assert res.seeds == [0]


def test_trace_gains_sum_to_objective_components():
    rng = np.random.default_rng(8)
    n, theta = 8, 40
    sets = [(int(rng.integers(0, n)),
             list(np.unique(rng.integers(0, n, size=3)))) for _ in range(theta)]
    corpus = manual_corpus(sets, n)
    ps = flat_profiles(n, seed=9)
    res = build_seed_set(corpus, 4, 0.5, AttributeWiseDiversity(ps))
    assert sum(s.capital_gain for s in res.trace) == pytest.approx(res.covered_root_score)
    assert sum(s.diversity_gain for s in res.trace) == pytest.approx(
        res.diversity_value, abs=1e-9)


def test_covered_ids_grow_and_match():
    corpus = manual_corpus([(0, [0, 1]), (1, [1]), (2, [2])], n=3)
    ps = flat_profiles(3)
    res = build_seed_set(corpus, 2, 1.0, AttributeWiseDiversity(ps))
    mask = corpus.covered_mask(res.seeds)
    assert np.array_equal(np.flatnonzero(mask), res.covered_ids)


def test_objective_value_mixing():
    corpus = manual_corpus([(0, [0])], n=2, t=[1.0, 1.0], target_total=8.0)
    ps = make_profiles([(0,), (1,)], domain_sizes=[2])
    res = build_seed_set(corpus, 1, 1.0, AttributeWiseDiversity(ps))
    res.expected_capital, res.diversity_value = 4.0, 2.0
    assert objective_value(res, 1.0) == 4.0
    assert objective_value(res, 0.0) == 2.0
    assert objective_value(res, 0.5) == 3.0


def test_objective_normalized():
    corpus = manual_corpus([(0, [0]), (1, [1])], n=2, t=[1.0, 1.0], target_total=2.0)
    ps = make_profiles([(0,), (1,)], domain_sizes=[2])
    res = build_seed_set(corpus, 2, 0.5, AttributeWiseDiversity(ps))
    # full coverage and maximal diversity: both terms normalize to 1
    assert objective_value(res, 0.5, normalize=True) == pytest.approx(1.0)


def test_bad_arguments():
    corpus = manual_corpus([(0, [0])], n=2)
    ps = make_profiles([(0,), (1,)], domain_sizes=[2])
    with pytest.raises(ConfigError):
        build_seed_set(corpus, 0, 0.5, AttributeWiseDiversity(ps))
    with pytest.raises(ConfigError):
        build_seed_set(corpus, 1, 1.5, AttributeWiseDiversity(ps))
    used = AttributeWiseDiversity(ps)
    used.commit(0)
    with pytest.raises(ConfigError):
        build_seed_set(corpus, 1, 0.5, used)
