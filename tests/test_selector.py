import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import divtim
from divtim.diversity import (AttributeWiseDiversity, ClassDiversity, Coverage, EntropyDiversity,
                              HammingBallDiversity, NumericDiversity)
from divtim.errors import ConfigError
from divtim.graph import select_targets, synth_graph
from divtim.profiles import synth_profiles
from divtim.selector import build_seed_set, lazy_greedy

from conftest import (capital_of, corpus_from_sets, coverage_fraction, make_graph,
                      make_profiles, r1_sets, random_profiles)
from oracles import reference_seed_set


def flat_profiles(n, m=2, d=4, seed=0):
    rng = np.random.default_rng(seed)
    return random_profiles(rng, n, m, d)


def test_hand_traced_coverage_pick():
    # node 0 sits in all three sets, node 1 in one; alpha=1, k=1 -> pick node 0
    # with gain T * 3/3 = 4.0 (target total 4, all three sets covered)
    corpus = corpus_from_sets([(3, [0, 3]), (3, [0, 1, 3]), (3, [0, 3])], 4)
    div = AttributeWiseDiversity(flat_profiles(4))
    res = build_seed_set(capital_of(corpus, 3, 4.0), 1, 1.0, div)
    assert res.seeds == [0]
    assert res.trace[0].capital_gain == pytest.approx(4.0)


def test_alpha_one_equals_pure_weighted_coverage():
    rng = np.random.default_rng(5)
    n, theta = 9, 60
    sets = [(int(rng.integers(0, n)),
             list(np.unique(rng.integers(0, n, size=rng.integers(1, 5)))))
            for _ in range(theta)]
    t = rng.uniform(0.1, 1.0, size=n)
    capital = capital_of(corpus_from_sets(sets, n), theta, t.sum())
    div = AttributeWiseDiversity(flat_profiles(n))
    res = build_seed_set(capital, 3, 1.0, div)

    # independent greedy max-coverage: roots were drawn by target score,
    # so every set weighs the same
    covered = set()
    expect = []
    for _ in range(3):
        best, best_gain = -1, 0
        for v in range(n):
            gain = sum(1 for i, (_, mem) in enumerate(sets)
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
    capital = capital_of(corpus_from_sets([(0, [0])], n), 1, n)  # irrelevant at alpha=0
    res = build_seed_set(capital, 4, 0.0, AttributeWiseDiversity(ps))

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
        corpus = corpus_from_sets(sets, n)
        ps = flat_profiles(n, seed=trial)
        alpha = float(rng.uniform(0, 1))
        k = int(rng.integers(1, 5))
        lazy = build_seed_set(capital_of(corpus, theta, t.sum()), k, alpha,
                              AttributeWiseDiversity(ps))
        eager, _ = reference_seed_set(*corpus, theta, t.sum(), k, alpha,
                                      AttributeWiseDiversity(ps), lazy=False)
        assert lazy.seeds == eager


def test_alpha_trades_capital_for_diversity():
    # the scripts/alpha_sweep.py instance at n = 500, k = 10, on one corpus
    g = synth_graph(500, 4, seed=7, score_mode="uniform")
    targets = select_targets(g, "top_percent", percent=25)
    ps = synth_profiles(500, m=10, domain_sizes=10, distribution="exponential", seed=7)
    capital = capital_of(r1_sets(g, targets, "ic", 20_000, master_seed=7), 20_000,
                         targets.total_score)
    res = {alpha: build_seed_set(capital, 10, alpha, AttributeWiseDiversity(ps))
           for alpha in (0.0, 0.5, 1.0)}
    assert res[1.0].expected_capital >= res[0.0].expected_capital
    assert res[0.0].diversity_value >= res[1.0].diversity_value
    assert res[0.5].seeds != res[0.0].seeds and res[0.5].seeds != res[1.0].seeds


def test_selection_deterministic():
    g = make_graph([(str(u), str((u + 1) % 10), 0.5) for u in range(10)])
    ts = select_targets(g, "threshold", tau=0.0)
    ps = flat_profiles(10, seed=3)
    runs = []
    for _ in range(2):
        capital = capital_of(r1_sets(g, ts, "ic", 300, master_seed=21), 300, ts.total_score)
        res = build_seed_set(capital, 3, 0.6, AttributeWiseDiversity(ps))
        runs.append((res.seeds, res.expected_capital, res.diversity_value))
    assert runs[0] == runs[1]


def test_zero_gain_nodes_never_selected():
    # only node 0 covers anything; profiles identical so diversity saturates
    capital = capital_of(corpus_from_sets([(0, [0])], 3), 1, 3.0)
    ps = make_profiles([(0,), (0,), (0,)], domain_sizes=[1])
    res = build_seed_set(capital, 3, 1.0, AttributeWiseDiversity(ps))
    assert res.seeds == [0] and res.k == 3


def test_trace_gains_sum_to_objective_components():
    rng = np.random.default_rng(8)
    n, theta = 8, 40
    sets = [(int(rng.integers(0, n)),
             list(np.unique(rng.integers(0, n, size=3)))) for _ in range(theta)]
    capital = capital_of(corpus_from_sets(sets, n), theta, n)
    ps = flat_profiles(n, seed=9)
    res = build_seed_set(capital, 4, 0.5, AttributeWiseDiversity(ps))
    assert sum(s.capital_gain for s in res.trace) == pytest.approx(res.expected_capital)
    assert sum(s.diversity_gain for s in res.trace) == pytest.approx(
        res.diversity_value, abs=1e-9)


def test_covered_ids_grow_and_match():
    corpus = corpus_from_sets([(0, [0, 1]), (1, [1]), (2, [2])], 3)
    capital = capital_of(corpus, 3, 3.0)
    ps = flat_profiles(3)
    res = build_seed_set(capital, 2, 1.0, AttributeWiseDiversity(ps))
    assert res.expected_capital == capital.total * coverage_fraction(corpus, 3, res.seeds)


def test_objective_value_mixing():
    capital = capital_of(corpus_from_sets([(0, [0])], 2), 1, 8.0)
    ps = make_profiles([(0,), (1,)], domain_sizes=[2])
    res = build_seed_set(capital, 1, 1.0, AttributeWiseDiversity(ps))
    res.expected_capital, res.diversity_value = 4.0, 2.0
    assert replace(res, alpha=1.0).objective() == 4.0
    assert replace(res, alpha=0.0).objective() == 2.0
    assert replace(res, alpha=0.5).objective() == 3.0


def test_objective_normalized():
    capital = capital_of(corpus_from_sets([(0, [0]), (1, [1])], 2), 2, 2.0)
    ps = make_profiles([(0,), (1,)], domain_sizes=[2])
    res = build_seed_set(capital, 2, 0.5, AttributeWiseDiversity(ps))
    # full coverage and maximal diversity: both terms normalize to 1
    assert res.objective(normalize=True) == pytest.approx(1.0)


def test_bad_arguments():
    capital = capital_of(corpus_from_sets([(0, [0])], 2), 1, 2.0)
    ps = make_profiles([(0,), (1,)], domain_sizes=[2])
    with pytest.raises(ConfigError):
        build_seed_set(capital, 0, 0.5, AttributeWiseDiversity(ps))
    with pytest.raises(ConfigError):
        build_seed_set(capital, 1, 1.5, AttributeWiseDiversity(ps))
    with pytest.raises(ConfigError):
        build_seed_set(capital, 1, 0.5, AttributeWiseDiversity(make_profiles([(0,)], [2])))
    # a used function is reset before the greedy runs
    used = AttributeWiseDiversity(ps)
    used.commit(0)
    res = build_seed_set(capital, 2, 0.5, used)
    assert res == replace(build_seed_set(capital, 2, 0.5, AttributeWiseDiversity(ps)),
                          timing_seconds=res.timing_seconds)


def _oracle_corpora():
    """(corpus, theta, target total) triples: six hand-made, then IC and LT draws."""
    rng = np.random.default_rng(29)
    corpora = []
    for _ in range(6):
        n = int(rng.integers(6, 14))
        sets = [(int(rng.integers(0, n)),
                 list(np.unique(rng.integers(0, n, size=rng.integers(1, 6)))))
                for _ in range(int(rng.integers(20, 120)))]
        corpora.append((corpus_from_sets(sets, n), len(sets), float(rng.uniform(0.1, 1.0) * n)))
    g = synth_graph(60, 3, seed=5, score_mode="uniform")
    targets = select_targets(g, "top_percent", percent=30)
    for model in ("ic", "lt"):
        corpora.append((r1_sets(g, targets, model, 3000, master_seed=17), 3000,
                        targets.total_score))
    return corpora


@pytest.mark.parametrize("lazy", [True, False], ids=["lazy", "eager"])
@pytest.mark.parametrize("name", ["aw", "entropy", "class", "hamming", "numeric"])
def test_matches_reference_greedy_bitwise(name, lazy):
    def make_div(n, seed):
        rng = np.random.default_rng(seed)
        if name == "class":
            return ClassDiversity(rng.integers(0, 3, size=n), rng.uniform(0.5, 2.0, size=n))
        if name == "numeric":
            return NumericDiversity(rng.uniform(0.0, 1.0, size=(n, 3)), rng.uniform(0.5, 2.0, n))
        ps = random_profiles(rng, n, 3, 3)
        if name == "hamming":
            return HammingBallDiversity(synth_graph(n, 3, seed=seed, score_mode="uniform"), ps,
                                        radius=2)
        return AttributeWiseDiversity(ps) if name == "aw" else EntropyDiversity(ps)

    for i, (corpus, theta, total) in enumerate(_oracle_corpora()):
        capital = capital_of(corpus, theta, total)
        for alpha in (0.0, 0.5, 1.0):
            res = build_seed_set(capital, 6, alpha, make_div(capital.node_count, i))
            seeds, trace = reference_seed_set(*corpus, theta, total, 6, alpha,
                                              make_div(capital.node_count, i), lazy=lazy)
            assert res.seeds == seeds
            assert [(s.capital_gain, s.diversity_gain, s.combined_gain)
                    for s in res.trace] == trace


def counting_gains(cls):
    """cls, counting its gain calls."""
    class Counted(cls):
        calls = 0

        def gain(self, v):
            self.calls += 1
            return super().gain(v)
    return Counted


def test_zero_weight_term_is_never_scored():
    corpus, theta, total = _oracle_corpora()[-1]
    capital = capital_of(corpus, theta, total)
    profiles = flat_profiles(capital.node_count, seed=3)
    for alpha in (0.0, 1.0):
        div = counting_gains(AttributeWiseDiversity)(profiles)
        res = build_seed_set(capital, 6, alpha, div)
        # diversity weighs 1 - alpha: scored at alpha 0, and at alpha 1 the
        # commits' own gain calls are its only ones
        assert (div.calls == len(res.seeds)) == (alpha == 1.0)
        seeds, trace = reference_seed_set(*corpus, theta, total, 6, alpha,
                                          AttributeWiseDiversity(profiles))
        assert res.seeds == seeds
        assert [(s.capital_gain, s.diversity_gain, s.combined_gain)
                for s in res.trace] == trace

    # a coverage term of weight 0 likewise: only the two commits call its gain
    cover = counting_gains(Coverage)(*corpus, theta, float(theta))
    div = AttributeWiseDiversity(profiles)
    picks = lazy_greedy(2, [(0.0, cover), (1.0, div)])
    assert cover.calls == len(picks) == 2
    assert cover.value() == sum(c for _, (c, _), _ in picks)


def test_lazy_greedy_ties_stop_and_per_term_gains():
    # node 0 covers {0}, nodes 1 and 3 cover {1, 2}, node 2 covers {0}
    ptr, elements = np.array([0, 1, 3, 4, 6]), np.array([0, 1, 2, 0, 1, 2])
    cover = Coverage(ptr, elements, 3, 3.0)
    # 1 beats its tie 3; after 0 every gain is 0, so k = 4 stops at two picks
    assert lazy_greedy(4, [(1.0, cover)]) == [(1, [2.0], 2.0), (0, [1.0], 1.0)]
    assert cover._committed == {0, 1}

    cover.reset()
    classes = ClassDiversity([0, 0, 1, 1], np.ones(4))
    picks = lazy_greedy(2, [(0.25, cover), (0.75, classes)])
    # 1 scores 0.25 * 2 + 0.75 * 1; then 2 (new element, new class) beats 3 and 0
    assert picks == [(1, [2.0, 1.0], 1.25), (2, [1.0, 1.0], 1.0)]
    assert cover._committed == classes._committed == {1, 2}


def test_build_seed_set_leaves_a_capital_no_corpus_built_holding_the_seeds():
    # Deg-D's out-degree coverage as the capital: the greedy reads only the Coverage
    g = synth_graph(40, 3, seed=5, score_mode="uniform")
    ps, m = synth_profiles(40, m=3, domain_sizes=4, seed=5), g.edge_count
    capital, div = Coverage(g.out_indptr, np.arange(m), m, m), AttributeWiseDiversity(ps)
    first = build_seed_set(capital, 5, 0.75, div)
    assert capital.value() == first.expected_capital and div.value() == first.diversity_value
    assert capital.gains()[first.seeds].tolist() == [0.0] * 5
    # both terms are reset first, so a second call equals one on fresh functions
    second = build_seed_set(capital, 5, 0.25, div)
    fresh = build_seed_set(Coverage(g.out_indptr, np.arange(m), m, m), 5, 0.25,
                           AttributeWiseDiversity(ps))
    assert second == replace(fresh, timing_seconds=second.timing_seconds)
    assert second.seeds != first.seeds


def test_selector_imports_nothing_from_sampler():
    # the caller builds the capital, so the greedy never sees a corpus
    source = (Path(divtim.__file__).parent / "selector.py").read_text(encoding="utf-8")
    assert not re.search(r"^\s*(import|from)\s+\S*sampler\b", source, re.M)


def test_only_the_selector_imports_heapq():
    # one greedy: every other module selects through selector.lazy_greedy
    importers = sorted(path.name for path in Path(divtim.__file__).parent.glob("*.py")
                       if re.search(r"^\s*(import|from)\s+heapq\b",
                                    path.read_text(encoding="utf-8"), re.M))
    assert importers == ["selector.py"]


def test_only_diversity_loops_over_nodes_for_gains():
    # one gain path: every node's gain comes from DiversityFunction.gains()
    loopers = sorted(path.name for path in Path(divtim.__file__).parent.glob("*.py")
                     if re.search(r"\.gain\((\w+)\)\s+for\s+\1\s+in\s+range\b",
                                  path.read_text(encoding="utf-8")))
    assert loopers == ["diversity.py"]
