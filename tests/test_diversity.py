import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import divtim
from divtim.diversity import (AttributeWiseDiversity, ClassDiversity, Coverage,
                              EntropyDiversity, HammingBallDiversity, NumericDiversity,
                              aw_theoretical_max, hamming_balls, load_class_map)
from divtim.errors import ConfigError, UsageError
from divtim.graph import strong_components
from divtim.sampler import batch_size

import oracles
from conftest import make_graph, make_profiles, mixed_components_graph, random_profiles
from oracles import (hamming_sum_halved, hamming_sum_pairnorm, hamming_sum_score,
                     jaccard_set_score, jaccard_sum_halved, jaccard_sum_score,
                     mismatch_pair_score)


# ------------------------------------------------------------- attribute-wise

def test_aw_first_full_profile_gains_one():
    ps = make_profiles([(0, 1, 2), (1, 1, 1)], domain_sizes=[3, 3, 3])
    aw = AttributeWiseDiversity(ps)
    assert aw.gain(0) == pytest.approx(1.0)


def test_aw_value_and_repeat_gain():
    ps = make_profiles([(0,), (0,), (1,), (0,)], domain_sizes=[2])
    aw = AttributeWiseDiversity(ps)
    for v in (0, 1, 2):
        aw.commit(v)
    assert aw.value() == pytest.approx(2.5)
    assert aw.gain(3) == pytest.approx(1.0 / 3.0)


def test_aw_double_commit_rejected():
    ps = make_profiles([(0,)])
    aw = AttributeWiseDiversity(ps)
    aw.commit(0)
    with pytest.raises(UsageError):
        aw.commit(0)


def test_aw_missing_values_contribute_nothing():
    ps = make_profiles([(None, 1), (None, None)], domain_sizes=[2, 2])
    aw = AttributeWiseDiversity(ps)
    assert aw.gain(1) == 0.0
    assert aw.gain(0) == pytest.approx(0.5)


def test_aw_matches_oracle_on_random_commits():
    rng = np.random.default_rng(4)
    for _ in range(30):
        rows = [tuple(int(rng.integers(0, 3)) if rng.random() > 0.2 else None
                      for _ in range(3)) for _ in range(8)]
        ps = make_profiles(rows, domain_sizes=[3, 3, 3])
        lam = float(rng.choice([1.0, 2.0]))
        aw = AttributeWiseDiversity(ps, lam=lam)
        order = rng.permutation(8)[:5]
        for v in order:
            aw.commit(int(v))
        assert aw.value() == pytest.approx(
            oracles.aw_value(ps, [int(v) for v in order], lam=lam), abs=1e-9)


def test_aw_theoretical_max_values():
    assert aw_theoretical_max(10, [10], 1.0) == pytest.approx(10.0)
    assert aw_theoretical_max(15, [10], 1.0) == pytest.approx(12.5)
    assert aw_theoretical_max(1, [3, 9], 2.0) == pytest.approx(1.0)


def test_aw_theoretical_max_rejects_bad_budget():
    with pytest.raises(ConfigError):
        aw_theoretical_max(0, [3], 1.0)


def test_attribute_without_values_adds_nothing_to_maxima():
    ps = make_profiles([(None, 0), (None, 1)], domain_sizes=[0, 2])
    assert AttributeWiseDiversity(ps).max_value_for_budget(2) == pytest.approx(1.0)
    assert aw_theoretical_max(3, [0, 0], 1.0) == 0.0
    no_values = make_profiles([(None,), (None,)], domain_sizes=[0])
    assert EntropyDiversity(no_values).max_value_for_budget(2) == 0.0


def test_entropy_maximum_bounds_brute_force():
    # min(k, H(prior)) bounds every size-k value, is at most log2 D, is
    # attained by some instance at each k, and is tighter than log2 D
    rng = np.random.default_rng(61)
    attained, tighter = set(), 0
    for trial in range(120):
        n, m, d = int(rng.integers(2, 7)), int(rng.integers(1, 3)), int(rng.integers(2, 5))
        ps = random_profiles(rng, n, m, d, missing_prob=0.2 if trial % 3 == 0 else 0.0)
        ent = EntropyDiversity(ps)
        for k in range(1, n + 1):
            best = max(oracles.entropy_value(ps, set(combo))
                       for combo in itertools.combinations(range(n), k))
            bound = ent.max_value_for_budget(k)
            assert best <= bound + 1e-12, (trial, k, best, bound)
            assert bound <= math.log2(m * d) + 1e-12
            tighter += bound < math.log2(m * d) - 1e-9
            if abs(best - bound) <= 1e-12:
                attained.add(k)
    assert attained >= {1, 2, 3} and tighter > 0
    # one value per node, all distinct: k = D - 1 picks split every value
    ps = make_profiles([(0,), (1,), (2,), (3,)], domain_sizes=[4])
    assert EntropyDiversity(ps).max_value_for_budget(3) == pytest.approx(2.0)
    assert EntropyDiversity(ps).max_value_for_budget(1) == 1.0


# ------------------------------------------------------------------- hamming

def test_influence_range_excludes_center():
    g = make_graph([("0", "1", 0.5), ("1", "2", 0.5)])
    ball_ptr, ball_nodes = hamming_balls(g, make_profiles([(0,)] * 3).codes, 1)
    assert ball_ptr.tolist() == [0, 2, 3, 3]
    assert ball_nodes.tolist() == [1, 2, 2]
    assert ball_nodes.dtype == np.int32


def test_ball_of_sink_is_empty():
    g = make_graph([("0", "1", 0.5)])
    ps = make_profiles([(0,), (0,)])
    hb = HammingBallDiversity(g, ps, radius=1)
    assert hb.covers(1).tolist() == []
    assert hb.gain(1) == 0.0


def test_ball_contains_identical_reachable_profile():
    g = make_graph([("0", "1", 0.5)])
    ps = make_profiles([(0, 1), (0, 1)], domain_sizes=[2, 2])
    hb = HammingBallDiversity(g, ps, radius=1)
    assert hb.covers(0).tolist() == [1]


def test_hamming_distance_counts_mismatches():
    g = make_graph([("0", "1", 0.5), ("2", "3", 0.5), ("4", "5", 0.5), ("6", "7", 0.5)])
    ps = make_profiles([(0, 0), (0, 1),              # one mismatch: inside radius 1
                        (None, None), (None, None),  # missing mismatches missing: distance 2
                        (1, 1), (1, 1),              # identical profiles
                        (None, 0), (None, 0)],       # one missing column: distance 1
                       domain_sizes=[2, 2])
    hb = HammingBallDiversity(g, ps, radius=1)
    assert [hb.covers(v).tolist() for v in (0, 2, 4, 6)] == [[1], [], [5], [7]]


def test_hamming_gain_is_uncovered_ball():
    g = make_graph([("0", "1", 0.5), ("0", "2", 0.5), ("0", "3", 0.5),
                    ("4", "2", 0.5), ("4", "1", 0.5)])
    ps = make_profiles([(0,)] * 5, domain_sizes=[1])
    hb = HammingBallDiversity(g, ps, radius=1)
    hb.commit(4)                      # covers {1, 2}
    assert hb.value() == 2.0
    assert hb.gain(0) == 1.0          # ball {1,2,3} minus covered {1,2}
    fully = HammingBallDiversity(g, ps, radius=1)
    fully.commit(0)                   # covers {1,2,3}
    assert fully.gain(4) == 0.0


def test_hamming_matches_oracle_on_random_instances():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = 7
        edges = [(u, v, 0.5) for u in range(n) for v in range(n)
                 if u != v and rng.random() < 0.25]
        if not edges:
            edges = [(0, 1, 0.5)]
        g = make_graph(edges)
        nn = g.node_count
        rows = [tuple(int(rng.integers(0, 2)) if rng.random() > 0.2 else None
                      for _ in range(3)) for _ in range(nn)]
        ps = make_profiles(rows, domain_sizes=[2, 2, 2])
        xi = int(rng.choice([1, 2, 3]))
        hb = HammingBallDiversity(g, ps, radius=xi)
        picks = [int(v) for v in rng.permutation(nn)[:3]]
        for v in picks:
            hb.commit(v)
        assert hb.value() == oracles.hamming_value(g, ps, picks, xi)


def test_hamming_balls_match_oracle_across_centre_chunks():
    rng = np.random.default_rng(31)
    g = mixed_components_graph(rng)
    n = g.node_count
    assert n == 360
    label = strong_components(g)
    # hamming_balls searches from batch_size(n) // 32 = 45 components per
    # kernel call, so these 192 components take five calls ...
    assert batch_size(n) // 32 == 45
    assert label.max() + 1 == 192
    # ... and compares about 2^14 (centre, reached node) pairs per chunk: the
    # giant component, searched first, spans several chunks on its own
    giant = np.flatnonzero(label == label[0])
    assert giant.size * (len(oracles.reachable_from(g, 0)) + 1) > 2 * 2 ** 14
    ps = random_profiles(rng, n, 3, 2, missing_prob=0.2)
    for xi in (1, 2, 3):
        hb = HammingBallDiversity(g, ps, radius=xi)
        for v in range(n):
            assert hb.covers(v).tolist() == sorted(oracles.hamming_ball(g, ps, v, xi))


def test_building_balls_imports_no_scipy():
    # importing scipy would add about 0.45 s to the start of every command
    code = ("import sys\n"
            "from divtim import HammingBallDiversity, synth_graph, synth_profiles\n"
            "HammingBallDiversity(synth_graph(50, 3, seed=1, score_mode='uniform'),\n"
            "                     synth_profiles(50, m=3, domain_sizes=10, seed=2), 2)\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(divtim.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ------------------------------------------------------------------ coverage

def test_coverage_gains_and_value():
    rng = np.random.default_rng(41)
    for _ in range(60):
        n, size = int(rng.integers(1, 10)), int(rng.integers(1, 30))
        lists = [np.unique(rng.integers(0, size, size=rng.integers(0, 6))) for _ in range(n)]
        ptr = np.concatenate([[0], np.cumsum([len(x) for x in lists])])
        total = float(rng.uniform(0.5, 10.0))
        cover = Coverage(ptr, np.concatenate(lists), size, total)
        assert cover.gains().tolist() == [cover.gain(v) for v in range(n)]
        covered = set()
        for v in rng.permutation(n)[:rng.integers(0, n + 1)].tolist():
            cover.commit(v)
            covered |= set(lists[v].tolist())
            assert cover.value() == total * len(covered) / size


def test_coverage_of_empty_ground_set():
    cover = Coverage(np.zeros(4, dtype=np.int64), np.zeros(0, dtype=np.int64), 0, 0)
    assert cover.gains().tolist() == [0.0] * 3
    assert cover.gain(1) == 0.0 and cover.value() == 0.0


# ------------------------------------------------------------------- entropy

def test_entropy_single_value_split():
    ps = make_profiles([(0,), (1,)], domain_sizes=[2])
    ent = EntropyDiversity(ps)
    assert ent.gain(0) == pytest.approx(1.0)
    ent.commit(0)
    assert ent.value() == pytest.approx(1.0)


def test_entropy_empty_set_value_zero():
    ps = make_profiles([(0,), (1,)], domain_sizes=[2])
    assert EntropyDiversity(ps).value() == 0.0


def test_entropy_duplicate_profile_gains_zero():
    ps = make_profiles([(0, 1), (0, 1), (1, 0)], domain_sizes=[2, 2])
    ent = EntropyDiversity(ps)
    ent.commit(0)
    assert ent.gain(1) == 0.0


def test_entropy_matches_enumeration_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        rows = [tuple(int(rng.integers(0, 3)) if rng.random() > 0.25 else None
                      for _ in range(2)) for _ in range(7)]
        ps = make_profiles(rows, domain_sizes=[3, 3])
        ent = EntropyDiversity(ps)
        picks = [int(v) for v in rng.permutation(7)[:4]]
        for v in picks:
            ent.commit(v)
        assert ent.value() == pytest.approx(oracles.entropy_value(ps, picks), abs=1e-9)


def test_entropy_equals_chain_rule():
    rng = np.random.default_rng(9)
    for _ in range(15):
        rows = [tuple(int(rng.integers(0, 3)) for _ in range(2)) for _ in range(6)]
        ps = make_profiles(rows, domain_sizes=[3, 3])
        order = [int(v) for v in rng.permutation(6)[:4]]
        ent = EntropyDiversity(ps)
        for v in order:
            ent.commit(v)
        assert ent.value() == pytest.approx(
            oracles.entropy_chain_rule(ps, order), abs=1e-9)


def test_entropy_gain_equals_value_delta():
    ps = make_profiles([(0, 1), (1, 2), (2, 0), (0, 0)], domain_sizes=[3, 3])
    ent = EntropyDiversity(ps)
    ent.commit(0)
    before = ent.value()
    g = ent.gain(1)
    ent.commit(1)
    assert ent.value() - before == pytest.approx(g, abs=1e-9)


# --------------------------------------------------------------------- class

def test_class_bounds_examples():
    same = ClassDiversity([0, 0, 0], np.ones(3))
    for v in range(3):
        same.commit(v)
    assert same.value() == pytest.approx(math.log2(4))
    distinct = ClassDiversity([0, 1, 2], np.ones(3))
    for v in range(3):
        distinct.commit(v)
    assert distinct.value() == pytest.approx(3.0)


def test_class_first_pick_gain_one():
    cd = ClassDiversity([0, 1], np.ones(2))
    assert cd.gain(0) == pytest.approx(1.0)


def test_class_gain_uses_accumulated_rewards():
    cd = ClassDiversity([0, 0], rewards=[2.0, 3.0])
    cd.commit(0)
    # R_l = 1 + 2, adding reward 3 -> log2(1 + 3/3)
    assert cd.gain(1) == pytest.approx(math.log2(2.0))


def test_class_unassigned_node_is_config_error():
    cd = ClassDiversity([-1, 0], np.ones(2))
    with pytest.raises(ConfigError):
        cd.gain(0)


def test_class_matches_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = 9
        classes = [int(rng.integers(0, 4)) for _ in range(n)]
        rewards = [float(rng.uniform(0.5, 2.0)) for _ in range(n)]
        cd = ClassDiversity(classes, rewards)
        picks = [int(v) for v in rng.permutation(n)[:5]]
        for v in picks:
            cd.commit(v)
        assert cd.value() == pytest.approx(
            oracles.class_value(classes, rewards, picks), abs=1e-9)


def test_load_class_map(tmp_path):
    path = tmp_path / "classes.txt"
    path.write_text("a red\nb blue 2.5\n# comment\n", encoding="utf-8")
    classes, rewards = load_class_map(str(path), ["a", "b", "c"])
    assert list(classes) == [0, 1, -1]
    assert rewards[1] == 2.5


# ------------------------------------------------------------------- numeric

def test_numeric_unit_two_nodes():
    prefs = np.array([[1.0], [1.0]])
    nd = NumericDiversity(prefs, np.ones(2))
    nd.commit(0)
    nd.commit(1)
    assert nd.value() == pytest.approx(math.log2(3.0))


def test_numeric_zero_preferences():
    nd = NumericDiversity(np.zeros((3, 2)), np.ones(3))
    for v in range(3):
        nd.commit(v)
    assert nd.value() == 0.0


def test_numeric_degree_weighted():
    prefs = np.array([[1.0]])
    nd = NumericDiversity(prefs, node_gains=np.array([3.0]))
    nd.commit(0)
    assert nd.value() == pytest.approx(2.0)


def test_numeric_missing_vector_is_config_error():
    nd = NumericDiversity(np.ones((2, 1)), np.ones(2))
    with pytest.raises(ConfigError):
        nd.gain(5)


def test_numeric_matches_oracle():
    rng = np.random.default_rng(2)
    prefs = rng.uniform(0, 1, size=(8, 3))
    gains = rng.uniform(0.5, 3.0, size=8)
    nd = NumericDiversity(prefs, gains)
    picks = [int(v) for v in rng.permutation(8)[:5]]
    for v in picks:
        nd.commit(v)
    assert nd.value() == pytest.approx(
        oracles.numeric_value(prefs, gains, picks), abs=1e-9)


# ------------------------------------------------- unsuitable score evaluators

def test_mismatch_pair_quadruple():
    S = ["a1", "a1", "a2"]
    T = S + ["a1"]
    assert mismatch_pair_score(S) == F(2, 3)
    assert mismatch_pair_score(S + ["a2"]) == F(1)
    assert mismatch_pair_score(T) == F(3, 4)
    assert mismatch_pair_score(T + ["a2"]) == F(6, 5)
    gain_s = mismatch_pair_score(S + ["a2"]) - mismatch_pair_score(S)
    gain_t = mismatch_pair_score(T + ["a2"]) - mismatch_pair_score(T)
    assert gain_s < gain_t  # submodularity would require gain_s >= gain_t


def test_hamming_sum_quadruples():
    u, v = ("a1", None, None), ("a2", None, None)
    x, z = ("a3", "b1", "c1"), ("a4", None, None)
    S, T = [u, v], [u, v, x]
    assert hamming_sum_score(S) == 2
    assert hamming_sum_score(T) == 14
    assert hamming_sum_score(S + [z]) == 6
    assert hamming_sum_score(T + [z]) == 24
    assert hamming_sum_score(S + [z]) - hamming_sum_score(S) \
        < hamming_sum_score(T + [z]) - hamming_sum_score(T)
    assert [hamming_sum_halved(s) for s in (S, T, S + [z], T + [z])] \
        == [F(1, 2), F(7, 3), F(1), F(3)]
    assert [hamming_sum_pairnorm(s) for s in (S, T, S + [z], T + [z])] \
        == [F(1), F(7, 3), F(1), F(2)]
    # the pair-normalized variant even fails monotonicity
    assert hamming_sum_pairnorm(T + [z]) < hamming_sum_pairnorm(T)


def test_jaccard_sum_quadruples():
    u = ("a", "b", "c", None, None)
    v = ("a", "b", None, "d", None)
    x = v
    z = ("a", None, None, "d", "e")
    S, T = [u, v], [u, v, x]
    assert jaccard_sum_score(S) == F(1)
    assert jaccard_sum_score(T) == F(2)
    assert jaccard_sum_score(S + [z]) == F(18, 5)
    assert jaccard_sum_score(T + [z]) == F(28, 5)
    assert jaccard_sum_score(S + [z]) - jaccard_sum_score(S) \
        < jaccard_sum_score(T + [z]) - jaccard_sum_score(T)
    assert [jaccard_sum_halved(s) for s in (S, T, S + [z], T + [z])] \
        == [F(1, 4), F(1, 3), F(3, 5), F(7, 10)]


def test_jaccard_set_score_cannot_discriminate():
    u = ("a", "b", "c", None, None)
    v = ("a", "b", None, "d", None)
    z = ("a", None, None, "d", "e")
    S, T = [u, v], [u, v, v]
    gain_s = jaccard_set_score(S + [z]) - jaccard_set_score(S)
    gain_t = jaccard_set_score(T + [z]) - jaccard_set_score(T)
    assert gain_s == gain_t
