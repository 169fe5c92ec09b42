import io
import math

import numpy as np
import pytest

from divtim.diversity import Coverage
from divtim.errors import ConfigError
from divtim.estimator import (DEFAULT_THETA_CAP, KPT_PHASE, REFINE_PHASE, compute_theta,
                              estimate_params, greedy_cover, kpt_estimation, refine_kpt)
from divtim.graph import load_graph, select_targets
from divtim.sampler import RRStream, generate_corpus

from conftest import corpus_from_sets, coverage_fraction, make_graph
from oracles import exhaustive_expectation, reference_greedy_cover

# regression constant: ceil(lambda / 50) for n=1000, k=10, eps=0.1, ell=1,
# frozen from the first direct evaluation of the sizing formula
THETA_N1000_K10 = 1_009_074


def test_theta_regression_constant():
    assert compute_theta(50, 0.1, 1.0, 10, 1000, theta_cap=10**9) == THETA_N1000_K10


def test_theta_halves_when_kpt_doubles():
    a = compute_theta(50, 0.2, 1.0, 5, 500, theta_cap=10**9)
    b = compute_theta(100, 0.2, 1.0, 5, 500, theta_cap=10**9)
    assert abs(a - 2 * b) <= 2


def test_theta_quadruples_when_epsilon_halves():
    a = compute_theta(50, 0.2, 1.0, 5, 500, theta_cap=10**9)
    b = compute_theta(50, 0.1, 1.0, 5, 500, theta_cap=10**9)
    assert abs(b / a - 4.0) < 0.4  # (8 + 2 eps) factor shifts the ratio slightly


def test_theta_cap_warns_and_clamps():
    with pytest.warns(UserWarning, match="cap"):
        assert compute_theta(1, 0.05, 1.0, 10, 5000, theta_cap=1000) == 1000


def test_theta_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        compute_theta(0.5, 0.1, 1.0, 5, 100, theta_cap=10**9)
    with pytest.raises(ConfigError):
        compute_theta(10, 1.5, 1.0, 5, 100, theta_cap=10**9)


def test_kpt_single_node_fallback():
    g = make_graph([("a", "b", 1.0)])
    # strip to a single node by thresholding out nothing; use a 1-node view instead
    solo = load_graph(io.StringIO("x y 1.0\n"), "explicit")
    ts = select_targets(solo, "threshold", tau=0.0)
    # n=2 -> doubling loop is empty -> fallback
    kpt, _ = kpt_estimation(RRStream(solo, ts, "ic", 0, KPT_PHASE), k=1, ell=1.0)
    assert kpt == 1.0


def test_kpt_complete_graph_exits_first_round():
    n = 8
    g = make_graph([(str(u), str(v), 1.0) for u in range(n) for v in range(n) if u != v])
    ts = select_targets(g, "threshold", tau=0.0)
    kpt, last_round = kpt_estimation(RRStream(g, ts, "ic", 5, KPT_PHASE), k=2, ell=1.0)
    set_ptr, members = last_round.set_ptr, last_round.members
    assert kpt == pytest.approx(n / 2)
    assert len(set_ptr) > 1 and len(members) > 0


def test_kpt_deterministic():
    g = make_graph([(str(u), str((u + 1) % 10), 0.7) for u in range(10)])
    ts = select_targets(g, "threshold", tau=0.0)
    a, _ = kpt_estimation(RRStream(g, ts, "ic", 17, KPT_PHASE), k=3, ell=1.0)
    b, _ = kpt_estimation(RRStream(g, ts, "ic", 17, KPT_PHASE), k=3, ell=1.0)
    assert a == b


def test_refine_never_lowers_kpt():
    g = make_graph([(str(u), str((u + 1) % 12), 0.5) for u in range(12)])
    ts = select_targets(g, "threshold", tau=0.0)
    kpt, sets = kpt_estimation(RRStream(g, ts, "ic", 2, KPT_PHASE), k=3, ell=1.0)
    refined = refine_kpt(RRStream(g, ts, "ic", 2, REFINE_PHASE), 3, 0.3, 1.0, kpt, sets,
                         theta_cap=DEFAULT_THETA_CAP)
    assert refined >= kpt


def test_greedy_cover_matches_eager_reference():
    # few nodes and short sets, so equal counts (ties) are common
    rng = np.random.default_rng(53)
    for trial in range(400):
        n = int(rng.integers(1, 9))
        sets = [(0, list(np.unique(rng.integers(0, n, size=rng.integers(1, 4)))))
                for _ in range(int(rng.integers(1, 25)))]
        corpus = corpus_from_sets(sets, n, 1.0)
        k = int(rng.integers(1, n + 2))
        expect = reference_greedy_cover(corpus.set_ptr, corpus.members, n, k)
        assert greedy_cover(corpus, k) == expect, trial


def test_estimate_params_pipeline_and_override():
    g = make_graph([(str(u), str((u + 1) % 10), 0.6) for u in range(10)])
    ts = select_targets(g, "threshold", tau=0.0)
    params = estimate_params(g, ts, "ic", k=2, epsilon=0.4, master_seed=4,
                             theta_cap=50_000)
    assert params.theta >= 1
    assert params.kpt_plus >= params.kpt_star / 2  # refinement contract, loose form
    override = estimate_params(g, ts, "ic", k=2, epsilon=0.1, master_seed=0, theta_override=123)
    assert override.theta == 123
    assert override.kpt_star is None and override.kpt_plus is None


def test_expected_capital_forced_chain():
    g = make_graph([("u", "v", 1.0)], t={"u": 0.1, "v": 1.0})
    ts = select_targets(g, "threshold", tau=0.5)
    corpus = generate_corpus(g, ts, "ic", 64, master_seed=3)
    estimate = ts.total_score * coverage_fraction(corpus, [g.label_ids["u"]])
    assert estimate == pytest.approx(1.0)


def test_expected_capital_monotone_in_coverage():
    # 20 elements worth 5.0 in all; node v covers elements 2v and 2v + 1
    sets = Coverage(np.arange(0, 21, 2), np.arange(20), 20, 5.0)
    values = [sets.value()]
    for v in range(10):
        sets.commit(v)
        values.append(sets.value())
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_expected_capital_unbiased_with_spread_scores():
    # Micro-graphs built as in acceptance criterion 8, but with target
    # scores spread over [0.05, 1], where weighting each covered set by its
    # root's score a second time would bias the estimate.  LT edges
    # stay below 0.2, so five in-edges sum to at most 1.
    rng = np.random.default_rng(818)
    for trial, (model, top) in enumerate((("ic", 0.45), ("ic", 0.45), ("lt", 0.2))):
        edges = [(u, v, float(rng.uniform(top / 2, top)))
                 for u in range(6) for v in range(6) if u != v and rng.random() < 0.3]
        g = make_graph(edges[:11] or [(0, 1, 0.4)])
        g = g.with_target_scores(rng.uniform(0.05, 1.0, size=g.node_count))
        ts = select_targets(g, "threshold", tau=0.0)
        seeds = [0, 1]
        corpus = generate_corpus(g, ts, model, 100_000, master_seed=41 + trial)
        estimate = ts.total_score * coverage_fraction(corpus, seeds)
        _, exact = exhaustive_expectation(g, model, seeds, targets=ts)
        p = exact / ts.total_score
        stderr = ts.total_score * math.sqrt(p * (1 - p) / corpus.theta)
        assert abs(estimate - exact) <= 4 * stderr, (trial, estimate, exact, stderr)
