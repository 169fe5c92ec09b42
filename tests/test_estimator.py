import io
import math

import numpy as np
import pytest

from divtim.errors import ConfigError
from divtim.estimator import (compute_theta, estimate_params, expected_capital,
                              kpt_estimation, refine_kpt)
from divtim.graph import load_graph, select_targets
from divtim.sampler import generate_corpus

from conftest import make_graph
from oracles import exhaustive_expectation

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
        compute_theta(0.5, 0.1, 1.0, 5, 100)
    with pytest.raises(ConfigError):
        compute_theta(10, 1.5, 1.0, 5, 100)


def test_kpt_single_node_fallback():
    g = make_graph([("a", "b", 1.0)])
    # strip to a single node by thresholding out nothing; use a 1-node view instead
    solo = load_graph(io.StringIO("x y 1.0\n"), "explicit")
    ts = select_targets(solo, "threshold", tau=0.0)
    # n=2 -> doubling loop is empty -> fallback
    kpt, _ = kpt_estimation(solo, ts, "ic", k=1, ell=1.0, master_seed=0)
    assert kpt == 1.0


def test_kpt_complete_graph_exits_first_round():
    n = 8
    g = make_graph([(str(u), str(v), 1.0) for u in range(n) for v in range(n) if u != v])
    ts = select_targets(g, "threshold", tau=0.0)
    kpt, (set_ptr, members) = kpt_estimation(g, ts, "ic", k=2, ell=1.0, master_seed=5)
    assert kpt == pytest.approx(n / 2)
    assert len(set_ptr) > 1 and len(members) > 0


def test_kpt_deterministic():
    g = make_graph([(str(u), str((u + 1) % 10), 0.7) for u in range(10)])
    ts = select_targets(g, "threshold", tau=0.0)
    a, _ = kpt_estimation(g, ts, "ic", k=3, ell=1.0, master_seed=17)
    b, _ = kpt_estimation(g, ts, "ic", k=3, ell=1.0, master_seed=17)
    assert a == b


def test_refine_never_lowers_kpt():
    g = make_graph([(str(u), str((u + 1) % 12), 0.5) for u in range(12)])
    ts = select_targets(g, "threshold", tau=0.0)
    kpt, sets = kpt_estimation(g, ts, "ic", k=3, ell=1.0, master_seed=2)
    refined = refine_kpt(g, ts, "ic", 3, 0.3, 1.0, kpt, sets, master_seed=2)
    assert refined >= kpt


def test_estimate_params_pipeline_and_override():
    g = make_graph([(str(u), str((u + 1) % 10), 0.6) for u in range(10)])
    ts = select_targets(g, "threshold", tau=0.0)
    params = estimate_params(g, ts, "ic", k=2, epsilon=0.4, master_seed=4,
                             theta_cap=50_000)
    assert params.theta >= 1
    assert params.kpt_plus >= params.kpt_star / 2  # refinement contract, loose form
    override = estimate_params(g, ts, "ic", k=2, theta_override=123)
    assert override.theta == 123


def test_expected_capital_boundaries():
    assert expected_capital(10, 10, 7.5) == pytest.approx(7.5)
    assert expected_capital(0, 10, 7.5) == 0.0
    with pytest.raises(ConfigError):
        expected_capital(1, 0, 5.0)
    with pytest.raises(ConfigError):
        expected_capital(11, 10, 5.0)
    with pytest.raises(ConfigError):
        expected_capital(-1, 10, 5.0)


def test_expected_capital_forced_chain():
    g = make_graph([("u", "v", 1.0)], t={"u": 0.1, "v": 1.0})
    ts = select_targets(g, "threshold", tau=0.5)
    corpus = generate_corpus(g, ts, "ic", 64, master_seed=3)
    covered = int(corpus.covered_mask([g.label_ids["u"]]).sum())
    assert expected_capital(covered, corpus.theta, ts.total_score) == pytest.approx(1.0)


def test_expected_capital_monotone_in_coverage():
    values = [expected_capital(c, 20, 5.0) for c in range(0, 21, 2)]
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
        covered = int(corpus.covered_mask(seeds).sum())
        estimate = expected_capital(covered, corpus.theta, ts.total_score)
        _, exact = exhaustive_expectation(g, model, seeds, targets=ts)
        p = exact / ts.total_score
        stderr = ts.total_score * math.sqrt(p * (1 - p) / corpus.theta)
        assert abs(estimate - exact) <= 4 * stderr, (trial, estimate, exact, stderr)
