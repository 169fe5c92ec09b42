import numpy as np
import pytest

from divtim.errors import ConfigError
from divtim.graph import select_targets
from divtim.simulator import simulate

from conftest import make_graph
from oracles import exhaustive_expectation


def test_certain_edges_full_spread(chain3):
    report = simulate(chain3, "ic", [chain3.label_ids["a"]], runs=50, master_seed=1,
                      targets=select_targets(chain3, "threshold", tau=0.0))
    assert report.mean_spread == 3.0
    assert report.stderr_spread == 0.0


def test_no_diffusion_counts_only_seeds():
    g = make_graph([("a", "b", 1e-12), ("b", "c", 1e-12)])
    ts = select_targets(g, "threshold", tau=0.0)
    seeds = [g.label_ids["a"], g.label_ids["c"]]
    report = simulate(g, "ic", seeds, runs=30, master_seed=2, targets=ts)
    assert report.mean_spread == pytest.approx(2.0)
    assert report.mean_capital == pytest.approx(2.0)


def test_two_node_bernoulli_band(two_node_half):
    g = two_node_half
    ts = select_targets(g, "threshold", tau=0.5)
    runs = 100_000
    report = simulate(g, "ic", [g.label_ids["u"]], runs=runs, master_seed=3, targets=ts)
    sigma = (0.25 / runs) ** 0.5
    assert abs(report.mean_capital - 0.5) < 3 * sigma


def test_simulate_deterministic(two_node_half):
    g = two_node_half
    ts = select_targets(g, "threshold", tau=0.5)
    a = simulate(g, "ic", [0], runs=500, master_seed=9, targets=ts)
    b = simulate(g, "ic", [0], runs=500, master_seed=9, targets=ts)
    assert a == b


def test_repeated_seed_counts_once(two_node_half):
    g = two_node_half
    u = g.label_ids["u"]
    ts = select_targets(g, "threshold", tau=0.5)
    assert simulate(g, "ic", [u, u], runs=2000, master_seed=4, targets=ts) == \
        simulate(g, "ic", [u], runs=2000, master_seed=4, targets=ts)


def test_simulate_rejects_empty_seed_set(chain3):
    with pytest.raises(ConfigError):
        simulate(chain3, "ic", [], runs=10, master_seed=0,
                 targets=select_targets(chain3, "threshold", tau=0.0))


def test_exhaustive_two_node_half(two_node_half):
    g = two_node_half
    spread, capital = exhaustive_expectation(g, "ic", [g.label_ids["u"]],
                                             targets=select_targets(g, "threshold", tau=0.5))
    assert spread == pytest.approx(1.5)
    assert capital == pytest.approx(0.5)


def test_exhaustive_certain_chain(chain3):
    spread, _ = exhaustive_expectation(chain3, "ic", [chain3.label_ids["a"]])
    assert spread == pytest.approx(3.0)


def test_exhaustive_refuses_large_instance():
    edges = [(f"a{i}", f"b{i}", 0.5) for i in range(21)]
    g = make_graph(edges)
    with pytest.raises(ConfigError):
        exhaustive_expectation(g, "ic", [0])


def test_simulate_matches_exhaustive_within_four_stderr():
    rng = np.random.default_rng(14)
    for trial in range(5):
        n = 5
        edges = [(u, v, float(rng.uniform(0.2, 0.8)))
                 for u in range(n) for v in range(n)
                 if u != v and rng.random() < 0.4][:12]
        if not edges:
            edges = [(0, 1, 0.5)]
        g = make_graph(edges)
        ts = select_targets(g, "threshold", tau=0.0)
        seeds = [0]
        exact_spread, exact_capital = exhaustive_expectation(g, "ic", seeds, targets=ts)
        report = simulate(g, "ic", seeds, runs=4000, master_seed=100 + trial, targets=ts)
        band = max(4 * report.stderr_spread, 1e-9)
        assert abs(report.mean_spread - exact_spread) <= band
        band_c = max(4 * report.stderr_capital, 1e-9)
        assert abs(report.mean_capital - exact_capital) <= band_c


def test_exhaustive_capital_monotone_in_seeds():
    rng = np.random.default_rng(21)
    edges = [(u, v, float(rng.uniform(0.2, 0.8)))
             for u in range(5) for v in range(5) if u != v and rng.random() < 0.4][:10]
    g = make_graph(edges if edges else [(0, 1, 0.5)])
    ts = select_targets(g, "threshold", tau=0.0)
    base_nodes = list(range(min(3, g.node_count)))
    values = []
    for size in range(1, len(base_nodes) + 1):
        _, cap = exhaustive_expectation(g, "ic", base_nodes[:size], targets=ts)
        values.append(cap)
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_lt_simulation_and_exhaustive_agree():
    g = make_graph([("a", "b", 0.6), ("c", "b", 0.4), ("b", "c", 0.5)])
    ts = select_targets(g, "threshold", tau=0.0)
    seeds = [g.label_ids["a"]]
    exact_spread, exact_capital = exhaustive_expectation(g, "lt", seeds, targets=ts)
    report = simulate(g, "lt", seeds, runs=30_000, master_seed=5, targets=ts)
    assert abs(report.mean_spread - exact_spread) <= 4 * report.stderr_spread
    assert abs(report.mean_capital - exact_capital) <= 4 * report.stderr_capital


def test_lt_rejects_overweight_node():
    g = make_graph([("a", "c", 0.9), ("b", "c", 0.9)])
    with pytest.raises(ConfigError):
        simulate(g, "lt", [0], runs=5, master_seed=0,
                 targets=select_targets(g, "threshold", tau=0.0))
