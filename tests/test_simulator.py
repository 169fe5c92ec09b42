import math
import tracemalloc

import numpy as np
import pytest

from divtim.errors import ConfigError
from divtim.graph import select_targets, synth_graph
from divtim.rng import phase_seed, stream
from divtim.sampler import LEVEL_EDGES, batch_size
from divtim.simulator import SIM_PHASE, SimulationReport, simulate

from conftest import graph_on, make_graph, reach
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


def all_keys_report(graph, model, seeds, runs, master_seed, targets) -> SimulationReport:
    """``simulate``'s report from all of each batch's keys, its levels concatenated,
    counted per run by one ``bincount``."""
    n, size = graph.node_count, batch_size(graph.node_count)
    score = np.zeros(n)
    score[targets.members] = graph.t[targets.members]
    start = (np.arange(size)[:, None] * n + sorted(set(seeds))).ravel()
    spreads, capitals = [], []
    for b in range(-(-runs // size)):
        keys = reach(graph, model, True, size, start, [stream(phase_seed(master_seed, SIM_PHASE), b)])
        run, node = np.divmod(keys, n)
        spreads.append(np.bincount(run, minlength=size))
        capitals.append(np.bincount(run, weights=score[node], minlength=size))
    spreads, capitals = np.concatenate(spreads)[:runs], np.concatenate(capitals)[:runs]
    return SimulationReport(runs, float(spreads.mean()), float(capitals.mean()),
                            float(spreads.std(ddof=1) / math.sqrt(runs)),
                            float(capitals.std(ddof=1) / math.sqrt(runs)))


@pytest.mark.parametrize("model", ["ic", "lt"])
def test_level_by_level_sums_equal_one_bincount_over_all_keys(model):
    # np.add.at adds each run's target scores in the order one bincount over
    # all keys does, so the float sums are the same to the bit
    g = synth_graph(600, 4, seed=5, score_mode="uniform")
    g = g if model == "ic" else g.with_probs(g.b * 0.9)
    g.t[:] = np.random.default_rng(3).uniform(1e-3, 1.0, g.node_count)
    ts = select_targets(g, "threshold", tau=0.3)
    runs = batch_size(g.node_count) + 7
    seeds = [0, 11, 42, 99, 250, 512]
    assert simulate(g, model, seeds, runs, 8, ts) == all_keys_report(g, model, seeds, runs, 8, ts)


def test_simulate_holds_one_level_of_keys_at_a_time():
    # Every run on a ring of certain edges reaches all n nodes, one a level,
    # so the 8 B keys of a batch outweigh the rest of what simulate holds; it
    # folds each level as the kernel yields it and never holds them all.
    n = 2000
    g = make_graph([(str(u), str((u + 1) % n), 1.0) for u in range(n)])
    ts = select_targets(g, "threshold", tau=0.0)
    runs = batch_size(n)
    tracemalloc.start()
    try:
        report = simulate(g, "ic", [0], runs, 1, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.mean_spread == n
    assert peak < 8 * runs * n


def test_simulate_expands_a_level_in_slices_of_bounded_edges():
    # Every run starts from all 64 nodes of a complete core of certain edges,
    # so its one level expands 64 * 63 edges a run, 63 * LEVEL_EDGES in a
    # batch, and reaches nothing new.  The kernel expands it in slices of at
    # most LEVEL_EDGES edges, so its temporaries (about 50 B an edge) are one
    # slice's, beside the frontier-sized arrays (8 B a key each) and the
    # visited mask (1 B per run and node).  A kernel that expands a level whole
    # peaks near 100 MB here, so the test fails on it.
    n, core = 1024, 64
    g = graph_on(n, [(u, v) for u in range(core) for v in range(core) if u != v])
    ts = select_targets(g, "threshold", tau=0.0)
    runs = batch_size(n)
    frontier = runs * core
    assert frontier * (core - 1) >= 16 * LEVEL_EDGES
    tracemalloc.start()
    try:
        report = simulate(g, "ic", range(core), runs, 1, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.mean_spread == core
    assert peak < 96 * LEVEL_EDGES + 64 * frontier + runs * n
