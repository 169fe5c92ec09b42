import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divtim.errors import ConfigError, FormatError
from divtim.graph import (derive_targets_indegree, load_graph, load_node_weights, save_graph,
                          select_targets, strong_components, synth_graph)

from conftest import graph_on, make_graph, mixed_components_graph
from oracles import reach, reachable_from


def test_uniform_indegree_two_sources():
    g = make_graph([("A", "B"), ("C", "B")], mode="uniform_indegree")
    assert g.edge_count == 2
    assert np.allclose(g.b, [0.5, 0.5])


def test_explicit_passthrough():
    g = make_graph([("A", "B", 1.0)])
    assert g.b[0] == 1.0


def test_self_loop_rejected():
    with pytest.raises(FormatError, match="self-loop"):
        make_graph([("A", "A", 0.5)])


def test_duplicate_edge_rejected():
    with pytest.raises(FormatError, match="duplicate"):
        make_graph([("A", "B", 0.5), ("A", "B", 0.4)])


def test_explicit_weight_out_of_range():
    with pytest.raises(FormatError):
        make_graph([("A", "B", 1.5)])
    with pytest.raises(FormatError):
        make_graph([("A", "B", 0.0)])


def test_uniform_mode_rejects_weight_column():
    with pytest.raises(FormatError):
        load_graph(io.StringIO("A B 0.3\n"), "uniform_indegree")


def test_comments_and_blank_lines_ignored():
    g = load_graph(io.StringIO("# header\n\nA B\n"), "uniform_indegree")
    assert g.edge_count == 1


def test_uniform_star_graph():
    edges = [(f"s{i}", "hub") for i in range(5)]
    g = make_graph(edges, mode="uniform_indegree")
    assert np.allclose(g.b, 1.0 / 5.0)


def test_uniform_single_in_neighbor():
    g = make_graph([("A", "B")], mode="uniform_indegree")
    assert g.b[0] == 1.0


def test_uniform_indegree_four_in():
    g = load_graph(io.StringIO("".join(f"u{i} v\n" for i in range(4))), "uniform_indegree")
    assert np.allclose(g.b, 0.25)


def test_interaction_weights():
    g = load_graph(io.StringIO("a v 3\nb v 1\n"), "interaction")
    got = {(g.labels[g.src[i]], g.labels[g.dst[i]]): g.b[i] for i in range(2)}
    assert got[("a", "v")] == pytest.approx(0.75)
    assert got[("b", "v")] == pytest.approx(0.25)


def test_interaction_single_source_and_triple():
    g = load_graph(io.StringIO("a v 7\n"), "interaction")
    assert g.b[0] == pytest.approx(1.0)
    g3 = load_graph(io.StringIO("a v 1\nb v 1\nc v 2\n"), "interaction")
    assert sorted(g3.b) == pytest.approx([0.25, 0.25, 0.5])


def test_interaction_sums_to_one_per_node():
    g = load_graph(io.StringIO("a v 3\nb v 2\nc w 5\nd w 1\na w 4\n"), "interaction")
    sums = np.bincount(g.dst, weights=g.b, minlength=g.node_count)
    for v in range(g.node_count):
        if np.sum(g.dst == v):
            assert sums[v] == pytest.approx(1.0, abs=1e-9)


def test_select_targets_threshold():
    g = make_graph([("0", "1", 0.5), ("1", "2", 0.5)],
                   t={"0": 0.9, "1": 0.5, "2": 0.1})
    ts = select_targets(g, "threshold", tau=0.5)
    assert set(ts.members) == {0, 1}
    assert ts.total_score == pytest.approx(1.4)


def test_select_targets_zero_threshold_takes_all():
    g = make_graph([("0", "1", 0.5)], t={"0": 0.4, "1": 0.7})
    ts = select_targets(g, "threshold", tau=0.0)
    assert len(ts) == g.node_count
    assert ts.total_score == pytest.approx(float(g.t.sum()))


def test_select_targets_top_percent():
    g = make_graph([("0", "1", 0.5), ("1", "2", 0.5)],
                   t={"0": 0.9, "1": 0.5, "2": 0.1})
    ts = select_targets(g, "top_percent", percent=33.0)
    assert list(ts.members) == [0]


def test_top_percent_tie_break_ascending_id():
    g = make_graph([("0", "1", 0.5), ("1", "2", 0.5), ("2", "3", 0.5)],
                   t={"0": 0.5, "1": 0.5, "2": 0.5, "3": 0.5})
    ts = select_targets(g, "top_percent", percent=50.0)
    assert list(ts.members) == [0, 1]


def test_empty_target_set_is_config_error():
    g = make_graph([("0", "1", 0.5)], t={"0": 0.2, "1": 0.2})
    with pytest.raises(ConfigError):
        select_targets(g, "threshold", tau=0.9)


@given(tau1=st.floats(0, 1), tau2=st.floats(0, 1))
@settings(max_examples=50, deadline=None)
def test_target_monotonicity_in_tau(tau1, tau2):
    g = make_graph([("0", "1", 0.5), ("1", "2", 0.5), ("2", "3", 0.5)],
                   t={"0": 0.8, "1": 0.6, "2": 0.4, "3": 0.2})
    lo, hi = sorted((tau1, tau2))
    try:
        big = set(select_targets(g, "threshold", tau=lo).members)
        small = set(select_targets(g, "threshold", tau=hi).members)
    except ConfigError:
        return  # an empty level set ends the comparison
    assert small <= big


def test_uniform_indegree_rows_sum_to_one():
    g = synth_graph(60, 4, seed=11)
    sums = np.bincount(g.dst, weights=g.b, minlength=g.node_count)
    indeg = g.in_degrees()
    assert np.all(np.abs(sums[indeg > 0] - 1.0) < 1e-12)


def test_adjacency_views_consistent():
    g = synth_graph(40, 3, seed=5)
    fwd = {(int(g.src[i]), int(g.dst[i])) for i in range(g.edge_count)}
    via_out = {(u, int(v)) for u in range(g.node_count) for v in g.out_neighbors(u)}
    via_in = {(int(u), v) for v in range(g.node_count) for u in g.in_neighbors(v)}
    assert fwd == via_out == via_in


def test_node_weights_loading_and_range():
    g = make_graph([("a", "b", 0.5)])
    g = load_node_weights(g, io.StringIO("a 0.25\nb 1.0\n"))
    assert g.t[g.label_ids["a"]] == 0.25
    with pytest.raises(FormatError):
        load_node_weights(g, io.StringIO("a 0.0\n"))
    with pytest.raises(FormatError):
        load_node_weights(g, io.StringIO("zz 0.5\n"))


def test_default_target_score_is_one():
    g = make_graph([("a", "b", 0.5)])
    assert np.all(g.t == 1.0)


def test_derive_targets_indegree_minmax():
    g = make_graph([("a", "b", 0.5), ("c", "b", 0.5), ("b", "c", 0.5)])
    g2 = derive_targets_indegree(g)
    # in-degrees: a=0, b=2, c=1 -> (d - 0 + 1) / 3
    assert g2.t[g.label_ids["a"]] == pytest.approx(1 / 3)
    assert g2.t[g.label_ids["b"]] == pytest.approx(1.0)
    assert np.all(g2.t > 0) and np.all(g2.t <= 1)


def test_roundtrip_preserves_semantics(tmp_path):
    g = synth_graph(30, 3, seed=9)
    edge_path = tmp_path / "edges.txt"
    node_path = tmp_path / "nodes.txt"
    save_graph(g, str(edge_path), str(node_path))
    g2 = load_graph(str(edge_path), "explicit")
    g2 = load_node_weights(g2, str(node_path))
    orig = {(g.labels[g.src[i]], g.labels[g.dst[i]]): g.b[i] for i in range(g.edge_count)}
    back = {(g2.labels[g2.src[i]], g2.labels[g2.dst[i]]): g2.b[i] for i in range(g2.edge_count)}
    assert orig == back
    t_orig = {lab: g.t[i] for i, lab in enumerate(g.labels)}
    t_back = {lab: g2.t[i] for i, lab in enumerate(g2.labels)}
    assert t_orig == t_back


def test_dangling_and_malformed_lines():
    with pytest.raises(FormatError):
        load_graph(io.StringIO("a\n"), "uniform_indegree")
    with pytest.raises(FormatError):
        load_graph(io.StringIO("a b c d\n"), "explicit")
    with pytest.raises(FormatError, match="line 2"):
        load_graph(io.StringIO("a v 2\nb v\n"), "interaction")
    with pytest.raises(FormatError):
        load_graph(io.StringIO(""), "uniform_indegree")


def _hub_graph():
    """Node 0 heads 500 edges of uneven weight; the rest have one or two."""
    rng = np.random.default_rng(17)
    lines = [f"{u} 0 {rng.uniform(0.001, 0.002)!r}" for u in range(1, 501)]
    lines += [f"{u} {u + 1} {rng.uniform(0.1, 0.5)!r}" for u in range(1, 500)]
    lines += [f"{u} {u + 2} {rng.uniform(0.1, 0.5)!r}" for u in range(1, 499, 7)]
    return load_graph(io.StringIO("\n".join(lines) + "\n"), "explicit")


@pytest.mark.parametrize("case", ["synth", "hub", "sources"])
def test_in_cum_is_each_nodes_cumsum_bit_for_bit(case):
    g = {
        "synth": lambda: synth_graph(300, 5, seed=23),
        "hub": _hub_graph,
        # nodes 0-3 have no in-edges; 4-9 have up to six each
        "sources": lambda: make_graph([(u, v, 0.1 + 0.13 * u) for v in range(4, 10)
                                       for u in range(v - 3)]),
    }[case]()
    deg = g.in_degrees()
    assert deg.min() == 0 or case == "synth"
    assert case != "hub" or deg.max() >= 100 * np.median(deg)
    expect = np.concatenate([np.cumsum(g.in_probs[g.in_indptr[v]:g.in_indptr[v + 1]])
                             for v in range(g.node_count)])
    assert g.in_cum.dtype == expect.dtype
    assert g.in_cum.tobytes() == expect.tobytes()


def test_new_target_scores_share_the_topology():
    g = synth_graph(50, 3, seed=2)
    g2 = g.with_target_scores(np.full(g.node_count, 0.5))
    assert np.all(g2.t == 0.5) and np.all(g.t != 0.5)
    for name in ("src", "dst", "b", "out_indptr", "out_indices", "in_indptr", "in_cum"):
        assert getattr(g2, name) is getattr(g, name)


# ------------------------------------------------------------ live-edge search

def test_reach_lists_start_nodes_first_in_given_order():
    edges = {0: [1], 3: [4], 2: [0]}
    order = reach(6, [3, 0, 2], lambda x: edges.get(x, []))
    assert order[:3] == [3, 0, 2]
    assert sorted(order[3:]) == [1, 4]


def test_reach_terminates_on_a_cycle():
    order = reach(4, [0], lambda x: [(x + 1) % 4])
    assert order == [0, 1, 2, 3]


def test_reach_calls_live_once_per_reached_node():
    edges = {0: [1, 2], 1: [2, 0], 2: [1, 3], 3: [0]}
    calls = []

    def live(x):
        calls.append(x)
        return edges[x]
    order = reach(6, [0], live)
    assert sorted(calls) == sorted(order) == [0, 1, 2, 3]


def test_reach_without_live_edges_returns_start():
    assert reach(5, [2, 4], lambda x: []) == [2, 4]


# ---------------------------------------------------- strongly connected components

@pytest.mark.parametrize("case, count", [("edgeless", 4), ("chain", 6), ("cycle", 1),
                                         ("two-cycles", 2), ("mixed", None)])
def test_strong_components_match_mutual_reachability(case, count):
    g = {
        "edgeless": lambda: graph_on(4, []),
        "chain": lambda: graph_on(6, [(v, v + 1) for v in range(5)]),
        "cycle": lambda: graph_on(5, [(v, (v + 1) % 5) for v in range(5)]),
        "two-cycles": lambda: graph_on(6, [(0, 1), (1, 2), (2, 0), (2, 3),
                                           (3, 4), (4, 5), (5, 3)]),
        "mixed": lambda: mixed_components_graph(np.random.default_rng(31)),
    }[case]()
    label = strong_components(g)
    n = g.node_count
    assert label.shape == (n,)
    assert sorted(set(label.tolist())) == list(range(count or label.max() + 1))
    reached = [reachable_from(g, v) for v in range(n)]
    for u in range(n):
        for v in range(n):
            mutual = u == v or (v in reached[u] and u in reached[v])
            assert (label[u] == label[v]) == mutual
    # reverse topological order: an edge never leads to a later component
    for u, v in zip(g.src.tolist(), g.dst.tolist()):
        assert label[u] >= label[v]
