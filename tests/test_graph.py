import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divtim.errors import ConfigError, FormatError
from divtim.graph import (derive_targets_indegree, derive_weights_interaction,
                          derive_weights_uniform, load_graph, load_node_weights, save_graph,
                          select_targets, synth_graph)

from conftest import make_graph
from oracles import reach


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


def test_derive_weights_uniform_four_in():
    g = make_graph([(f"u{i}", "v", 0.9) for i in range(4)])
    g2 = derive_weights_uniform(g)
    assert np.allclose(g2.b, 0.25)


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


def test_derive_weights_interaction_missing_count():
    g = make_graph([("a", "v", 0.5), ("b", "v", 0.5)])
    with pytest.raises(FormatError, match="missing interaction count"):
        derive_weights_interaction(g, {("a", "v"): 2.0})


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
    with pytest.raises(FormatError):
        load_graph(io.StringIO(""), "uniform_indegree")


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
