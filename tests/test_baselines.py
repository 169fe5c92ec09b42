import numpy as np
import pytest

from divtim.baselines import deg_d_greedy, node_gain_vector
from divtim.cli import main
from divtim.diversity import NumericDiversity
from divtim.errors import ConfigError
from divtim.graph import save_graph, synth_graph

from conftest import graph_on, make_graph
from oracles import reference_deg_d


def three_node_graph():
    # out-degrees: 0 -> 3, 1 -> 2, 2 -> 1
    return make_graph([("0", "1", 0.5), ("0", "2", 0.5), ("0", "3", 0.5),
                       ("1", "2", 0.5), ("1", "3", 0.5),
                       ("2", "3", 0.5)])


def test_gamma_zero_is_top_out_degree():
    g = three_node_graph()
    prefs = np.ones((g.node_count, 2))
    seeds = deg_d_greedy(g, prefs, "unit", gamma=0.0, k=3)
    degrees = g.out_degrees()
    expect = sorted(range(g.node_count), key=lambda v: (-degrees[v], v))[:3]
    assert seeds == expect


def test_gamma_one_symmetric_prefix():
    g = three_node_graph()
    prefs = np.ones((g.node_count, 1))
    seeds = deg_d_greedy(g, prefs, "unit", gamma=1.0, k=3)
    assert seeds == [0, 1, 2]


def test_hand_traced_mixed_choice():
    # degrees (3, 2, 1); prefs rows (1,0), (0,1), (0,1); gamma=0.5 -> picks 0 then 1
    g = make_graph([("0", "1", 0.5), ("0", "2", 0.5), ("0", "3", 0.5),
                    ("1", "2", 0.5), ("1", "3", 0.5), ("2", "3", 0.5)])
    prefs = np.zeros((g.node_count, 2))
    prefs[0, 0] = 1.0
    prefs[1, 1] = 1.0
    prefs[2, 1] = 1.0
    seeds = deg_d_greedy(g, prefs, "unit", gamma=0.5, k=2)
    assert seeds == [0, 1]


def test_alpha_parameterization_matches_gamma(tmp_path, capsys):
    # baseline deg-d --alpha a prints the seeds of --gamma 1-a
    edges, prefs = tmp_path / "edges.txt", tmp_path / "prefs.csv"
    save_graph(synth_graph(40, 3, seed=5, score_mode="uniform"), str(edges),
               str(tmp_path / "node_weights.txt"))
    rng = np.random.default_rng(4)
    prefs.write_text("p1,p2,p3\n" + "".join(
        ",".join(f"{x:.4f}" for x in rng.uniform(0, 1, size=3)) + "\n" for _ in range(40)),
        encoding="utf-8")
    base = ["baseline", "deg-d", "--graph", str(edges), "--weight-mode", "explicit",
            "--preferences", str(prefs), "--g-mode", "degree", "--k", "6"]
    for alpha in (0.0, 0.3, 0.7, 1.0):
        assert main([*base, "--alpha", repr(alpha)]) == 0
        via_alpha = capsys.readouterr().out
        assert main([*base, "--gamma", repr(1.0 - alpha)]) == 0
        assert via_alpha == capsys.readouterr().out
        assert len(via_alpha.split()) == 6


def test_matches_eager_reference_cut_at_first_zero_score():
    rng = np.random.default_rng(31)
    for trial in range(400):
        n = int(rng.integers(1, 12))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 2 * n + 1)), 2))
        g = graph_on(n, sorted({(int(u), int(v)) for u, v in pairs if u != v}))
        # some nodes have no out-edges and some an all-zero preference row
        prefs = rng.uniform(0, 1, size=(n, 3)) * (rng.random((n, 1)) < 0.7)
        gamma = float(rng.choice([0.0, 1.0, rng.uniform()]))
        g_mode = ("unit", "degree")[trial % 2]
        k = int(rng.integers(1, n + 2))
        seeds = deg_d_greedy(g, prefs, g_mode, gamma, k)
        eager = reference_deg_d(g, NumericDiversity(prefs, node_gain_vector(g, g_mode)),
                                gamma, k)
        cut = next((i for i, (_, score) in enumerate(eager) if score <= 0), len(eager))
        assert seeds == [v for v, _ in eager[:cut]], trial


def test_edgeless_graph():
    g = graph_on(4, [])
    prefs = np.eye(4)[:, :2]          # nodes 2 and 3 have no preference
    assert deg_d_greedy(g, prefs, "unit", gamma=0.0, k=3) == []
    assert deg_d_greedy(g, prefs, "degree", gamma=1.0, k=3) == []
    assert deg_d_greedy(g, prefs, "unit", gamma=0.5, k=3) == [0, 1]


def test_greedy_gains_non_increasing():
    g = three_node_graph()
    rng = np.random.default_rng(6)
    prefs = rng.uniform(0, 1, size=(g.node_count, 2))
    div = NumericDiversity(prefs, node_gain_vector(g, "unit"))
    seeds = deg_d_greedy(g, prefs, "unit", gamma=1.0, k=4)
    gains = []
    for v in seeds:
        gains.append(div.commit(v))
    assert all(b <= a + 1e-9 for a, b in zip(gains, gains[1:]))


def test_bad_arguments():
    g = three_node_graph()
    prefs = np.ones((g.node_count, 1))
    with pytest.raises(ConfigError):
        deg_d_greedy(g, prefs, "unit", gamma=1.5, k=2)
    with pytest.raises(ConfigError):
        deg_d_greedy(g, prefs[:2], "unit", gamma=0.5, k=2)
    with pytest.raises(ConfigError):
        deg_d_greedy(g, prefs, "sideways", gamma=0.5, k=2)
