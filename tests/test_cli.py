import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import divtim
from divtim import estimator, rng
from divtim.cli import main, parse_result_doc
from divtim.graph import (derive_targets_indegree, load_graph, load_node_weights, save_graph,
                          select_targets, synth_graph)


@pytest.fixture
def small_dataset(tmp_path):
    g = synth_graph(40, 3, seed=13, score_mode="uniform")
    edges = tmp_path / "edges.txt"
    nodes = tmp_path / "nodes.txt"
    save_graph(g, str(edges), str(nodes))
    profiles = tmp_path / "profiles.csv"
    assert main(["synth", "--nodes", "40", "--m", "3", "--domain-sizes", "4",
                 "--seed", "5", "--out", str(profiles)]) == 0
    return {"edges": edges, "nodes": nodes, "profiles": profiles, "graph": g}


def run_select(tmp_path, small_dataset, out_name, *extra):
    out = tmp_path / out_name
    code = main(["select",
                 "--graph", str(small_dataset["edges"]), "--weight-mode", "explicit",
                 "--node-weights", str(small_dataset["nodes"]),
                 "--profiles", str(small_dataset["profiles"]),
                 "--target-mode", "top_percent", "--percent", "25",
                 "--theta-override", "400", "--seed", "7",
                 "--out", str(out), *extra])
    assert code == 0
    return out


def test_select_grid_produces_one_file_per_point(tmp_path, small_dataset):
    out = run_select(tmp_path, small_dataset, "grid",
                     "--k", "2,3", "--alpha", "0,0.5,1")
    docs = sorted(p for p in os.listdir(out) if p.endswith(".txt"))
    assert len(docs) == 6
    with open(out / "metrics.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert {r["alpha"] for r in rows} == {"0", "0.5", "1"}


def test_alpha_grid_eleven_points(tmp_path, small_dataset):
    alphas = ",".join(f"{i / 10:.1f}" for i in range(11))
    out = run_select(tmp_path, small_dataset, "grid11", "--k", "2", "--alpha", alphas)
    docs = [p for p in os.listdir(out) if p.endswith(".txt")]
    assert len(docs) == 11


def test_result_doc_contents(tmp_path, small_dataset):
    out = run_select(tmp_path, small_dataset, "doc", "--k", "3", "--alpha", "0.5")
    doc = parse_result_doc(str(out / "seeds_k3_a0.5.txt"))
    assert doc["config.diversity"] == "aw"
    assert int(doc["theta"]) == 400
    assert len(doc["seeds"].split()) == 3
    assert float(doc["expected_capital"]) >= 0
    assert "seed_entropy" in doc


def test_end_to_end_determinism(tmp_path, small_dataset):
    out1 = run_select(tmp_path, small_dataset, "d1", "--k", "3", "--alpha", "0.3,0.9")
    out2 = run_select(tmp_path, small_dataset, "d2", "--k", "3", "--alpha", "0.3,0.9")

    def strip_timing(path):
        with open(path, encoding="utf-8") as fh:
            return "".join(line for line in fh if not line.startswith("timing"))

    for name in sorted(os.listdir(out1)):
        assert strip_timing(out1 / name) == strip_timing(out2 / name)


def test_jobs_flag_is_deterministic(tmp_path, small_dataset):
    seq = run_select(tmp_path, small_dataset, "sq", "--k", "2", "--alpha", "0,0.5,1")
    par = run_select(tmp_path, small_dataset, "pr", "--k", "2", "--alpha", "0,0.5,1",
                     "--jobs", "3")
    assert (seq / "metrics.csv").read_text() == (par / "metrics.csv").read_text()


def test_synth_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert main(["synth", "--nodes", "30", "--m", "2", "--seed", "9",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_metrics_command_aggregates(tmp_path, small_dataset):
    out = run_select(tmp_path, small_dataset, "agg", "--k", "2", "--alpha", "0.2,0.8")
    csv_out = tmp_path / "all.csv"
    assert main(["metrics", "--results", str(out), "--out", str(csv_out)]) == 0
    with open(csv_out, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert all(r["diversity"] == "aw" for r in rows)
    assert all(r["diversity_ratio"] != "" for r in rows)


def test_simulate_from_result(tmp_path, small_dataset, capsys):
    out = run_select(tmp_path, small_dataset, "sim", "--k", "3", "--alpha", "1")
    code = main(["simulate",
                 "--graph", str(small_dataset["edges"]), "--weight-mode", "explicit",
                 "--node-weights", str(small_dataset["nodes"]),
                 "--target-mode", "top_percent", "--percent", "25",
                 "--from-result", str(out / "seeds_k3_a1.txt"),
                 "--runs", "300", "--seed", "3"])
    assert code == 0
    text = capsys.readouterr().out
    assert "mean_capital:" in text and "mean_spread:" in text


def test_simulate_csv_row(tmp_path, small_dataset):
    csv_path = tmp_path / "sim.csv"
    code = main(["simulate", "--graph", str(small_dataset["edges"]),
                 "--weight-mode", "explicit", "--seeds", "0,1",
                 "--runs", "100", "--seed", "1", "--out", str(csv_path)])
    assert code == 0
    with open(csv_path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and rows[0]["runs"] == "100"


def test_baseline_subcommand(tmp_path, small_dataset):
    prefs = tmp_path / "prefs.csv"
    rng = np.random.default_rng(3)
    with open(prefs, "w", encoding="utf-8") as fh:
        fh.write("p1,p2\n")
        for _ in range(40):
            fh.write(f"{rng.uniform():.4f},{rng.uniform():.4f}\n")
    out = tmp_path / "baseline.txt"
    code = main(["baseline", "deg-d", "--graph", str(small_dataset["edges"]),
                 "--weight-mode", "explicit", "--preferences", str(prefs),
                 "--gamma", "0", "--k", "5", "--out", str(out)])
    assert code == 0
    seeds = out.read_text().split()
    # ties break by dense id, which follows file order: compare on the reload
    from divtim.graph import load_graph
    g = load_graph(str(small_dataset["edges"]), "explicit")
    degrees = g.out_degrees()
    expect = [g.labels[v] for v in
              sorted(range(g.node_count), key=lambda v: (-degrees[v], v))[:5]]
    assert seeds == expect


@pytest.mark.parametrize("flag, value", [
    ("node-weights", "weights.txt"), ("derive-targets", "indegree"), ("target-mode", "threshold"),
    ("tau", "0.5"), ("percent", "25"), ("model", "lt")])
def test_baseline_takes_only_the_flags_it_reads(tmp_path, capsys, flag, value):
    edges, prefs, conf = tmp_path / "edges.txt", tmp_path / "prefs.csv", tmp_path / "run.conf"
    edges.write_text("a b 0.5\nb c 0.5\n", encoding="utf-8")
    prefs.write_text(NUMERIC_ROWS, encoding="utf-8")
    conf.write_text(f"{flag}={value}\n", encoding="utf-8")
    base = ["baseline", "deg-d", "--graph", str(edges), "--weight-mode", "explicit",
            "--preferences", str(prefs), "--k", "1"]
    assert main(base) == 0
    assert main([*base, f"--{flag}", value]) == 1
    assert f"--{flag}" in capsys.readouterr().err
    assert main([*base, "--config", str(conf)]) == 1
    assert f"unknown config keys: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["select", "simulate"])
@pytest.mark.parametrize("given", ["flags", "config"])
def test_node_weights_with_derived_targets_is_usage_error(tmp_path, small_dataset, capsys,
                                                          command, given):
    # the derived in-degree scores would replace every score the weights file gives
    conf = tmp_path / "run.conf"
    conf.write_text(f"node-weights={small_dataset['nodes']}\nderive-targets=indegree\n",
                    encoding="utf-8")
    both = {"flags": ["--node-weights", str(small_dataset["nodes"]),
                      "--derive-targets", "indegree"],
            "config": ["--config", str(conf)]}[given]
    rest = {"select": ["--profiles", str(small_dataset["profiles"]), "--theta-override", "50",
                       "--out", str(tmp_path / "out")],
            "simulate": ["--seeds", "0", "--runs", "10"]}[command]
    assert main([command, "--graph", str(small_dataset["edges"]), "--weight-mode", "explicit",
                 *both, *rest]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "--node-weights" in err and "--derive-targets indegree" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sources", [("seeds", "seeds-file"), ("seeds", "from-result"),
                                     ("seeds-file", "from-result")])
@pytest.mark.parametrize("given", ["flags", "config"])
def test_simulate_takes_one_seed_source(tmp_path, small_dataset, capsys, sources, given):
    # each file names an unknown node, which is a data error only if it is read
    seeds_file, result, conf = tmp_path / "s.txt", tmp_path / "result.txt", tmp_path / "run.conf"
    seeds_file.write_text("zzz\n", encoding="utf-8")
    result.write_text("seeds: zzz\n", encoding="utf-8")
    value = {"seeds": "0", "seeds-file": str(seeds_file), "from-result": str(result)}
    first, second = sources
    conf.write_text(f"{second}={value[second]}\n", encoding="utf-8")
    argv = ["simulate", "--graph", str(small_dataset["edges"]), "--weight-mode", "explicit",
            "--runs", "10", f"--{first}", value[first],
            *{"flags": [f"--{second}", value[second]], "config": ["--config", str(conf)]}[given]]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert f"not --{first} and --{second}" in err


@pytest.mark.parametrize("flag, values, named", [
    ("--k", "3,2,3", "value 3 given twice ('3' and '3')"),
    ("--alpha", "0.5,1,.5", "value 0.5 given twice ('0.5' and '.5')")])
def test_grid_value_given_twice_is_usage_error(tmp_path, small_dataset, capsys, flag, values,
                                               named):
    out = tmp_path / "twice"
    code = main(["select", "--graph", str(small_dataset["edges"]), "--weight-mode", "explicit",
                 "--profiles", str(small_dataset["profiles"]), "--theta-override", "50",
                 flag, values, "--out", str(out)])
    assert code == 1
    assert f"{flag} {named}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, values", [
    ("select", "--k", "3,,5"), ("select", "--alpha", "0.5,"),
    ("synth", "--domain-sizes", "3,,4"), ("simulate", "--seeds", "0,,zzz")])
def test_empty_list_item_is_usage_error(tmp_path, small_dataset, capsys, command, flag,
                                        values):
    graph = ["--graph", str(small_dataset["edges"]), "--weight-mode", "explicit"]
    argv = {"select": [*graph, "--profiles", str(small_dataset["profiles"]),
                       "--theta-override", "50", "--out", str(tmp_path / "out")],
            "synth": ["--nodes", "5", "--m", "2", "--out", str(tmp_path / "p.csv")],
            "simulate": [*graph, "--runs", "10"]}[command]
    assert main([command, *argv, flag, values]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert f"empty item 2 in value list {values!r}" in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "p.csv").exists()


def test_config_file_and_overrides(tmp_path, small_dataset):
    conf = tmp_path / "run.conf"
    conf.write_text(
        f"graph={small_dataset['edges']}\nweight-mode=explicit\n"
        f"profiles={small_dataset['profiles']}\ntarget-mode=top_percent\npercent=25\n"
        "k=2\nalpha=0.5\ntheta-override=200\nseed=4\n", encoding="utf-8")
    out = tmp_path / "fromconf"
    assert main(["select", "--config", str(conf), "--out", str(out)]) == 0
    doc = parse_result_doc(str(out / "seeds_k2_a0.5.txt"))
    assert int(doc["theta"]) == 200
    # flag overrides config
    out2 = tmp_path / "fromconf2"
    assert main(["select", "--config", str(conf), "--k", "3",
                 "--out", str(out2)]) == 0
    assert os.path.exists(out2 / "seeds_k3_a0.5.txt")


def test_numeric_profiles_with_bins(tmp_path, small_dataset):
    numeric = tmp_path / "num.csv"
    rng = np.random.default_rng(2)
    with open(numeric, "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for _ in range(40):
            fh.write(f"{rng.uniform(0, 10):.3f},{rng.uniform(0, 10):.3f}\n")
    out = tmp_path / "numprof"
    code = main(["select", "--graph", str(small_dataset["edges"]),
                 "--weight-mode", "explicit", "--numeric-profiles", str(numeric),
                 "--bins", "4", "--diversity", "aw", "--k", "3", "--alpha", "0",
                 "--theta-override", "100", "--seed", "2", "--out", str(out)])
    assert code == 0
    doc = parse_result_doc(str(out / "seeds_k3_a0.txt"))
    # k=3 distinct picks per attribute: div*[3] = 2 * 0.5 * 3
    assert float(doc["diversity_max"]) == pytest.approx(3.0)
    assert len(doc["seeds"].split()) == 3


def test_class_value_stays_within_its_maximum(tmp_path, small_dataset):
    classes = tmp_path / "classes.txt"
    classes.write_text("".join(f"{v} c{v % 2} 4\n" for v in range(40)), encoding="utf-8")
    out = run_select(tmp_path, small_dataset, "class", "--diversity", "class",
                     "--class-map", str(classes), "--k", "3", "--alpha", "0")
    doc = parse_result_doc(str(out / "seeds_k3_a0.txt"))
    # every reward is 4, so the bound is 3 * log2(1 + 4), not k
    assert float(doc["diversity_max"]) == pytest.approx(3 * math.log2(5))
    assert float(doc["diversity_value"]) <= float(doc["diversity_max"])
    # at alpha 0 the normalized objective is the diversity over its maximum
    assert float(doc["objective_normalized"]) == pytest.approx(
        float(doc["diversity_value"]) / float(doc["diversity_max"]))


def test_no_normalized_objective_without_a_maximum(tmp_path, small_dataset):
    prefs = tmp_path / "prefs.csv"
    prefs.write_text("p1,p2\n" + "0.5,0.25\n" * 40, encoding="utf-8")
    out = run_select(tmp_path, small_dataset, "numeric", "--diversity", "numeric-w",
                     "--preferences", str(prefs), "--k", "3", "--alpha", "0.5")
    doc = parse_result_doc(str(out / "seeds_k3_a0.5.txt"))
    assert "diversity_max" not in doc and "objective_normalized" not in doc
    assert float(doc["objective"]) > 0


def test_unknown_config_key_lists_it(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    # a config file may not name another config file
    for line, key in [("grpah=typo.txt", "grpah"), ("config=/nonexistent.cfg", "config")]:
        conf.write_text(line + "\n", encoding="utf-8")
        assert main(["select", "--config", str(conf), "--out", str(tmp_path / "x")]) == 1
        assert f"unknown config keys: {key}" in capsys.readouterr().err


def test_config_key_given_twice_is_usage_error(tmp_path, capsys):
    conf = tmp_path / "twice.conf"
    conf.write_text("k=2\nseed=1\nk = 5\n", encoding="utf-8")
    assert main(["select", "--config", str(conf), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "lines 1 and 3" in err and "'k'" in err


@pytest.mark.parametrize("sizing, kpt_lines", [
    (["--epsilon", "0.5"], ["kpt_star", "kpt_plus"]), (["--theta-override", "300"], [])],
    ids=["estimated", "override"])
def test_kpt_lines_only_when_estimated(tmp_path, small_dataset, sizing, kpt_lines):
    out = tmp_path / "out"
    assert main(["select", "--graph", str(small_dataset["edges"]), "--weight-mode", "explicit",
                 "--profiles", str(small_dataset["profiles"]), "--k", "2", *sizing,
                 "--out", str(out)]) == 0
    doc = (out / "seeds_k2_a0.5.txt").read_text(encoding="utf-8")
    assert [line.split(":")[0] for line in doc.splitlines()
            if line.startswith("kpt_")] == kpt_lines


def test_missing_graph_is_data_error(tmp_path):
    assert main(["select", "--graph", str(tmp_path / "nope.txt"),
                 "--out", str(tmp_path / "o")]) == 2


def test_usage_error_exit_code():
    assert main(["select"]) == 1          # missing --out
    assert main(["frobnicate"]) == 1      # unknown subcommand


@pytest.mark.parametrize("case", ["numeric-u", "numeric-profiles", "baseline", "class-reward",
                                  "wide-row", "short-row", "no-attributes", "non-utf8",
                                  "synth-negative", "metrics-value", "metrics-max", "hash-label",
                                  "non-finite"])
def test_bad_input_is_one_line_data_error(tmp_path, case):
    edges = tmp_path / "edges.txt"
    edges.write_text("a b 0.5\nb c 0.5\n", encoding="utf-8")
    prefs = tmp_path / "prefs.csv"       # keyed by node, but lacks graph node c
    prefs.write_text("node,p1,p2\na,0.1,0.9\nb,0.7,0.3\n", encoding="utf-8")
    infinite = tmp_path / "inf.csv"      # every node has a row, but one cell is inf
    infinite.write_text("node,p1,p2\na,0.1,inf\nb,0.7,0.3\nc,0.2,0.2\n", encoding="utf-8")
    wide = tmp_path / "wide.csv"         # row 3 has one cell more than the header
    wide.write_text("p1,p2\n0.1,0.9\n0.7,0.3,0.5\n0.2,0.2\n", encoding="utf-8")
    short = tmp_path / "short.csv"       # row 3 has one cell fewer than the header
    short.write_text("p1,p2\n0.1,0.9\n0.7\n0.2,0.2\n", encoding="utf-8")
    bare = tmp_path / "bare.csv"         # keyed, but no attribute columns
    bare.write_text("node\na\nb\nc\n", encoding="utf-8")
    hashed = tmp_path / "hashed.txt"     # a label that reads as a comment elsewhere
    hashed.write_text("a #b 0.5\n#b c 0.5\n", encoding="utf-8")
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"a b 0.5\n\xff\xfe\x00 c 0.5\n")
    classes = tmp_path / "classes.txt"
    classes.write_text("a red\nb blue abc\n", encoding="utf-8")
    results = tmp_path / "results"       # a result document with a non-numeric field
    results.mkdir()
    bad_field = {"metrics-value": "diversity_value: abc\ndiversity_max: 2.0\n",
                 "metrics-max": "diversity_value: 1.0\ndiversity_max: zz\n"}.get(case, "")
    (results / "seeds.txt").write_text("seeds: a\nexpected_capital: 1.0\n" + bad_field,
                                       encoding="utf-8")
    metrics = ["metrics", "--results", str(results), "--out", str(tmp_path / "m.csv")]
    graph = ["--graph", str(edges), "--weight-mode", "explicit"]
    select = ["select", *graph, "--k", "1", "--theta-override", "20",
              "--out", str(tmp_path / "out")]
    argv = {
        "numeric-u": [*select, "--diversity", "numeric-u", "--preferences", str(prefs)],
        "numeric-profiles": [*select, "--numeric-profiles", str(prefs)],
        "baseline": ["baseline", "deg-d", *graph, "--preferences", str(prefs)],
        "class-reward": [*select, "--diversity", "class", "--class-map", str(classes)],
        "wide-row": [*select, "--numeric-profiles", str(wide)],
        "short-row": [*select, "--numeric-profiles", str(short)],
        "no-attributes": ["baseline", "deg-d", *graph, "--preferences", str(bare)],
        "non-utf8": [*select, "--graph", str(binary)],
        "synth-negative": ["synth", "--nodes", "-1", "--out", str(tmp_path / "p.csv")],
        "metrics-value": metrics,
        "metrics-max": metrics,
        "hash-label": ["simulate", "--graph", str(hashed), "--weight-mode", "explicit",
                       "--seeds", "a", "--runs", "10"],
        "non-finite": [*select, "--diversity", "numeric-u", "--preferences", str(infinite)],
    }[case]
    env = dict(os.environ, PYTHONPATH=str(Path(divtim.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "divtim.cli", *argv], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def _run_node_keyed(tmp_path, case, text):
    """Run select over the graph a -> b -> c with ``text`` as the node-keyed
    input ``case``; ``baseline`` runs baseline deg-d with it as --preferences,
    and the seed-list cases run simulate with it as their seeds."""
    edges = tmp_path / "edges.txt"
    edges.write_text("a b 0.5\nb c 0.5\n", encoding="utf-8")
    listed, profiles = tmp_path / "listed.txt", tmp_path / "profiles.csv"
    listed.write_text(text, encoding="utf-8")
    profiles.write_text("node,x\na,1\nb,2\nc,1\n", encoding="utf-8")
    graph = ["--graph", str(edges), "--weight-mode", "explicit"]
    if case == "baseline":
        return main(["baseline", "deg-d", *graph, "--preferences", str(listed), "--k", "1"])
    seeds = {"seeds": ["--seeds", text], "seeds-file": ["--seeds-file", str(listed)],
             "from-result": ["--from-result", str(listed)]}.get(case)
    if seeds:
        return main(["simulate", *graph, *seeds, "--runs", "10"])
    flags = {"node-weights": ["--node-weights", str(listed), "--profiles", str(profiles)],
             "class-map": ["--diversity", "class", "--class-map", str(listed)],
             "profiles": ["--profiles", str(listed)],
             "numeric-profiles": ["--numeric-profiles", str(listed), "--bins", "2"],
             "preferences": ["--diversity", "numeric-u", "--preferences", str(listed)]}[case]
    return main(["select", *graph, "--k", "1", "--theta-override", "20",
                 "--out", str(tmp_path / "out"), *flags])


NUMERIC_ROWS = "node,p1,p2\na,0.1,0.9\nb,0.7,0.3\nc,0.5,0.5\n"


@pytest.mark.parametrize("case, where", [
    ("node-weights", "lines 1 and 3"), ("class-map", "lines 1 and 4"),
    ("profiles", "rows 2 and 4"), ("numeric-profiles", "rows 3 and 5"),
    ("preferences", "rows 3 and 5"), ("seeds", "seeds 1 and 3"),
    ("seeds-file", "seeds file lines 1 and 3"), ("from-result", "result seeds 1 and 3")])
def test_node_listed_twice_is_one_line_data_error(tmp_path, capsys, case, where):
    text = {"node-weights": "a 0.5\nb 1\na 0.25\n",
            "class-map": "a red\nb blue\nc red\na blue\n",
            "profiles": "node,x\na,1\nb,2\na,3\n",
            "numeric-profiles": NUMERIC_ROWS + "b,0.2,0.2\n",
            "preferences": NUMERIC_ROWS + "b,0.2,0.2\n",
            "seeds": "a,b,a", "seeds-file": "a\nb\na\n", "from-result": "seeds: a b a\n"}[case]
    code = _run_node_keyed(tmp_path, case, text)
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert where in err and "listed twice" in err


@pytest.mark.parametrize("case, where", [
    ("node-weights", "line 2"), ("class-map", "line 4"), ("profiles", "row 3"),
    ("numeric-profiles", "row 5"), ("preferences", "row 5"), ("baseline", "row 5"),
    ("seeds", "seed 2"), ("seeds-file", "seeds file line 2"), ("from-result", "result seed 2")])
def test_unknown_node_is_one_line_data_error(tmp_path, capsys, case, where):
    text = {"node-weights": "a 0.5\nzzz 1\n",
            "class-map": "a red\nb blue\nc red\nzzz blue\n",
            "profiles": "node,x\na,1\nzzz,2\n", "seeds": "a,zzz", "seeds-file": "a\nzzz\n",
            "from-result": "seeds: a zzz\n"}.get(case, NUMERIC_ROWS + "zzz,0.2,0.2\n")
    code = _run_node_keyed(tmp_path, case, text)
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert f"{where}: unknown node 'zzz'" in err


def _docs_without_timing(out):
    docs = {}
    for name in sorted(os.listdir(out)):
        if name.endswith(".txt"):
            with open(out / name, encoding="utf-8") as fh:
                docs[name] = "".join(line for line in fh if not line.startswith("timing"))
    return docs


@pytest.mark.parametrize("sizing", [["--epsilon", "0.5"], ["--theta-override", "300"]],
                         ids=["estimated", "override"])
def test_one_corpus_serves_every_k(tmp_path, small_dataset, sizing):
    base = ["select", "--graph", str(small_dataset["edges"]), "--weight-mode", "explicit",
            "--node-weights", str(small_dataset["nodes"]),
            "--profiles", str(small_dataset["profiles"]), *sizing,
            "--alpha", "0,1", "--seed", "3"]
    runs = {}
    for ks in ("2,4", "2", "4"):
        runs[ks] = tmp_path / f"k{ks.replace(',', '_')}"
        assert main([*base, "--k", ks, "--out", str(runs[ks]),
                     "--dump-corpus", str(runs[ks] / "corpus.dump")]) == 0
    both = _docs_without_timing(runs["2,4"])
    assert both == {**_docs_without_timing(runs["2"]), **_docs_without_timing(runs["4"])}
    assert (runs["2,4"] / "corpus.dump").read_text() == (runs["4"] / "corpus.dump").read_text()
    if sizing[0] == "--epsilon":   # estimated thetas differ, so k=2 selects on a prefix
        thetas = {parse_result_doc(str(runs["2,4"] / f"seeds_k{k}_a1.txt"))["theta"]
                  for k in (2, 4)}
        assert len(thetas) == 2


@pytest.mark.parametrize("case", ["alpha", "k", "config-k"])
def test_non_numeric_token_is_one_line_usage_error(tmp_path, small_dataset, case):
    conf = tmp_path / "run.conf"
    conf.write_text("k=abc\n", encoding="utf-8")
    select = ["select", "--graph", str(small_dataset["edges"]), "--weight-mode", "explicit",
              "--profiles", str(small_dataset["profiles"]), "--theta-override", "20",
              "--out", str(tmp_path / "out")]
    extra = {"alpha": ["--alpha", "x"], "k": ["--k", "1,x"],
             "config-k": ["--config", str(conf)]}[case]
    env = dict(os.environ, PYTHONPATH=str(Path(divtim.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "divtim.cli", *select, *extra], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert ("'x'" if case != "config-k" else "'abc'") in proc.stderr


@pytest.mark.parametrize("flag,value,name", [("--epsilon", "nan", "epsilon"),
                                             ("--ell", "nan", "ell"), ("--ell", "-1", "ell"),
                                             ("--lam", "nan", "lambda")],
                         ids=["epsilon-nan", "ell-nan", "ell-negative", "lam-nan"])
def test_bad_number_is_one_line_data_error(tmp_path, small_dataset, flag, value, name):
    select = ["select", "--graph", str(small_dataset["edges"]), "--weight-mode", "explicit",
              "--profiles", str(small_dataset["profiles"]), "--k", "2",
              "--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=str(Path(divtim.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "divtim.cli", *select, flag, value], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert name in proc.stderr


def test_theta_cap_below_one_is_data_error(tmp_path, small_dataset, capsys):
    code = main(["select", "--graph", str(small_dataset["edges"]), "--weight-mode", "explicit",
                 "--profiles", str(small_dataset["profiles"]), "--k", "2",
                 "--theta-cap", "0", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "theta cap" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:only .* carry positive gain")
def test_two_k_estimation_draws_each_batch_once(tmp_path, small_dataset, monkeypatch):
    # the k's estimations read one KPT and one refinement stream
    drawn = []

    def stream(base, batch):
        drawn.append((base, batch))
        return rng.stream(base, batch)

    monkeypatch.setattr("divtim.sampler.stream", stream)
    code = main(["select", "--graph", str(small_dataset["edges"]), "--weight-mode", "explicit",
                 "--profiles", str(small_dataset["profiles"]), "--k", "2,3",
                 "--epsilon", "0.3", "--seed", "7", "--out", str(tmp_path / "out")])
    assert code == 0
    phases = {rng.phase_seed(7, phase) for phase in (estimator.KPT_PHASE, estimator.REFINE_PHASE)}
    assert phases <= {base for base, _ in drawn}
    assert sorted(drawn) == sorted(set(drawn))


@pytest.mark.parametrize("extra,message", [
    (["--lam", "nan"], "lambda"), (["--alpha", "2"], "alpha"), (["--alpha", "nan"], "alpha"),
    (["--diversity", "class"], "class-map"),
    (["--diversity", "class", "--class-map", "partial-classes.txt"], "'17'"),
], ids=["lam-nan", "alpha-2", "alpha-nan", "class-without-map", "class-map-partial"])
def test_select_config_error_precedes_estimation(tmp_path, small_dataset, monkeypatch, capsys,
                                                 extra, message):
    def estimate_params(*args, **kwargs):
        raise AssertionError("estimation ran before the configuration was checked")

    monkeypatch.setattr("divtim.estimator.estimate_params", estimate_params)
    monkeypatch.chdir(tmp_path)
    prefs = tmp_path / "prefs.csv"
    prefs.write_text("p1,p2\n" + "0.5,0.25\n" * 40, encoding="utf-8")
    # every node but 17, so the message must name that label
    (tmp_path / "partial-classes.txt").write_text(
        "".join(f"{v} c{v % 3}\n" for v in range(40) if v != 17), encoding="utf-8")
    code = main(["select", "--graph", str(small_dataset["edges"]), "--weight-mode", "explicit",
                 "--profiles", str(small_dataset["profiles"]), "--preferences", str(prefs),
                 "--k", "2", "--theta-override", "50", "--out", str(tmp_path / "out"), *extra])
    assert code == 2
    assert message in capsys.readouterr().err


def test_config_file_matches_flags(tmp_path, small_dataset):
    conf = tmp_path / "run.conf"
    conf.write_text("seed=5\ntheta-override=250\ntheta-cap=900\nlam=2\ndiversity=entropy\n",
                    encoding="utf-8")
    base = ["select", "--graph", str(small_dataset["edges"]), "--weight-mode", "explicit",
            "--profiles", str(small_dataset["profiles"]), "--k", "2,3", "--alpha", "0,0.5"]
    by_file, by_flags = tmp_path / "by_file", tmp_path / "by_flags"
    assert main([*base, "--config", str(conf), "--out", str(by_file)]) == 0
    assert main([*base, "--seed", "5", "--theta-override", "250", "--theta-cap", "900",
                 "--lam", "2", "--diversity", "entropy", "--out", str(by_flags)]) == 0
    docs = _docs_without_timing(by_file)
    assert len(docs) == 4 and docs == _docs_without_timing(by_flags)
    doc = parse_result_doc(str(by_file / "seeds_k2_a0.txt"))
    assert doc["config.theta_override"] == "250" and doc["config.theta_cap"] == "900"
    assert "objective_normalized" in doc
    assert (by_file / "metrics.csv").read_text() == (by_flags / "metrics.csv").read_text()


def test_metrics_command_matches_select_csv(tmp_path, small_dataset):
    out = run_select(tmp_path, small_dataset, "grid", "--k", "3,2", "--alpha", "1,0,0.5")
    again = tmp_path / "again.csv"
    assert main(["metrics", "--results", str(out), "--out", str(again)]) == 0

    def sorted_lines(path):
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        return header, sorted(rows)

    header, rows = sorted_lines(out / "metrics.csv")
    assert len(rows) == 6
    assert (header, rows) == sorted_lines(again)


def test_synth_takes_out_from_its_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.cfg").write_text("nodes=5\nout=p.csv\n", encoding="utf-8")
    assert main(["synth", "--config", "c.cfg"]) == 0
    assert (tmp_path / "p.csv").read_text(encoding="utf-8").count("\n") == 6


SELECT_3 = ["select", "--graph", "e.txt", "--weight-mode", "explicit", "--profiles", "p.csv",
            "--k", "1", "--theta-override", "20", "--out", "out"]
GRAPH_3 = ["--graph", "e.txt", "--weight-mode", "explicit"]


@pytest.mark.parametrize("argv, code, message", [
    ([*SELECT_3, "--k", "0"], 2, "budget k must be at least 1"),
    ([*SELECT_3, "--theta-override", "0"], 2, "theta override must be positive"),
    ([*SELECT_3, "--k", ","], 1, "empty value list"),
    ([*SELECT_3, "--target-mode", "threshold", "--tau", "2"], 2, "tau in [0, 1]"),
    ([*SELECT_3, "--percent", "0"], 2, "percent in (0, 100]"),
    ([*SELECT_3, "--diversity", "hamming", "--xi", "0"], 2, "radius"),
    (["select", *GRAPH_3, "--diversity", "aw", "--out", "out"], 2,
     "aw diversity needs --profiles"),
    (["select", *GRAPH_3, "--diversity", "hamming", "--out", "out"], 2,
     "hamming diversity needs --profiles"),
    (["select", *GRAPH_3, "--diversity", "entropy", "--out", "out"], 2,
     "entropy diversity needs --profiles"),
    ([*SELECT_3, "--diversity", "numeric-w"], 2, "needs --preferences"),
    ([*SELECT_3, "--numeric-profiles", "n.csv"], 1, "--profiles or --numeric-profiles"),
    (["select", "--profiles", "p.csv", "--out", "out"], 1, "a graph path is required"),
    ([*SELECT_3, "--config", "model.cfg"], 1, "config key model: 'xx'"),
    ([*SELECT_3, "--node-weights", "one-field.txt"], 2, "node weight line 1: expected"),
    ([*SELECT_3, "--node-weights", "bad-score.txt"], 2, "line 1: bad score 'x'"),
    ([*SELECT_3, "--diversity", "class", "--class-map", "one-field.txt"], 2,
     "class map line 1: expected"),
    ([*SELECT_3, "--diversity", "class", "--class-map", "zero-reward.txt"], 2,
     "class map line 1: reward must be positive"),
    ([*SELECT_3, "--diversity", "numeric-u", "--preferences", "bad.csv"], 2,
     "row 2: bad number 'abc'"),
    ([*SELECT_3, "--graph", "bad-weight.txt"], 2, "line 1: bad weight 'x'"),
    (["simulate", *GRAPH_3, "--seeds", "a", "--runs", "0"], 2, "at least one run"),
    (["simulate", *GRAPH_3], 1, "provide --seeds"),
    (["baseline", "deg-d", *GRAPH_3], 1, "baseline needs --preferences"),
    (["baseline", "deg-d", *GRAPH_3, "--preferences", "n.csv", "--gamma", "0.5", "--alpha", "0.5"],
     1, "--gamma or --alpha"),
    # the usage error precedes reading the preferences, which are bad here
    (["baseline", "deg-d", *GRAPH_3, "--preferences", "bad.csv", "--gamma", "0.5",
      "--alpha", "0.5"], 1, "--gamma or --alpha"),
    (["baseline", "deg-d", *GRAPH_3, "--preferences", "n.csv", "--k", "0"], 2,
     "budget k must be at least 1"),
    (["synth", "--out", "s.csv"], 1, "synth needs --nodes"),
    (["synth", "--nodes", "5"], 1, "synth needs --out"),
    (["synth", "--nodes", "5", "--m", "0", "--out", "s.csv"], 2, "at least one attribute"),
    (["synth", "--nodes", "5", "--m", "2", "--domain-sizes", "3,4,5", "--out", "s.csv"], 2,
     "one positive domain size per attribute"),
], ids=["k-0", "theta-override-0", "k-comma", "tau-2", "percent-0", "xi-0", "aw-no-profiles",
        "hamming-no-profiles", "entropy-no-profiles", "numeric-no-preferences",
        "both-profiles", "no-graph", "config-model", "weights-one-field", "weights-bad-score",
        "class-one-field", "class-zero-reward", "numeric-cell", "edge-bad-weight",
        "simulate-runs-0", "simulate-no-seeds", "baseline-no-preferences", "baseline-gamma-alpha",
        "baseline-gamma-alpha-bad-file", "baseline-k-0", "synth-no-nodes", "synth-no-out",
        "synth-m-0", "synth-sizes"])
def test_bad_input_names_its_fault_on_one_line(tmp_path, monkeypatch, capsys, argv, code,
                                               message):
    monkeypatch.chdir(tmp_path)
    for name, text in {"e.txt": "a b 0.5\nb c 0.5\n", "p.csv": "node,x\na,1\nb,2\nc,1\n",
                       "n.csv": NUMERIC_ROWS, "bad.csv": "node,p1\na,abc\nb,0.2\nc,0.3\n",
                       "one-field.txt": "a\n", "bad-score.txt": "a x\n",
                       "zero-reward.txt": "a red 0\n", "bad-weight.txt": "a b x\n",
                       "model.cfg": "model=xx\n"}.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert main(argv) == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err and message in err
    assert not (tmp_path / "s.csv").exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("targets", [["--target-mode", "threshold", "--tau", "0.5"],
                                     ["--derive-targets", "indegree"]],
                         ids=["threshold", "indegree"])
def test_select_and_simulate_on_other_target_sets(tmp_path, small_dataset, capsys, targets):
    graph = ["--graph", str(small_dataset["edges"]), "--weight-mode", "explicit"]
    weights = [] if "indegree" in targets else ["--node-weights", str(small_dataset["nodes"])]
    g = load_graph(str(small_dataset["edges"]), "explicit")
    if weights:
        g = load_node_weights(g, str(small_dataset["nodes"]))
        total = select_targets(g, "threshold", tau=0.5).total_score
    else:
        total = select_targets(derive_targets_indegree(g), "top_percent", percent=25).total_score
    out = tmp_path / "out"
    assert main(["select", *graph, *weights, *targets, "--k", "3", "--theta-override", "400",
                 "--profiles", str(small_dataset["profiles"]), "--out", str(out)]) == 0
    doc = parse_result_doc(str(out / "seeds_k3_a0.5.txt"))
    assert float(doc["target_total"]) == pytest.approx(total)
    assert 0 < float(doc["expected_capital"]) <= total
    assert main(["simulate", *graph, *weights, *targets, "--from-result",
                 str(out / "seeds_k3_a0.5.txt"), "--runs", "200", "--seed", "2"]) == 0
    report = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert float(report["mean_spread"]) >= 3
    assert 0 < float(report["mean_capital"]) <= total


def test_estimation_without_kpt_rounds_keeps_bound_one(tmp_path, monkeypatch):
    # on a 3-node graph no KPT round runs and refinement has no sets to cover
    monkeypatch.chdir(tmp_path)
    (tmp_path / "e.txt").write_text("a b 0.5\nb c 0.5\n", encoding="utf-8")
    (tmp_path / "p.csv").write_text("node,x\na,1\nb,2\nc,1\n", encoding="utf-8")
    assert main(["select", *GRAPH_3, "--profiles", "p.csv", "--k", "1", "--out", "out"]) == 0
    doc = parse_result_doc("out/seeds_k1_a0.5.txt")
    assert doc["kpt_star"] == "1.0" and doc["kpt_plus"] == "1.0"
    assert doc["config.theta_override"] == "None"
