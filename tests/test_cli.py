import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import divtim
from divtim.cli import main, parse_result_doc
from divtim.graph import save_graph, synth_graph


@pytest.fixture
def small_dataset(tmp_path):
    g = synth_graph(40, 3, seed=13)
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
                     "--class-map", str(classes), "--k", "3", "--alpha", "0", "--normalize")
    doc = parse_result_doc(str(out / "seeds_k3_a0.txt"))
    # every reward is 4, so the bound is 3 * log2(1 + 4), not k
    assert float(doc["diversity_max"]) == pytest.approx(3 * math.log2(5))
    assert float(doc["diversity_value"]) <= float(doc["diversity_max"])


def test_unknown_config_key_lists_it(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("grpah=typo.txt\n", encoding="utf-8")
    assert main(["select", "--config", str(conf), "--out", str(tmp_path / "x")]) == 1
    assert "grpah" in capsys.readouterr().err


def test_missing_graph_is_data_error(tmp_path):
    assert main(["select", "--graph", str(tmp_path / "nope.txt"),
                 "--out", str(tmp_path / "o")]) == 2


def test_usage_error_exit_code():
    assert main(["select"]) == 1          # missing --out
    assert main(["frobnicate"]) == 1      # unknown subcommand


@pytest.mark.parametrize("case", ["numeric-u", "numeric-profiles", "baseline", "class-reward",
                                  "wide-row", "non-utf8", "synth-negative",
                                  "metrics-value", "metrics-max"])
def test_bad_input_is_one_line_data_error(tmp_path, case):
    edges = tmp_path / "edges.txt"
    edges.write_text("a b 0.5\nb c 0.5\n", encoding="utf-8")
    prefs = tmp_path / "prefs.csv"       # keyed by node, but lacks graph node c
    prefs.write_text("node,p1,p2\na,0.1,0.9\nb,0.7,0.3\n", encoding="utf-8")
    wide = tmp_path / "wide.csv"         # row 3 has one cell more than the header
    wide.write_text("p1,p2\n0.1,0.9\n0.7,0.3,0.5\n0.2,0.2\n", encoding="utf-8")
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
        "non-utf8": [*select, "--graph", str(binary)],
        "synth-negative": ["synth", "--nodes", "-1", "--out", str(tmp_path / "p.csv")],
        "metrics-value": metrics,
        "metrics-max": metrics,
    }[case]
    env = dict(os.environ, PYTHONPATH=str(Path(divtim.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "divtim.cli", *argv], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("case, where", [
    ("node-weights", "lines 1 and 3"), ("class-map", "lines 1 and 4"),
    ("profiles", "rows 2 and 4"), ("numeric-profiles", "rows 3 and 5"),
    ("preferences", "rows 3 and 5")])
def test_node_listed_twice_is_one_line_data_error(tmp_path, capsys, case, where):
    edges = tmp_path / "edges.txt"
    edges.write_text("a b 0.5\nb c 0.5\n", encoding="utf-8")
    text = {"node-weights": "a 0.5\nb 1\na 0.25\n",
            "class-map": "a red\nb blue\nc red\na blue\n",
            "profiles": "node,x\na,1\nb,2\na,3\n",
            "numeric-profiles": "node,p1,p2\na,0.1,0.9\nb,0.7,0.3\nc,0.5,0.5\nb,0.2,0.2\n"}
    text["preferences"] = text["numeric-profiles"]
    listed, profiles = tmp_path / "listed.txt", tmp_path / "profiles.csv"
    listed.write_text(text[case], encoding="utf-8")
    profiles.write_text("node,x\na,1\nb,2\nc,1\n", encoding="utf-8")
    flags = {"node-weights": ["--node-weights", str(listed), "--profiles", str(profiles)],
             "class-map": ["--diversity", "class", "--class-map", str(listed)],
             "profiles": ["--profiles", str(listed)],
             "numeric-profiles": ["--numeric-profiles", str(listed), "--bins", "2"],
             "preferences": ["--diversity", "numeric-u", "--preferences", str(listed)]}[case]
    code = main(["select", "--graph", str(edges), "--weight-mode", "explicit", "--k", "1",
                 "--theta-override", "20", "--out", str(tmp_path / "out"), *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert where in err and "listed twice" in err


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


@pytest.mark.parametrize("extra,message", [
    (["--lam", "nan"], "lambda"), (["--alpha", "2"], "alpha"), (["--alpha", "nan"], "alpha"),
    (["--diversity", "class"], "class-map"),
    (["--diversity", "numeric-u", "--normalize"], "maximum"),
    (["--diversity", "class", "--class-map", "partial-classes.txt"], "'17'"),
], ids=["lam-nan", "alpha-2", "alpha-nan", "class-without-map", "numeric-u-normalize",
        "class-map-partial"])
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


def test_config_on_off_value_is_checked(tmp_path, small_dataset, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("normalize=maybe\n", encoding="utf-8")
    code = main(["select", "--config", str(conf), "--graph", str(small_dataset["edges"]),
                 "--weight-mode", "explicit", "--profiles", str(small_dataset["profiles"]),
                 "--k", "2", "--theta-override", "50", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "normalize" in capsys.readouterr().err


def test_config_file_matches_flags(tmp_path, small_dataset):
    conf = tmp_path / "run.conf"
    conf.write_text("seed=5\ntheta-override=250\nlam=2\ndiversity=entropy\nnormalize=yes\n",
                    encoding="utf-8")
    base = ["select", "--graph", str(small_dataset["edges"]), "--weight-mode", "explicit",
            "--profiles", str(small_dataset["profiles"]), "--k", "2,3", "--alpha", "0,0.5"]
    by_file, by_flags = tmp_path / "by_file", tmp_path / "by_flags"
    assert main([*base, "--config", str(conf), "--out", str(by_file)]) == 0
    assert main([*base, "--seed", "5", "--theta-override", "250", "--lam", "2",
                 "--diversity", "entropy", "--normalize", "--out", str(by_flags)]) == 0
    docs = _docs_without_timing(by_file)
    assert len(docs) == 4 and docs == _docs_without_timing(by_flags)
    assert "config.normalize: True" in docs["seeds_k2_a0.txt"]
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
