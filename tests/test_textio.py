"""The shared input rules: decorated input reads like plain input, everywhere."""

import io

import pytest

from divtim.cli import _read_config_file, main
from divtim.diversity import load_class_map
from divtim.graph import load_graph, load_node_weights, save_graph, synth_graph
from divtim.sampler import load_corpus_dump
from divtim.textio import data_lines

from conftest import corpus_from_sets, make_graph

BASE = make_graph([("a", "b", 0.5), ("b", "c", 0.5)])

PLAIN = {
    "edges": "a b 0.5\nb c 0.25\nc a 1\n",
    "node-weights": "a 0.5\nb 1\n",
    "class-map": "a red\nb blue 2\nc red\n",
    "config": "seed=3\nk = 2,4\n",
    "corpus-dump": "0 2 2 0\n1 1 1\n2 0 0 1 2\n",
}

LOADERS = {
    "edges": lambda src: [(g.labels, g.src.tolist(), g.dst.tolist(), g.b.tolist())
                          for g in [load_graph(src, "explicit")]],
    "node-weights": lambda src: load_node_weights(BASE, src).t.tolist(),
    "class-map": lambda src: [a.tolist() for a in load_class_map(src, BASE.labels)],
    "config": _read_config_file,
    "corpus-dump": lambda src: [(c.roots.tolist(), c.set_ptr.tolist(), c.members.tolist())
                                for c in [load_corpus_dump(src, 3, 3.0)]],
}


def decorate(text: str) -> str:
    """The same data lines among comments and blank lines, with trailing
    spaces and CRLF endings."""
    out = ["# a comment before the data", ""]
    for line in text.splitlines():
        out += [line + "  \t", "   # an indented comment", "", "\t"]
    return "\r\n".join(out) + "\r\n"


def test_data_lines_numbers_every_line_and_skips_the_rest():
    text = "# head\n\nx 1\n  # note\n y 2 \r\n"
    assert list(data_lines(io.StringIO(text))) == [(3, "x 1"), (5, "y 2")]


@pytest.mark.parametrize("name", sorted(LOADERS))
@pytest.mark.parametrize("given", ["path", "open-file"])
def test_decorated_input_reads_like_plain_input(tmp_path, name, given):
    plain, decorated = tmp_path / "plain.txt", tmp_path / "decorated.txt"
    plain.write_text(PLAIN[name], encoding="utf-8")
    decorated.write_bytes(decorate(PLAIN[name]).encode("utf-8"))
    expect = LOADERS[name](str(plain))
    if given == "path":
        assert LOADERS[name](str(decorated)) == expect
    else:   # newline="" hands the loader the raw CRLF endings
        with open(decorated, encoding="utf-8", newline="") as fh:
            assert LOADERS[name](fh) == expect
            assert not fh.closed


def test_decorated_seeds_file_reads_like_plain(tmp_path, capsys):
    g = synth_graph(30, 3, seed=6)
    edges = tmp_path / "edges.txt"
    save_graph(g, str(edges))
    plain, decorated = tmp_path / "plain.txt", tmp_path / "decorated.txt"
    plain.write_text("3\n17\n", encoding="utf-8")
    decorated.write_bytes(decorate("3\n17\n").encode("utf-8"))
    reports = []
    for seeds in (plain, decorated):
        assert main(["simulate", "--graph", str(edges), "--weight-mode", "explicit",
                     "--seeds-file", str(seeds), "--runs", "200", "--seed", "2"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] and "mean_spread" in reports[0]


def test_corpus_dump_writes_to_an_open_file_as_to_a_path(tmp_path):
    corpus = corpus_from_sets([(2, [2, 0]), (1, [1]), (0, [0, 1, 2])], 3, 3.0)
    path = tmp_path / "corpus.txt"
    corpus.dump(str(path))
    buf = io.StringIO()
    corpus.dump(buf)
    assert not buf.closed
    assert buf.getvalue() == path.read_text(encoding="utf-8") == PLAIN["corpus-dump"]

