"""The shared input rules: decorated input reads like plain input, everywhere."""

import ast
import io
import re
from collections import Counter
from pathlib import Path

import pytest

import divtim

from divtim.cli import _read_config_file, main
from divtim.diversity import load_class_map
from divtim.graph import load_graph, load_node_weights, save_graph, synth_graph
from divtim.profiles import load_numeric_matrix, load_profiles
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
}


BOM = "\ufeff"   # as Excel's "CSV UTF-8" writes it


def decorate(text: str) -> str:
    """The same data lines after a byte-order mark, among comments and blank
    lines, with trailing spaces and CRLF endings."""
    out = ["# a comment before the data", ""]
    for line in text.splitlines():
        out += [line + "  \t", "   # an indented comment", "", "\t"]
    return BOM + "\r\n".join(out) + "\r\n"


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
    else:   # newline="" hands the loader the raw CRLF endings; the caller decodes the mark
        with open(decorated, encoding="utf-8-sig", newline="") as fh:
            assert LOADERS[name](fh) == expect
            assert not fh.closed


def test_decorated_seeds_file_reads_like_plain(tmp_path, capsys):
    g = synth_graph(30, 3, seed=6, score_mode="uniform")
    edges = tmp_path / "edges.txt"
    save_graph(g, str(edges), str(tmp_path / "node_weights.txt"))
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


@pytest.mark.parametrize("loader", ["profiles", "numeric"])
def test_byte_order_mark_keeps_a_csv_keyed(tmp_path, loader):
    text = "node,x\nb,1\na,2\nc,1\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(BOM + text, encoding="utf-8")
    load = {"profiles": lambda src: load_profiles(src, node_labels=BASE.labels).codes.tolist(),
            "numeric": lambda src: load_numeric_matrix(src, BASE.labels)[0].tolist()}[loader]
    assert load(str(marked)) == load(str(plain))


def test_only_textio_judges_node_keyed_rows():
    # one rule: every node-keyed input maps its rows through textio.node_rows
    holders = sorted(path.name for path in Path(divtim.__file__).parent.glob("*.py")
                     if re.search("unknown node|listed twice", path.read_text(encoding="utf-8")))
    assert holders == ["textio.py"]


def test_nothing_in_src_is_called_only_by_tests():
    # reference code that only tests call lives in tests/oracles.py
    src = Path(divtim.__file__).parent
    root = src.parent.parent
    defined = Counter(node.name for path in src.glob("*.py")
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                      and not node.name.startswith("_"))
    callers = [path for path in (*src.glob("*.py"), *root.glob("scripts/*.py"),
                                 *root.glob("perfbench/*.py"), root / "pyproject.toml")
               if path.name != "__init__.py"]
    text = "\n".join(path.read_text(encoding="utf-8") for path in callers)
    unused = sorted(name for name, count in defined.items()
                    if len(re.findall(rf"\b{name}\b", text)) <= count)
    assert unused == []


def _signatures(path: Path, local: set[str]) -> dict[str, list]:
    """Every function, method and dataclass defined in path, by the name a
    call uses: [(label, [(parameter, has default, keyword only)]), ...].

    The methods of a class that extends a class not in ``local`` are left
    out: the library that defines the base calls them."""
    out: dict[str, list] = {}

    def add(key, label, params):
        if params:
            out.setdefault(key, []).append((label, params))

    def function(node, in_class):
        a = node.args
        positional = a.posonlyargs + a.args
        if in_class and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                for d in node.decorator_list):
            positional = positional[1:]
        defaults = [False] * (len(positional) - len(a.defaults)) + [True] * len(a.defaults)
        return ([(p.arg, d, False) for p, d in zip(positional, defaults)]
                + [(p.arg, d is not None, True) for p, d in zip(a.kwonlyargs, a.kw_defaults)])

    def field_default(value):
        if value is None:
            return False
        if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "field":
            return any(kw.arg in ("default", "default_factory") for kw in value.keywords)
        return True

    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            add(node.name, node.name, function(node, False))
        elif isinstance(node, ast.ClassDef):
            if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                add(node.name, node.name, [
                    (item.target.id, field_default(item.value), False) for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                    and "init=False" not in ast.unparse(item.value or ast.Constant(0))])
            if any(ast.unparse(base) not in local for base in node.bases):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                        item.name == "__init__" or not item.name.startswith("__")):
                    key = node.name if item.name == "__init__" else item.name
                    add(key, f"{node.name}.{item.name}", function(item, True))
    return out


def test_every_parameter_is_set_by_a_program():
    # a parameter exists only if a program call passes it, and a default only
    # if a program call leaves it out; calls resolve by the called name
    src = Path(divtim.__file__).parent
    root = src.parent.parent
    local = {node.name for path in src.glob("*.py")
             for node in ast.parse(path.read_text(encoding="utf-8")).body
             if isinstance(node, ast.ClassDef)}
    defined: dict[str, list] = {}
    for path in src.glob("*.py"):
        for key, entries in _signatures(path, local).items():
            defined.setdefault(key, []).extend(entries)
    calls: dict[str, list] = {}     # name -> [(positional count, None if starred; keywords)]
    escaped: set[str] = set()       # functions passed around as values: callers unseen
    for path in (*src.glob("*.py"), *root.glob("scripts/*.py"), *root.glob("perfbench/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names}
        own.update(node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
        called = {id(node) for holder in ast.walk(tree)      # a type annotation calls nothing
                  for note in (getattr(holder, "annotation", None), getattr(holder, "returns", None))
                  if note is not None for node in ast.walk(note)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                called.add(id(node.func))
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                keywords = {kw.arg for kw in node.keywords}   # None stands for **kwargs
                calls.setdefault(name, []).append((None if starred else len(node.args),
                                                   keywords))
        escaped.update(node.id for node in ast.walk(tree)
                       if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                       and node.id in own and id(node) not in called)
    for entry in re.findall(r'= "[\w.]+:(\w+)"', (root / "pyproject.toml").read_text(encoding="utf-8")):
        calls.setdefault(entry, []).append((0, set()))
    unset, overridden = [], []
    for key, entries in defined.items():
        if key in escaped:
            continue
        for label, params in entries:
            for at, (param, has_default, kw_only) in enumerate(params):
                passes = [param in keywords or None in keywords or not kw_only and (
                              positional is None or positional > at)
                          for positional, keywords in calls.get(key, [])]
                if not any(passes):
                    unset.append(f"{label}.{param}")
                elif has_default and all(passes):
                    overridden.append(f"{label}.{param}")
    assert {"never passed": sorted(unset), "never left out": sorted(overridden)} == \
        {"never passed": [], "never left out": []}
