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
    "corpus-dump": "0 2 0 2\n1 1 1\n2 0 0 1 2\n",
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
    corpus = corpus_from_sets([(2, [0, 2]), (1, [1]), (0, [0, 1, 2])], 3)
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


def _signatures(path: Path, local: dict[str, str]) -> dict[tuple[str, str], list]:
    """Every function, method and dataclass defined in path, by the key its
    calls resolve to: (module, name) for a function or a class's constructor,
    (class, name) for a method.  Values are [(label, [(parameter, has
    default, keyword only)]), ...].

    The methods of a class that extends a class not in ``local`` are left
    out: the library that defines the base calls them."""
    out: dict[tuple[str, str], list] = {}

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
            add((path.stem, node.name), node.name, function(node, False))
        elif isinstance(node, ast.ClassDef):
            if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                add((path.stem, node.name), node.name, [
                    (item.target.id, field_default(item.value), False) for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                    and "init=False" not in ast.unparse(item.value or ast.Constant(0))])
            if any(ast.unparse(base) not in local for base in node.bases):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                        item.name == "__init__" or not item.name.startswith("__")):
                    key = (path.stem, node.name) if item.name == "__init__" else (node.name,
                                                                                  item.name)
                    add(key, f"{node.name}.{item.name}", function(item, True))
    return out


class _CallResolver:
    """The definitions a call in one program file may reach, as far as ast can tell.

    A bare name resolves through the file's own definitions and imports, a
    module-qualified call to that module's function, ``self.f()`` to f in
    the class's hierarchy and ``super().f()`` to f in its ancestors.  A
    method call on a package class's constructor call, or on a name whose
    every binding in its scope is a parameter annotated with that class or
    an assignment from its constructor (``rr = RRStream(...)``), reaches
    that method in the class's hierarchy.  A method call on any other
    receiver may reach a method of that name in any class, but never a
    module function, and a call through a module outside the package
    reaches nothing."""

    def __init__(self, src: Path, local: dict[str, str], bases: dict[str, list[str]]):
        self.local, self.bases = local, bases
        self.modules = {path.stem for path in src.glob("*.py")}
        # the package exports each name of its _EXPORTS table from that submodule
        package = ast.parse((src / "__init__.py").read_text(encoding="utf-8"))
        table = next(ast.literal_eval(node.value) for node in package.body
                     if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_EXPORTS")
        self.exported = {name: module for module, names in table.items() for name in names}

    def bind(self, path: Path, tree: ast.Module) -> None:
        """Bind the names path imports or defines at top level to ("module",
        stem), ("package", None), ("name", key) or ("outside", None)."""
        in_src = path.stem in self.modules and path.parent.name == "divtim"
        self.binding: dict[str, tuple] = {}
        self.owner: dict[int, str] = {}      # node id -> enclosing class, for self calls
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    self.binding[alias.asname or top] = (
                        ("module", alias.name.split(".")[1]) if alias.asname
                        and alias.name.startswith("divtim.") else
                        ("package", None) if top == "divtim" else ("outside", None))
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                ours = node.level > 0 or module.split(".")[0] == "divtim"
                stem = module.split(".")[-1] if module not in ("", "divtim") else None
                for alias in node.names:
                    name = alias.asname or alias.name
                    if not ours:
                        self.binding[name] = ("outside", None)
                    elif stem is None and alias.name in self.modules:
                        self.binding[name] = ("module", alias.name)
                    else:
                        self.binding[name] = ("name", (stem or self.exported.get(alias.name),
                                                       alias.name))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.binding[node.name] = ("name", (path.stem, node.name)) if in_src else (
                    "outside", None)
            if in_src and isinstance(node, ast.ClassDef):
                self.owner.update((id(sub), node.name) for sub in ast.walk(node))
        self._type_names(tree)

    def _type_names(self, tree: ast.Module) -> None:
        """Map every node to its innermost scope (module, function or lambda)
        and give each name a scope binds the package class of all its bindings."""
        self.scope: dict[int, int] = {}
        self.parent: dict[int, int | None] = {}
        for holder in ast.walk(tree):
            if isinstance(holder, (ast.Module, ast.FunctionDef, ast.Lambda)):
                self.parent[id(holder)] = self.scope.get(id(holder))
                self.scope.update((id(sub), id(holder)) for sub in ast.walk(holder)
                                  if sub is not holder)
        assigned = {id(node.targets[0]): self._constructed(node.value) for node in ast.walk(tree)
                    if isinstance(node, ast.Assign) and len(node.targets) == 1}
        assigned.update((id(node.target), self._annotated(node.annotation))
                        for node in ast.walk(tree) if isinstance(node, ast.AnnAssign))
        self.kinds: dict[tuple[int, str], set] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound = node.id, assigned.get(id(node))
            elif isinstance(node, ast.arg):
                bound = node.arg, self._annotated(node.annotation)
            else:
                continue
            self.kinds.setdefault((self.scope[id(node)], bound[0]), set()).add(bound[1])

    def _annotated(self, note) -> str | None:
        name = ast.unparse(note).strip("'\"").rpartition(".")[2] if note is not None else ""
        return name if name in self.local else None

    def _constructed(self, value) -> str | None:
        func = getattr(value, "func", None)
        if isinstance(func, ast.Name) or (isinstance(func, ast.Attribute)
                                          and self._module(func.value)):
            for module, name in self.resolve(value, set()):
                if self.local.get(name) == module:
                    return name
        return None

    def _type_of(self, receiver) -> str | None:
        """The package class of a name receiver, if its scope binds it to one."""
        if not isinstance(receiver, ast.Name):
            return None
        scope = self.scope.get(id(receiver))
        while scope is not None and (scope, receiver.id) not in self.kinds:
            scope = self.parent[scope]
        classes = self.kinds.get((scope, receiver.id), {None})
        return next(iter(classes)) if len(classes) == 1 else None

    def _ancestors(self, cls: str) -> list[str]:
        up = [b for b in self.bases.get(cls, []) if b in self.local]
        return up + [a for b in up for a in self._ancestors(b)]

    def _family(self, cls: str) -> set[str]:
        return {cls, *self._ancestors(cls), *(c for c in self.local if cls in self._ancestors(c))}

    def _module(self, node) -> str | None:
        if isinstance(node, ast.Name):
            kind, value = self.binding.get(node.id, (None, None))
            return value if kind == "module" else "divtim" if kind == "package" else None
        if (isinstance(node, ast.Attribute) and self._module(node.value) == "divtim"
                and node.attr in self.modules):
            return node.attr
        return None

    def resolve(self, call: ast.Call, every: set) -> set:
        func = call.func
        if isinstance(func, ast.Name):
            kind, value = self.binding.get(func.id, (None, None))
            if kind == "name":
                return {value}
            return set() if kind else {key for key in every if key[1] == func.id
                                       and key[0] in self.modules}
        if not isinstance(func, ast.Attribute):
            return set()
        receiver, name = func.value, func.attr
        module = self._module(receiver)
        if module == "divtim":
            return {(self.exported.get(name), name)}
        if module is not None:
            return {(module, name)}
        typed = self._type_of(receiver) or self._constructed(receiver)
        if typed:
            return {(c, name) for c in self._family(typed)}
        kind, value = self.binding.get(getattr(receiver, "id", ""), (None, None))
        if kind == "name" and value[1] in self.local:
            return {(c, name) for c in [value[1], *self._ancestors(value[1])]}
        if kind:
            return set()                      # a class or module from outside the package
        cls = self.owner.get(id(call))
        if cls and isinstance(receiver, ast.Name) and receiver.id == "self":
            return {(c, name) for c in self._family(cls)}
        if cls and isinstance(receiver, ast.Call) and getattr(receiver.func, "id", "") == "super":
            return {(self.local[c], c) if name == "__init__" else (c, name)
                    for c in self._ancestors(cls)}
        return {key for key in every if key[1] == name and key[0] in self.local}


def _package_classes(src: Path) -> tuple[dict[str, str], dict[str, list[str]]]:
    """class -> its module, and class -> its base names, over the package."""
    local, bases = {}, {}
    for path in src.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                local[node.name] = path.stem
                bases[node.name] = [ast.unparse(base) for base in node.bases]
    return local, bases


def test_call_resolver_types_receivers():
    src = Path(divtim.__file__).parent
    resolver = _CallResolver(src, *_package_classes(src))
    tree = ast.parse("from divtim.sampler import RRStream\n"
                     "from divtim import diversity\n"
                     "def f(g, d: diversity.DiversityFunction):\n"
                     "    rr = RRStream(g)\n"
                     "    x = rr if g else d\n"
                     "    rr.value(); d.value(); RRStream(g).value(); x.value()\n")
    resolver.bind(Path("probe.py"), tree)
    every = {("RRStream", "sets"), ("Coverage", "value"), ("DiversityFunction", "value"),
             ("RRCorpus", "value"), ("diversity", "value")}
    reached = {ast.unparse(node.func.value): resolver.resolve(node, every) & every
               for node in ast.walk(tree) if isinstance(node, ast.Call)
               and getattr(node.func, "attr", "") == "value"}
    # typed by assignment, by annotation and by construction; x falls back to the name
    assert reached == {"rr": set(), "RRStream(g)": set(),
                       "d": {("Coverage", "value"), ("DiversityFunction", "value")},
                       "x": {("Coverage", "value"), ("DiversityFunction", "value"),
                             ("RRCorpus", "value")}}


def test_every_parameter_is_set_by_a_program():
    # a parameter exists only if a program call passes it, and a default only
    # if a program call leaves it out; calls resolve as _CallResolver says
    src = Path(divtim.__file__).parent
    root = src.parent.parent
    local, bases = _package_classes(src)
    defined: dict[tuple[str, str], list] = {}
    for path in src.glob("*.py"):
        for key, entries in _signatures(path, local).items():
            defined.setdefault(key, []).extend(entries)
    resolver, keys = _CallResolver(src, local, bases), set(defined)
    calls: dict[tuple, list] = {}   # key -> [(positional count, None if starred; keywords)]
    escaped: set[tuple] = set()     # functions passed around as values: callers unseen
    for path in (*src.glob("*.py"), *root.glob("scripts/*.py"), *root.glob("perfbench/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        resolver.bind(path, tree)
        called = {id(node) for holder in ast.walk(tree)      # a type annotation calls nothing
                  for note in (getattr(holder, "annotation", None), getattr(holder, "returns", None))
                  if note is not None for node in ast.walk(note)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                called.add(id(node.func))
                starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                keywords = {kw.arg for kw in node.keywords}   # None stands for **kwargs
                for key in resolver.resolve(node, keys):
                    calls.setdefault(key, []).append((None if starred else len(node.args),
                                                      keywords))
        escaped.update(resolver.binding[node.id][1] for node in ast.walk(tree)
                       if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                       and resolver.binding.get(node.id, ("",))[0] == "name"
                       and id(node) not in called)
    for module, entry in re.findall(r'= "divtim\.(\w+):(\w+)"',
                                    (root / "pyproject.toml").read_text(encoding="utf-8")):
        calls.setdefault((module, entry), []).append((0, set()))
    for key in defined:     # the import system calls a module's PEP 562 hook with the name
        if key[1] == "__getattr__":
            calls.setdefault(key, []).append((1, set()))
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
