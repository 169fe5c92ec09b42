"""Fuzz the CLI's input files: every run ends in exit 0, 1 or 2, never a traceback."""

import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from divtim.cli import DIVERSITY_KINDS, main

VALID = {
    "edges": "a b 0.5\nb c 0.5\nc a 0.5\n",
    "weights": "a 0.5\nb 1\n",
    "profiles": "node,x,y\na,1,2\nb,2,1\nc,1,1\n",
    "numeric": "node,p,q\na,0.1,0.9\nb,0.7,0.3\nc,0.5,0.5\n",
    "classes": "a red\nb blue 2\n",
    "config": "seed=3\n",
}
COMMANDS = ("select-profiles", "select-numeric", "baseline", "synth")


# Characters that carry structure in the input formats.
STRUCTURE = "\n\r\t ,.-+=#:\"abcnodexyzinf0123456789\x00"


def _content(name):
    """A valid file, one with a span replaced by structural junk, or noise."""
    valid = VALID[name]
    cut = st.integers(0, len(valid))
    spliced = st.builds(lambda i, j, junk: valid[:i] + junk + valid[j:],
                        cut, cut, st.text(alphabet=STRUCTURE, max_size=12))
    return st.one_of(st.just(valid), spliced, st.text(max_size=80), st.binary(max_size=80))


def _argv(command: str, diversity: str, nodes: int, d: Path) -> list[str]:
    edges = ["--graph", str(d / "edges"), "--weight-mode", "explicit"]
    graph = [*edges, "--node-weights", str(d / "weights"), "--config", str(d / "config")]
    select = ["select", *graph, "--diversity", diversity, "--class-map", str(d / "classes"),
              "--preferences", str(d / "numeric"), "--k", "2", "--alpha", "0,0.5",
              "--theta-override", "30", "--dump-corpus", str(d / "corpus"),
              "--out", str(d / "out")]
    return {
        "select-profiles": [*select, "--profiles", str(d / "profiles")],
        "select-numeric": [*select, "--numeric-profiles", str(d / "numeric"), "--bins", "2"],
        "baseline": ["baseline", "deg-d", *edges, "--preferences", str(d / "numeric"),
                     "--k", "2", "--out", str(d / "baseline")],
        "synth": ["synth", "--config", str(d / "config"), "--nodes", str(nodes), "--m", "2",
                  "--out", str(d / "synth")],
    }[command]


# One or two files replaced per run, the rest valid, so runs get past the
# first loader.
REPLACED = st.lists(st.sampled_from(sorted(VALID)).flatmap(
    lambda name: st.tuples(st.just(name), _content(name))), min_size=1, max_size=2)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(replaced=REPLACED, command=st.sampled_from(COMMANDS),
       diversity=st.sampled_from(DIVERSITY_KINDS), nodes=st.integers(-2, 3))
@example(replaced=[("numeric", "p,q\n0.1,0.9\n0.7,0.3,0.5\n0.2,0.2\n")],
         command="select-numeric", diversity="aw", nodes=1)
@example(replaced=[("edges", b"a b 0.5\n\xff\xfe c 0.5\n")],
         command="select-profiles", diversity="aw", nodes=1)
@example(replaced=[], command="synth", diversity="aw", nodes=-1)
@example(replaced=[("profiles", "node,x,y\na,1,2\n\nb,2,1\n")],
         command="select-profiles", diversity="aw", nodes=1)
@example(replaced=[("profiles", "node,x,y\n")], command="select-profiles", diversity="aw",
         nodes=1)
@example(replaced=[("profiles", "node,x,y\n")], command="select-profiles",
         diversity="entropy", nodes=1)
def test_fuzzed_input_files_exit_cleanly(replaced, command, diversity, nodes):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, content in dict(VALID, **dict(replaced)).items():
            if isinstance(content, str):
                (d / name).write_text(content, encoding="utf-8")
            else:
                (d / name).write_bytes(content)
        assert main(_argv(command, diversity, nodes, d)) in (0, 1, 2)
