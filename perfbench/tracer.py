"""Outside-in tracer for one divtim CLI command.

Run as ``python3 perfbench/tracer.py OUT.json -- <divtim argv>``: installs
wrappers on the module attributes through which the CLI and the layers
call each other, runs ``divtim.cli.main(argv)`` in this process, and
writes the raw spans and counters to OUT.json.  ``derive_metrics`` turns
the records of one or more such runs into the per-layer metrics.

No file of the package is changed.  A wrapped attribute that is missing
(renamed or removed by a refactor) is listed under ``absent`` and the run
goes on; the metrics that depend on it then read 0 and are reported as
absent by the caller.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name): calls timed as spans.
SPANNED = [
    ("divtim.cli", "load_graph", "graph.load"),
    ("divtim.cli", "load_node_weights", "graph.node_weights"),
    ("divtim.cli", "select_targets", "graph.targets"),
    ("divtim.profiles", "load_profiles", "profiles.load"),
    ("divtim.estimator", "estimate_params", "estimator.estimate"),
    ("divtim.estimator", "kpt_estimation", "estimator.kpt"),
    ("divtim.estimator", "refine_kpt", "estimator.refine"),
    ("divtim.sampler", "generate_corpus", "sampler.corpus"),
    ("divtim.sampler", "RRCorpus", "sampler.index"),
    ("divtim.selector", "build_seed_set", "selector.greedy"),
    ("divtim.simulator", "simulate", "simulator.simulate"),
]

# (module, attribute, counter): per-set and per-stream calls, counted without spans.
COUNTED = [
    ("divtim.sampler", "generate_rr_set", "rr_sets"),
    ("divtim.estimator", "generate_rr_set", "rr_sets"),
    ("divtim.sampler", "stream", "streams"),
    ("divtim.estimator", "stream", "streams"),
    ("divtim.simulator", "stream", "streams"),
]

DIVERSITY_MODULE = "divtim.diversity"


def _deep_size(obj, seen: set) -> int:
    """Bytes held by obj and everything it references, each object once."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, np.ndarray):
        return size + (_deep_size(obj.base, seen) if obj.base is not None else 0)
    if isinstance(obj, dict):
        children = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        children = obj
    elif hasattr(obj, "__dict__"):
        children = [vars(obj)]
    else:
        return size
    return size + sum(_deep_size(child, seen) for child in children)


class _TimedDiversity:
    """Forwards everything to a diversity function, timing gain and commit."""

    def __init__(self, inner, tracer: "Tracer"):
        self._inner = inner
        self._tracer = tracer

    def gain(self, v):
        start = time.perf_counter()
        try:
            return self._inner.gain(v)
        finally:
            self._tracer.accumulate("diversity.gain", time.perf_counter() - start)

    def commit(self, v):
        start = time.perf_counter()
        try:
            return self._inner.commit(v)
        finally:
            self._tracer.accumulate("diversity.commit", time.perf_counter() - start)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    """Spans (name, start, end, parent) and counters, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index or None]
        self._stack: list[int] = []
        # (what, innermost span name) -> [calls, seconds, amount]
        self.acc: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.extra: dict[str, float] = {}
        self.wrapped: list[str] = []
        self.absent: list[str] = []

    def _where(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else ""

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def accumulate(self, what: str, seconds: float = 0.0, amount: float = 0.0) -> None:
        slot = self.acc[(what, self._where())]
        slot[0] += 1
        slot[1] += seconds
        slot[2] += amount

    def _patch(self, module_name: str, attr: str, make_wrapper) -> None:
        label = f"{module_name}.{attr}"
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.absent.append(label)
            return
        setattr(module, attr, make_wrapper(original))
        self.wrapped.append(label)

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            self._observe(name, args, result)
            return result
        return wrapper

    def _counted(self, what: str, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            members = getattr(result, "members", None)
            self.accumulate(what, amount=len(members) if members is not None else 0)
            return result
        return wrapper

    def _diversity_factory(self, cls):
        def wrapper(*args, **kwargs):
            index = self.open("diversity.build")
            try:
                inner = cls(*args, **kwargs)
            finally:
                self.close(index)
            return _TimedDiversity(inner, self)
        return wrapper

    def _observe(self, name: str, args, result) -> None:
        """Record what a finished layer call produced (outside its span)."""
        if name == "estimator.estimate":
            self.accumulate("theta", amount=getattr(result, "theta", 0))
        elif name == "sampler.corpus" and "bytes_per_member" not in self.extra:
            width = getattr(result, "total_width", 0)
            if width:
                # A span of its own keeps the sizing walk out of cli.self_s.
                index = self.open("trace.sizing")
                self.extra["bytes_per_member"] = _deep_size(result, set()) / width
                self.close(index)
        elif name == "selector.greedy" and args:
            self.accumulate("greedy_nodes", amount=getattr(args[0], "n_nodes", 0))
        elif name == "simulator.simulate":
            self.accumulate("sim_runs", amount=getattr(result, "runs", 0))
            self.accumulate("sim_spread", amount=getattr(result, "mean_spread", 0.0))

    def install(self) -> None:
        for module_name, attr, name in SPANNED:
            self._patch(module_name, attr, lambda fn, name=name: self._spanned(name, fn))
        for module_name, attr, what in COUNTED:
            self._patch(module_name, attr, lambda fn, what=what: self._counted(what, fn))
        try:
            module = importlib.import_module(DIVERSITY_MODULE)
        except ImportError:
            self.absent.append(DIVERSITY_MODULE)
            return
        classes = [name for name, obj in vars(module).items()
                   if isinstance(obj, type) and obj.__module__ == DIVERSITY_MODULE
                   and hasattr(obj, "gain") and hasattr(obj, "commit")]
        if not classes:
            self.absent.append(f"{DIVERSITY_MODULE}.<classes with gain and commit>")
        for name in classes:
            self._patch(DIVERSITY_MODULE, name, self._diversity_factory)

    def records(self) -> dict:
        return {
            "spans": self.spans,
            "acc": [[what, where, *slot] for (what, where), slot in self.acc.items()],
            "extra": self.extra,
            "wrapped": self.wrapped,
            "absent": self.absent,
        }


def stream_micro_us(tracer: Tracer, reps: int = 400, batches: int = 5) -> float | None:
    """Median time, in microseconds, of one ``rng.stream`` plus one draw."""
    try:
        stream = importlib.import_module("divtim.rng").stream
    except (ImportError, AttributeError):
        tracer.absent.append("divtim.rng.stream")
        return None
    per_call = []
    for b in range(batches):
        start = time.perf_counter()
        for i in range(reps):
            stream(b, i).random()
        per_call.append((time.perf_counter() - start) / reps * 1e6)
    return statistics.median(per_call)


# Per-layer time metrics that do not contain one another; the largest of
# them names the layer that dominates a workload.
EXCLUSIVE_TIMES = [
    "graph.load_s", "graph.node_weights_s", "graph.targets_s", "profiles.load_s",
    "estimator.kpt_s", "estimator.refine_s", "sampler.corpus_s", "selector.self_s",
    "diversity.build_s", "diversity.gain_s", "diversity.commit_s",
    "simulator.simulate_s", "cli.self_s",
]


_COUNTER_METRICS = {
    "rr_sets": ["estimator.kpt_sets", "sampler.sets", "sampler.sets_per_s",
                "sampler.members", "sampler.mean_width"],
    "streams": ["rng.streams"],
}
_DIVERSITY_METRICS = ["selector.gain_calls", "selector.refreshes", "selector.self_s",
                      "diversity.build_s", "diversity.gain_s", "diversity.commit_s"]


def absent_metrics(absent: list[str]) -> list[str]:
    """Metrics that read 0 because an attribute they wrap is missing."""
    out: set[str] = set()
    for module_name, attr, name in SPANNED:
        if f"{module_name}.{attr}" in absent:
            out.add(f"{name}_s")
    for module_name, attr, what in COUNTED:
        if f"{module_name}.{attr}" in absent:
            out.update(_COUNTER_METRICS[what])
    if any(label.startswith(DIVERSITY_MODULE) for label in absent):
        out.update(_DIVERSITY_METRICS)
    if "divtim.rng.stream" in absent:
        out.add("rng.stream_us")
    return sorted(out)


def derive_metrics(runs: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the records of one or more traced commands."""
    span_s: dict[str, float] = defaultdict(float)
    acc: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
    cli_self = 0.0
    stream_us = []
    bytes_per_member = []
    for run in runs:
        spans = run["spans"]
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            span_s[name] += end - start
            if parent is not None:
                child_s[parent] += end - start
        cli_self += sum(end - start - child_s[i]
                        for i, (name, start, end, _) in enumerate(spans) if name == "cli")
        for what, where, calls, seconds, amount in run["acc"]:
            slot = acc[(what, where)]
            slot[0] += calls
            slot[1] += seconds
            slot[2] += amount
        if run.get("stream_us") is not None:
            stream_us.append(run["stream_us"])
        if "bytes_per_member" in run["extra"]:
            bytes_per_member.append(run["extra"]["bytes_per_member"])

    def total(what, where=None, field=0):
        return sum(slot[field] for (w, at), slot in acc.items()
                   if w == what and (where is None or at == where))

    def ratio(a, b):
        return a / b if b else 0.0

    sets = total("rr_sets")
    members = total("rr_sets", field=2)
    gain_s, commit_s = total("diversity.gain", field=1), total("diversity.commit", field=1)
    greedy_gain_s = total("diversity.gain", "selector.greedy", 1)
    greedy_commit_s = total("diversity.commit", "selector.greedy", 1)
    sim_calls = total("sim_runs")
    return {
        "graph.load_s": span_s["graph.load"],
        "graph.node_weights_s": span_s["graph.node_weights"],
        "graph.targets_s": span_s["graph.targets"],
        "profiles.load_s": span_s["profiles.load"],
        "estimator.estimate_s": span_s["estimator.estimate"],
        "estimator.kpt_s": span_s["estimator.kpt"],
        "estimator.refine_s": span_s["estimator.refine"],
        "estimator.kpt_sets": total("rr_sets", "estimator.kpt"),
        "estimator.theta": total("theta", field=2),
        "sampler.corpus_s": span_s["sampler.corpus"],
        "sampler.sets": sets,
        "sampler.sets_per_s": ratio(total("rr_sets", "sampler.corpus"), span_s["sampler.corpus"]),
        "sampler.members": members,
        "sampler.mean_width": ratio(members, sets),
        "sampler.index_s": span_s["sampler.index"],
        "sampler.bytes_per_member": statistics.median(bytes_per_member) if bytes_per_member else 0.0,
        "rng.streams": total("streams"),
        "rng.stream_us": statistics.median(stream_us) if stream_us else 0.0,
        "selector.greedy_s": span_s["selector.greedy"],
        "selector.gain_calls": total("diversity.gain", "selector.greedy"),
        "selector.refreshes": total("diversity.gain", "selector.greedy")
        - total("greedy_nodes", field=2),
        "selector.self_s": span_s["selector.greedy"] - greedy_gain_s - greedy_commit_s,
        "diversity.build_s": span_s["diversity.build"],
        "diversity.gain_s": gain_s,
        "diversity.commit_s": commit_s,
        "simulator.simulate_s": span_s["simulator.simulate"],
        "simulator.runs_per_s": ratio(total("sim_runs", field=2), span_s["simulator.simulate"]),
        "simulator.activations_per_run": ratio(total("sim_spread", field=2), sim_calls),
        "cli.self_s": cli_self,
    }


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py OUT.json -- <divtim argv>", file=sys.stderr)
        return 1
    out, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    import divtim.cli

    index = tracer.open("cli")
    try:
        code = divtim.cli.main(cli_argv)
    finally:
        tracer.close(index)
    stream_us = stream_micro_us(tracer)
    records = tracer.records()
    records["stream_us"] = stream_us
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(records, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
