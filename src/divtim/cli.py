"""Command-line front end: select | simulate | baseline | metrics | synth.

Runs are configured by flags or by a flat ``key=value`` file (flags win).
Every output document embeds the resolved configuration, and a run is
fully determined by its inputs plus the master seed; only lines starting
with ``timing`` vary between repeated runs.

Exit codes: 0 ok, 1 usage error, 2 data/configuration error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import baselines, diversity, estimator, metrics, profiles, sampler, selector, simulator
from .errors import ConfigError, FormatError, UsageError
from .graph import (WEIGHT_MODES, DiffusionGraph, derive_targets_indegree, load_graph,
                    load_node_weights, select_targets)
from .textio import data_lines, node_rows

DIVERSITY_KINDS = ("aw", "hamming", "entropy", "class", "numeric-u", "numeric-w")

METRIC_COLUMNS = [
    "dataset", "diversity", "k", "alpha", "target_mode", "target_param",
    "master_seed", "theta", "expected_capital", "diversity_value", "objective",
    "diversity_max", "diversity_ratio", "seed_entropy", "seeds",
]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse failures to exit code 1
        raise UsageError(message)


def _read_config_file(source) -> dict[str, str]:
    out: dict[str, str] = {}
    first: dict[str, int] = {}
    for lineno, line in data_lines(source):
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if first.setdefault(key, lineno) != lineno:
            raise UsageError(f"config lines {first[key]} and {lineno}: key {key!r} given twice")
        out[key] = value.strip()
    return out


def _config_defaults(parser: _Parser, path: str) -> dict:
    """The config file as parser defaults; keys are the long flag names but ``config``.

    argparse converts a string default through the flag's type, so ``k=5``
    in a file behaves exactly like ``--k 5`` and an explicit flag still wins.
    """
    actions = {a.dest.replace("_", "-"): a for a in parser._actions
               if a.option_strings and a.dest not in ("help", "config")}
    conf = _read_config_file(path)
    unknown = sorted(set(conf) - set(actions))
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    defaults = {}
    for key, value in conf.items():
        action = actions[key]
        if action.choices and value not in action.choices:
            raise UsageError(f"config key {key}: {value!r} not in {sorted(action.choices)}")
        defaults[action.dest] = value
    return defaults


def _load_graph_from_args(args) -> DiffusionGraph:
    if not args.graph:
        raise UsageError("a graph path is required")
    return load_graph(args.graph, args.weight_mode)


def _targets_from_args(args):
    """The graph with its target scores, the target set and the value that
    chose it (tau or percent)."""
    if args.node_weights and args.derive_targets == "indegree":
        raise UsageError("give either --node-weights or --derive-targets indegree, not both")
    g = _load_graph_from_args(args)
    if args.node_weights:
        g = load_node_weights(g, args.node_weights)
    if args.derive_targets == "indegree":
        g = derive_targets_indegree(g)
    if args.target_mode == "threshold":
        return g, select_targets(g, "threshold", tau=args.tau), args.tau
    return g, select_targets(g, "top_percent", percent=args.percent), args.percent


def _load_preferences(path: str, graph: DiffusionGraph) -> np.ndarray:
    """The numeric CSV at path as per-node preference rows; an empty cell reads 0."""
    mat, _ = profiles.load_numeric_matrix(path, graph.labels)
    return profiles.derive_numeric_preferences(np.nan_to_num(mat))


def _build_diversity(graph, profile_set, args):
    kind = args.diversity
    if kind in ("aw", "hamming", "entropy") and profile_set is None:
        raise ConfigError(f"{kind} diversity needs --profiles")
    if kind == "aw":
        return diversity.AttributeWiseDiversity(profile_set, lam=args.lam)
    if kind == "hamming":
        return diversity.HammingBallDiversity(graph, profile_set, radius=args.xi)
    if kind == "entropy":
        return diversity.EntropyDiversity(profile_set)
    if kind == "class":
        if not args.class_map:
            raise ConfigError("class diversity needs --class-map")
        classes, rewards = diversity.load_class_map(args.class_map, graph.labels)
        if (classes < 0).any():
            unlisted = graph.labels[int(np.argmax(classes < 0))]
            raise ConfigError(f"class map assigns no class to node {unlisted!r}")
        return diversity.ClassDiversity(classes, rewards)
    if not args.preferences:
        raise ConfigError("numeric diversity needs --preferences")
    g_mode = {"numeric-u": "unit", "numeric-w": "degree"}[kind]
    return diversity.NumericDiversity(_load_preferences(args.preferences, graph),
                                      baselines.node_gain_vector(graph, g_mode))


def _cast(token: str, cast):
    try:
        return cast(token)
    except ValueError:
        raise UsageError(f"bad value {token!r}: expected {cast.__name__}") from None


def _parse_list(text: str, cast) -> list:
    items = [tok.strip() for tok in str(text).split(",")]
    if not any(items):
        raise UsageError("empty value list")
    if "" in items:
        raise UsageError(f"empty item {items.index('') + 1} in value list {text!r}")
    return [_cast(tok, cast) for tok in items]


def _grid_list(flag: str, text: str, cast) -> tuple[list[str], list]:
    """A grid flag's tokens and their values; a value given twice is a usage error."""
    tokens = _parse_list(text, str)
    values = [_cast(tok, cast) for tok in tokens]
    for i, value in enumerate(values):
        if value in values[:i]:
            raise UsageError(f"--{flag} value {value!r} given twice "
                             f"({tokens[values.index(value)]!r} and {tokens[i]!r})")
    return tokens, values


def _result_doc(res: selector.SeedResult, labels, config_pairs, extra) -> str:
    lines = ["# seed selection result"]
    for key in sorted(config_pairs):
        lines.append(f"config.{key}: {config_pairs[key]}")
    for key, value in extra.items():
        lines.append(f"{key}: {value}")
    lines.append(f"theta: {res.theta}")
    lines.append(f"target_total: {res.target_total!r}")
    lines.append(f"expected_capital: {res.expected_capital!r}")
    lines.append(f"diversity_value: {res.diversity_value!r}")
    if res.diversity_max is not None:
        lines.append(f"diversity_max: {res.diversity_max!r}")
    lines.append(f"objective: {res.objective()!r}")
    lines.append("seeds: " + " ".join(labels[v] for v in res.seeds))
    lines.append("seed_ids: " + " ".join(str(v) for v in res.seeds))
    lines.append("trace:")
    for i, step in enumerate(res.trace, start=1):
        lines.append(f"  {i} {labels[step.node]} {step.capital_gain!r} "
                     f"{step.diversity_gain!r} {step.combined_gain!r}")
    lines.append(f"timing_seconds: {res.timing_seconds:.3f}")
    return "\n".join(lines) + "\n"


def parse_result_doc(path: str) -> dict:
    """Read back a result document into a flat dict (trace excluded)."""
    out: dict[str, str] = {}
    in_trace = False
    for _, line in data_lines(path):
        # the trace: line and the steps under it, each "iter node gains..."
        in_trace = line == "trace:" or in_trace and line[0].isdigit()
        if in_trace:
            continue
        if ": " in line:
            key, _, value = line.partition(": ")
            out[key] = value
        elif line.endswith(":"):
            out[line[:-1]] = ""
    return out


def _doc_number(path: str, doc: dict[str, str], key: str) -> float:
    try:
        return float(doc.get(key, ""))
    except ValueError:
        raise FormatError(f"{path}: {key} is not a number: {doc.get(key, '')!r}") from None


def _metrics_row(path: str, doc: dict[str, str]) -> dict[str, str]:
    """One metrics.csv row from the result document parsed from path."""
    row = {col: doc.get(col, "") for col in METRIC_COLUMNS}
    for col in ("diversity", "k", "alpha", "target_mode", "target_param"):
        row[col] = doc.get(f"config.{col}", "")
    row["dataset"] = os.path.basename(doc.get("config.graph", ""))
    row["master_seed"] = doc.get("config.seed", "")
    peak = _doc_number(path, doc, "diversity_max") if row["diversity_max"] else 0.0
    row["diversity_ratio"] = (repr(_doc_number(path, doc, "diversity_value") / peak)
                              if peak > 0 else "")
    return row


def _write_metrics(path: str, rows: list[dict[str, str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=METRIC_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------- select

def _add_graph_flags(p: _Parser) -> None:
    p.add_argument("--config", default="")
    p.add_argument("--graph")
    p.add_argument("--weight-mode", choices=WEIGHT_MODES, default="uniform_indegree")


def _add_target_flags(p: _Parser) -> None:
    """The graph flags plus target scores, target set and diffusion model."""
    _add_graph_flags(p)
    p.add_argument("--node-weights", default="")
    p.add_argument("--derive-targets", choices=("none", "indegree"), default="none")
    p.add_argument("--target-mode", choices=("threshold", "top_percent"), default="top_percent")
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--percent", type=float, default=25.0)
    p.add_argument("--model", choices=sampler.MODELS, default="ic")


def _select_parser(sub) -> _Parser:
    p = sub.add_parser("select", help="run estimation, sampling, and seed selection")
    _add_target_flags(p)
    p.add_argument("--profiles", default="")
    p.add_argument("--numeric-profiles", default="",
                   help="CSV of reals, quantile-binned into categorical profiles")
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--class-map", default="")
    p.add_argument("--preferences", default="")
    p.add_argument("--diversity", choices=DIVERSITY_KINDS, default="aw")
    p.add_argument("--xi", type=int, default=3)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--k", default="10")
    p.add_argument("--alpha", default="0.5")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--ell", type=float, default=1.0)
    p.add_argument("--theta-override", type=int)
    p.add_argument("--theta-cap", type=int, default=estimator.DEFAULT_THETA_CAP)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, help="accepted for compatibility; no effect")
    p.add_argument("--jobs", type=int, help="accepted for compatibility; no effect")
    p.add_argument("--dump-corpus", default="")
    p.add_argument("--out")
    return p


# Settings echoed as config.* lines in every result document.
CONFIG_KEYS = ("graph", "weight_mode", "node_weights", "derive_targets", "target_mode",
               "profiles", "numeric_profiles", "bins", "class_map", "preferences",
               "diversity", "xi", "lam", "model", "epsilon", "ell", "theta_override",
               "theta_cap", "seed")


def cmd_select(args) -> int:
    if not args.out:
        raise UsageError("select needs --out DIR")
    graph, targets, target_param = _targets_from_args(args)
    _, ks = _grid_list("k", args.k, int)
    alpha_tokens, alphas = _grid_list("alpha", args.alpha, float)
    if not all(0.0 <= alpha <= 1.0 for alpha in alphas):
        raise ConfigError("alpha must lie in [0, 1]")

    profile_set = None
    if args.profiles and args.numeric_profiles:
        raise UsageError("give either --profiles or --numeric-profiles, not both")
    if args.profiles:
        profile_set = profiles.load_profiles(args.profiles, node_labels=graph.labels)
    elif args.numeric_profiles:
        mat, names = profiles.load_numeric_matrix(args.numeric_profiles, graph.labels)
        profile_set = profiles.quantile_discretize(mat, args.bins, names)
    # One diversity function serves the whole grid; reset() clears its
    # selection but keeps what it built (hamming balls).
    div = _build_diversity(graph, profile_set, args)

    config_pairs = {key: getattr(args, key) for key in CONFIG_KEYS}
    config_pairs["target_param"] = target_param

    # Every k reads one KPT and one refinement stream, so no batch is drawn twice.
    streams = [sampler.RRStream(graph, targets, args.model, args.seed, phase)
               for phase in (estimator.KPT_PHASE, estimator.REFINE_PHASE)]
    params = {k: estimator.estimate_params(
        graph, targets, args.model, k, epsilon=args.epsilon, ell=args.ell,
        master_seed=args.seed, theta_override=args.theta_override, theta_cap=args.theta_cap,
        streams=streams)
        for k in ks}
    del streams     # the estimation sets are not read past here
    os.makedirs(args.out, exist_ok=True)
    # One corpus serves every k: the first theta_k sets are the theta_k-set corpus.
    full = sampler.generate_corpus(graph, targets, args.model,
                                   max(p.theta for p in params.values()), args.seed)
    rows = []
    for k in ks:
        corpus = full.prefix(params[k].theta)
        if args.dump_corpus and k == ks[-1]:
            corpus.dump(args.dump_corpus)

        for alpha_token, alpha in zip(alpha_tokens, alphas):
            div.reset()
            res = selector.build_seed_set(corpus, k, alpha, div)
            extra = {} if params[k].kpt_star is None else {
                "kpt_star": repr(params[k].kpt_star), "kpt_plus": repr(params[k].kpt_plus)}
            extra["corpus_width"] = corpus.total_width
            if profile_set is not None and res.seeds:
                extra["seed_entropy"] = repr(metrics.seed_entropy(res.seeds, profile_set))
            if res.diversity_max is not None:
                extra["objective_normalized"] = repr(res.objective(normalize=True))
            pairs = dict(config_pairs, k=k, alpha=alpha_token)
            path = os.path.join(args.out, f"seeds_k{k}_a{alpha_token}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_result_doc(res, graph.labels, pairs, extra))
            rows.append(_metrics_row(path, parse_result_doc(path)))
    _write_metrics(os.path.join(args.out, "metrics.csv"), rows)
    return 0


# -------------------------------------------------------------------- simulate

def _simulate_parser(sub) -> _Parser:
    p = sub.add_parser("simulate", help="Monte Carlo forward diffusion for a seed set")
    _add_target_flags(p)
    p.add_argument("--seeds", help="comma-separated node labels")
    p.add_argument("--seeds-file", help="file with one node label per line")
    p.add_argument("--from-result", help="read the seeds line of a result document")
    p.add_argument("--runs", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="append a CSV row here instead of printing text")
    return p


def cmd_simulate(args) -> int:
    given = [flag for flag, value in (("--seeds", args.seeds), ("--seeds-file", args.seeds_file),
                                      ("--from-result", args.from_result)) if value]
    if len(given) > 1:
        raise UsageError(f"give one of --seeds, --seeds-file or --from-result, "
                         f"not {' and '.join(given)}")
    graph, targets, target_param = _targets_from_args(args)
    if args.seeds:
        listed, where = enumerate(_parse_list(args.seeds, str), start=1), "seed"
    elif args.seeds_file:
        listed, where = data_lines(args.seeds_file), "seeds file line"
    elif args.from_result:
        seeds = parse_result_doc(args.from_result).get("seeds", "").split()
        listed, where = enumerate(seeds, start=1), "result seed"
    else:
        raise UsageError("provide --seeds, --seeds-file, or --from-result")
    seed_ids = [v for _, v, _ in node_rows(((at, [label]) for at, label in listed),
                                           graph.label_ids, where)]
    labels = [graph.labels[v] for v in seed_ids]
    report = simulator.simulate(graph, args.model, seed_ids, args.runs, args.seed,
                                targets=targets)
    if args.out:
        new = not os.path.exists(args.out)
        with open(args.out, "a", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            if new:
                writer.writerow(["dataset", "target_mode", "target_param", "runs",
                                 "mean_spread", "stderr_spread", "mean_capital",
                                 "stderr_capital", "seeds"])
            writer.writerow([os.path.basename(args.graph), args.target_mode, target_param,
                             report.runs, repr(report.mean_spread), repr(report.stderr_spread),
                             repr(report.mean_capital), repr(report.stderr_capital),
                             " ".join(labels)])
    else:
        print(f"runs: {report.runs}")
        print(f"mean_spread: {report.mean_spread!r}")
        print(f"stderr_spread: {report.stderr_spread!r}")
        print(f"mean_capital: {report.mean_capital!r}")
        print(f"stderr_capital: {report.stderr_capital!r}")
    return 0


# -------------------------------------------------------------------- baseline

def _baseline_parser(sub) -> _Parser:
    p = sub.add_parser("baseline", help="degree/diversity greedy baseline")
    p.add_argument("kind", choices=("deg-d",))
    _add_graph_flags(p)
    p.add_argument("--preferences", default="",
                   help="CSV of per-node numeric preference vectors")
    p.add_argument("--g-mode", choices=baselines.G_MODES, default="unit")
    p.add_argument("--gamma", type=float)
    p.add_argument("--alpha", type=float, help="alternative parameterization, gamma = 1 - alpha")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out")
    return p


def cmd_baseline(args) -> int:
    if args.gamma is not None and args.alpha is not None:
        raise UsageError("give either --gamma or --alpha, not both")
    graph = _load_graph_from_args(args)
    if not args.preferences:
        raise UsageError("baseline needs --preferences")
    prefs = _load_preferences(args.preferences, graph)
    gamma = args.gamma if args.gamma is not None else \
        1.0 - args.alpha if args.alpha is not None else 0.5
    seeds = baselines.deg_d_greedy(graph, prefs, args.g_mode, gamma, args.k)
    lines = [graph.labels[v] for v in seeds]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        print("\n".join(lines))
    return 0


# --------------------------------------------------------------------- metrics

def _metrics_parser(sub) -> _Parser:
    p = sub.add_parser("metrics", help="aggregate result documents into one CSV")
    p.add_argument("--results", required=True, help="directory of result documents")
    p.add_argument("--out", required=True)
    return p


def cmd_metrics(args) -> int:
    paths = (os.path.join(args.results, name)
             for name in sorted(os.listdir(args.results)) if name.endswith(".txt"))
    docs = {path: parse_result_doc(path) for path in paths}
    _write_metrics(args.out, [_metrics_row(path, doc) for path, doc in docs.items()
                              if "seeds" in doc and "expected_capital" in doc])
    return 0


# ----------------------------------------------------------------------- synth

def _synth_parser(sub) -> _Parser:
    p = sub.add_parser("synth", help="generate synthetic categorical profiles")
    p.add_argument("--config", default="")
    p.add_argument("--nodes", type=int)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--domain-sizes", default="10")
    p.add_argument("--distribution", choices=("uniform", "exponential"), default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    return p


def cmd_synth(args) -> int:
    # checked here, not by argparse, so a config file can give them
    for flag in ("nodes", "out"):
        if getattr(args, flag) is None:
            raise UsageError(f"synth needs --{flag}")
    sizes = _parse_list(args.domain_sizes, int)
    pset = profiles.synth_profiles(args.nodes, args.m,
                                   sizes * args.m if len(sizes) == 1 else sizes,
                                   args.distribution, seed=args.seed)
    profiles.save_profiles(pset, args.out)
    return 0


_COMMANDS = {
    "select": (_select_parser, cmd_select),
    "simulate": (_simulate_parser, cmd_simulate),
    "baseline": (_baseline_parser, cmd_baseline),
    "metrics": (_metrics_parser, cmd_metrics),
    "synth": (_synth_parser, cmd_synth),
}


def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and its subcommand parsers by name."""
    parser = _Parser(prog="divtim",
                     description="diversity-sensitive targeted influence maximization")
    sub = parser.add_subparsers(dest="command", required=True)
    return parser, {name: add(sub) for name, (add, _) in _COMMANDS.items()}


def run(argv: list[str] | None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", ""):
        command = commands[args.command]
        command.set_defaults(**_config_defaults(command, args.config))
        args = parser.parse_args(argv)
    return _COMMANDS[args.command][1](args)


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
