"""Forward diffusion: Monte Carlo estimates and exact micro-graph oracles.

Both diffusion models are simulated through their live-edge form: a run
draws a deterministic subgraph (every edge independently for IC, at most
one incoming pick per node for LT) and activates everything reachable
from the seeds.  The exact oracle enumerates all live-edge outcomes and
is intentionally limited to micro instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ConfigError
from .graph import DiffusionGraph, TargetSet, reach
from .rng import phase_seed, stream
from .sampler import batch_size, check_model, live_edge_search

SIM_PHASE = 201

MAX_EXHAUSTIVE_EDGES = 20
MAX_EXHAUSTIVE_OUTCOMES = 2_000_000


@dataclass
class SimulationReport:
    runs: int
    mean_spread: float
    mean_capital: float
    stderr_spread: float
    stderr_capital: float


def simulate(graph: DiffusionGraph, model: str, seeds, runs: int,
             master_seed: int, targets: TargetSet | None = None) -> SimulationReport:
    """Estimate expected spread and capital over independent runs.

    Runs are drawn in full batches of ``batch_size(n)`` by the live-edge
    kernel; batch b draws from the stream keyed by (master seed, simulation
    phase, b), so a report is reproducible and its first m runs are those
    of an m-run report.
    """
    seeds = sorted({int(v) for v in seeds})
    if not seeds:
        raise ConfigError("seed set must be non-empty")
    if runs < 1:
        raise ConfigError("need at least one run")
    check_model(graph, model)

    target_score = np.zeros(graph.node_count, dtype=np.float64)
    if targets is not None:
        target_score[targets.members] = graph.t[targets.members]

    n, size = graph.node_count, batch_size(graph.node_count)
    base = phase_seed(master_seed, SIM_PHASE)
    start = (np.arange(size)[:, None] * n + seeds).ravel()
    spreads, capitals = [], []
    for b in range(-(-runs // size)):
        run, node = np.divmod(live_edge_search(graph, model, True, size, start,
                                               stream(base, b)), n)
        spreads.append(np.bincount(run, minlength=size))
        capitals.append(np.bincount(run, weights=target_score[node], minlength=size))
    spreads = np.concatenate(spreads)[:runs]
    capitals = np.concatenate(capitals)[:runs]
    return SimulationReport(
        runs=runs,
        mean_spread=float(spreads.mean()),
        mean_capital=float(capitals.mean()),
        stderr_spread=float(spreads.std(ddof=1) / math.sqrt(runs)) if runs > 1 else 0.0,
        stderr_capital=float(capitals.std(ddof=1) / math.sqrt(runs)) if runs > 1 else 0.0,
    )


def exhaustive_expectation(graph: DiffusionGraph, model: str, seeds,
                           targets: TargetSet | None = None) -> tuple[float, float]:
    """Exact expected (spread, capital) by enumerating live-edge outcomes.

    Refuses instances whose outcome space exceeds the module limits; this
    is a correctness oracle, not a production estimator.
    """
    seeds = sorted({int(v) for v in seeds})
    if not seeds:
        raise ConfigError("seed set must be non-empty")
    check_model(graph, model)
    target_score = np.zeros(graph.node_count, dtype=np.float64)
    if targets is not None:
        target_score[targets.members] = graph.t[targets.members]

    if model == "ic":
        m = graph.edge_count
        if m > MAX_EXHAUSTIVE_EDGES:
            raise ConfigError(f"exhaustive ic enumeration limited to {MAX_EXHAUSTIVE_EDGES} edges")

        # out-CSR edge order; probability of a pattern is the product over edges
        def outcomes():
            ptr, heads, _ = graph.out_lists
            probs = graph.out_probs
            for mask in range(1 << m):
                bits = np.array([(mask >> i) & 1 == 1 for i in range(m)], dtype=bool)
                yield (float(np.prod(np.where(bits, probs, 1.0 - probs))),
                       lambda x, mask=mask: [heads[i] for i in range(ptr[x], ptr[x + 1])
                                             if (mask >> i) & 1])
    else:
        choice_lists = []
        count = 1
        for v in range(graph.node_count):
            lo, hi = graph.in_indptr[v], graph.in_indptr[v + 1]
            opts = [(int(graph.in_indices[i]), float(graph.in_probs[i])) for i in range(lo, hi)]
            none_p = 1.0 - sum(p for _, p in opts)
            opts.append((-1, none_p))
            choice_lists.append(opts)
            count *= len(opts)
            if count > MAX_EXHAUSTIVE_OUTCOMES:
                raise ConfigError("exhaustive lt enumeration: too many trigger combinations")

        # each node's trigger pick; edge x -> v is live iff v picked x
        def outcomes():
            ptr, heads, _ = graph.out_lists
            for combo in product(*choice_lists):
                p = 1.0
                for _, cp in combo:
                    p *= cp
                yield p, lambda x, pick=[u for u, _ in combo]: [
                    v for v in heads[ptr[x]:ptr[x + 1]] if pick[v] == x]

    exp_spread = 0.0
    exp_capital = 0.0
    for p, live in outcomes():
        if p == 0.0:
            continue
        active = sorted(reach(graph.node_count, seeds, live))
        exp_spread += p * len(active)
        exp_capital += p * target_score[active].sum()
    return exp_spread, exp_capital
