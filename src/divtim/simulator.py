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
from .sampler import check_model, ic_live, lt_trigger

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


def _lt_forward_live(graph: DiffusionGraph, trigger_of):
    """Linear threshold, forward: edge x -> v is live iff v's trigger is x."""
    ptr, heads, _ = graph.out_lists
    return lambda x: [v for v in heads[ptr[x]:ptr[x + 1]] if trigger_of(v) == x]


def _lazy_triggers(graph: DiffusionGraph, seeds: list[int], rng: np.random.Generator):
    """Each node's trigger, drawn when first asked for.

    Seeds are active from the start, so theirs are never drawn.
    """
    pick = lt_trigger(graph, rng)
    trigger = [-2] * graph.node_count     # -2: not drawn yet
    for v in seeds:
        trigger[v] = -1

    def trigger_of(v: int) -> int:
        if trigger[v] == -2:
            trigger[v] = pick(v)
        return trigger[v]
    return trigger_of


def simulate(graph: DiffusionGraph, model: str, seeds, runs: int,
             master_seed: int, targets: TargetSet | None = None) -> SimulationReport:
    """Estimate expected spread and capital over independent runs.

    Run i draws from a stream keyed by (master seed, run), so reports are
    reproducible and insensitive to scheduling.
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

    base = phase_seed(master_seed, SIM_PHASE)
    spreads = np.empty(runs, dtype=np.float64)
    capitals = np.empty(runs, dtype=np.float64)
    for i in range(runs):
        rng = stream(base, i)
        live = (ic_live(*graph.out_lists, rng) if model == "ic"
                else _lt_forward_live(graph, _lazy_triggers(graph, seeds, rng)))
        # node order fixes the float summation order of the capital
        active = sorted(reach(graph.node_count, seeds, live))
        spreads[i] = len(active)
        capitals[i] = target_score[active].sum()
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

        # each node's trigger pick; edge u -> v is live iff v picked u
        def outcomes():
            for combo in product(*choice_lists):
                p = 1.0
                for _, cp in combo:
                    p *= cp
                yield p, _lt_forward_live(graph, [u for u, _ in combo].__getitem__)

    exp_spread = 0.0
    exp_capital = 0.0
    for p, live in outcomes():
        if p == 0.0:
            continue
        active = sorted(reach(graph.node_count, seeds, live))
        exp_spread += p * len(active)
        exp_capital += p * target_score[active].sum()
    return exp_spread, exp_capital
