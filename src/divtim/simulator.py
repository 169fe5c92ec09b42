"""Forward diffusion: Monte Carlo estimates of spread and capital.

Both diffusion models are simulated through their live-edge form: a run
draws a deterministic subgraph (every edge independently for IC, at most
one incoming pick per node for LT) and activates everything reachable
from the seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graph import DiffusionGraph, TargetSet
from .rng import phase_seed, stream
from .sampler import batch_size, check_model, live_edge_search

SIM_PHASE = 201


@dataclass
class SimulationReport:
    runs: int
    mean_spread: float
    mean_capital: float
    stderr_spread: float
    stderr_capital: float


def simulate(graph: DiffusionGraph, model: str, seeds, runs: int,
             master_seed: int, targets: TargetSet) -> SimulationReport:
    """Estimate expected spread and capital over independent runs.

    Runs are drawn in full batches of ``batch_size(n)`` by the live-edge
    kernel; batch b draws from the stream keyed by (master seed, simulation
    phase, b), so a report is reproducible and its first m runs are those
    of an m-run report.  Each level the kernel yields is added into its runs'
    sums by ``np.add.at``, in the order one ``bincount`` over all keys adds.
    """
    seeds = sorted({int(v) for v in seeds})
    if not seeds:
        raise ConfigError("seed set must be non-empty")
    if runs < 1:
        raise ConfigError("need at least one run")
    check_model(graph, model)

    target_score = np.zeros(graph.node_count, dtype=np.float64)
    target_score[targets.members] = graph.t[targets.members]

    n, size = graph.node_count, batch_size(graph.node_count)
    base = phase_seed(master_seed, SIM_PHASE)
    start = (np.arange(size)[:, None] * n + seeds).ravel()
    try:
        spreads = np.zeros((-(-runs // size), size), dtype=np.int64)
        capitals = np.zeros(spreads.shape)
        for b, (spread, capital) in enumerate(zip(spreads, capitals)):
            for level in live_edge_search(graph, model, True, size, start, [stream(base, b)]):
                run, node = np.divmod(level, n)
                spread += np.bincount(run, minlength=size)
                np.add.at(capital, run, target_score.take(node))
        spreads, capitals = spreads.ravel()[:runs], capitals.ravel()[:runs]
    except MemoryError:
        raise MemoryError(f"simulating {runs} runs") from None
    return SimulationReport(
        runs=runs,
        mean_spread=float(spreads.mean()),
        mean_capital=float(capitals.mean()),
        stderr_spread=float(spreads.std(ddof=1) / math.sqrt(runs)) if runs > 1 else 0.0,
        stderr_capital=float(capitals.std(ddof=1) / math.sqrt(runs)) if runs > 1 else 0.0,
    )
