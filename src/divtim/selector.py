"""Lazy-greedy seed selection over a reverse reachable corpus.

Each candidate carries a combined score ``alpha * capital + (1 - alpha) *
diversity gain`` and the seed-set size at which the score was computed.
Because both summands are monotone submodular, a stale score is an upper
bound, so a popped candidate whose tag matches the current seed count is
provably the best choice and can be committed without re-evaluation.
A node's capital gain is ``target_total / theta`` times the number of
uncovered sets it lies in, the same unit as ``expected_capital``: it
starts as the node's set count in the inverted index, and a stale one is
recounted over the popped node's own sets.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass

import numpy as np

from .diversity import DiversityFunction
from .errors import ConfigError
from .estimator import expected_capital
from .sampler import RRCorpus


@dataclass
class IterationTrace:
    node: int
    capital_gain: float
    diversity_gain: float
    combined_gain: float


@dataclass
class SeedResult:
    """Selected seeds plus the per-iteration gain trace and final scores."""

    seeds: list[int]
    trace: list[IterationTrace]
    alpha: float
    k: int
    theta: int
    target_total: float
    expected_capital: float
    diversity_value: float
    diversity_name: str
    diversity_max: float | None = None
    timing_seconds: float | None = None

    def objective(self) -> float:
        return objective_value(self, self.alpha)


def build_seed_set(corpus: RRCorpus, k: int, alpha: float,
                   diversity: DiversityFunction) -> SeedResult:
    """Select up to k seeds with the lazy (CELF) greedy."""
    if corpus.theta == 0:
        raise ConfigError("empty corpus")
    if not (0.0 <= alpha <= 1.0):
        raise ConfigError("alpha must lie in [0, 1]")
    if k < 1:
        raise ConfigError("budget k must be at least 1")
    if diversity.committed:
        raise ConfigError("diversity state must be fresh")

    n = corpus.n_nodes
    unit = corpus.target_total / corpus.theta
    covered = np.zeros(corpus.theta, dtype=bool)
    seeds: list[int] = []
    trace: list[IterationTrace] = []

    push_c = unit * np.diff(corpus.node_ptr)
    push_d = np.array([diversity.gain(v) for v in range(n)], dtype=np.float64)
    neg_scores = -(alpha * push_c + (1 - alpha) * push_d)
    heap = list(zip(neg_scores.tolist(), range(n), [0] * n))
    heapq.heapify(heap)
    while len(seeds) < k and heap:
        neg_score, v, tag = heapq.heappop(heap)
        if -neg_score <= 0.0:
            break
        if tag == len(seeds):
            seeds.append(v)
            covered[corpus.sets_of(v)] = True
            diversity.commit(v)
            trace.append(IterationTrace(node=v, capital_gain=float(push_c[v]),
                                        diversity_gain=float(push_d[v]),
                                        combined_gain=float(-neg_score)))
        else:
            push_c[v] = unit * np.count_nonzero(~covered[corpus.sets_of(v)])
            push_d[v] = diversity.gain(v)
            score = alpha * push_c[v] + (1 - alpha) * push_d[v]
            heapq.heappush(heap, (-score, v, len(seeds)))

    if len(seeds) < k:
        warnings.warn(f"only {len(seeds)} of {k} seeds carry positive gain; stopping early")

    return SeedResult(
        seeds=seeds, trace=trace, alpha=alpha, k=k, theta=corpus.theta,
        target_total=corpus.target_total,
        expected_capital=expected_capital(int(np.count_nonzero(covered)), corpus.theta,
                                          corpus.target_total),
        diversity_value=diversity.value(), diversity_name=diversity.name,
        diversity_max=diversity.max_value_for_budget(k),
    )


def objective_value(result: SeedResult, alpha: float, normalize: bool = False) -> float:
    """alpha-weighted combination of expected capital and diversity.

    The normalized variant rescales capital by the total target score and
    diversity by its function-specific maximum for budget k, making runs
    with different alpha comparable on one axis.
    """
    cap = result.expected_capital
    div = result.diversity_value
    if normalize:
        if result.target_total <= 0:
            raise ConfigError("cannot normalize without a target score total")
        if result.diversity_max is None:
            raise ConfigError(
                f"diversity function {result.diversity_name!r} has no known maximum")
        cap = cap / result.target_total
        div = div / result.diversity_max if result.diversity_max > 0 else 0.0
    return alpha * cap + (1 - alpha) * div
