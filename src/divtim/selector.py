"""Lazy-greedy seed selection over a reverse reachable corpus.

Each candidate carries a combined score ``alpha * capital + (1 - alpha) *
diversity gain`` and the seed-set size at which the score was computed.
Because both summands are monotone submodular, a stale score is an upper
bound, so a popped candidate whose tag matches the current seed count is
provably the best choice and can be committed without re-evaluation.
Capital gains start as one bincount over the corpus; a stale one is
re-folded over the popped node's uncovered sets only.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass, field

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
    covered_ids: np.ndarray
    covered_root_score: float
    total_root_score: float
    target_total: float
    expected_capital: float
    diversity_value: float
    diversity_name: str
    diversity_max: float | None = None
    timing_seconds: float | None = None
    config: dict = field(default_factory=dict)

    def objective(self) -> float:
        return objective_value(self, self.alpha)


def _capital_gains(corpus: RRCorpus, covered: np.ndarray) -> np.ndarray:
    """Each node's root-score sum over its uncovered sets.  bincount adds in
    stored order, ascending set id per node, as ``_refold`` does: bitwise equal."""
    widths = np.diff(corpus.set_ptr)
    open_members, weights = np.repeat(~covered, widths), np.repeat(corpus.root_scores, widths)
    return np.bincount(corpus.members[open_members], weights=weights[open_members],
                       minlength=corpus.n_nodes)


def _refold(ids: np.ndarray, covered: np.ndarray, root_scores: np.ndarray) -> float:
    # cumsum is a sequential left fold (np.sum is pairwise and would differ).
    x = root_scores[ids[~covered[ids]]]
    return x.cumsum()[-1] if x.size else 0.0


def build_seed_set(corpus: RRCorpus, k: int, alpha: float,
                   diversity: DiversityFunction, lazy: bool = True) -> SeedResult:
    """Select up to k seeds greedily; ``lazy=False`` re-scores every node
    each round (debug path, must pick the identical sequence)."""
    if corpus.theta == 0:
        raise ConfigError("empty corpus")
    if not (0.0 <= alpha <= 1.0):
        raise ConfigError("alpha must lie in [0, 1]")
    if k < 1:
        raise ConfigError("budget k must be at least 1")
    if diversity.committed:
        raise ConfigError("diversity state must be fresh")

    n = corpus.n_nodes
    covered = np.zeros(corpus.theta, dtype=bool)
    seeds: list[int] = []
    trace: list[IterationTrace] = []

    if lazy:
        push_c = _capital_gains(corpus, covered)
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
                push_c[v] = _refold(corpus.sets_of(v), covered, corpus.root_scores)
                push_d[v] = diversity.gain(v)
                score = alpha * push_c[v] + (1 - alpha) * push_d[v]
                heapq.heappush(heap, (-score, v, len(seeds)))
    else:
        candidates = set(range(n))
        while len(seeds) < k and candidates:
            gains = _capital_gains(corpus, covered)
            best_v, best_score, best_c, best_d = -1, 0.0, 0.0, 0.0
            for v in sorted(candidates):
                c = gains[v]
                d = diversity.gain(v)
                score = alpha * c + (1 - alpha) * d
                if score > best_score:
                    best_v, best_score, best_c, best_d = v, score, c, d
            if best_v < 0:
                break
            seeds.append(best_v)
            candidates.discard(best_v)
            covered[corpus.sets_of(best_v)] = True
            diversity.commit(best_v)
            trace.append(IterationTrace(node=best_v, capital_gain=float(best_c),
                                        diversity_gain=float(best_d),
                                        combined_gain=float(best_score)))

    if len(seeds) < k:
        warnings.warn(f"only {len(seeds)} of {k} seeds carry positive gain; stopping early")

    covered_ids = np.flatnonzero(covered)
    covered_score = float(corpus.root_scores[covered].sum())
    cap = expected_capital(covered_score, corpus.total_root_score, corpus.target_total) \
        if corpus.total_root_score > 0 else 0.0
    return SeedResult(
        seeds=seeds, trace=trace, alpha=alpha, k=k, theta=corpus.theta,
        covered_ids=covered_ids, covered_root_score=covered_score,
        total_root_score=corpus.total_root_score, target_total=corpus.target_total,
        expected_capital=cap, diversity_value=diversity.value(),
        diversity_name=diversity.name,
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
