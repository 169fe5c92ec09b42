"""The lazy (CELF) greedy over a weighted sum of monotone submodular terms.

A candidate's score is the weighted sum of its gains in the terms, tagged
with the seed count at which it was computed.  By submodularity a stale
score is an upper bound, so a popped candidate whose tag is current is
the best choice and is committed without re-evaluation.  Seed selection
maximizes ``alpha * capital + (1 - alpha) * diversity``; the caller builds the
capital, a ``Coverage`` of theta RR sets each worth ``target_total / theta``.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Sequence

from .diversity import Coverage, DiversityFunction
from .errors import ConfigError


def lazy_greedy(k: int, terms: Sequence[tuple[float, DiversityFunction]]
                ) -> list[tuple[int, list[float], float]]:
    """Up to k picks for ``sum(weight * f(S))`` over terms (weight, f), each f
    scored first by ``f.gains()``.  A pick is (node, its gain per term,
    combined gain).

    A term of weight 0.0 adds exactly 0.0 to every score, so it is
    committed with each pick but never scored: its first gains are never
    computed and it is never refreshed.  A pick's gains are the ones its
    commits return, which equal the ones it was scored by, since nothing
    was committed in between.  Stops at the first combined gain that is
    not positive; among equal scores the smallest node id wins.
    """
    functions = [f for _, f in terms]
    scored = [term for term in terms if term[0] != 0.0]
    neg_scores = -sum(w * f.gains() for w, f in scored)
    heap = list(zip(neg_scores.tolist(), range(neg_scores.size), [0] * neg_scores.size))
    heapq.heapify(heap)
    picks: list[tuple[int, list[float], float]] = []
    while len(picks) < k and heap:
        neg_score, v, tag = heapq.heappop(heap)
        if -neg_score <= 0.0:
            break
        if tag == len(picks):
            picks.append((v, [f.commit(v) for f in functions], -neg_score))
        else:
            score = 0.0
            for w, f in scored:
                score += w * f.gain(v)
            heapq.heappush(heap, (-score, v, len(picks)))
    return picks


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
    diversity_max: float | None
    timing_seconds: float

    def objective(self, normalize: bool = False) -> float:
        """alpha-weighted combination of expected capital and diversity.

        The normalized variant rescales capital by the total target score and
        diversity by its function-specific maximum for budget k, making runs
        with different alpha comparable on one axis.
        """
        cap = self.expected_capital
        div = self.diversity_value
        if normalize:
            if self.target_total <= 0:
                raise ConfigError("cannot normalize without a target score total")
            if self.diversity_max is None:
                raise ConfigError("the diversity function has no known maximum")
            cap = cap / self.target_total
            div = div / self.diversity_max if self.diversity_max > 0 else 0.0
        return self.alpha * cap + (1 - self.alpha) * div


def build_seed_set(capital: Coverage, k: int, alpha: float,
                   diversity: DiversityFunction) -> SeedResult:
    """Select up to k seeds with the lazy greedy over capital and diversity,
    both reset first and left holding the seeds; fewer once no node's combined
    gain is positive (``select`` writes that count as ``stats.early_stop``)."""
    start = time.perf_counter()
    if capital.size == 0:
        raise ConfigError("empty corpus")
    if not (0.0 <= alpha <= 1.0):
        raise ConfigError("alpha must lie in [0, 1]")
    if k < 1:
        raise ConfigError("budget k must be at least 1")
    if diversity.node_count != capital.node_count:
        raise ConfigError("diversity function and corpus disagree on node count")

    capital.reset()
    diversity.reset()
    picks = lazy_greedy(k, [(alpha, capital), (1 - alpha, diversity)])

    return SeedResult(
        seeds=[v for v, _, _ in picks],
        trace=[IterationTrace(node=v, capital_gain=c, diversity_gain=d, combined_gain=s)
               for v, (c, d), s in picks],
        alpha=alpha, k=k, theta=capital.size, target_total=capital.total,
        expected_capital=capital.value(), diversity_value=diversity.value(),
        diversity_max=diversity.max_value_for_budget(k),
        timing_seconds=time.perf_counter() - start,
    )

