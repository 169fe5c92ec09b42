"""Corpus sizing by OPIM-C's stopping rule (Tang, Tang, Xiao, Yuan, SIGMOD 2018).

A grid point (k, alpha) maximizes F = alpha * C + (1 - alpha) * D: C the
expected capital, D the exact diversity.  The greedy picks S on R1 (the
corpus phase) by F1 = alpha * u * L1 + (1 - alpha) * D, u = T / theta with T
the total target score and L1(S) the R1 sets S covers; L2(S) counts R2's
(the check phase).  Let a = ln(2 * rounds / delta), delta = n^-ell, rounds
the theta values the doubling can reach: each bound below fails with
probability at most delta / (2 * rounds).  S is fixed before R2 is drawn, so
C(S) >= u * ((sqrt(L2 + 2a/9) - sqrt(a/2))^2 - a/18), which bounds F(S).  F1
is monotone submodular, so no size-k set beats U1 = min(F1(S) / (1 - 1/e),
F1(S) + the k largest gains F1(v | S)).  The optimum O is fixed before R1 is
drawn, so C(O) - u * x <= u * (a + sqrt(2a * (x + a/2))) at x = L1(O), which
grows with x, and alpha * u * x <= F1(O) <= U1 gives x <= x_max = min(theta,
U1 / (alpha * u)).  So F(O) <= U1 + alpha * u * (a + sqrt(2a * (x_max +
a/2))), OPIM-C's own bound at alpha = 1.

Each k doubles R1 and R2 from one batch until lower >= (1 - 1/e - epsilon) *
upper at every alpha (alpha = 1 first) or theta hits the cap; R2 then doubles
alone until each alpha > 0 capital has relative standard error <= CAPITAL_RSE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import sampler, selector
from .diversity import Coverage, DiversityFunction
from .errors import ConfigError
from .graph import DiffusionGraph, TargetSet
from .sampler import DEFAULT_THETA_CAP

#: delta = n^-ell is at most 2^-1000 here; past it only overflow is left
MAX_ELL = 1000.0
#: R2's most relative standard error of an alpha > 0 capital: 5% off is three of them
CAPITAL_RSE = 1 / 60


@dataclass
class EstimationParams:
    """Per k its R1 corpus, their largest theta, per (k, alpha) its result and ``stats``."""

    corpora: dict[int, sampler.RRCorpus]
    theta: int
    points: dict[tuple[int, float], tuple[selector.SeedResult, dict[str, float]]]


def _ratio(capital: Coverage, hits: int, res: selector.SeedResult,
           diversity: DiversityFunction, a: float) -> float:
    """R2's lower bound on F(S) over R1's upper one; the greedy left both terms holding S."""
    alpha, u = res.alpha, capital.unit
    gains = alpha * capital.gains()
    if alpha < 1.0:
        gains += (1 - alpha) * diversity.gains()
    upper = min(res.objective() / (1 - 1 / math.e),
                res.objective() + float(np.sort(gains)[-res.k:].sum()))
    if alpha > 0.0:
        x_max = min(capital.size, upper / (alpha * u))
        upper += alpha * u * (a + math.sqrt(2 * a * (x_max + a / 2)))
    low = (math.sqrt(hits + 2 * a / 9) - math.sqrt(a / 2)) ** 2 - a / 18
    lower = alpha * u * max(0.0, low) + (1 - alpha) * res.diversity_value
    return lower / upper if upper > 0 else 1.0


def estimate_params(graph: DiffusionGraph, targets: TargetSet, model: str, ks: Sequence[int],
                    alphas: Sequence[float], diversity: DiversityFunction, epsilon: float,
                    master_seed: int, ell: float = 1.0, theta_override: int | None = None,
                    theta_cap: int = DEFAULT_THETA_CAP) -> EstimationParams:
    """Size the corpora and select every grid point's seeds; ``theta_override`` sizes
    nothing, and its corpus selects every point and scores its capital in sample."""
    if not 0 < epsilon < 1:
        raise ConfigError("epsilon must lie in (0, 1)")
    if not 0 < ell <= MAX_ELL:
        raise ConfigError(f"ell must lie in (0, {MAX_ELL:g}]; delta = n^-ell is already "
                          f"at most 2^-{MAX_ELL:g} there")
    if theta_cap < 1:
        raise ConfigError("theta cap must be at least 1")
    if len(set(ks)) < len(ks) or len(set(alphas)) < len(alphas):
        raise ConfigError("each k and each alpha must be listed once")
    n, total = graph.node_count, targets.total_score
    if theta_override is not None:
        if theta_override < 1:
            raise ConfigError("theta override must be positive")
        corpus = sampler.generate_corpus(graph, targets, model, theta_override, master_seed)
        capital = Coverage(corpus.node_ptr, corpus.node_sets, theta_override, total)
        return EstimationParams({k: corpus for k in ks}, theta_override, {
            (k, alpha): (selector.build_seed_set(capital, k, alpha, diversity), {})
            for k in ks for alpha in alphas})

    r1, r2 = (sampler.RRStream(graph, targets, model, master_seed, phase)
              for phase in (sampler.CORPUS_PHASE, sampler.CHECK_PHASE))
    first = min(theta_cap, r1.size)
    sizes = [min(first << i, theta_cap) for i in range(1 + math.ceil(math.log2(theta_cap / first)))]
    a = ell * math.log(n) + math.log(2 * len(sizes))
    target = 1 - 1 / math.e - epsilon
    corpora, points = {}, {}
    for k in ks:
        for theta in sizes:
            corpus, picks = r1.sets(theta), {}
            capital = Coverage(corpus.node_ptr, corpus.node_sets, theta, total)
            for alpha in sorted(alphas, key=lambda x: x != 1.0):
                if theta < theta_cap and any(ratio < target for _, ratio in picks.values()):
                    break
                res = selector.build_seed_set(capital, k, alpha, diversity)
                picks[alpha] = res, _ratio(capital, r2.hits(res.seeds, theta), res, diversity, a)
            passed = len(picks) == len(alphas) and all(r >= target for _, r in picks.values())
            if passed:
                break
        for check in sizes[sizes.index(theta):]:
            hits = {alpha: r2.hits(res.seeds, check) for alpha, (res, _) in picks.items()}
            if all(alpha == 0.0 or check - h <= CAPITAL_RSE ** 2 * h * check
                   for alpha, h in hits.items()):
                break
        corpora[k] = corpus
        for alpha, (res, ratio) in picks.items():
            p = hits[alpha] / check
            points[k, alpha] = replace(res, expected_capital=total * p), {
                "theta": theta, "check_theta": check, "theta_capped": int(not passed),
                "approx_ratio": ratio, "capital_in_sample": res.expected_capital,
                "capital_stderr": total * math.sqrt(p * (1 - p) / check)}
    return EstimationParams(corpora, max(c.theta for c in corpora.values()), points)
