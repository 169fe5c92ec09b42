"""Corpus sizing.

The number of reverse reachable sets needed for the approximation
guarantee is derived in two stages: an iterative-doubling lower bound on
the mean spread of a size-k seed set, then a greedy refinement of that
bound on a fresh batch.  Both stages reuse the targeted root sampling.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .diversity import Coverage
from .errors import ConfigError
from .graph import DiffusionGraph, TargetSet
from .sampler import RRCorpus, RRStream
from .selector import lazy_greedy

KPT_PHASE = 101
REFINE_PHASE = 102

DEFAULT_THETA_CAP = 2_000_000


@dataclass
class EstimationParams:
    kpt_star: float | None      # None when theta was given, not estimated
    kpt_plus: float | None
    theta: int


def _log_binom(n: int, k: int) -> float:
    k = min(k, n)
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def compute_theta(kpt: float, epsilon: float, ell: float, k: int, n: int,
                  theta_cap: int) -> int:
    """Corpus size ceil(lambda / kpt) for the (1 - 1/e - eps) guarantee.

    lambda = (8 + 2*eps) * n * (ell*ln n + ln C(n,k) + ln 2) / eps^2; the
    binomial term is evaluated through log-gamma so it never overflows.
    """
    if kpt < 1:
        raise ConfigError("kpt estimate must be at least 1")
    if not (0 < epsilon < 1):
        raise ConfigError("epsilon must lie in (0, 1)")
    lam = (8 + 2 * epsilon) * n * (ell * math.log(n) + _log_binom(n, k) + math.log(2)) \
        / (epsilon ** 2)
    theta = max(1, math.ceil(lam / kpt))
    if theta > theta_cap:
        warnings.warn(f"theta {theta} exceeds cap {theta_cap}; clamping")
        theta = theta_cap
    return theta


def kpt_estimation(rr: RRStream, k: int, ell: float) -> tuple[float, RRCorpus | None]:
    """Iterative-doubling lower bound on the mean size-k spread.

    Round i draws c_i = ceil((6*ell*ln n + 6*ln log2 n) * 2^i) sets and
    scores each by kappa = 1 - (1 - w/W)^k, where w is the in-degree mass
    of the set's members and W the total in-degree mass.  The first round
    whose mean kappa exceeds 2^-i returns mean * n / 2.  Round i reads
    the next c_i sets of the KPT phase's stream ``rr``.  Also returns the last
    round's sets as a corpus (None if no round ran), so the refinement
    stage can reuse them.
    """
    n, total_in, indeg = rr.graph.node_count, float(rr.graph.edge_count), rr.graph.in_degrees()
    kpt, drawn, start, c_i = 1.0, None, 0, 0
    if n >= 2 and total_in > 0:
        for i in range(1, int(math.floor(math.log2(n)))):
            start += c_i
            c_i = math.ceil((6 * ell * math.log(n) + 6 * math.log(math.log2(n))) * 2 ** i)
            _, ptr, members = drawn = rr.sets(start, start + c_i)
            width = np.add.reduceat(indeg[members], ptr[:-1])
            kappa_sum = float((1.0 - (1.0 - width / total_in) ** k).sum())
            if kappa_sum / c_i > 1.0 / (2 ** i):
                kpt = kappa_sum * n / (2.0 * c_i)
                break
    return kpt, None if drawn is None else RRCorpus(*drawn, n, rr.targets.total_score)


def greedy_cover(corpus: RRCorpus, k: int) -> list[int]:
    """Up to k nodes covering the most sets, by the lazy greedy; ties go to the smallest id."""
    sets = Coverage(corpus.node_ptr, corpus.node_sets, corpus.theta, corpus.theta)
    return [v for v, _, _ in lazy_greedy(k, [(1.0, sets, sets.gains)])]


def refine_kpt(rr: RRStream, k: int, epsilon: float, ell: float, kpt_star: float,
               est_sets: RRCorpus | None, theta_cap: int) -> float:
    """Tighten the doubling-stage bound with a greedy cover re-estimate.

    A size-k greedy cover of the estimation sets is re-scored on a fresh
    batch of lambda' / kpt_star sets, the first ones of the refinement
    phase's stream ``rr``, with eps' = 5 * cbrt(ell*eps^2/(k+ell)); the
    refined bound is max(f * n / (1 + eps'), kpt_star).
    """
    n = rr.graph.node_count
    if est_sets is None or n < 2:
        return kpt_star
    eps_p = 5.0 * (ell * epsilon ** 2 / (k + ell)) ** (1.0 / 3.0)
    lam_p = (2 + eps_p) * ell * n * math.log(n) / (eps_p ** 2)
    theta_p = max(1, min(math.ceil(lam_p / kpt_star), theta_cap))
    cover = np.zeros(n, dtype=bool)
    cover[greedy_cover(est_sets, k)] = True
    _, ptr, members = rr.sets(0, theta_p)
    hit = int(np.count_nonzero(np.logical_or.reduceat(cover[members], ptr[:-1])))
    kpt_refined = (hit / theta_p) * n / (1.0 + eps_p)
    return max(kpt_refined, kpt_star)


def estimate_params(graph: DiffusionGraph, targets: TargetSet, model: str, k: int,
                    epsilon: float, master_seed: int, ell: float = 1.0,
                    theta_override: int | None = None,
                    theta_cap: int = DEFAULT_THETA_CAP,
                    streams: Sequence[RRStream] | None = None) -> EstimationParams:
    """Run both estimation stages and size the main corpus.  ``streams``, the
    KPT and refinement ``RRStream``s of these arguments, hold no k, so every k
    of a grid may read one pair; by default they are opened here."""
    if not 0 < epsilon < 1:
        raise ConfigError("epsilon must lie in (0, 1)")
    if not 0 < ell < math.inf:
        raise ConfigError("ell must be positive and finite")
    if k < 1:
        raise ConfigError("budget k must be at least 1")
    if theta_cap < 1:
        raise ConfigError("theta cap must be at least 1")
    if theta_override is not None:
        if theta_override < 1:
            raise ConfigError("theta override must be positive")
        return EstimationParams(kpt_star=None, kpt_plus=None, theta=theta_override)
    kpt_rr, refine_rr = streams or [RRStream(graph, targets, model, master_seed, phase)
                                    for phase in (KPT_PHASE, REFINE_PHASE)]
    kpt_star, est_sets = kpt_estimation(kpt_rr, k, ell)
    kpt_plus = refine_kpt(refine_rr, k, epsilon, ell, kpt_star, est_sets, theta_cap)
    theta = compute_theta(kpt_plus, epsilon, ell, k, graph.node_count, theta_cap)
    return EstimationParams(kpt_star=kpt_star, kpt_plus=kpt_plus, theta=theta)

