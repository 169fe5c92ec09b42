"""Corpus sizing and expected-capital accounting.

The number of reverse reachable sets needed for the approximation
guarantee is derived in two stages: an iterative-doubling lower bound on
the mean spread of a size-k seed set, then a greedy refinement of that
bound on a fresh batch.  Both stages reuse the targeted root sampling, so
the resulting corpus directly supports capital estimation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graph import DiffusionGraph, TargetSet
from .rng import phase_seed, stream
from .sampler import batch_size, check_model, join_batches, rr_batch

KPT_PHASE = 101
REFINE_PHASE = 102

DEFAULT_THETA_CAP = 2_000_000


@dataclass
class EstimationParams:
    epsilon: float
    ell: float
    k: int
    kpt_star: float
    kpt_plus: float
    theta: int


def _log_binom(n: int, k: int) -> float:
    k = min(k, n)
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def compute_theta(kpt: float, epsilon: float, ell: float, k: int, n: int,
                  theta_cap: int = DEFAULT_THETA_CAP) -> int:
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


def kpt_estimation(graph: DiffusionGraph, targets: TargetSet, model: str, k: int,
                   ell: float, master_seed: int) -> tuple[float, tuple | None]:
    """Iterative-doubling lower bound on the mean size-k spread.

    Round i draws c_i = ceil((6*ell*ln n + 6*ln log2 n) * 2^i) sets and
    scores each by kappa = 1 - (1 - w/W)^k, where w is the in-degree mass
    of the set's members and W the total in-degree mass.  The first round
    whose mean kappa exceeds 2^-i returns mean * n / 2.  Rounds take
    consecutive sets of one stream of batches.  Also returns the last
    round's sets, as ``(set_ptr, members)`` (None if no round ran), so
    the refinement stage can reuse them.
    """
    check_model(graph, model)
    n = graph.node_count
    total_in = float(graph.edge_count)
    base = phase_seed(master_seed, KPT_PHASE)
    indeg = graph.in_degrees()
    batches: list = []
    kappas = np.empty(0)
    start = c_i = 0
    if n >= 2 and total_in > 0:
        for i in range(1, int(math.floor(math.log2(n)))):
            start += c_i
            c_i = math.ceil((6 * ell * math.log(n) + 6 * math.log(math.log2(n))) * 2 ** i)
            while len(kappas) < start + c_i:
                batches.append(rr_batch(graph, targets, model, stream(base, len(batches))))
                _, ptr, members = batches[-1]
                width = np.add.reduceat(indeg[members], ptr[:-1])
                kappas = np.concatenate([kappas, 1.0 - (1.0 - width / total_in) ** k])
            kappa_sum = float(kappas[start:start + c_i].sum())
            if kappa_sum / c_i > 1.0 / (2 ** i):
                return kappa_sum * n / (2.0 * c_i), join_batches(batches, start, start + c_i)[1:]
    return 1.0, join_batches(batches, start, start + c_i)[1:] if batches else None


def _greedy_cover(set_ptr: np.ndarray, members: np.ndarray, node_count: int,
                  k: int) -> list[int]:
    """Plain size-k maximum coverage over a small batch of sets."""
    set_of = np.repeat(np.arange(len(set_ptr) - 1), np.diff(set_ptr))
    alive = np.ones(len(set_ptr) - 1, dtype=bool)
    chosen: list[int] = []
    for _ in range(min(k, node_count)):
        counts = np.bincount(members[alive[set_of]], minlength=node_count)
        if not counts.any():
            break
        best = int(np.argmax(counts))       # most sets, then the smallest id
        chosen.append(best)
        alive[set_of[members == best]] = False
    return chosen


def refine_kpt(graph: DiffusionGraph, targets: TargetSet, model: str, k: int,
               epsilon: float, ell: float, kpt_star: float, est_sets: tuple | None,
               master_seed: int, theta_cap: int = DEFAULT_THETA_CAP) -> float:
    """Tighten the doubling-stage bound with a greedy cover re-estimate.

    A size-k cover built on the estimation sets is re-scored on a fresh
    batch of lambda' / kpt_star sets with eps' = 5 * cbrt(ell*eps^2/(k+ell));
    the refined bound is max(f * n / (1 + eps'), kpt_star).
    """
    check_model(graph, model)
    n = graph.node_count
    if est_sets is None or n < 2:
        return kpt_star
    eps_p = 5.0 * (ell * epsilon ** 2 / (k + ell)) ** (1.0 / 3.0)
    lam_p = (2 + eps_p) * ell * n * math.log(n) / (eps_p ** 2)
    theta_p = max(1, min(math.ceil(lam_p / kpt_star), theta_cap))
    cover = np.zeros(n, dtype=bool)
    cover[_greedy_cover(*est_sets, n, k)] = True
    base = phase_seed(master_seed, REFINE_PHASE)
    size = batch_size(n)
    hit = 0
    for b in range(-(-theta_p // size)):
        _, ptr, members = rr_batch(graph, targets, model, stream(base, b))
        hits = np.logical_or.reduceat(cover[members], ptr[:-1])
        hit += int(np.count_nonzero(hits[:theta_p - b * size]))
    kpt_refined = (hit / theta_p) * n / (1.0 + eps_p)
    return max(kpt_refined, kpt_star)


def estimate_params(graph: DiffusionGraph, targets: TargetSet, model: str, k: int,
                    epsilon: float = 0.1, ell: float = 1.0, master_seed: int = 0,
                    theta_override: int | None = None,
                    theta_cap: int = DEFAULT_THETA_CAP) -> EstimationParams:
    """Run both estimation stages and size the main corpus."""
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
        return EstimationParams(epsilon=epsilon, ell=ell, k=k, kpt_star=1.0,
                                kpt_plus=1.0, theta=theta_override)
    kpt_star, est_sets = kpt_estimation(graph, targets, model, k, ell, master_seed)
    kpt_plus = refine_kpt(graph, targets, model, k, epsilon, ell, kpt_star,
                          est_sets, master_seed, theta_cap)
    theta = compute_theta(kpt_plus, epsilon, ell, k, graph.node_count, theta_cap)
    return EstimationParams(epsilon=epsilon, ell=ell, k=k, kpt_star=kpt_star,
                            kpt_plus=kpt_plus, theta=theta)


def expected_capital(covered_score: float, total_score: float, target_total: float) -> float:
    """Capital estimate from corpus coverage.

    Roots are drawn proportionally to target score, so the covered share
    of root score estimates the captured fraction of the total target
    score; scaling by that total yields the expected capital.
    """
    if total_score <= 0:
        raise ConfigError("corpus carries no root score (theta = 0?)")
    if covered_score < 0 or covered_score > total_score * (1 + 1e-12):
        raise ConfigError("covered score outside [0, total]")
    return target_total * (covered_score / total_score)
