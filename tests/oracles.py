"""From-scratch reference evaluators used to cross-check incremental state.

Everything here recomputes set values directly from definitions, sharing
no code with the package's incremental implementations.  It also holds
the reference evaluators for unsuitable set scores, a one-set-at-a-time
reverse reachable sampler that the batched kernel is checked against, a
greedy that folds each node's capital gain in Python, which the
vectorized selector is checked against bit for bit, the eager
maximum cover and Deg-D loops the lazy greedy replaced, the exact
expected spread and capital of micro-graphs by enumerating every
live-edge outcome, a reverse LT search that deduplicates every level,
and the inverted index by a stable argsort.
"""

import heapq
import math
from bisect import bisect_right
from collections import deque
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Sequence

import numpy as np

from divtim.errors import ConfigError
from divtim.profiles import MISSING
from divtim.sampler import check_model

MAX_EXHAUSTIVE_EDGES = 20
MAX_EXHAUSTIVE_OUTCOMES = 2_000_000


def aw_value(profiles, seed_set, lam=1.0) -> float:
    schema = profiles.schema
    total = 0.0
    for j in range(schema.m):
        vals = [int(profiles.codes[v, j]) for v in seed_set
                if profiles.codes[v, j] != MISSING]
        for a in set(vals):
            n_a = vals.count(a)
            total += sum(i ** -lam for i in range(1, n_a + 1)) / schema.m
    return total


def reachable_from(graph, v) -> set:
    seen = {v}
    queue = deque([v])
    while queue:
        x = queue.popleft()
        for u in graph.out_indices[graph.out_indptr[x]:graph.out_indptr[x + 1]]:
            u = int(u)
            if u not in seen:
                seen.add(u)
                queue.append(u)
    seen.discard(v)
    return seen


def hamming_distance(profiles, u, v) -> int:
    # missing on either side (including both) counts as a mismatch
    d = 0
    for j in range(profiles.schema.m):
        a, b = profiles.codes[u, j], profiles.codes[v, j]
        if a == MISSING or b == MISSING or a != b:
            d += 1
    return d


def hamming_ball(graph, profiles, v, radius) -> set:
    return {u for u in reachable_from(graph, v)
            if hamming_distance(profiles, u, v) <= radius}


def hamming_value(graph, profiles, seed_set, radius) -> float:
    union = set()
    for v in seed_set:
        union |= hamming_ball(graph, profiles, v, radius)
    return float(len(union))


def _atom_prior(profiles) -> dict:
    """(attribute, code) -> share of all present cells, counted from
    ``codes`` and the domains, not from the profiles' value ids."""
    codes = profiles.codes
    total = int(np.count_nonzero(codes != MISSING))
    prior = {}
    for j, domain in enumerate(profiles.schema.domains):
        for c in range(len(domain)):
            cnt = int(np.count_nonzero(codes[:, j] == c))
            if cnt > 0:
                prior[(j, c)] = cnt / total
    return prior


def _atom_pattern(profiles, seed_list, atom) -> tuple:
    j, c = atom
    return tuple(1 if profiles.codes[v, j] == c else 0 for v in seed_list)


def entropy_value(profiles, seed_set) -> float:
    """Joint entropy by direct enumeration of membership patterns."""
    prior = _atom_prior(profiles)
    if not prior:
        return 0.0
    seed_list = sorted(seed_set)
    masses: dict[tuple, float] = {}
    for atom, p in prior.items():
        pat = _atom_pattern(profiles, seed_list, atom)
        masses[pat] = masses.get(pat, 0.0) + p
    return -sum(m * math.log2(m) for m in masses.values() if m > 0)


def entropy_chain_rule(profiles, seed_order) -> float:
    """Same joint entropy via the sum of conditional entropies, term by term."""
    prior = _atom_prior(profiles)
    if not prior:
        return 0.0
    total = 0.0
    for i in range(1, len(seed_order) + 1):
        prefix = seed_order[:i - 1]
        # mass of each prefix pattern, then the branch split by variable i
        branch: dict[tuple, list[float]] = {}
        for atom, p in prior.items():
            pat = _atom_pattern(profiles, prefix, atom)
            bit = _atom_pattern(profiles, [seed_order[i - 1]], atom)[0]
            branch.setdefault(pat, [0.0, 0.0])[bit] += p
        term = 0.0
        for m0, m1 in branch.values():
            mass = m0 + m1
            if mass <= 0:
                continue
            h = 0.0
            for part in (m0, m1):
                if part > 0:
                    q = part / mass
                    h -= q * math.log2(q)
            term += mass * h
        total += term
    return total


def class_value(classes, rewards, seed_set) -> float:
    acc: dict[int, float] = {}
    for v in seed_set:
        acc[classes[v]] = acc.get(classes[v], 0.0) + rewards[v]
    return sum(math.log2(1.0 + x) for x in acc.values())


def numeric_value(preferences, node_gains, seed_set) -> float:
    acc = np.zeros(preferences.shape[1])
    for v in seed_set:
        acc += preferences[v] * node_gains[v]
    return float(np.sum(np.log2(1.0 + acc)))


# ---------------------------------------------------------------------------
# Reference evaluators for unsuitable set scores (exact rational arithmetic).
# Each of these aggregates pairwise distances and fails submodularity or
# monotonicity; they are kept so tests can reproduce the failures.
# ---------------------------------------------------------------------------

Profile = Sequence[object]  # attribute values, None = missing


def mismatch_pair_score(values: Sequence[object]) -> Fraction:
    """Single-attribute score: unordered mismatching pairs over set size.

    A missing value on either side counts as a mismatch.
    """
    n = len(values)
    hits = 0
    for i in range(n):
        for j in range(i + 1, n):
            a, b = values[i], values[j]
            hits += 1 if (a is None or b is None or a != b) else 0
    return Fraction(hits, n)


def _hamming_pair(u: Profile, v: Profile) -> int:
    # Both-missing coordinates agree here; one-sided missing mismatches.
    return sum(1 for a, b in zip(u, v) if a != b)


def hamming_sum_score(profiles: Sequence[Profile]) -> Fraction:
    """Sum of profile Hamming distances over ordered pairs."""
    total = 0
    n = len(profiles)
    for i in range(n):
        for j in range(n):
            if i != j:
                total += _hamming_pair(profiles[i], profiles[j])
    return Fraction(total)


def hamming_sum_halved(profiles: Sequence[Profile]) -> Fraction:
    return hamming_sum_score(profiles) / (2 * len(profiles))


def hamming_sum_pairnorm(profiles: Sequence[Profile]) -> Fraction:
    n = len(profiles)
    return hamming_sum_score(profiles) / (n * (n - 1))


def _jaccard_pair(u: Profile, v: Profile) -> Fraction:
    matches = sum(1 for a, b in zip(u, v) if a is not None and a == b)
    lu = sum(1 for a in u if a is not None)
    lv = sum(1 for a in v if a is not None)
    union = lu + lv - matches
    if union == 0:
        return Fraction(1)
    return 1 - Fraction(matches, union)


def jaccard_sum_score(profiles: Sequence[Profile]) -> Fraction:
    """Sum of profile Jaccard distances over ordered pairs."""
    total = Fraction(0)
    n = len(profiles)
    for i in range(n):
        for j in range(n):
            if i != j:
                total += _jaccard_pair(profiles[i], profiles[j])
    return total


def jaccard_sum_halved(profiles: Sequence[Profile]) -> Fraction:
    return jaccard_sum_score(profiles) / (2 * len(profiles))


def jaccard_set_score(profiles: Sequence[Profile]) -> Fraction:
    """Whole-set Jaccard-style score over all attributes at once."""
    m = len(profiles[0])
    agree = 0
    span = 0
    for j in range(m):
        col = [p[j] for p in profiles]
        if all(c is not None for c in col) and len(set(col)) == 1:
            agree += 1
        span += len({c for c in col if c is not None})
    return 1 - Fraction(agree, span)


# ---------------------------------------------------------------------------
# One search loop in Python ints, the reference samplers, the stable-argsort
# index, and the exact oracle that enumerates every live-edge outcome.
# ---------------------------------------------------------------------------

def reach(node_count: int, start: Iterable[int],
          live: Callable[[int], Iterable[int]]) -> list[int]:
    """Nodes reachable from ``start`` over live edges, in discovery order.

    ``live(x)`` yields the heads of x's live edges; it is called exactly
    once per reached node, and nodes are expanded last in, first out, so a
    ``live`` that draws random numbers consumes them in a fixed order.
    ``start`` holds distinct nodes; the result lists them first, in the
    order given.
    """
    order = list(start)
    seen = bytearray(node_count)
    for s in order:
        seen[s] = 1
    stack = order.copy()
    while stack:
        for u in live(stack.pop()):
            if not seen[u]:
                seen[u] = 1
                order.append(u)
                stack.append(u)
    return order


def reference_rr_set(graph, targets, model, rng) -> tuple[int, list[int]]:
    """One (root, members) draw: a score-weighted root, then every node that
    reaches it over live in-edges (IC: one coin per edge; LT: one trigger
    pick per reached node)."""
    i = int(np.searchsorted(targets.cum_scores, rng.random() * targets.total_score,
                            side="right"))
    root = int(targets.members[min(i, len(targets) - 1)])
    ptr, heads = graph.in_indptr.tolist(), graph.in_indices.tolist()
    probs, cum = graph.in_probs.tolist(), graph.in_cum.tolist()

    def ic(x):
        return [heads[e] for e in range(ptr[x], ptr[x + 1]) if rng.random() < probs[e]]

    def lt(x):
        j = bisect_right(cum, rng.random(), ptr[x], ptr[x + 1])
        return [heads[j]] if j < ptr[x + 1] else []

    return root, reach(graph.node_count, [root], ic if model == "ic" else lt)


def levelwise_reverse_lt(graph, start, rng) -> np.ndarray:
    """Every key ``item * n + node`` a batched reverse LT search reaches from
    ``start``, level by level: each level draws one number per key, in key
    order, each key picks its trigger by bisect_right, and the new keys are
    sorted and deduplicated before they are expanded."""
    n = graph.node_count
    ptr, heads, cum = graph.in_indptr.tolist(), graph.in_indices.tolist(), graph.in_cum.tolist()
    frontier = start.tolist()
    found, seen = list(frontier), set(frontier)
    while frontier:
        picks = set()
        for key, r in zip(frontier, rng.random(len(frontier)).tolist()):
            item, x = divmod(key, n)
            j = bisect_right(cum, r, ptr[x], ptr[x + 1])
            if j < ptr[x + 1]:
                picks.add(item * n + heads[j])
        frontier = sorted(picks - seen)
        seen.update(frontier)
        found.extend(frontier)
    return np.array(found, dtype=np.int64)


def levelwise_forward_lt(graph, start, rng) -> np.ndarray:
    """Every key ``item * n + node`` a batched forward LT search reaches from
    ``start``, level by level: each level's active keys ask their out-neighbours,
    a key asked for the first time draws one number, in key order, and picks
    its trigger by bisect_right, and an asked key activates when its trigger is
    the node asking; the new keys are sorted and deduplicated."""
    n = graph.node_count
    out_ptr, out_heads = graph.out_indptr.tolist(), graph.out_indices.tolist()
    ptr, heads, cum = graph.in_indptr.tolist(), graph.in_indices.tolist(), graph.in_cum.tolist()
    frontier = start.tolist()
    found, seen, trigger = list(frontier), set(frontier), dict.fromkeys(frontier, -1)
    while frontier:
        asks = [(key % n, key - key % n + v) for key in frontier
                for v in out_heads[out_ptr[key % n]:out_ptr[key % n + 1]]]
        fresh = sorted({asked for _, asked in asks} - trigger.keys())
        for key, r in zip(fresh, rng.random(len(fresh)).tolist()):
            v = key % n
            j = bisect_right(cum, r, ptr[v], ptr[v + 1])
            trigger[key] = heads[j] if j < ptr[v + 1] else -1
        frontier = sorted({asked for u, asked in asks if trigger[asked] == u} - seen)
        seen.update(frontier)
        found.extend(frontier)
    return np.array(found, dtype=np.int64)


def stable_argsort_index(set_ptr, members, node_count) -> tuple[np.ndarray, np.ndarray]:
    """The inverted index ``(node_ptr, node_sets)`` of a CSR corpus: each
    member's set id, ordered by a stable argsort of the members."""
    set_of = np.repeat(np.arange(len(set_ptr) - 1, dtype=np.int32), np.diff(set_ptr))
    node_ptr = np.concatenate([[0], np.cumsum(np.bincount(members, minlength=node_count))])
    return node_ptr, set_of[np.argsort(members, kind="stable")]


def exhaustive_expectation(graph, model, seeds, targets=None) -> tuple[float, float]:
    """Exact expected (spread, capital) by enumerating live-edge outcomes.

    Refuses instances whose outcome space exceeds the module limits.
    """
    seeds = sorted({int(v) for v in seeds})
    if not seeds:
        raise ConfigError("seed set must be non-empty")
    check_model(graph, model)
    target_score = np.zeros(graph.node_count, dtype=np.float64)
    if targets is not None:
        target_score[targets.members] = graph.t[targets.members]
    ptr, heads = graph.out_indptr.tolist(), graph.out_indices.tolist()

    if model == "ic":
        m = graph.edge_count
        if m > MAX_EXHAUSTIVE_EDGES:
            raise ConfigError(f"exhaustive ic enumeration limited to {MAX_EXHAUSTIVE_EDGES} edges")

        # out-CSR edge order; probability of a pattern is the product over edges
        def outcomes():
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


# ---------------------------------------------------------------------------
# Reference greedy: per-node Python counts of the capital gain.
# ---------------------------------------------------------------------------

def _capital_score(set_ids, covered, unit) -> float:
    # Capital per covered set times the count of uncovered sets.
    return unit * sum(1 for i in set_ids if not covered[i])


def reference_seed_set(node_ptr, node_sets, theta, total, k, alpha, diversity, lazy=True):
    """The lazy (CELF) or eager greedy with each node's capital gain over the
    theta sets of an inverted index, each set worth total / theta, counted in
    Python over its own list of uncovered set ids.  Returns the seeds and the
    per-round ``(capital, diversity, combined)`` gains."""
    n = len(node_ptr) - 1
    unit = float(total) / theta
    covered = np.zeros(theta, dtype=bool)
    ptr, ids = node_ptr.tolist(), node_sets.tolist()
    remaining = [ids[ptr[v]:ptr[v + 1]] for v in range(n)]   # lazy mode drops covered ids
    push_c = np.zeros(n, dtype=np.float64)
    push_d = np.zeros(n, dtype=np.float64)
    seeds, trace = [], []

    if lazy:
        heap = []
        for v in range(n):
            push_c[v] = _capital_score(remaining[v], covered, unit)
            push_d[v] = diversity.gain(v)
            heap.append((-(alpha * push_c[v] + (1 - alpha) * push_d[v]), v, 0))
        heapq.heapify(heap)
        while len(seeds) < k and heap:
            neg_score, v, tag = heapq.heappop(heap)
            if -neg_score <= 0.0:
                break
            if tag == len(seeds):
                seeds.append(v)
                for i in remaining[v]:
                    covered[i] = True
                diversity.commit(v)
                trace.append((float(push_c[v]), float(push_d[v]), float(-neg_score)))
            else:
                remaining[v] = [i for i in remaining[v] if not covered[i]]
                push_c[v] = _capital_score(remaining[v], covered, unit)
                push_d[v] = diversity.gain(v)
                score = alpha * push_c[v] + (1 - alpha) * push_d[v]
                heapq.heappush(heap, (-score, v, len(seeds)))
    else:
        candidates = set(range(n))
        while len(seeds) < k and candidates:
            best_v, best_score, best_c, best_d = -1, 0.0, 0.0, 0.0
            for v in sorted(candidates):
                c = _capital_score(remaining[v], covered, unit)
                d = diversity.gain(v)
                score = alpha * c + (1 - alpha) * d
                if score > best_score:
                    best_v, best_score, best_c, best_d = v, score, c, d
            if best_v < 0:
                break
            seeds.append(best_v)
            candidates.discard(best_v)
            covered[node_sets[node_ptr[best_v]:node_ptr[best_v + 1]]] = True
            diversity.commit(best_v)
            trace.append((float(best_c), float(best_d), float(best_score)))
    return seeds, trace


# ---------------------------------------------------------------------------
# Eager greedies that re-score every candidate each round.
# ---------------------------------------------------------------------------

def reference_greedy_cover(set_ptr, members, node_count, k) -> list[int]:
    """Plain size-k maximum coverage: the most uncovered sets, then the
    smallest id; stops once no node covers an uncovered set."""
    set_of = np.repeat(np.arange(len(set_ptr) - 1), np.diff(set_ptr))
    alive = np.ones(len(set_ptr) - 1, dtype=bool)
    chosen = []
    for _ in range(min(k, node_count)):
        counts = np.bincount(members[alive[set_of]], minlength=node_count)
        if not counts.any():
            break
        best = int(np.argmax(counts))
        chosen.append(best)
        alive[set_of[members == best]] = False
    return chosen


def reference_deg_d(graph, diversity, gamma, k) -> list[tuple[int, float]]:
    """k picks of ``(1 - gamma) * out-degree + gamma * diversity gain``, ties
    to the lowest id, zero scores included; returns (node, score) pairs."""
    degrees = graph.out_degrees().astype(np.float64)
    picks = []
    candidates = list(range(graph.node_count))
    for _ in range(min(k, graph.node_count)):
        best_v, best_score = -1, -np.inf
        for v in candidates:
            score = (1.0 - gamma) * degrees[v] + gamma * diversity.gain(v)
            if score > best_score:
                best_v, best_score = v, score
        picks.append((best_v, best_score))
        candidates.remove(best_v)
        diversity.commit(best_v)
    return picks
