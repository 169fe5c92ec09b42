"""Monotone submodular diversity functions over categorical profiles, and
the weighted ``Coverage`` that the capital and the hamming balls share.

All functions share one stateful contract: ``value()`` is the value
of the committed set, ``gain(v)`` is the marginal value of adding ``v``,
and ``commit(v)`` applies the addition.  Gains are computed
incrementally, never by re-evaluating the whole set, and are clipped at
zero to absorb negative floating-point dust.
"""

from __future__ import annotations

import math
from typing import Sequence, TextIO

import numpy as np

from .errors import ConfigError, FormatError, UsageError
from .graph import DiffusionGraph, strong_components
from .profiles import MISSING, ProfileSet
from .sampler import _expand, batch_size, live_edge_search
from .textio import data_lines, node_rows


def _h(mass: float) -> float:
    """Entropy contribution -m*log2(m), with h(0) = 0."""
    return -mass * math.log2(mass) if mass > 0.0 else 0.0


class DiversityFunction:
    """Base contract: value / gain / commit / reset over node ids."""

    name = "abstract"

    def __init__(self):
        self._committed: set[int] = set()

    @property
    def committed(self) -> tuple[int, ...]:
        return tuple(sorted(self._committed))

    def value(self) -> float:
        raise NotImplementedError

    def gain(self, v: int) -> float:
        if v in self._committed:
            raise UsageError(f"node {v} already committed")
        return max(0.0, float(self._gain(v)))

    def commit(self, v: int) -> float:
        g = self.gain(v)
        self._apply(v)
        self._committed.add(v)
        return g

    def reset(self) -> None:
        self._committed.clear()
        self._reset()

    def max_value_for_budget(self, k: int) -> float | None:
        """Theoretical maximum for a size-k set, when one is known."""
        return None

    def _gain(self, v: int) -> float:
        raise NotImplementedError

    def _apply(self, v: int) -> None:
        raise NotImplementedError

    def _reset(self) -> None:
        raise NotImplementedError


class Coverage(DiversityFunction):
    """Node v covers ``elements[ptr[v]:ptr[v + 1]]`` of ``size`` elements, each
    worth ``total / size``: the capital over an RR corpus, the hamming balls
    and out-degree.  Gains are uncovered counts times that one unit."""

    name = "coverage"

    def __init__(self, ptr: np.ndarray, elements: np.ndarray, size: int, total: float):
        super().__init__()
        self.ptr, self.elements, self.size, self.total = ptr, elements, size, total
        self.unit = total / size if size else 0.0
        self._covered = np.zeros(size, dtype=bool)

    def covers(self, v: int) -> np.ndarray:
        return self.elements[self.ptr[v]:self.ptr[v + 1]]

    def gains(self) -> np.ndarray:
        """Every node's gain on the empty set."""
        return self.unit * np.diff(self.ptr)

    def value(self) -> float:
        return self.total * int(np.count_nonzero(self._covered)) / self.size if self.size else 0.0

    def max_value_for_budget(self, k: int) -> float:
        return float(self.total)

    def _gain(self, v: int) -> float:
        # int(): a Python float times a numpy integer takes numpy's slow scalar
        # path; take() gathers without fancy indexing's cast of the int32 ids
        covers = self.covers(v)
        return self.unit * (covers.size - int(np.count_nonzero(self._covered.take(covers))))

    def _apply(self, v: int) -> None:
        self._covered[self.covers(v)] = True

    def _reset(self) -> None:
        self._covered[:] = False


def harmonic_power_sum(count: int, lam: float) -> float:
    """sum_{i=1}^{count} i^-lam."""
    return sum(i ** -lam for i in range(1, count + 1))


def aw_theoretical_max(k: int, domain_sizes: Sequence[int], lam: float) -> float:
    """Maximum attribute-wise diversity achievable with budget k.

    Attained by spreading the k picks as evenly as possible over each
    attribute's values: every value is used floor(k/d) times and k mod d
    values absorb one extra pick.
    """
    if k < 1:
        raise ConfigError("budget must be at least 1")
    w = 1.0 / len(domain_sizes)
    total = 0.0
    for d in domain_sizes:
        if d == 0:
            continue  # an attribute no node has a value for adds nothing
        q, r = divmod(k, d)
        total += w * (d * harmonic_power_sum(q, lam) + r * (1.0 + q) ** -lam)
    return float(total)


class AttributeWiseDiversity(DiversityFunction):
    """Per-value diminishing returns: the i-th repeat of a value adds i^-lam.

    Each of the m attributes weighs 1/m.
    """

    name = "aw"

    def __init__(self, profiles: ProfileSet, lam: float = 1.0):
        super().__init__()
        if not lam >= 1.0:
            raise ConfigError("lambda must be >= 1")
        self.profiles = profiles
        self.lam = float(lam)
        self._weight = 1.0 / profiles.schema.m
        self._reset()

    def value(self) -> float:
        return self._value

    def _gain(self, v: int) -> float:
        g = 0.0
        for j, c in self.profiles.values_of(v):
            g += self._weight * (self._counts[j][c] + 1.0) ** -self.lam
        return g

    def _apply(self, v: int) -> None:
        for j, c in self.profiles.values_of(v):
            self._value += self._weight * (self._counts[j][c] + 1.0) ** -self.lam
            self._counts[j][c] += 1

    def _reset(self) -> None:
        # Python ints: numpy scalar reads would cost more than the arithmetic
        self._counts = [[0] * d for d in self.profiles.schema.domain_sizes()]
        self._value = 0.0

    def max_value_for_budget(self, k: int) -> float:
        return aw_theoretical_max(k, self.profiles.schema.domain_sizes(), self.lam)


def _ball_chunk(centre: np.ndarray, lo: np.ndarray, hi: np.ndarray, reach: np.ndarray,
                ours: np.ndarray, theirs: np.ndarray, radius: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Ball sizes of the nodes in ``centre`` and their members, grouped by
    centre: centre[i] is compared with each node of reach[lo[i]:hi[i]]."""
    pos, owner = _expand(lo, hi)
    node, width, m = reach[pos], hi - lo, len(theirs)
    same = np.zeros(node.size, np.min_scalar_type(m))
    for mine, other in zip(ours, theirs):
        same += np.repeat(mine[centre], width) == other[node]
    keep = (same >= m - radius) & (np.repeat(centre, width) != node)
    return np.bincount(owner[keep], minlength=centre.size), node[keep].astype(np.int32)


def hamming_balls(graph: DiffusionGraph, codes: np.ndarray, radius: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Every node's Hamming ball as one CSR pair ``(ball_ptr, ball_nodes)``.

    Node v's ball, ``ball_nodes[ball_ptr[v]:ball_ptr[v + 1]]`` in ascending
    order, holds the nodes v reaches along directed edges (v excluded,
    even on a cycle) whose profiles differ from v's in at most ``radius``
    attributes.  A missing value mismatches everything, another missing
    value included.  Edge probabilities are ignored: reachability is
    purely topological.

    Every member of a strongly connected component reaches the same nodes,
    so the kernel runs one search per component, from its smallest node.
    Once the members of the components searched so far face 2^14 (centre,
    reached node) pairs, or at the end, those centres are compared with
    their component's reach, in chunks of about 2^14 pairs, and the reach
    is dropped: memory stays within one kernel call's keys plus one chunk,
    and the work is proportional to the total reach of all centres.
    """
    n = codes.shape[0]
    label = strong_components(graph)
    first = np.unique(label, return_index=True)[1]     # each component's smallest node
    # Components are numbered by their smallest node, so kernel calls take
    # starts in node order; in Tarjan's order a 3000-node DAG searched 16%
    # more levels.
    starts = np.sort(first)
    component = np.searchsorted(starts, first[label])
    by_component = np.argsort(component, kind="stable")
    members = np.bincount(component)
    member_ptr = np.concatenate([[0], np.cumsum(members)])
    # A forward search over every edge finds about n keys per start, not
    # the handful of an RR set, so a call expands batch_size(n) // 32
    # starts to keep its edge gathers as small as a sampling batch's.
    per_call = max(1, batch_size(n) // 32)
    # With every edge certain each coin lands live, so the forward search
    # is topological and its result does not depend on the stream.
    certain = graph.with_probs(np.ones(graph.edge_count))
    rng = np.random.default_rng(0)
    theirs = np.ascontiguousarray(codes.T)
    # a centre's missing value becomes a code that matches nothing
    ours = np.where(theirs == MISSING, MISSING - 1, theirs)
    count, pieces = np.zeros(n, dtype=np.int64), []
    sizes, reached, done, pairs = [], [], 0, 0
    for lo in range(0, starts.size, per_call):
        hi = min(lo + per_call, starts.size)
        keys = np.sort(live_edge_search(certain, "ic", True, hi - lo,
                                        np.arange(hi - lo) * n + starts[lo:hi], rng))
        item, u = np.divmod(keys, n)
        sizes.append(np.bincount(item, minlength=hi - lo))
        reached.append(u)
        pairs += int(sizes[-1] @ members[lo:hi])
        if pairs < 1 << 14 and hi < starts.size:
            continue
        size, reach = np.concatenate(sizes), np.concatenate(reached)
        reach_ptr = np.concatenate([[0], np.cumsum(size)])
        centres = by_component[member_ptr[done]:member_ptr[hi]]
        own = component[centres] - done
        width = size[own]
        cut = np.flatnonzero(np.diff((np.cumsum(width) - width) >> 14)) + 1
        for chunk, search in zip(np.split(centres, cut), np.split(own, cut)):
            count[chunk], nodes = _ball_chunk(chunk, reach_ptr[search], reach_ptr[search + 1],
                                              reach, ours, theirs, radius)
            pieces.append((chunk, nodes))
        sizes, reached, done, pairs = [], [], hi, 0
    # each chunk's members, grouped by centre, go to their centres' slots
    ball_ptr = np.concatenate([[0], np.cumsum(count)])
    ball_nodes = np.empty(ball_ptr[-1], dtype=np.int32)
    for chunk, nodes in pieces:
        ball_nodes[_expand(ball_ptr[chunk], ball_ptr[chunk + 1])[0]] = nodes
    return ball_ptr, ball_nodes


class HammingBallDiversity(Coverage):
    """Coverage of profile-space balls around each selected node.

    A node's ball holds the nodes it can reach whose profiles differ in
    at most ``radius`` attributes (see ``hamming_balls``); diversity is
    the size of the union of the selected nodes' balls, each node worth 1.
    Every ball is built once, at construction.
    """

    name = "hamming"

    def __init__(self, graph: DiffusionGraph, profiles: ProfileSet, radius: int):
        if radius < 1:
            raise ConfigError("radius must be a positive integer")
        if profiles.node_count != graph.node_count:
            raise ConfigError("profiles and graph disagree on node count")
        self.radius = int(radius)
        super().__init__(*hamming_balls(graph, profiles.codes, self.radius),
                         graph.node_count, graph.node_count)


class EntropyDiversity(DiversityFunction):
    """Joint entropy of the selected nodes' value-membership indicators.

    The sample space is the set of attribute values weighted by their
    relative frequency across the whole profile set.  Each committed node
    contributes a binary variable ("is the sampled value in my profile?");
    the joint entropy equals the base-2 entropy of the partition that the
    committed profiles induce on the sample space, so commits refine a
    partition instead of enumerating 0/1 tuples.
    """

    name = "entropy"

    def __init__(self, profiles: ProfileSet):
        super().__init__()
        self.profiles = profiles
        total = profiles.total_value_occurrences()
        self._prior: dict[tuple[int, int], float] = {}
        for j, counts in enumerate(profiles.value_counts):
            for c in np.flatnonzero(counts):
                self._prior[(j, int(c))] = float(counts[c]) / total
        self._reset()

    def _reset(self) -> None:
        self._group_of = {val: 0 for val in self._prior}
        self._mass = {0: 1.0}
        self._size = {0: len(self._prior)}
        self._next_gid = 1

    def value(self) -> float:
        return float(sum(_h(m) for m in self._mass.values()))

    def _split_masses(self, v: int) -> dict[int, tuple[float, int]]:
        """Per affected group: (mass moving to v's side, values moving)."""
        hit: dict[int, tuple[float, int]] = {}
        # a value present on a node has a positive count, so it has a prior
        for val in self.profiles.values_of(v):
            gid = self._group_of[val]
            mass, cnt = hit.get(gid, (0.0, 0))
            hit[gid] = (mass + self._prior[val], cnt + 1)
        return hit

    def _gain(self, v: int) -> float:
        g = 0.0
        for gid, (m_in, cnt) in self._split_masses(v).items():
            if cnt == self._size[gid]:
                continue  # whole group moves: no refinement
            total = self._mass[gid]
            g += _h(m_in) + _h(total - m_in) - _h(total)
        return g

    def _apply(self, v: int) -> None:
        hit = self._split_masses(v)
        moved_gids: dict[int, int] = {}
        for gid, (m_in, cnt) in hit.items():
            if cnt == self._size[gid]:
                continue  # the group lies entirely inside v's profile and keeps its id
            new_gid = self._next_gid
            self._next_gid += 1
            self._mass[new_gid] = m_in
            self._size[new_gid] = cnt
            self._mass[gid] -= m_in
            self._size[gid] -= cnt
            moved_gids[gid] = new_gid
        for val in self.profiles.values_of(v):
            old = self._group_of[val]
            self._group_of[val] = moved_gids.get(old, old)

    def max_value_for_budget(self, k: int) -> float:
        """min(k, H(prior)), at most log2 D over the D values of the domains.

        The value is the entropy of the partition that k binary indicators
        cut the values into.  It has at most 2^k blocks, so at most k bits,
        and it coarsens the partition into single values, whose entropy is
        H(prior); no distribution over D values has more than log2 D bits.
        """
        return min(float(k), sum(_h(p) for p in self._prior.values()))


class ClassDiversity(DiversityFunction):
    """Concave accumulation of selection rewards within profile classes.

    Picking from a class that already holds reward mass R adds
    log2(1 + r / (1 + R)); fresh classes therefore dominate stale ones.
    """

    name = "class"

    def __init__(self, classes: Sequence[int], rewards: Sequence[float]):
        super().__init__()
        # Python lists: the greedy reads one entry at a time
        self.classes = np.asarray(classes, dtype=np.int64).tolist()
        self.rewards = np.asarray(rewards, dtype=np.float64).tolist()
        if any(r <= 0 for r in self.rewards):
            raise ConfigError("selection rewards must be positive")
        self._acc = [0.0] * (max(self.classes, default=-1) + 1)

    def _class_of(self, v: int) -> int:
        c = self.classes[v]
        if c < 0:
            raise ConfigError(f"node {v} has no class assignment")
        return c

    def value(self) -> float:
        return float(np.sum(np.log2(1.0 + np.array([a for a in self._acc if a > 0]))))

    def _gain(self, v: int) -> float:
        c = self._class_of(v)
        r_l = 1.0 + self._acc[c]
        return math.log2(1.0 + self.rewards[v] / r_l)

    def _apply(self, v: int) -> None:
        self._acc[self._class_of(v)] += self.rewards[v]

    def _reset(self) -> None:
        self._acc = [0.0] * len(self._acc)

    def max_value_for_budget(self, k: int) -> float:
        """Sum of the k largest log2(1 + r_v).

        A bound because log2(1 + a + b) <= log2(1 + a) + log2(1 + b); with
        unit rewards it is k (for k up to the node count).
        """
        return float(np.sum(np.log2(1.0 + np.sort(self.rewards)[::-1][:k])))


class NumericDiversity(DiversityFunction):
    """Concave coverage of numeric preference types (uniform or weighted).

    ``D(S) = sum_m log2(1 + sum_{u in S} pref[u, m] * g(u))`` with g
    either identically 1 or the node out-degree.
    """

    name = "numeric"

    def __init__(self, preferences: np.ndarray, node_gains: np.ndarray):
        super().__init__()
        self.preferences = np.asarray(preferences, dtype=np.float64)
        if self.preferences.ndim != 2:
            raise ConfigError("preference matrix must be node x type")
        self.node_gains = np.asarray(node_gains, dtype=np.float64)
        self._acc = np.zeros(self.preferences.shape[1], dtype=np.float64)

    def _row(self, v: int) -> np.ndarray:
        if v >= self.preferences.shape[0]:
            raise ConfigError(f"node {v} has no preference vector")
        return self.preferences[v] * self.node_gains[v]

    def value(self) -> float:
        return float(np.sum(np.log2(1.0 + self._acc)))

    def _gain(self, v: int) -> float:
        add = self._row(v)
        return float(np.sum(np.log2(1.0 + self._acc + add) - np.log2(1.0 + self._acc)))

    def _apply(self, v: int) -> None:
        self._acc += self._row(v)

    def _reset(self) -> None:
        self._acc[:] = 0.0


def load_class_map(source: str | TextIO, node_labels: Sequence[str]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Read ``node class [reward]`` lines into (class ids, rewards).

    Unlisted nodes get class -1 (unassigned) and reward 1; class labels
    are densified in order of first appearance.
    """
    index = {lab: i for i, lab in enumerate(node_labels)}
    classes = np.full(len(node_labels), -1, dtype=np.int64)
    rewards = np.ones(len(node_labels), dtype=np.float64)
    class_ids: dict[str, int] = {}
    lines = ((lineno, line.split()) for lineno, line in data_lines(source))
    for lineno, v, rest in node_rows(lines, index, "class map line"):
        if len(rest) not in (1, 2):
            raise FormatError(f"class map line {lineno}: expected 'node class [reward]'")
        classes[v] = class_ids.setdefault(rest[0], len(class_ids))
        if len(rest) == 2:
            try:
                r = float(rest[1])
            except ValueError as exc:
                raise FormatError(f"class map line {lineno}: bad reward {rest[1]!r}") from exc
            if not math.isfinite(r) or r <= 0:
                raise FormatError(f"class map line {lineno}: reward must be positive and finite")
            rewards[v] = r
    return classes, rewards
