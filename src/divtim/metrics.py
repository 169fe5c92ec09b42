"""Evaluation metrics for selected seed sets.

The headline metric is the value-distribution entropy of a seed set's
profiles, damped by a coverage penalty: spreading picks over few of the
available attribute values is penalized even when those few are balanced.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

from .errors import UsageError
from .profiles import ProfileSet


def seed_entropy(seed_set: Sequence[int], profiles: ProfileSet) -> float:
    """Entropy of the seeds' attribute-value distribution, coverage-penalized.

    Entropy is the base-2 Shannon entropy of value frequencies across the
    seeds' profiles; the penalty factor is 1 / (1 + log2(|dom| / |dom(S)|))
    where |dom| counts all declared values and |dom(S)| the distinct
    values the seeds actually use.  Seeds with no values score 0.
    """
    if not seed_set:
        raise UsageError("seed set must be non-empty")
    counts = Counter(i for v in seed_set for i in profiles.values[v])
    if not counts:
        return 0.0
    total = sum(counts.values())
    # summing negated terms keeps a one-value entropy at 0.0, not -0.0
    entropy = sum(-(c / total) * math.log2(c / total) for c in counts.values())
    zeta = 1.0 / (1.0 + math.log2(len(profiles.value_counts) / len(counts)))
    return entropy * zeta


def seed_overlap(s1: Sequence[int], s2: Sequence[int], k: int) -> float:
    """|intersection| / k for two size-k seed sets."""
    if len(s1) != k or len(s2) != k:
        raise UsageError(f"both seed sets must have size {k}")
    return len(set(s1) & set(s2)) / k

