"""Degree-plus-diversity greedy baseline over numeric preference vectors.

The baseline scores a candidate by ``(1 - gamma) * out-degree + gamma *
marginal diversity`` where diversity is the concave coverage of
preference types; ``gamma`` plays the opposite role of the selection
trade-off ``alpha``, so comparisons map ``gamma = 1 - alpha``.
"""

from __future__ import annotations

import numpy as np

from .diversity import Coverage, NumericDiversity
from .errors import ConfigError
from .graph import DiffusionGraph
from .selector import lazy_greedy


def node_gain_vector(graph: DiffusionGraph, g_mode: str) -> np.ndarray:
    if g_mode == "unit":
        return np.ones(graph.node_count, dtype=np.float64)
    if g_mode == "degree":
        return graph.out_degrees().astype(np.float64)
    raise ConfigError(f"unknown g mode {g_mode!r}")


def deg_d_greedy(graph: DiffusionGraph, preferences: np.ndarray, g_mode: str,
                 gamma: float, k: int) -> list[int]:
    """Up to k seeds by the degree/diversity trade-off, out-degree being the
    coverage of out-edges; ties go to the lowest node id, and the picks stop
    once no node scores above 0."""
    if not (0.0 <= gamma <= 1.0):
        raise ConfigError("gamma must lie in [0, 1]")
    if preferences.shape[0] != graph.node_count:
        raise ConfigError("one preference vector per node required")
    if k < 1:
        raise ConfigError("budget k must be at least 1")
    m = graph.edge_count
    degree = Coverage(graph.out_indptr, np.arange(m), m, m)
    diversity = NumericDiversity(preferences, node_gain_vector(graph, g_mode))
    picks = lazy_greedy(k, [(1.0 - gamma, degree), (gamma, diversity)])
    return [v for v, _, _ in picks]
