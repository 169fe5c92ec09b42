"""Diversity-sensitive targeted influence maximization toolkit.

Selects seed sets that trade expected social capital against the
categorical diversity of the seeds, using weighted-root reverse
reachable sampling with a lazy-greedy cover, and validates its own
estimates with a Monte Carlo diffusion simulator.
"""

import importlib

#: each submodule's public names; a name's submodule is imported when it is first read (PEP 562)
_EXPORTS = {
    "diversity": ("AttributeWiseDiversity", "ClassDiversity", "DiversityFunction",
                  "EntropyDiversity", "HammingBallDiversity", "NumericDiversity",
                  "aw_theoretical_max"),
    "errors": ("ConfigError", "FormatError", "UsageError"),
    "estimator": ("EstimationParams", "estimate_params"),
    "graph": ("DiffusionGraph", "TargetSet", "derive_targets_indegree", "load_graph",
              "load_node_weights", "save_graph", "select_targets", "synth_graph"),
    "metrics": ("seed_entropy", "seed_overlap"),
    "profiles": ("ProfileSet", "Schema", "derive_numeric_preferences", "load_profiles",
                 "quantile_discretize", "save_profiles", "synth_profiles"),
    "sampler": ("RRCorpus", "generate_corpus", "sample_roots"),
    "selector": ("SeedResult", "build_seed_set"),
    "simulator": ("SimulationReport", "simulate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return globals()[name]
