"""Diversity-sensitive targeted influence maximization toolkit.

Selects seed sets that trade expected social capital against the
categorical diversity of the seeds, using weighted-root reverse
reachable sampling with a lazy-greedy cover, and validates its own
estimates with a Monte Carlo diffusion simulator.
"""

from .diversity import (AttributeWiseDiversity, ClassDiversity, DiversityFunction,
                        EntropyDiversity, HammingBallDiversity, NumericDiversity,
                        aw_theoretical_max)
from .errors import ConfigError, FormatError, UsageError
from .estimator import EstimationParams, estimate_params
from .graph import (DiffusionGraph, TargetSet, derive_targets_indegree, load_graph,
                    load_node_weights, save_graph, select_targets, synth_graph)
from .metrics import seed_entropy, seed_overlap
from .profiles import (ProfileSet, Schema, derive_numeric_preferences, load_profiles,
                       quantile_discretize, save_profiles, synth_profiles)
from .sampler import RRCorpus, generate_corpus, sample_roots
from .selector import SeedResult, build_seed_set
from .simulator import SimulationReport, simulate

__version__ = "0.1.0"
