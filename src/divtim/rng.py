"""Deterministic random streams built on the Philox counter-based generator.

Every unit of work (one batch of reverse reachable sets or of simulation
runs) draws only from its own stream keyed by ``(master seed, stream
id)``, where the master seed already encodes the phase.  A batch's
result therefore depends on its id and the batch size alone, not on
which batches were drawn before it; since batches are always drawn in
full, set 17 of a corpus is the same whether the corpus holds 20 sets or
20,000.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def stream(master_seed: int, stream_id: int) -> np.random.Generator:
    """Generator for one work unit, keyed by (master_seed, stream_id)."""
    key = ((master_seed & _MASK64) << 64) | (stream_id & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def phase_seed(master_seed: int, tag: int) -> int:
    """Derive an independent 64-bit master seed for a pipeline phase.

    Phases (corpus generation, estimation batches, simulation, synthesis)
    must not share streams even when given the same master seed.
    """
    ss = np.random.SeedSequence((master_seed & _MASK64, tag & _MASK64))
    return int(ss.generate_state(1, np.uint64)[0])
