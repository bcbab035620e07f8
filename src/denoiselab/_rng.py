"""Named, derivable random streams.

Every stochastic step in the package draws from a generator obtained via
``derive_rng(seed, *labels)``.  The same (seed, labels) pair always yields
the same stream, and distinct labels yield independent streams, so
experiment stages can be rerun or parallelized without replaying each
other's draws.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_rng(seed: int, *labels: str) -> np.random.Generator:
    """Generator for the stream named by ``labels`` under a global seed in [0, 2**63)."""
    if not 0 <= seed < 2**63:  # distinct seeds name distinct streams
        raise ValueError(f"seed must be in [0, 2**63), got {seed}")
    entropy = [int(hashlib.sha256(label.encode()).hexdigest()[:16], 16) for label in labels]
    return np.random.default_rng(np.random.SeedSequence([int(seed), *entropy]))
