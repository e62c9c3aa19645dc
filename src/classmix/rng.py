"""Deterministic, splittable random streams.

Every stream is derived from a 64-bit master seed plus an integer path, so
parallel tasks can draw independently while the whole run stays reproducible.
"""

from __future__ import annotations

import numpy as np


def make_stream(seed: int, *path: int) -> np.random.Generator:
    """Return a PCG64 generator keyed by (seed, path).

    Streams with equal (seed, path) are identical; distinct paths are
    statistically independent.
    """
    seq = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.PCG64(seq))

