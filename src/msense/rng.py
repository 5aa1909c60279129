"""Counter-based random streams with explicit purpose/index splitting.

Every random draw in the package comes from a Philox generator keyed by
(root seed, purpose tag, stream index).  Streams for different purposes or
indices are statistically independent and individually reproducible, so
sensing matrices, noise, and initialization draws never perturb each other
and a sweep cell's results do not depend on the cells before it.
"""

from __future__ import annotations

import numpy as np

from .errors import choice, count

SEED_MAX = 2**64 - 1  # seeds are 64-bit unsigned integers

# Stable purpose -> integer table. Never reorder or reuse ids; append only.
_PURPOSES = {
    "basis": 1,
    "sensing": 2,
    "noise": 3,
    "init": 4,
    "region": 5,
    "mc_noise": 6,
    "mc_deviation": 7,
    "mc_moment": 8,
    "mc_asq": 9,
}


def stream(seed, purpose, index=0):
    """Return a Generator for (seed, purpose, index).

    Same arguments give a bitwise-identical stream on every platform.
    """
    pid = _PURPOSES[choice("purpose", purpose, _PURPOSES)]
    seed = int(count("seed", seed, 0, SEED_MAX))
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(pid, int(index)))
    return np.random.Generator(np.random.Philox(ss))


def stable_hash64(*parts):
    """Deterministic 64-bit hash of string-able parts (for derived seeds)."""
    import hashlib

    h = hashlib.blake2b("\x1f".join(repr(p) for p in parts).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little")
