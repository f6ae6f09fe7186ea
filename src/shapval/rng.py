"""Counter-based random streams.

Every stochastic routine in the package derives its randomness from
(master seed, module tag, chunk index) triples, hashed into independent
Philox keys.  One stream serves a whole chunk of work (a block of
orderings or of pooled tests), so chunks can be executed in any order,
on any number of threads, and still consume exactly the same random
numbers.  Because the key is the chunk index, not the index of an
ordering or test, the chunk sizes are part of the output contract.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stream_key(seed: int, tag: str, index: int = 0) -> np.ndarray:
    """128-bit Philox key for the (seed, tag, index) substream."""
    msg = f"{int(seed)}|{tag}|{int(index)}".encode()
    digest = hashlib.blake2b(msg, digest_size=16).digest()
    return np.frombuffer(digest, dtype=np.uint64)


def stream(seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """Independent generator for the (seed, tag, index) substream."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, tag, index)))
