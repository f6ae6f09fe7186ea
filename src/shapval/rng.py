"""Counter-based random streams.

Every stochastic routine in the package derives its randomness from
(master seed, module tag, chunk index) triples, hashed with blake2b into
128-bit Philox keys (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC 2011).  A stream is a Philox keyed straight from that
digest: the key is all the state a Philox needs, so building one reads
no OS entropy.  One stream serves a whole chunk of work (a block of
orderings or of pooled tests), so chunks can be executed in any order,
on any number of threads, and still consume exactly the same random
numbers.  Because the key is the chunk index, not the index of an
ordering or test, the chunk sizes are part of the output contract.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np


def stream_key(seed: int, tag: str, index: int = 0) -> np.ndarray:
    """128-bit Philox key for the (seed, tag, index) substream."""
    msg = f"{int(seed)}|{tag}|{int(index)}".encode()
    digest = hashlib.blake2b(msg, digest_size=16).digest()
    return np.frombuffer(digest, dtype=np.uint64)


@functools.cache
def _key_sequence() -> type:
    """The seed sequence that hands Philox a ready key, defined on the
    first stream so that a process that never samples does not import
    ``numpy.random``.

    ``Philox(key=k)`` would first build a ``SeedSequence()`` from OS
    entropy and then overwrite the key it derives; handing Philox this
    sequence instead gives the same counter, key, buffer and draws.
    """
    from numpy.random.bit_generator import ISeedSequence

    class KeySequence(ISeedSequence):
        def __init__(self, key: np.ndarray) -> None:
            self.key = key

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError("a stream key is exactly two uint64 words")
            return self.key

    return KeySequence


def stream(seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """Independent generator for the (seed, tag, index) substream."""
    seq = _key_sequence()(stream_key(seed, tag, index))
    return np.random.Generator(np.random.Philox(seq))
