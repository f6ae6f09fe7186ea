"""``rng.stream`` is the Philox that ``stream_key`` names, and nothing shared."""

import numpy as np
import pytest

from conftest import run_python
from shapval.rng import stream, stream_key

SEEDS = (0, 1, 7, -1, -(2**70), 2**64, 2**64 + 1, 12345678901234567890123)
TAGS = ("perm", "group-test", "baseline", "", "é|x")
INDICES = (0, 1, 2, 255, 2**40)


def same_state(a, b) -> bool:
    """Deep equality of two ``bit_generator.state`` dicts, array dtypes included."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_is_philox_keyed_by_stream_key(seed):
    for tag in TAGS:
        for index in INDICES:
            g = stream(seed, tag, index)
            ref = np.random.Generator(np.random.Philox(key=stream_key(seed, tag, index)))
            assert same_state(g.bit_generator.state, ref.bit_generator.state)
            assert np.array_equal(g.random(5), ref.random(5))
            assert np.array_equal(g.integers(0, 2**32, size=3, dtype=np.uint32),
                                  ref.integers(0, 2**32, size=3, dtype=np.uint32))
            # an odd number of 32-bit draws leaves a buffered half-word behind
            assert same_state(g.bit_generator.state, ref.bit_generator.state)


def test_default_index_is_zero():
    assert np.array_equal(stream(3, "perm").random(4), stream(3, "perm", 0).random(4))


def test_live_streams_share_no_state():
    a, b = stream(5, "perm", 0), stream(5, "perm", 1)
    b_next = stream(5, "perm", 1).random(3)
    a.random(1000)
    a.permuted(np.tile(np.arange(16), (64, 1)), axis=1)
    assert np.array_equal(b.random(3), b_next)
    # the same key twice is two generators, not one
    c, d = stream(5, "perm", 2), stream(5, "perm", 2)
    c.random(10)
    assert np.array_equal(d.random(3), stream(5, "perm", 2).random(3))


def test_the_key_sequence_gives_only_a_philox_key():
    seq = stream(1, "perm").bit_generator.seed_seq
    assert np.array_equal(seq.generate_state(2, np.uint64), stream_key(1, "perm"))
    for n_words, dtype in ((4, np.uint32), (2, np.uint32), (1, np.uint64), (3, np.uint64)):
        with pytest.raises(ValueError):
            seq.generate_state(n_words, dtype)


def test_importing_the_samplers_leaves_numpy_random_unloaded():
    result = run_python("-c", (
        "import sys\n"
        "import shapval.permutation, shapval.group_testing, shapval.compressive\n"
        "print('numpy.random' in sys.modules)\n"
    ))
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False"]
