"""The ``ordered_chunk_map`` contract.

Chunks run on the calling thread and on helper threads of one shared
pool.  Results are added in chunk order, whatever order they finish in,
and only those that finish out of order are held; the lowest-index
failure is the error raised, nothing is left running when the call
ends, nested calls and forked children complete, and repeated calls
start no new threads.  The layer caps explicit thread counts by
``SHAPVAL_THREADS``, so every test here runs with the variable unset.
"""

import functools
import multiprocessing
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from shapval import estimate_compressive, estimate_permutation, make_additive_game, PermutationBudget
from shapval.group_testing import _TEST_CHUNK, estimate_group_testing
from shapval.parallel import ordered_chunk_map
from shapval.permutation import ORDERING_CHUNK

from conftest import chunks

THREADS = [2, 3]
JOIN_TIMEOUT = 60.0


@pytest.fixture(autouse=True)
def no_thread_cap(monkeypatch):
    monkeypatch.delenv("SHAPVAL_THREADS", raising=False)


class Tracker:
    """Counts the chunks running now and records every chunk started."""

    def __init__(self):
        self.lock = threading.Lock()
        self.running = 0
        self.started = []
        self.threads = set()

    def wrap(self, body):
        def fn(i, lo, hi):
            with self.lock:
                self.running += 1
                self.started.append(i)
                self.threads.add(threading.get_ident())
            try:
                return body(i, lo, hi)
            finally:
                with self.lock:
                    self.running -= 1

        return fn


def run_bounded(target):
    """Run target() on a daemon thread; fail instead of hanging."""
    out = {}

    def main():
        out["value"] = target()

    t = threading.Thread(target=main, daemon=True)
    t.start()
    t.join(JOIN_TIMEOUT)
    assert not t.is_alive(), "call did not finish"
    return out["value"]


# 1 + 2**53 rounds back to 2**53, so over 8 chunks these fold to 0.0 in
# index order and to 4.0 in reverse: the total shows the order of the additions
ORDER_SENSITIVE = [1.0, 2.0**53, 1.0, -(2.0**53)]


@pytest.mark.parametrize("threads", [1, *THREADS])
def test_results_added_in_chunk_order_when_later_chunks_finish_first(threads):
    ranges = range(0, 30, 4)
    finished = []
    last_done = threading.Event()

    def fn(i, lo, hi):
        if i == 0 and threads > 1:  # chunk 0 finishes after every other chunk
            assert last_done.wait(JOIN_TIMEOUT)
        finished.append(i)
        if i == len(ranges) - 1:
            last_done.set()
        return np.array([ORDER_SENSITIVE[i % 4], hi - lo])

    parts = [np.array([ORDER_SENSITIVE[i % 4], hi - lo]) for i, lo, hi in chunks(30, 4)]
    in_order = functools.reduce(lambda a, b: a + b, parts)
    assert in_order.tobytes() != functools.reduce(lambda a, b: a + b, parts[::-1]).tobytes()
    got = ordered_chunk_map(fn, ranges, threads)
    assert got.dtype == np.float64
    assert got.tobytes() == in_order.tobytes()
    assert sorted(finished) == list(range(len(ranges)))
    assert finished[-1] == (len(ranges) - 1 if threads == 1 else 0)


def chunk_peak_bytes(count):
    """tracemalloc peak of a one-thread call whose one-index chunks each return 80 kB."""
    tracemalloc.start()
    try:
        ordered_chunk_map(lambda i, lo, hi: np.ones(10_000), range(0, count, 1), 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_the_chunk_count():
    # a list of every chunk's result would hold 400 * 80 kB = 32 MB
    assert chunk_peak_bytes(400) - chunk_peak_bytes(4) < 1_000_000


def failed_call_peak_bytes(count):
    """tracemalloc peak of a one-thread call over ``count`` chunks whose first raises."""

    def fail(i, lo, hi):
        raise RuntimeError("chunk 0")

    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match="chunk 0"):
            ordered_chunk_map(fail, range(0, count, 1), 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_no_chunk_is_listed_before_it_runs():
    # a list of 2^16 (lo, hi) tuples would take several MB
    assert failed_call_peak_bytes(1 << 16) - failed_call_peak_bytes(1) < 4096


@pytest.mark.parametrize("threads", [1, *THREADS])
def test_lowest_index_failure_is_raised_and_nothing_is_left_running(threads):
    # chunk 2 fails at once, chunk 1 only after a wait: chunk 1's error is
    # the one a single thread raises
    tracker = Tracker()

    def body(i, lo, hi):
        if i == 2:
            raise ValueError("chunk 2")
        time.sleep(0.08 if i == 1 else 0.02)
        if i == 1:
            raise KeyError("chunk 1")
        return i

    with pytest.raises(KeyError, match="chunk 1"):
        try:
            ordered_chunk_map(tracker.wrap(body), range(0, 40, 1), threads)
        finally:
            assert tracker.running == 0
    assert set(tracker.started) >= {0, 1}


@pytest.mark.parametrize("threads", THREADS)
def test_no_chunk_starts_after_a_failure(threads):
    # every other chunk waits until chunk 1 has failed and then some more, so
    # only chunks claimed before the failure can have started: one per thread
    tracker = Tracker()
    failed = threading.Event()

    def body(i, lo, hi):
        if i == 1:
            failed.set()
            raise RuntimeError("chunk 1")
        failed.wait(JOIN_TIMEOUT)
        time.sleep(0.1)
        return i

    with pytest.raises(RuntimeError, match="chunk 1"):
        ordered_chunk_map(tracker.wrap(body), range(0, 50, 1), threads)
    assert tracker.running == 0
    assert 1 in tracker.started
    assert max(tracker.started) < threads


@pytest.mark.parametrize("threads", THREADS)
def test_nested_calls_complete(threads):
    inner = range(0, 30, 4)  # 8 chunks, so ORDER_SENSITIVE folds to 0.0 in order

    def outer_chunk(i, lo, hi):
        fold, owner, size = ordered_chunk_map(
            lambda j, a, b: np.array([ORDER_SENSITIVE[j % 4], i, b - a]), inner, threads=2
        )
        assert (fold, owner, size) == (0.0, 8 * i, 30)
        return np.array([i, 1])

    def call():
        return ordered_chunk_map(outer_chunk, range(0, 7, 1), threads)

    assert run_bounded(call).tolist() == [sum(range(7)), 7]


def test_repeated_calls_start_no_new_threads():
    ranges = range(0, 9, 2)
    for threads in THREADS:
        ordered_chunk_map(lambda i, lo, hi: i, ranges, threads)
    before = threading.active_count()
    for k in range(200):
        assert ordered_chunk_map(lambda i, lo, hi: hi - lo, ranges, THREADS[k % 2]) == 9
    # the pool may still spawn up to its size lazily, but not one per call
    assert threading.active_count() <= before + max(THREADS) - 1
    names = [t.name for t in threading.enumerate()]
    assert any(name.startswith("shapval") for name in names)
    assert not any(name.startswith("ThreadPoolExecutor") for name in names)


def nap(i, lo, hi):
    time.sleep(0.005)
    return np.zeros(1)


@pytest.mark.parametrize("threads", [1, *THREADS])
def test_calling_thread_runs_chunks(threads):
    tracker = Tracker()
    ordered_chunk_map(tracker.wrap(nap), range(0, 12, 1), threads)
    assert threading.get_ident() in tracker.threads
    assert sorted(tracker.started) == list(range(12))


def test_every_chunk_runs_once_under_fast_thread_switching():
    # more workers than cores and a switch after almost every bytecode: a lost
    # update of the shared chunk counter would run a chunk twice or skip one
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (4, 7):
            tracker = Tracker()
            got = run_bounded(
                lambda: ordered_chunk_map(tracker.wrap(lambda i, lo, hi: lo), range(0, 2000, 1), threads)
            )
            assert got == sum(range(2000))
            assert sorted(tracker.started) == list(range(2000))
    finally:
        sys.setswitchinterval(old)


WEIGHTS = np.linspace(0.1, 1.0, 63)
GAME = make_additive_game(WEIGHTS / WEIGHTS.sum())


def group_test_values(threads):
    return estimate_group_testing(
        GAME, 0.3, 0.1, seed=3, recovery="feasibility", t_tests=3 * _TEST_CHUNK + 17, threads=threads
    ).values.tobytes()


def baseline_values(threads):
    # the baseline player's orderings span six chunks, so two threads start a helper
    return estimate_group_testing(
        GAME, 0.3, 0.1, seed=3, recovery="baseline", threads=threads
    ).values.tobytes()


def _child_values(conn):
    conn.send(baseline_values(2))
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
def test_forked_child_after_a_threaded_call():
    parent = baseline_values(2)
    assert any(t.name.startswith("shapval") for t in threading.enumerate())
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_values, args=(send,))
    child.start()
    send.close()
    try:
        assert recv.poll(JOIN_TIMEOUT), "forked child did not finish"
        got = recv.recv()
    finally:
        child.join(JOIN_TIMEOUT)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    assert got == parent


def test_estimators_identical_at_one_two_and_three_threads():
    def run(threads):
        t = 3 * ORDERING_CHUNK + 5
        return [
            group_test_values(threads),
            baseline_values(threads),
            estimate_compressive(GAME, 16, t, 0.1, seed=3, threads=threads).values.tobytes(),
            estimate_permutation(GAME, PermutationBudget(t), seed=3, threads=threads).values.tobytes(),
        ]

    one = run(1)
    assert run(2) == one
    assert run(3) == one
