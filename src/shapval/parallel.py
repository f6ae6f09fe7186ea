"""Deterministic chunk-level parallelism.

Work is split into fixed chunks, each drawing its randomness from one
stream keyed on its chunk index; each chunk's result is added to a
running total once every lower-index chunk's has been, so the total is
bitwise identical for every worker count and no more results are held
than finished out of order.  Chunk boundaries depend only on the total
and the chunk size, which makes the chunk size part of the output
contract: for a given seed, changing it changes the values.

A call with ``threads`` workers runs chunks on the calling thread and
on up to ``threads - 1`` helper threads (named ``shapval…``) of one
pool that the process creates on first use and keeps.  When the chunks
run out, the caller cancels the helpers that have not started and waits
only for those that have, so a nested call or a forked child (which has
none of the parent's threads and builds its own pool) never waits on a
thread that cannot run.
"""

from __future__ import annotations

import numbers
import os
import threading
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ConfigError

if TYPE_CHECKING:
    from concurrent.futures import Future, ThreadPoolExecutor

THREADS_ENV = "SHAPVAL_THREADS"
_MAX_THREADS = 256  # a call starts up to this many - 1 helper threads


def resolve_threads(requested: int | None = None) -> int:
    """Worker count: explicit request capped by the SHAPVAL_THREADS env var.

    ``None`` is no request; an explicit request must be an integer from 1
    to ``_MAX_THREADS`` (a bool is not one).  A set but empty variable is
    no cap; any other value must be an integer in the same range.  Either
    violation raises ``ConfigError``, so no count can ask the pool for
    more threads than the bound.
    """
    if requested is not None and (
        isinstance(requested, bool)
        or not isinstance(requested, numbers.Integral)
        or not 1 <= requested <= _MAX_THREADS
    ):
        raise ConfigError(
            f"worker count must be an integer of at least 1 and at most {_MAX_THREADS},"
            f" got {requested!r}"
        )
    raw = os.environ.get(THREADS_ENV, "").strip()
    if not raw:
        return requested or 1
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if not 1 <= cap <= _MAX_THREADS:
        raise ConfigError(
            f"{THREADS_ENV} must be an integer of at least 1 and at most {_MAX_THREADS},"
            f" got {raw!r}"
        )
    return min(requested or cap, cap)


def check_count(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer in [1, 2^63), so that a
    ``range`` of it has a length; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not 0 < value < 1 << 63:
        raise ValueError(f"{name} must be a positive integer below 2^63, got {value!r}")


_pool: ThreadPoolExecutor | None = None
_pool_size = 0
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """A forked child has none of the parent's threads: build a new pool."""
    global _pool, _pool_size, _pool_lock
    _pool, _pool_size, _pool_lock = None, 0, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _start_helpers(work: Callable[[], None], count: int) -> list[Future]:
    """Queue ``count`` runs of ``work`` on the shared pool, grown to fit."""
    global _pool, _pool_size
    with _pool_lock:
        if _pool_size < count:
            from concurrent.futures import ThreadPoolExecutor  # loaded by the first pool only

            if _pool is not None:
                _pool.shutdown(wait=False)  # queued helpers still run
            _pool = ThreadPoolExecutor(count, thread_name_prefix="shapval")
            _pool_size = count
        return [_pool.submit(work) for _ in range(count)]


def ordered_chunk_map(
    fn: Callable[[int, int, int], np.ndarray],
    ranges: range,
    threads: int | None = None,
) -> np.ndarray:
    """Float64 sum of fn(chunk_index, lo, hi) over at least one chunk, in chunk order.

    Chunk i of ``ranges``, a ``range(0, total, size)``, covers
    [ranges[i], min(ranges[i] + size, total)).  It keeps its map name
    because the benchmark's tracer patches it by name.  ``threads`` goes through ``resolve_threads``.  Chunks are claimed in
    increasing index order, and a finished result waits in ``pending``
    only until every lower index has been added: the additions of
    ``total = parts[0]; total += parts[1]; ...``, in that order, since
    floating-point addition is not associative.  Once a chunk fails no
    new chunk is claimed; the chunks already running finish and the
    lowest-index failure is raised, which is the error one thread would
    have raised.  No chunk is running when the call returns or raises.
    """
    threads = resolve_threads(threads)
    n = len(ranges)
    pending: dict[int, np.ndarray] = {}
    errors: dict[int, BaseException] = {}
    lock = threading.Lock()
    claimed = added = 0
    total = None

    def work() -> None:
        nonlocal claimed, added, total
        while True:
            with lock:
                if errors or claimed == n:
                    return
                i = claimed
                claimed += 1
            lo = ranges[i]
            try:
                part = fn(i, lo, min(lo + ranges.step, ranges.stop))
            except BaseException as exc:  # raised by the caller below
                with lock:
                    errors[i] = exc
                return
            with lock:
                pending[i] = part
                while added in pending:
                    part = pending.pop(added)
                    if added == 0:
                        total = np.array(part, dtype=np.float64)
                    else:
                        total += part
                    added += 1

    helpers = _start_helpers(work, min(threads, n) - 1)
    try:
        work()
    finally:
        with lock:
            claimed = n  # the caller may be leaving on an interrupt
        for helper in helpers:
            if not helper.cancel():
                helper.result()
    if errors:
        raise errors[min(errors)]
    return total
