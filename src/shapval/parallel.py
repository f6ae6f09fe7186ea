"""Deterministic chunk-level parallelism.

Work is split into fixed chunks, each drawing its randomness from one
stream keyed on its chunk index; partial results are merged in chunk
order, so output is bitwise identical for every worker count.  Chunk
boundaries depend only on the total and the chunk size, which makes the
chunk size part of the output contract: for a given seed, changing it
changes the values.
"""

from __future__ import annotations

import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import ConfigError

T = TypeVar("T")

THREADS_ENV = "SHAPVAL_THREADS"


def resolve_threads(requested: int | None = None) -> int:
    """Worker count: explicit request capped by the SHAPVAL_THREADS env var.

    ``None`` is no request; an explicit request must be an integer of at
    least 1 (a bool is not one).  A set but empty variable is no cap; any
    other value must be a positive integer.  Either violation raises
    ``ConfigError``.
    """
    if requested is not None and (
        isinstance(requested, bool) or not isinstance(requested, numbers.Integral) or requested < 1
    ):
        raise ConfigError(f"worker count must be an integer of at least 1, got {requested!r}")
    raw = os.environ.get(THREADS_ENV, "").strip()
    if not raw:
        return requested or 1
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigError(f"{THREADS_ENV} must be a positive integer, got {raw!r}")
    return min(requested or cap, cap)


def check_count(name: str, value) -> None:
    """Raise ValueError unless ``value`` is a positive integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def chunk_ranges(total: int, size: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


def ordered_chunk_map(
    fn: Callable[[int, int, int], T],
    ranges: Sequence[tuple[int, int]],
    threads: int,
) -> list[T]:
    """Apply fn(chunk_index, lo, hi) to every chunk; results in chunk order."""
    if threads <= 1 or len(ranges) <= 1:
        return [fn(i, lo, hi) for i, (lo, hi) in enumerate(ranges)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(fn, i, lo, hi) for i, (lo, hi) in enumerate(ranges)]
        return [f.result() for f in futures]


def ordered_sum(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Sum per-chunk results in chunk order.

    Floating-point addition is not associative; a fixed order is what
    keeps totals identical for every worker count.
    """
    total = np.array(parts[0], dtype=np.float64)
    for p in parts[1:]:
        total += p
    return total
