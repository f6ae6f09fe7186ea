"""Monte Carlo Shapley estimation by sampling player orderings.

Each sampled ordering credits every player with its marginal
contribution to the set of preceding players.  A chunk's orderings are
scored prefix by prefix in one call to the game, so one ordering costs
exactly N utility evaluations (the empty prefix is free).  The marginals
come out in ordering order, and a chunk adds each player's with one
weighted ``bincount``.  ``_permutation_totals`` sums the chunks for both
samplers: ``estimate_permutation`` averages the totals and compressive
sampling projects that average.  A game declared monotone must give
marginals of at least -tol, or the chunk raises ``ShapvalError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ShapvalError
from .games import Game, ValueVector
from .parallel import check_count, ordered_chunk_map
from .rng import stream

__all__ = [
    "ORDERING_CHUNK",
    "PermutationBudget",
    "required_permutations",
    "estimate_permutation",
    "sample_orderings",
]

# Orderings drawn from one random stream.  Streams are keyed on the chunk
# index, so this size is part of the output contract: changing it changes
# every sampled value for a given seed.
ORDERING_CHUNK = 256


def _check_accuracy(range_r: float | None, epsilon: float | None, delta: float | None) -> None:
    """Raise ValueError, naming the argument, unless r and epsilon are
    positive and finite and delta lies in (0, 1); ``None`` is not checked.
    Shared by every function that sizes a budget from (epsilon, delta)
    and by every budget that carries them."""
    for name, val in (("range_r", range_r), ("epsilon", epsilon)):
        if val is not None and not (math.isfinite(val) and val > 0):
            raise ValueError(f"{name} must be positive and finite, got {val!r}")
    if delta is not None and not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")


def _budget(name: str, bound: Callable[[], float]) -> int:
    """max(1, ceil(bound())); a ValueError naming the budget unless the bound is a
    finite number, as where r^2 overflows or eps^2 underflows to a zero divisor."""
    try:
        with np.errstate(all="ignore"):
            value = float(bound())
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"the {name} budget is not a finite number for these inputs")
    return max(1, math.ceil(value))


def required_permutations(range_r: float, n_players: int, epsilon: float, delta: float) -> int:
    """Orderings needed for an (epsilon, delta) guarantee in l2 norm.

    ceil((2 r^2 N / eps^2) * ln(2N / delta)): a union bound over players
    of per-player Hoeffding tails at accuracy eps / sqrt(N).
    """
    _check_accuracy(range_r, epsilon, delta)
    if n_players < 1:
        raise ValueError("need at least one player")
    return _budget(
        "permutation",
        lambda: (2.0 * range_r * range_r * n_players / (epsilon * epsilon))
        * math.log(2.0 * n_players / delta),
    )


@dataclass(frozen=True)
class PermutationBudget:
    """Sampling budget: ordering count plus the accuracy it was sized for."""

    t_permutations: int
    epsilon: float | None = None
    delta: float | None = None
    range_r: float | None = None

    def __post_init__(self) -> None:
        check_count("t_permutations", self.t_permutations)
        _check_accuracy(self.range_r, self.epsilon, self.delta)

    @classmethod
    def from_accuracy(
        cls, range_r: float, n_players: int, epsilon: float, delta: float
    ) -> "PermutationBudget":
        t = required_permutations(range_r, n_players, epsilon, delta)
        return cls(t, epsilon=epsilon, delta=delta, range_r=range_r)


def sample_orderings(
    seed: int, tag: str, chunk_index: int, count: int, n_players: int
) -> np.ndarray:
    """(count, N) block of uniform random orderings of the players.

    The whole block comes from one stream keyed on (seed, tag, chunk
    index): each row of a tiled ``arange`` is shuffled independently.
    """
    perms = np.tile(np.arange(n_players), (count, 1))
    return stream(seed, tag, chunk_index).permuted(perms, axis=1, out=perms)


def _ordered_marginals(
    game: Game, seed: int, tag: str, chunk_index: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """A chunk's (count, N) orderings and, position by position, the
    marginal contribution of the player at each position.

    The orderings are ``sample_orderings(seed, tag, chunk_index, ...)``,
    so a chunk's rows depend only on its index, not on the thread or the
    order in which chunks run.  Column 0 is the first prefix's value and
    the rest are ``np.diff(vals, axis=1)``, the same subtractions.  A game
    declared monotone raises ``ShapvalError`` on a marginal below -tol.
    """
    perms = sample_orderings(seed, tag, chunk_index, count, game.n_players)
    vals = game._values_of_orderings(perms)
    marginals = np.empty_like(vals, order="C")
    marginals[:, 0] = vals[:, 0]
    np.subtract(vals[:, 1:], vals[:, :-1], out=marginals[:, 1:])
    if game.monotone and not marginals.min(initial=0.0) >= -game._range_tol:
        raise ShapvalError(f"a game declared monotone gave a marginal of {marginals.min()}")
    return perms, marginals


def _marginal_totals(game: Game, seed: int, tag: str, chunk_index: int, count: int) -> np.ndarray:
    """Per-player sums of a chunk's marginals, bit-identical to the
    (count, N) per-player block summed over its orderings.

    Both add each player's marginals from +0.0 in ordering order.  With a
    single player numpy sums the contiguous (count, 1) block pairwise
    instead, so that case keeps the block sum.
    """
    perms, marginals = _ordered_marginals(game, seed, tag, chunk_index, count)
    if game.n_players == 1:  # the orderings are all [0], so this is the block
        return marginals.sum(axis=0)
    return np.bincount(perms.ravel(), weights=marginals.ravel(), minlength=game.n_players)


def _permutation_totals(game: Game, t: int, seed: int, tag: str, threads: int | None) -> np.ndarray:
    """Per-player sums of the marginals over ``t`` orderings drawn under
    ``tag``, added chunk by chunk in chunk order."""
    return ordered_chunk_map(
        lambda i, lo, hi: _marginal_totals(game, seed, tag, i, hi - lo),
        range(0, t, ORDERING_CHUNK),
        threads,
    )


def estimate_permutation(
    game: Game, budget: PermutationBudget, seed: int, *, threads: int | None = None
) -> ValueVector:
    """Average marginal contributions over ``budget.t_permutations`` orderings."""
    t = budget.t_permutations
    return ValueVector(
        _permutation_totals(game, t, seed, "perm", threads) / t,
        method="perm",
        eval_count=int(t) * game.n_players,
        seed=seed,
        epsilon=budget.epsilon,
        delta=budget.delta,
    )
