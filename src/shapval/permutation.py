"""Monte Carlo Shapley estimation by sampling player orderings.

Each sampled ordering credits every player with its marginal
contribution to the set of preceding players.  A chunk's orderings are
scored prefix by prefix in one call to the game, so one ordering costs
exactly N utility evaluations (the empty prefix is free).  The marginals
come out in ordering order: ``marginal_chunk`` scatters them into a
(T, N) block per player, which compressive sampling projects, while
``estimate_permutation`` only needs each player's total and adds them
with one weighted ``bincount``, the same additions in the same order as
summing that block's columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .games import Game, ValueVector
from .parallel import check_count, chunk_ranges, ordered_chunk_map
from .rng import stream

__all__ = [
    "ORDERING_CHUNK",
    "PermutationBudget",
    "required_permutations",
    "estimate_permutation",
    "marginal_chunk",
    "sample_orderings",
    "sample_permutation_marginals",
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


def required_permutations(range_r: float, n_players: int, epsilon: float, delta: float) -> int:
    """Orderings needed for an (epsilon, delta) guarantee in l2 norm.

    ceil((2 r^2 N / eps^2) * ln(2N / delta)): a union bound over players
    of per-player Hoeffding tails at accuracy eps / sqrt(N).
    """
    _check_accuracy(range_r, epsilon, delta)
    if n_players < 1:
        raise ValueError("need at least one player")
    bound = (2.0 * range_r * range_r * n_players / (epsilon * epsilon)) * math.log(
        2.0 * n_players / delta
    )
    return max(1, math.ceil(bound))


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
    g = stream(seed, tag, chunk_index)
    return g.permuted(np.tile(np.arange(n_players), (count, 1)), axis=1)


def _ordered_marginals(
    game: Game, seed: int, tag: str, chunk_index: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """A chunk's (count, N) orderings and, position by position, the
    marginal contribution of the player at each position.

    The orderings are ``sample_orderings(seed, tag, chunk_index, ...)``,
    so a chunk's rows depend only on its index, not on the thread or the
    order in which chunks run.
    """
    perms = sample_orderings(seed, tag, chunk_index, count, game.n_players)
    vals = game._values_of_orderings(perms)
    return perms, np.concatenate([vals[:, :1], np.diff(vals, axis=1)], axis=1)


def marginal_chunk(game: Game, seed: int, tag: str, chunk_index: int, count: int) -> np.ndarray:
    """(count, N) marginal contributions, per player, over one chunk of orderings."""
    perms, marginals = _ordered_marginals(game, seed, tag, chunk_index, count)
    phi = np.empty_like(marginals)
    np.put_along_axis(phi, perms, marginals, axis=1)
    return phi


def _marginal_totals(game: Game, seed: int, tag: str, chunk_index: int, count: int) -> np.ndarray:
    """Per-player sums of a chunk's marginals, bit-identical to
    ``marginal_chunk(...).sum(axis=0)``.

    Both add each player's marginals from +0.0 in ordering order.  With a
    single player numpy sums the contiguous (count, 1) block pairwise
    instead, so that case keeps the block sum.
    """
    perms, marginals = _ordered_marginals(game, seed, tag, chunk_index, count)
    if game.n_players == 1:  # the orderings are all [0], so this is the block
        return marginals.sum(axis=0)
    return np.bincount(perms.ravel(), weights=marginals.ravel(), minlength=game.n_players)


def sample_permutation_marginals(
    game: Game, t_permutations: int, seed: int, *, tag: str = "perm"
) -> np.ndarray:
    """Materialized (T, N) matrix of per-ordering marginal contributions."""
    check_count("t_permutations", t_permutations)
    parts = [
        marginal_chunk(game, seed, tag, i, hi - lo)
        for i, (lo, hi) in enumerate(chunk_ranges(t_permutations, ORDERING_CHUNK))
    ]
    return np.concatenate(parts, axis=0)


def estimate_permutation(
    game: Game, budget: PermutationBudget, seed: int, *, threads: int | None = None
) -> ValueVector:
    """Average marginal contributions over ``budget.t_permutations`` orderings."""
    t = budget.t_permutations
    total = ordered_chunk_map(
        lambda i, lo, hi: _marginal_totals(game, seed, "perm", i, hi - lo),
        chunk_ranges(t, ORDERING_CHUNK),
        threads,
    )
    return ValueVector(
        total / t,
        method="perm",
        eval_count=int(t) * game.n_players,
        seed=seed,
        epsilon=budget.epsilon,
        delta=budget.delta,
    )
