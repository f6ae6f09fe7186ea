"""Cooperative games and exact Shapley value computation.

A game is a set of N players (data points) together with a bounded
utility function over player subsets, given as int64 bit masks; a game
may also score every prefix of a block of player orderings at once, and
the member-weight-sum games score a sampler's 0/1 membership block without
packing it to masks.  This module provides the game abstraction, exact
Shapley oracles (subset form and permutation form), exact pairwise value
differences, and the synthetic games used as ground truth by the
estimators' tests.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ShapvalError, SizeGuardError, UtilityRangeError

__all__ = [
    "Game",
    "ValueVector",
    "exact_shapley_subsets",
    "exact_shapley_permutations",
    "exact_shapley_difference",
    "make_additive_game",
    "make_symmetric_game",
    "make_glove_game",
    "make_voting_game",
    "make_random_game",
]

# Guard for 2^N subset enumeration; configurable per call.
DEFAULT_SUBSET_GUARD = 25
# Guard for N! permutation enumeration.
DEFAULT_PERMUTATION_GUARD = 10
# Coalitions are int64 bit masks, so bit 63 (the sign bit) is unusable.
MAX_PLAYERS = 63
# Orderings per block in the permutation-form oracle.
_PERMUTATION_BLOCK = 100_000


@dataclass(frozen=True)
class ValueVector:
    """Per-player values plus provenance metadata.

    eval_count is the number of utility evaluations the producing method
    consumed (the empty coalition is free and never counted).
    """

    values: np.ndarray
    method: str
    eval_count: int
    seed: int | None = None
    epsilon: float | None = None
    delta: float | None = None
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if self.eval_count < 0:
            raise ValueError("eval_count must be nonnegative")

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def total(self) -> float:
        return float(self.values.sum())


class Game:
    """N-player game with a utility bounded in [0, range_r].

    ``utility`` maps a one-dimensional int64 array of coalition bit masks
    (bit i set when player i is a member) to an array of one real value
    per mask.  It must be pure (same coalition, same value) and safe to
    call from several threads at once.  It may be handed the caller's own
    mask array rather than a copy, so it must not write to it.  If the
    utility assigns a nonzero value to the empty coalition, that value is
    measured once at construction and subtracted from every evaluation, so
    U(empty) = 0 always holds.  Values outside [0, range_r] raise
    UtilityRangeError rather than being clamped: clamping would silently
    invalidate the concentration bounds built on the declared range.
    ``monotone`` declares that adding a player never lowers the utility:
    permutation and compressive sampling raise ShapvalError on a marginal below
    -1e-9 max(1, r), and compressive recovery flags a game not declared so.

    The mask form is the one required form.  ``prefix_utility`` is an
    optional second form of the same utility for the permutation
    samplers: it maps an (R, N) integer block of orderings (each row a
    permutation of range(N)) to the (R, N) raw utilities of each row's
    first 1..N players, without building a coalition per prefix.  It
    must agree with ``utility`` on those prefixes, bit for bit, and be
    thread-safe; its values get the same checks, the same offset and the
    same billing as the mask form's, and come back C-ordered whatever
    layout it returns, since the samplers' sums over orderings are only
    bit-identical on a C-ordered block.

    The additive and voting factories also hand the game a private member
    form, the same utility of a 0/1 (rows, N) membership block, bool or
    float64, so that the pooled tests score the block they draw without
    building a mask; any other game packs such a block to masks.  Only
    :meth:`values_of_masks`, the public entry, checks its coalitions: the
    samplers' own masks and blocks are built in range.  Every entry checks,
    offsets and bills the utilities.

    The built-in utilities give a mask the same bits in any batch, which
    a test checks.  They score a batch in fixed row blocks (``_in_blocks``),
    so a whole-table batch from an exact oracle holds one block's
    temporaries, not a (2^N, N) array.

    ``exact_values``, when known, are the Shapley values, one per player;
    the game keeps a read-only float64 copy.
    """

    def __init__(
        self,
        n_players: int,
        utility: Callable[[np.ndarray], np.ndarray],
        range_r: float,
        *,
        monotone: bool = False,
        exact_values: np.ndarray | None = None,
        name: str = "",
        prefix_utility: Callable[[np.ndarray], np.ndarray] | None = None,
        _member_utility: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> None:
        if n_players < 1:
            raise ValueError("need at least one player")
        if n_players > MAX_PLAYERS:
            raise ShapvalError(
                f"games are limited to {MAX_PLAYERS} players because coalitions "
                f"are int64 bit masks, got {n_players}"
            )
        if not math.isfinite(range_r) or range_r <= 0:
            raise ValueError("range_r must be a positive finite bound")
        if exact_values is not None:
            exact_values = np.array(exact_values, dtype=np.float64)
            if exact_values.shape != (n_players,):
                raise ValueError(
                    f"exact_values must have shape ({n_players},), got {exact_values.shape}"
                )
            exact_values.flags.writeable = False
        self.n_players = int(n_players)
        self.range_r = float(range_r)
        self.monotone = bool(monotone)
        self.name = name
        self.exact_values = exact_values
        self._utility = utility
        self._prefix_utility = prefix_utility
        self._member_utility = _member_utility
        self._lock = threading.Lock()
        self._eval_count = 0
        self._range_tol = 1e-9 * max(1.0, self.range_r)
        # construction-time bookkeeping probes are not billed to any method:
        # one evaluation fixes the empty-coalition offset, one caches U(I).
        self._offset = float(self._evaluate(np.zeros(1, dtype=np.int64))[0])
        full = np.array([(1 << self.n_players) - 1], dtype=np.int64)
        total = float(self._evaluate(full)[0]) - self._offset
        if not -self._range_tol <= total <= self.range_r + self._range_tol:
            raise UtilityRangeError(
                f"full-coalition utility {total} outside declared range [0, {self.range_r}]"
            )
        self._u_total = total

    # -- evaluation ------------------------------------------------------

    @staticmethod
    def _real(vals, shape: tuple[int, ...], per: str) -> np.ndarray:
        """``vals`` as float64; ShapvalError unless a real array of ``shape``."""
        vals = np.asarray(vals)
        if vals.shape != shape or vals.dtype.kind not in "biuf":
            raise ShapvalError(
                f"the utility must return one real value per {per}, an array of shape "
                f"{shape}; got {vals.dtype} of shape {vals.shape}"
            )
        return vals.astype(np.float64, copy=False)

    def _evaluate(self, masks: np.ndarray) -> np.ndarray:
        """Raw utilities of in-range masks, one real value per mask."""
        return self._real(self._utility(masks), masks.shape, "mask")

    def _check_and_bill(self, vals: np.ndarray) -> None:
        """Range-check a nonempty array of offset utilities, then count them."""
        lo, hi = vals.min(), vals.max()
        # written so that a NaN fails it too
        if not (lo >= -self._range_tol and hi <= self.range_r + self._range_tol):
            raise UtilityRangeError(
                f"utility value outside declared range [0, {self.range_r}]: "
                f"saw [{lo}, {hi}]"
            )
        with self._lock:
            self._eval_count += vals.size

    def values_of_masks(self, masks: np.ndarray) -> np.ndarray:
        """Utilities for a one-dimensional array of subset bit masks in [0, 2^N).

        Empty coalitions are worth 0 by identity and are not counted as
        evaluations.  Any other input, or a non-integer dtype other than
        an empty list's float64, raises ``ShapvalError`` before anything is
        evaluated.  The result is a new float64 array.
        """
        masks = np.asarray(masks)
        # numpy reads an int of 2^64 or more as object, and one of 2^63 or more
        # as uint64, which casts to a negative int64.  The OR of the masks has a
        # bit at or above N, or the sign bit, exactly when a mask is out of range.
        integral = masks.dtype.kind in "iu" or masks.size == 0
        masks = masks.astype(np.int64, copy=False) if integral else masks
        if not integral or masks.ndim != 1 or np.bitwise_or.reduce(masks, axis=None) >> self.n_players:
            raise ShapvalError(
                f"coalition masks must be a 1-D integer array of values in [0, 2^{self.n_players})"
            )
        return self._values_of_sampled_masks(masks)

    def _values_of_sampled_masks(self, masks: np.ndarray) -> np.ndarray:
        """:meth:`values_of_masks` of a 1-D int64 array of masks in [0, 2^N)
        that a sampler built, without the checks on the masks: empty masks are
        free and worth 0, and the other utilities are checked and billed."""
        count = np.count_nonzero(masks)
        if count == 0:
            return np.zeros(masks.shape[0], dtype=np.float64)
        full = count == masks.shape[0]
        nonzero = None if full else masks != 0
        vals = self._evaluate(masks if full else masks[nonzero]) - self._offset
        self._check_and_bill(vals)
        if full:  # no empty coalition: the batch was evaluated as given
            return vals
        out = np.zeros(masks.shape[0], dtype=np.float64)
        out[nonzero] = vals
        return out

    def _values_of_orderings(self, perms: np.ndarray) -> np.ndarray:
        """(R, N) utilities of the first 1..N players of each row of ``perms``.

        ``perms`` is an (R, N) block of orderings, each row a permutation of
        range(N); the samplers draw them, so they are not checked.  An empty
        block costs nothing, as an empty mask array does.  Without a
        prefix utility every prefix is scored as an int64 mask, as
        :meth:`values_of_masks` scores it.  Either way R * N evaluations are
        billed and the result is C-ordered: the marginals inherit this layout,
        and summing an F-ordered block over its orderings adds pairwise instead
        of in row order, which moves the last bits of the estimate.
        """
        if perms.size == 0:
            return np.zeros(perms.shape, dtype=np.float64)
        if self._prefix_utility is None:
            prefixes = np.cumsum(1 << perms, axis=1)
            return self._values_of_sampled_masks(prefixes.reshape(-1)).reshape(prefixes.shape)
        vals = self._real(self._prefix_utility(perms), perms.shape, "prefix")
        vals = np.ascontiguousarray(vals) - self._offset
        self._check_and_bill(vals)
        return vals

    def _values_of_members(self, block: np.ndarray) -> np.ndarray:
        """Utilities of the rows of a float64 0/1 (rows, N) membership block.

        A sampler draws the block, each row with 1..N-1 members, so it is
        not checked and no row is empty.  A game with a member form scores
        the block as it is; any other packs it to int64 masks for its mask
        form.  Either way the values get the checks, the offset and the
        billing of :meth:`values_of_masks`.
        """
        if self._member_utility is None:
            return self._values_of_sampled_masks(_masks(block))
        vals = self._real(self._member_utility(block), block.shape[:1], "coalition")
        vals = vals - self._offset
        self._check_and_bill(vals)
        return vals

    # -- bookkeeping -----------------------------------------------------

    @property
    def eval_count(self) -> int:
        return self._eval_count

    @property
    def u_total(self) -> float:
        """Utility of the full coalition, cached at construction."""
        return self._u_total


# -- exact oracles --------------------------------------------------------


def _check_guard(n: int, guard: int, what: str) -> None:
    if n > guard:
        raise SizeGuardError(f"{what} is limited to {guard} players, got {n}")


def _inverse_binomial(n: int, k: int) -> float:
    """1 / C(n, k), correctly rounded: an integer quotient rounds once."""
    return 1 / math.comb(n, k)


def exact_shapley_subsets(game: Game, *, max_players: int = DEFAULT_SUBSET_GUARD) -> ValueVector:
    """Exact Shapley values by enumerating all player subsets.

    value[i] = sum over S not containing i of
               [U(S + i) - U(S)] / (N * C(N-1, |S|)).
    """
    n = game.n_players
    _check_guard(n, max_players, "subset enumeration")
    masks = np.arange(1 << n, dtype=np.int64)
    table = game.values_of_masks(masks)
    # weight by |S|; masks containing i contribute a zero difference, so give
    # size N (only reachable for such masks) a zero weight instead of branching
    weights = np.array([_inverse_binomial(n - 1, s) / n for s in range(n)] + [0.0])
    w = weights[np.bitwise_count(masks)]
    values = np.empty(n, dtype=np.float64)
    for i in range(n):
        values[i] = float(np.sum(w * (table[masks | (1 << i)] - table)))
    return ValueVector(values, method="exact-subsets", eval_count=(1 << n) - 1)


def exact_shapley_permutations(
    game: Game, *, max_players: int = DEFAULT_PERMUTATION_GUARD
) -> ValueVector:
    """Exact Shapley values by enumerating all N! player orderings.

    Independent of :func:`exact_shapley_subsets`: the average runs over
    orderings, crediting each player its marginal contribution to the
    set of predecessors.
    """
    n = game.n_players
    _check_guard(n, max_players, "permutation enumeration")
    table = game.values_of_masks(np.arange(1 << n, dtype=np.int64))
    totals = np.zeros(n, dtype=np.float64)
    perm_iter = itertools.permutations(range(n))
    while True:
        block = list(itertools.islice(perm_iter, _PERMUTATION_BLOCK))
        if not block:
            break
        perms = np.asarray(block, dtype=np.int64)
        prefixes = np.cumsum(1 << perms, axis=1)
        vals = table[prefixes]
        marginals = np.concatenate([vals[:, :1], np.diff(vals, axis=1)], axis=1)
        np.add.at(totals, perms.ravel(), marginals.ravel())
    values = totals / math.factorial(n)
    return ValueVector(values, method="exact-permutations", eval_count=(1 << n) - 1)


def exact_shapley_difference(
    game: Game, i: int, j: int, *, max_players: int = DEFAULT_SUBSET_GUARD
) -> float:
    """Exact value difference s_i - s_j from subsets avoiding both players.

    Uses the identity
    s_i - s_j = 1/(N-1) * sum over S avoiding i, j of
                [U(S + i) - U(S + j)] / C(N-2, |S|),
    which needs only 2^(N-2) subset pairs instead of two full oracles.
    """
    n = game.n_players
    _check_guard(n, max_players, "subset enumeration")
    if i == j:
        raise ValueError("players must be distinct")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("player index out of range")
    others = [p for p in range(n) if p not in (i, j)]
    sub = np.arange(1 << (n - 2), dtype=np.int64)
    sizes = np.bitwise_count(sub)
    # bit b of sub is player others[b]: deposit one player at a time
    masks = np.zeros_like(sub)
    for b, player in enumerate(others):
        masks |= ((sub >> b) & 1) << player
    weights = np.array([_inverse_binomial(n - 2, s) for s in range(n - 1)])
    with_i = game.values_of_masks(masks | (1 << i))
    with_j = game.values_of_masks(masks | (1 << j))
    return float(np.sum(weights[sizes] * (with_i - with_j)) / (n - 1))


# -- synthetic games -------------------------------------------------------


# Rows per block of the member-weight sums.  A block's (rows, N) membership
# is float64 in the product, 2 MB at N = 63; at large N the rows per block
# must shrink to keep that bounded.  Any size gives the same bits
# (see _weight_sums).  The size does not show in time: on one thread,
# run_tests(2e4) at N = 63 took 7.4-7.6 ms at 512, 1024 and 4096 rows.
_WEIGHT_ROWS = 4096


def _membership(masks: np.ndarray, n: int) -> np.ndarray:
    """Boolean (len(masks), n) membership matrix; bit i of a mask is column i."""
    octets = np.ascontiguousarray(masks, dtype="<i8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, count=n, bitorder="little").view(bool)


def _in_blocks(
    masks: np.ndarray, rows: int, score: Callable[[np.ndarray, np.ndarray], None]
) -> np.ndarray:
    """Utilities of ``masks``, scored ``rows`` masks at a time.

    ``score(block, out)`` writes the utilities of a block of masks into
    ``out``, its zeroed slice of the result, so a batch's temporaries are
    those of one block whatever its length.
    """
    out = np.zeros(masks.shape[0], dtype=np.float64)
    for lo in range(0, masks.shape[0], rows):
        score(masks[lo : lo + rows], out[lo : lo + rows])
    return out


def _weight_sums(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sum of the member weights ``w`` of each row, in _WEIGHT_ROWS blocks.

    ``rows`` is a 0/1 (rows, N) membership block, bool or float64, or a 1-D
    array of bit masks, which is unpacked one block at a time, so that a
    whole-table batch never holds a (2^N, N) membership.  A coalition's sum
    has the same bits in any form, batch and block.  OpenBLAS 0.3.31's dgemv
    sums rows in groups of 4 counted from the start of each call and may
    round the rows left over otherwise, and numpy takes a one-row product
    through dot, which rounds unlike gemv.  So each block is scored with
    empty rows, which sum to 0, padded up to a multiple of 4 rows, and only
    its own rows are kept.
    """

    def score(block: np.ndarray, out: np.ndarray) -> None:
        member = _membership(block, w.size) if block.ndim == 1 else block
        if out.size % 4:
            empty = np.zeros((-out.size % 4, w.size), dtype=member.dtype)
            member = np.concatenate((member, empty))
        out[:] = np.matmul(member, w)[: out.size]

    return _in_blocks(rows, _WEIGHT_ROWS, score)


def _masks(member: np.ndarray) -> np.ndarray:
    """int64 bit masks of a 0/1 (rows, n) membership matrix, bool or float64,
    n <= 63, packed flat from a zeroed boolean (rows, 64) copy: ~4x faster
    than by axis."""
    padded = np.zeros((member.shape[0], 64), dtype=bool)
    padded[:, : member.shape[1]] = member
    return np.packbits(padded, bitorder="little").view("<i8")


def _weight_vector(weights: Sequence[float]) -> tuple[np.ndarray, float]:
    """Weights as a float64 vector and their total, both finite."""
    w = np.array(weights, dtype=np.float64)  # a copy: the game outlives the caller's array
    if w.ndim != 1 or w.size < 1:
        raise ValueError("weights must be a nonempty vector")
    with np.errstate(all="ignore"):  # a NaN, infinity or overflow makes it nonfinite
        total = float(w.sum())
    if not math.isfinite(total):
        raise ValueError("weights must be finite, with a finite total")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    return w, total


def make_additive_game(weights: Sequence[float]) -> Game:
    """U(S) = sum of member weights; the Shapley value is the weight vector.

    A coalition's sum has the same bits in any batch and in either form,
    masks or a membership block, which tests check.
    """
    w, total = _weight_vector(weights)
    if total <= 0:
        raise ValueError("at least one weight must be positive")

    def batch(rows: np.ndarray) -> np.ndarray:
        return _weight_sums(rows, w)

    return Game(
        w.size,
        batch,
        range_r=total,
        monotone=True,
        exact_values=w,
        name="additive",
        _member_utility=batch,
    )


def make_symmetric_game(n_players: int, size_values: Sequence[float] | None = None) -> Game:
    """Utility depends on coalition size only; all players are equivalent.

    size_values[k] is the worth of any size-k coalition (size_values[0]
    must be 0).  Defaults to k / N.  The exact Shapley value is uniform:
    size_values[N] / N for everyone.
    """
    if n_players < 1:
        raise ValueError("need at least one player")
    if size_values is None:
        f = np.arange(n_players + 1, dtype=np.float64) / n_players
    else:
        f = np.asarray(size_values, dtype=np.float64)
        if f.shape != (n_players + 1,):
            raise ValueError("size_values must have length n_players + 1")
        if f[0] != 0.0:
            raise ValueError("the empty coalition must be worth 0")
        if np.any(f < 0):
            raise ValueError("size values must be nonnegative")
    r = float(f.max())
    if r <= 0:
        raise ValueError("at least one coalition size must have positive worth")

    def batch(masks: np.ndarray) -> np.ndarray:
        return f[np.bitwise_count(masks)]

    return Game(
        n_players,
        batch,
        range_r=r,
        monotone=bool(np.all(np.diff(f) >= 0)),
        exact_values=np.full(n_players, f[n_players] / n_players),
        name="symmetric",
    )


def make_glove_game() -> Game:
    """Three players: one left glove (player 0), two right gloves.

    A coalition is worth 1 exactly when it pairs the left glove with at
    least one right glove.
    """

    def batch(masks: np.ndarray) -> np.ndarray:
        return ((masks & 1) > 0).astype(np.float64) * ((masks & 0b110) > 0)

    return Game(
        3,
        batch,
        range_r=1.0,
        monotone=True,
        name="glove",
    )


def make_voting_game(weights: Sequence[float], quota: float) -> Game:
    """U(S) = 1 when the members' combined voting weight reaches the quota."""
    w, total = _weight_vector(weights)
    if not 0 < quota <= total:  # false for a NaN quota, and total is finite
        raise ValueError("quota must be finite, positive and attainable")

    def batch(rows: np.ndarray) -> np.ndarray:
        sums = _weight_sums(rows, w)
        return np.greater_equal(sums, quota, out=sums)  # 1.0 where it reaches

    return Game(
        w.size,
        batch,
        range_r=1.0,
        monotone=True,
        name="voting",
        _member_utility=batch,
    )


# Largest random table game: its table holds 2^N utilities.
RANDOM_GAME_PLAYERS = 20


def make_random_game(n_players: int, seed: int, range_r: float = 1.0) -> Game:
    """Game with i.i.d. uniform utilities in [0, range_r] (empty set worth 0).

    Ground-truth material for property tests; kept to table size 2^N.
    """
    if not 1 <= n_players <= RANDOM_GAME_PLAYERS:
        raise ValueError(f"random table games support 1..{RANDOM_GAME_PLAYERS} players")
    if not 0 < range_r < math.inf:
        raise ValueError(f"range_r must be positive and finite, got {range_r!r}")
    from .rng import stream  # rng and hashlib load only for a random game

    table = stream(seed, "random-game").uniform(0.0, range_r, size=1 << n_players)
    table[0] = 0.0

    def batch(masks: np.ndarray) -> np.ndarray:
        return table[masks]

    return Game(
        n_players,
        batch,
        range_r=range_r,
        monotone=False,
        name=f"random-{seed}",
    )
