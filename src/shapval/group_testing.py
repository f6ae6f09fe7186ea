"""Shapley estimation from pooled utility tests.

Each test evaluates the utility of one random coalition whose size is
drawn from a distribution q(k) proportional to 1/k + 1/(N-k).  Under
that sampler, Z * u * (beta_i - beta_j) is an unbiased one-test
estimator of the value difference s_i - s_j, so a modest number of
pooled tests pins down all pairwise differences at once.  Values are
then recovered either by fitting a vector to the differences under the
budget constraint (feasibility route, in closed form) or by anchoring on
one directly-estimated baseline player.  The sampler is fixed by N, so
a run builds its own plan from the game.  Tests are streamed: a run
returns only the N potentials, and no coalition outlives its chunk.
A chunk reads its sizes from a bucketed CDF and orders its rows by radix
sort, with the values of ``Generator.choice`` and an int64 sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .games import Game, ValueVector, _masks
from .parallel import check_count, ordered_chunk_map, resolve_threads
from .permutation import ORDERING_CHUNK, _budget, _check_accuracy, sample_orderings
from .rng import stream

__all__ = [
    "GroupTestPlan",
    "BaselineSplit",
    "required_tests",
    "run_tests",
    "recover_feasibility",
    "optimize_split_constants",
    "estimate_group_testing",
]

_TEST_CHUNK = 4096  # pooled tests per random stream


def bennett_h(u):
    """h(u) = (1 + u) ln(1 + u) - u, the rate function in Bennett's bound."""
    u = np.asarray(u, dtype=np.float64)
    out = (1.0 + u) * np.log1p(u) - u
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class GroupTestPlan:
    """Test-size distribution for an N-player game, fixed by N.

    q[k-1] is the probability of drawing a size-k coalition
    (k = 1..N-1), z_norm its normalizer, and q_tot the probability that
    a single test activates a fixed pair of players identically (and so
    contributes nothing to their difference estimate).  Only
    q(k) = (1/Z)(1/k + 1/(N-k)) makes Z * u * (beta_i - beta_j) unbiased
    and sizes the test counts, so the three are computed here from N and
    no caller sets them; two plans for the same N compare equal.  A
    size-k test splits a fixed pair with probability 2k(N-k)/(N(N-1)),
    and q(k) times that is 2/(Z(N-1)) for each of the N-1 sizes, so
    q_tot = 1 - 2/Z exactly (Jia et al. 2019, arXiv 1902.10275).
    """

    n_players: int
    z_norm: float = field(init=False, repr=False, compare=False)
    q: np.ndarray = field(init=False, repr=False, compare=False)
    q_tot: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n_players
        if n < 2:
            raise ValueError("group testing needs at least two players")
        ks = np.arange(1, n)
        z = 2.0 * math.fsum((1.0 / ks).tolist())
        object.__setattr__(self, "z_norm", z)
        object.__setattr__(self, "q", (1.0 / z) * (1.0 / ks + 1.0 / (n - ks)))
        object.__setattr__(self, "q_tot", 1.0 - 2.0 / z)

    @cached_property
    def _size_table(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(cdf, first, scale), built on the first draw: ``Generator.choice``'s
        CDF of q and, for each bucket [b / scale, (b + 1) / scale), at most
        half a gap wide, the count first[b] of entries at or below b / scale."""
        cdf = self.q.cumsum()
        cdf /= cdf[-1]
        scale = 1 << math.ceil(math.log2(2.0 / float(np.diff(cdf, prepend=0.0).min())))
        return cdf, cdf.searchsorted(np.arange(scale) / scale, side="right"), scale

    def _draw_sizes(self, g: np.random.Generator, count: int) -> np.ndarray:
        """``g.choice(np.arange(1, N), size=count, p=q)``: the same uniforms,
        sizes and final state of ``g``, without choice's check of p or its
        search of the whole CDF.  ``u * scale`` is exact for a power of two,
        and a bucket holds at most one entry, so the first[b] entries at or
        below u may be followed by one more (never past cdf[-1] = 1.0 > u).
        """
        cdf, first, scale = self._size_table
        u = g.random(count)
        base = first[(u * scale).astype(np.intp)]
        return base + (cdf[base] <= u) + 1


@dataclass(frozen=True)
class BaselineSplit:
    """Error split between the baseline-point estimate and the differences.

    m1 is the group-test count for the N-1 differences; m2 is the
    utility-evaluation budget for the baseline player's direct estimate
    (two evaluations per sampled ordering).
    """

    c_eps: float
    c_delta: float
    m1: int
    m2: int

    def __post_init__(self) -> None:
        if not (self.c_eps > 1.0 and self.c_delta > 1.0):
            raise ValueError("split constants must exceed 1")
        if self.m1 < 1 or self.m2 < 1:
            raise ValueError("budgets must be at least 1")


def required_tests(n_players: int, epsilon: float, delta: float, range_r: float) -> int:
    """Tests needed so the recovered values meet (epsilon, delta) in l2 norm.

    ceil(8 ln(N(N-1)/(2 delta)) / ((1-q_tot^2) h(eps / (Z r sqrt(N) (1-q_tot^2))))),
    a Bennett tail bound for every pair's difference estimate plus a union
    bound over all N(N-1)/2 pairs.  Grows like N (ln N)^2.
    """
    _check_accuracy(range_r, epsilon, delta)
    plan = GroupTestPlan(n_players)
    spread = 1.0 - plan.q_tot**2
    u = epsilon / (plan.z_norm * range_r * math.sqrt(n_players) * spread)
    log_pairs = math.log(n_players * (n_players - 1) / (2.0 * delta))
    return _budget("group-test", lambda: 8.0 * log_pairs / (spread * bennett_h(u)))


def _uniform_subsets(g: np.random.Generator, ks: np.ndarray, n: int) -> np.ndarray:
    """Boolean (len(ks), n) membership; row t is a uniform ks[t]-subset.

    A uniform k-subset is the complement of a uniform (N-k)-subset, so
    each row draws only its smaller side, s = min(k, N-k) players: the
    first s steps of a Fisher-Yates shuffle, run across all rows at once.
    Rows are visited in descending s, so the rows still drawing at step j
    are a leading slice; position j is final after step j and never read
    again, so a step only moves the displaced slot to the drawn position.
    That order is a stable sort of N // 2 - s as unsigned bytes, which
    numpy does by radix, ~8x faster than a stable sort of -s as int64.
    """
    count = ks.shape[0]
    small = np.minimum(ks, n - ks)
    order = np.argsort((n // 2 - small).astype(np.min_scalar_type(n)), kind="stable")
    active = count - np.cumsum(np.bincount(small))
    slots = np.tile(np.arange(n, dtype=np.min_scalar_type(n)), count)
    row = np.arange(count) * n
    spot = order * n  # where each visited row's membership lives
    member = np.zeros(count * n, dtype=bool)
    for j, a in enumerate(active[: small.max()].tolist()):
        pick = row[:a] + g.integers(j, n, size=a)
        drawn = slots[pick]
        slots[pick] = slots[row[:a] + j]
        member[spot[:a] + drawn] = True
    member = member.reshape(count, n)
    np.logical_xor(member, (ks > n - ks)[:, None], out=member)
    return member


def _draw_tests(plan: GroupTestPlan, seed: int, chunk_index: int, count: int) -> np.ndarray:
    """Boolean (count, N) membership of one chunk's tests, drawn from a
    stream keyed on the chunk index, so the tests depend only on that index;
    the sizes are those of ``Generator.choice`` with p = q.
    """
    g = stream(seed, "group-test", chunk_index)
    return _uniform_subsets(g, plan._draw_sizes(g, count), plan.n_players)


def _test_chunk(
    game: Game, plan: GroupTestPlan, seed: int, chunk_index: int, lo: int, hi: int
) -> np.ndarray:
    """Per-player sums sum_t u_t beta_ti over tests lo..hi-1."""
    member = _draw_tests(plan, seed, chunk_index, hi - lo)
    utils = game.values_of_masks(_masks(member))
    return member.T.astype(np.float64) @ utils


def run_tests(game: Game, t_tests: int, seed: int) -> np.ndarray:
    """Execute t_tests pooled tests of ``GroupTestPlan(N)``; returns the (N,) potentials.

    potentials[i] = (Z / T) * sum_t u_t beta_ti, one utility evaluation
    per test, so the difference estimate of s_i - s_j is
    delta_u[i, j] = potentials[i] - potentials[j].  Each chunk of tests
    returns only its per-player sums, so no mask or utility outlives it.
    The chunks run on the calling thread only: a chunk is dozens of short
    numpy calls that hold the interpreter lock, so at every N a ``Game``
    allows a second thread only trades the lock and runs slower.
    """
    check_count("t_tests", t_tests)
    plan = GroupTestPlan(game.n_players)
    total = ordered_chunk_map(
        lambda i, lo, hi: _test_chunk(game, plan, seed, i, lo, hi),
        range(0, t_tests, _TEST_CHUNK),
        1,
    )
    return (plan.z_norm / t_tests) * total


def recover_feasibility(delta_u: np.ndarray, u_total: float, epsilon: float) -> ValueVector:
    """Values consistent with a difference matrix and the total budget.

    Minimizes the worst pairwise violation t = max |(s_i - s_j) - delta_u[i, j]|
    subject to sum(s) = u_total.  The constraints s_i - s_j <= delta_u[i, j] + t
    are difference constraints on the graph with an edge j -> i of weight
    delta_u[i, j], feasible exactly when no cycle has negative weight once t
    is added to every edge.  So the optimum is t* = max(0, -minimum cycle
    mean), which Karp's recurrence over walks from a zero-cost virtual
    source computes in O(N^3); the shortest-path distances under weights
    delta_u + t*, read off the same walk table, are a feasible s, shifted
    to sum to u_total.  If t* exceeds eps / (2 sqrt(N)), the
    certified-recovery precondition failed and the result is flagged.
    No estimator calls it, since the feasibility route is the closed form
    on the test potentials; it is the exact solver for an arbitrary
    antisymmetric difference matrix.
    """
    d = np.asarray(delta_u, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("difference matrix must be square")
    if not np.array_equal(d, -d.T):
        raise ValueError("difference matrix must be exactly antisymmetric")
    n = d.shape[0]
    # walks[k, v]: least weight of a k-edge walk ending at v; the zero
    # diagonal adds self-loops of mean 0, a mean every 2-cycle already has
    walks = np.zeros((n + 1, n))
    for k in range(1, n + 1):
        walks[k] = (walks[k - 1][:, None] + d.T).min(axis=0)
    ks = np.arange(n)[:, None]
    min_cycle_mean = float(((walks[n] - walks[:n]) / (n - ks)).max(axis=0).min())
    t_star = max(0.0, -min_cycle_mean)
    s = (walks[:n] + t_star * ks).min(axis=0)
    s += (u_total - s.sum()) / n
    certified = t_star <= epsilon / (2.0 * math.sqrt(n))
    return ValueVector(
        s,
        method="feasibility-recovery",
        eval_count=0,
        epsilon=epsilon,
        flags=() if certified else ("uncertified-violation",),
    )


def _baseline_budgets(
    plan: GroupTestPlan, epsilon: float, delta: float, range_r: float, c_eps, c_delta
) -> tuple[np.ndarray, np.ndarray]:
    """(m1, m2) budgets for given split constants (arrays broadcast), each
    at least 1, as in ``required_tests``: where c_delta (N-1) < 2 delta, as
    at N = 2 with delta above ~0.54, the logarithm in m1 is negative."""
    n = plan.n_players
    c_eps = np.asarray(c_eps, dtype=np.float64)
    c_delta = np.asarray(c_delta, dtype=np.float64)
    spread = 1.0 - plan.q_tot**2
    u = 2.0 * epsilon / (plan.z_norm * range_r * c_eps * spread)
    m1 = np.ceil(4.0 * np.log(c_delta * (n - 1) / (2.0 * delta)) / (spread * bennett_h(u)))
    m2 = np.ceil(
        (4.0 * range_r**2 * c_eps**2 / ((c_eps - 1.0) ** 2 * epsilon**2))
        * np.log(2.0 * c_delta / ((c_delta - 1.0) * delta))
    )
    return np.maximum(m1, 1.0), np.maximum(m2, 1.0)


def optimize_split_constants(
    n_players: int, epsilon: float, delta: float, range_r: float
) -> BaselineSplit:
    """Split constants minimizing the combined baseline-route budget m1 + m2.

    Deterministic grid search over 64 log-spaced points per constant,
    spaced by a factor 2^(1/10) so the conventional choice 2 is on the
    grid.
    """
    _check_accuracy(range_r, epsilon, delta)
    plan = GroupTestPlan(n_players)
    grid = 2.0 ** (np.arange(1, 65) / 10.0)  # 64 points in (1, 100]
    ce, cd = np.meshgrid(grid, grid, indexing="ij")
    m1 = m2 = None

    def smallest_total() -> float:  # NaN if any total is
        nonlocal m1, m2
        m1, m2 = (m.ravel() for m in _baseline_budgets(plan, epsilon, delta, range_r, ce, cd))
        return (m1 + m2).min()

    _budget("baseline-route", smallest_total)
    k = int(np.argmin(m1 + m2))
    return BaselineSplit(float(ce.ravel()[k]), float(cd.ravel()[k]), int(m1[k]), int(m2[k]))


def _baseline_player_value(
    game: Game, t_orderings: int, seed: int, threads: int | None
) -> tuple[float, int]:
    """Direct estimate of player 0's value from sampled orderings, and the
    utility evaluations it took.

    Only the two prefixes around player 0 are evaluated, so one ordering
    costs two utility evaluations, or one when player 0 comes first.  A
    chunk returns its gain and its evaluations; the count is exact in float64.
    """
    check_count("t_orderings", t_orderings)
    n = game.n_players

    def chunk_sum(i: int, lo: int, hi: int) -> np.ndarray:
        perms = sample_orderings(seed, "baseline-perm", i, hi - lo, n)
        prefixes = np.cumsum(1 << perms, axis=1)
        pos = np.argmax(perms == 0, axis=1)
        with_mask = prefixes[np.arange(hi - lo), pos]
        before_mask = with_mask - 1  # player 0 carries bit value 1
        gain = game.values_of_masks(with_mask) - game.values_of_masks(before_mask)
        return np.array([gain.sum(), hi - lo + np.count_nonzero(before_mask)])

    gain, evals = ordered_chunk_map(chunk_sum, range(0, t_orderings, ORDERING_CHUNK), threads)
    return float(gain) / t_orderings, int(evals)


def estimate_group_testing(
    game: Game,
    epsilon: float,
    delta: float,
    seed: int,
    recovery: str = "feasibility",
    *,
    t_tests: int | None = None,
    threads: int | None = None,
) -> ValueVector:
    """Full group-testing estimator with either recovery route.

    ``feasibility`` runs the Bennett-sized number of tests (unless
    overridden), so that the values are within epsilon of the Shapley
    values in l2 norm with probability 1 - delta.  The difference
    estimates are p_i - p_j for the test potentials p, so the max-violation
    fit has the zero-violation closed form s = p + (U(I) - sum(p)) / N.
    ``baseline`` splits the budget between a direct estimate of player 0's
    value and group tests for the N-1 differences to that player, then sets
    s_i = s_0 + delta(i, 0).  Its test count m1 carries a union bound over
    the N-1 differences and no sqrt(N) factor, so its guarantee is per
    player: max_i |s_hat_i - s_i| <= epsilon (l-infinity norm) with
    probability 1 - delta.

    ``threads`` reaches only the baseline player's ordering chunks.  The
    pooled tests of both routes run on the calling thread, since their
    kernel holds the interpreter lock (see ``run_tests``).
    """
    _check_accuracy(game.range_r, epsilon, delta)
    threads = resolve_threads(threads)  # refused even where no chunk spends it
    if recovery == "feasibility":
        t = t_tests if t_tests is not None else required_tests(
            game.n_players, epsilon, delta, game.range_r
        )
        potentials = run_tests(game, t, seed)
        return ValueVector(
            potentials + (game.u_total - potentials.sum()) / game.n_players,
            method="group-test-feasibility",
            eval_count=int(t),
            seed=seed,
            epsilon=epsilon,
            delta=delta,
        )
    if recovery == "baseline":
        split = optimize_split_constants(game.n_players, epsilon, delta, game.range_r)
        t1 = t_tests if t_tests is not None else split.m1
        potentials = run_tests(game, t1, seed)
        orderings = max(1, math.ceil(split.m2 / 2))
        s_star, baseline_evals = _baseline_player_value(game, orderings, seed, threads)
        values = s_star + (potentials - potentials[0])
        return ValueVector(
            values,
            method="group-test-baseline",
            eval_count=int(t1) + baseline_evals,
            seed=seed,
            epsilon=epsilon,
            delta=delta,
        )
    raise ValueError(f"unknown recovery route: {recovery!r}")
