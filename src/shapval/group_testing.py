"""Shapley estimation from pooled utility tests.

Each test evaluates the utility of one random coalition whose size is
drawn from a distribution q(k) proportional to 1/k + 1/(N-k).  Under
that sampler, Z * u * (beta_i - beta_j) is an unbiased one-test
estimator of the value difference s_i - s_j, so a modest number of
pooled tests pins down all pairwise differences at once.  Values are
then recovered either by fitting a vector to the differences under the
budget constraint (feasibility route, in closed form) or by anchoring on
one directly-estimated baseline player.  Tests are streamed: a run
returns only the N potentials, and no coalition outlives its chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .games import Game, ValueVector, _masks
from .parallel import check_count, chunk_ranges, ordered_chunk_map
from .permutation import ORDERING_CHUNK, _check_accuracy, sample_orderings
from .rng import stream

__all__ = [
    "GroupTestPlan",
    "BaselineSplit",
    "build_plan",
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
    """Test-size distribution for an N-player game.

    q[k-1] is the probability of drawing a size-k coalition
    (k = 1..N-1), z_norm its normalizer, and q_tot the probability that
    a single test activates a fixed pair of players identically (and so
    contributes nothing to their difference estimate).
    """

    n_players: int
    z_norm: float
    q: np.ndarray
    q_tot: float

    def __post_init__(self) -> None:
        if abs(float(self.q.sum()) - 1.0) > 1e-12:
            raise ValueError("test-size probabilities must sum to 1")
        if not 0.0 <= self.q_tot < 1.0:
            raise ValueError("q_tot must lie in [0, 1)")


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


def build_plan(n_players: int) -> GroupTestPlan:
    """Test-size distribution q(k) = (1/Z)(1/k + 1/(N-k)) and its moments."""
    n = n_players
    if n < 2:
        raise ValueError("group testing needs at least two players")
    ks = np.arange(1, n)
    z = 2.0 * math.fsum(1.0 / k for k in range(1, n))
    q = (1.0 / z) * (1.0 / ks + 1.0 / (n - ks))
    # probability that a fixed pair is activated identically, summed over sizes
    terms = [((n - 2) / n) * q[0]]
    terms += [q[k - 1] * (1.0 + (2.0 * k * (k - n)) / (n * (n - 1))) for k in range(2, n)]
    q_tot = math.fsum(terms)
    return GroupTestPlan(n_players=n, z_norm=z, q=q, q_tot=q_tot)


def required_tests(n_players: int, epsilon: float, delta: float, range_r: float) -> int:
    """Tests needed so the recovered values meet (epsilon, delta) in l2 norm.

    ceil(8 ln(N(N-1)/(2 delta)) / ((1-q_tot^2) h(eps / (Z r sqrt(N) (1-q_tot^2))))),
    a Bennett tail bound for every pair's difference estimate plus a union
    bound over all N(N-1)/2 pairs.  Grows like N (ln N)^2.
    """
    _check_accuracy(range_r, epsilon, delta)
    plan = build_plan(n_players)
    spread = 1.0 - plan.q_tot**2
    u = epsilon / (plan.z_norm * range_r * math.sqrt(n_players) * spread)
    bound = 8.0 * math.log(n_players * (n_players - 1) / (2.0 * delta)) / (spread * bennett_h(u))
    return max(1, math.ceil(bound))


def _uniform_subsets(g: np.random.Generator, ks: np.ndarray, n: int) -> np.ndarray:
    """Boolean (len(ks), n) membership; row t is a uniform ks[t]-subset.

    A uniform k-subset is the complement of a uniform (N-k)-subset, so
    each row draws only its smaller side, s = min(k, N-k) players: the
    first s steps of a Fisher-Yates shuffle, run across all rows at once.
    Rows are visited in descending s, so the rows still drawing at step j
    are a leading slice; position j is final after step j and never read
    again, so a step only moves the displaced slot to the drawn position.
    """
    count = ks.shape[0]
    small = np.minimum(ks, n - ks)
    order = np.argsort(-small, kind="stable")
    active = count - np.cumsum(np.bincount(small))
    slots = np.tile(np.arange(n, dtype=np.min_scalar_type(n)), count)
    row = np.arange(count) * n
    spot = order * n  # where each visited row's membership lives
    member = np.zeros(count * n, dtype=bool)
    for j in range(small.max()):
        a = active[j]
        pick = row[:a] + g.integers(j, n, size=a)
        drawn = slots[pick]
        slots[pick] = slots[row[:a] + j]
        member[spot[:a] + drawn] = True
    member = member.reshape(count, n)
    np.logical_xor(member, (ks > n - ks)[:, None], out=member)
    return member


def _draw_tests(plan: GroupTestPlan, seed: int, chunk_index: int, count: int) -> np.ndarray:
    """Boolean (count, N) membership of one chunk's tests, drawn from a
    stream keyed on the chunk index, so any thread draws the same tests.
    """
    n = plan.n_players
    g = stream(seed, "group-test", chunk_index)
    ks = g.choice(np.arange(1, n), size=count, p=plan.q)
    return _uniform_subsets(g, ks, n)


def _test_chunk(
    game: Game, plan: GroupTestPlan, seed: int, chunk_index: int, lo: int, hi: int
) -> np.ndarray:
    """Per-player sums sum_t u_t beta_ti over tests lo..hi-1."""
    member = _draw_tests(plan, seed, chunk_index, hi - lo)
    utils = game.values_of_masks(_masks(member))
    return member.T.astype(np.float64) @ utils


def run_tests(
    game: Game, plan: GroupTestPlan, t_tests: int, seed: int, *, threads: int | None = None
) -> np.ndarray:
    """Execute t_tests pooled tests; returns the (N,) test potentials.

    potentials[i] = (Z / T) * sum_t u_t beta_ti, one utility evaluation
    per test, so the difference estimate of s_i - s_j is
    delta_u[i, j] = potentials[i] - potentials[j].  Each chunk of tests
    returns only its per-player sums, so no mask or utility outlives it.
    """
    check_count("t_tests", t_tests)
    if plan.n_players != game.n_players:
        raise ValueError("plan and game must have the same number of players")
    total = ordered_chunk_map(
        lambda i, lo, hi: _test_chunk(game, plan, seed, i, lo, hi),
        chunk_ranges(t_tests, _TEST_CHUNK),
        threads,
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
    """(m1, m2) budgets for given split constants (arrays broadcast)."""
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
    return m1, m2


def optimize_split_constants(
    n_players: int, epsilon: float, delta: float, range_r: float
) -> BaselineSplit:
    """Split constants minimizing the combined baseline-route budget m1 + m2.

    Deterministic grid search over 64 log-spaced points per constant,
    spaced by a factor 2^(1/10) so the conventional choice 2 is on the
    grid.
    """
    _check_accuracy(range_r, epsilon, delta)
    plan = build_plan(n_players)
    grid = 2.0 ** (np.arange(1, 65) / 10.0)  # 64 points in (1, 100]
    ce, cd = np.meshgrid(grid, grid, indexing="ij")
    m1, m2 = _baseline_budgets(plan, epsilon, delta, range_r, ce, cd)
    k = int(np.argmin(m1 + m2))
    return BaselineSplit(
        c_eps=float(ce.ravel()[k]),
        c_delta=float(cd.ravel()[k]),
        m1=int(m1.ravel()[k]),
        m2=int(m2.ravel()[k]),
    )


def _baseline_player_value(
    game: Game, t_orderings: int, seed: int, threads: int | None
) -> tuple[float, int]:
    """Direct estimate of player 0's value from sampled orderings, and the
    utility evaluations it took.

    Only the two prefixes around player 0 are evaluated, so one ordering
    costs two utility evaluations, or one when player 0 comes first.  A
    chunk returns its gain and its evaluations; the count is exact in float64.
    """
    n = game.n_players

    def chunk_sum(i: int, lo: int, hi: int) -> np.ndarray:
        perms = sample_orderings(seed, "baseline-perm", i, hi - lo, n)
        prefixes = np.cumsum(1 << perms, axis=1)
        pos = np.argmax(perms == 0, axis=1)
        with_mask = prefixes[np.arange(hi - lo), pos]
        before_mask = with_mask - 1  # player 0 carries bit value 1
        gain = game.values_of_masks(with_mask) - game.values_of_masks(before_mask)
        return np.array([gain.sum(), hi - lo + np.count_nonzero(before_mask)])

    gain, evals = ordered_chunk_map(chunk_sum, chunk_ranges(t_orderings, ORDERING_CHUNK), threads)
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
    """
    _check_accuracy(game.range_r, epsilon, delta)
    plan = build_plan(game.n_players)
    if recovery == "feasibility":
        t = t_tests if t_tests is not None else required_tests(
            game.n_players, epsilon, delta, game.range_r
        )
        potentials = run_tests(game, plan, t, seed, threads=threads)
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
        potentials = run_tests(game, plan, t1, seed, threads=threads)
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
