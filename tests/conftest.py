"""Shared independent oracles for the test suite.

These deliberately avoid the library's own computation paths: the
Shapley oracle walks orderings directly from the definition, the
max-violation oracle is a linear program, the sparse oracle is an
exhaustive least-squares search, the Pascal-identity sum is summed
term by term, and the KNN utility is a loop over one coalition at a time,
in its own stable argsort of the feature-order distances and with its
own label compare.
``run_python`` runs a fresh interpreter on the package under test, and
``drawn_tests`` redraws a group-test run's coalitions through the
estimator's own draw, so the tests examine the tests it ran.  ``chunks``
lists the chunks ``ordered_chunk_map`` runs over ``range(0, total, size)``.
``built_in_game`` builds an N-player game of each built-in family.
"""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import shapval
from shapval import (
    Game,
    KnnInstance,
    knn_game,
    make_additive_game,
    make_glove_game,
    make_random_game,
    make_symmetric_game,
    make_voting_game,
)
from shapval.games import RANDOM_GAME_PLAYERS, _masks
from shapval.group_testing import _TEST_CHUNK, _draw_tests


def run_python(*args):
    """``python *args`` in a new process that imports this checkout's shapval."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(shapval.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    ))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def chunks(total, size):
    """(index, lo, hi) of each chunk of ``range(0, total, size)``."""
    return [(i, lo, min(lo + size, total)) for i, lo in enumerate(range(0, total, size))]


def drawn_tests(game, plan, t_tests, seed):
    """(masks, utilities) of the tests ``run_tests(game, t_tests, seed)`` runs,
    drawn from ``plan``, the ``GroupTestPlan(game.n_players)`` it builds.
    """
    masks, utils = [], []
    for index, lo, hi in chunks(t_tests, _TEST_CHUNK):
        chunk = _masks(_draw_tests(plan, seed, index, hi - lo))
        masks.append(chunk)
        utils.append(game.values_of_masks(chunk))
    return np.concatenate(masks), np.concatenate(utils)


def voting_half(weights):
    return make_voting_game(weights, float(np.sum(weights)) / 2)


def built_in_game(family, n):
    """An n-player game of a built-in family, or None where it has none."""
    rng = np.random.default_rng(n)
    w = rng.uniform(0.0, 1.0, n)
    if family == "additive":
        return make_additive_game(w)
    if family == "voting":
        return voting_half(w)
    if family == "symmetric":
        return make_symmetric_game(n, np.r_[0.0, rng.uniform(0.0, 1.0, n)])
    if family == "glove":
        return make_glove_game() if n == 3 else None
    if family == "random":
        return make_random_game(n, n) if n <= RANDOM_GAME_PLAYERS else None
    points, labels = rng.uniform(size=(n, 1)), rng.integers(0, 2, n)
    k = max(1, n // 3)
    return knn_game([KnnInstance(points, labels, rng.uniform(size=1), 1, k) for _ in range(2)])


def brute_force_shapley(n, mask_utility):
    """Average marginal contribution over all n! orderings of the players."""
    totals = np.zeros(n)
    for perm in itertools.permutations(range(n)):
        mask = 0
        before = 0.0
        for player in perm:
            mask |= 1 << player
            after = mask_utility(mask)
            totals[player] += after - before
            before = after
    return totals / math.factorial(n)


def glove_mask_utility(mask):
    """Worth 1 when player 0 is paired with player 1 or 2."""
    return 1.0 if (mask & 1) and (mask & 0b110) else 0.0


def random_mask_table(n, seed, high=1.0):
    table = np.random.default_rng(seed).uniform(0.0, high, size=1 << n)
    table[0] = 0.0
    return table


def lp_max_violation(diffs, total):
    """LP oracle: minimize max |s_i - s_j - diffs[i,j]| with sum(s) = total."""
    n = diffs.shape[0]
    rows, rhs = [], []
    for i in range(n):
        for j in range(i + 1, n):
            row = np.zeros(n + 1)
            row[i], row[j], row[n] = 1.0, -1.0, -1.0
            rows.append(row.copy())
            rhs.append(diffs[i, j])
            row[i], row[j] = -1.0, 1.0
            rows.append(row)
            rhs.append(-diffs[i, j])
    cost = np.zeros(n + 1)
    cost[n] = 1.0
    eq = np.concatenate([np.ones(n), [0.0]])[None, :]
    res = linprog(
        cost,
        A_ub=np.asarray(rows),
        b_ub=np.asarray(rhs),
        A_eq=eq,
        b_eq=[total],
        bounds=[(None, None)] * n + [(0, None)],
        method="highs",
    )
    assert res.status == 0, res.message
    return res.x[:n], float(res.x[n])


def has_negative_cycle(weights):
    """Floyd-Warshall over the dense edge weights weights[u, v] of u -> v."""
    dist = np.array(weights, dtype=np.float64)
    for k in range(dist.shape[0]):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return bool(np.any(np.diag(dist) < 0.0))


def pascal_identity_lhs(a, n, m):
    """Double sum of binomial ratios underlying the KNN closed-form recursion.

    sum_{i=0}^{min(a,n)} sum_{j=0}^{m} C(n,i) C(m,j) / C(n+m, i+j),
    which collapses to (min(a, n) + 1)(m + n + 1)/(n + 1).
    """
    total = 0.0
    for i in range(min(a, n) + 1):
        for j in range(m + 1):
            total += math.comb(n, i) * math.comb(m, j) / math.comb(n + m, i + j)
    return total


def feature_order_distances(points, test_point, distance):
    """The distances, summed over features one feature at a time."""
    dist = np.zeros(points.shape[0])
    for j in range(points.shape[1]):
        delta = points[:, j] - test_point[j]
        dist = dist + (delta * delta if distance == "euclidean" else np.abs(delta))
    return dist


def knn_loop_utility(instance, order, mask):
    """Match fraction over the coalition's closest min(|S|, K) members, with
    ``order`` the stable argsort of the instance's distances."""
    k = instance.k_neighbors
    hits = taken = 0
    for original in order:
        if mask >> int(original) & 1:
            hits += bool(instance.labels[original] == instance.test_label)
            taken += 1
            if taken == k:
                break
    return hits / k


def knn_loop_game(instances):
    """Mean loop utility over the instances, summed in the order knn_game sums."""
    orders = [
        np.argsort(feature_order_distances(inst.points, inst.test_point, inst.distance), kind="stable")
        for inst in instances
    ]

    def batch(masks):
        out = np.zeros(masks.shape[0], dtype=np.float64)
        for inst, order in zip(instances, orders):
            out += np.array([knn_loop_utility(inst, order, int(m)) for m in masks])
        return out / len(instances)

    return Game(instances[0].n_players, batch, range_r=1.0, name="knn-loop")


def exhaustive_one_sparse(matrix, target, fit_tol=1e-9):
    """Best single-column least-squares fits with (coefficient, residual) each."""
    fits = []
    for col in range(matrix.shape[1]):
        a = matrix[:, col]
        coeff = float(a @ target) / float(a @ a)
        residual = float(np.linalg.norm(target - coeff * a))
        fits.append((col, coeff, residual))
    exact = [(c, v) for c, v, r in fits if r <= fit_tol]
    return fits, exact


def _basis_pursuit_lp(matrix, target):
    """min ||x||_1 s.t. matrix x = target, as a linear program (split variables)."""
    m, n = matrix.shape
    res = linprog(
        np.ones(2 * n),
        A_eq=np.hstack([matrix, -matrix]),
        b_eq=target,
        bounds=[(0, None)] * (2 * n),
        method="highs",
    )
    assert res.status == 0, res.message
    return res.x[:n] - res.x[n:]


def one_sparse_recovery_instances(count, m_rows=8, n_cols=12, base_seed=4000):
    """Well-posed noiseless 1-sparse recovery instances.

    Random sign matrices occasionally carry a duplicated (up to sign)
    column, or admit a dense vector of equal l1 norm; on such instances
    "the" sparse solution is not unique and comparing any solver to the
    1-sparse oracle is ill-posed.  Instances are therefore kept only
    when the exhaustive oracle finds a unique exact fit and an
    independent LP confirms the planted spike is the unique l1
    minimizer.  Both filters are solver-independent.
    """
    kept = []
    seed = base_seed
    while len(kept) < count:
        g = np.random.default_rng(seed)
        seed += 1
        matrix = g.choice([-1.0, 1.0], size=(m_rows, n_cols)) / math.sqrt(m_rows)
        planted = np.zeros(n_cols)
        col = int(g.integers(n_cols))
        planted[col] = float(g.uniform(0.5, 2.0)) * float(g.choice([-1.0, 1.0]))
        target = matrix @ planted
        _, exact = exhaustive_one_sparse(matrix, target)
        if len(exact) != 1 or exact[0][0] != col:
            continue
        if np.max(np.abs(_basis_pursuit_lp(matrix, target) - planted)) > 1e-7:
            continue
        kept.append((matrix, planted, target))
    return kept


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
