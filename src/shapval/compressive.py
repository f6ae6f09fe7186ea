"""Compressive permutation sampling.

Per-ordering marginal contributions are projected through a random
sign matrix, so only M << N noisy linear measurements of the value
vector are averaged.  The deviation of the values from their mean
U(I)/N is then recovered by l1 minimization under an l2 residual
constraint (basis pursuit denoising, solved exactly by walking the lasso
path), exploiting that most players carry near-average value.  Recovery
assumes the package's own +-1/sqrt(M) sign matrix, so the sampler draws
it and returns it with the measurements.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapvalError
from .games import Game, ValueVector
from .parallel import check_count, chunk_ranges, ordered_chunk_map
from .permutation import ORDERING_CHUNK, _check_accuracy, marginal_chunk
from .rng import stream

__all__ = [
    "sample_bernoulli_matrix",
    "compressive_sample",
    "bpdn_solve",
    "required_t_compressive",
    "estimate_compressive",
    "sigma_k",
]


def sample_bernoulli_matrix(m_rows: int, n_players: int, seed: int) -> np.ndarray:
    """(M, N) i.i.d. signs, each +1/sqrt(M) or -1/sqrt(M) with equal
    probability, so every column has unit l2 norm."""
    check_count("m_rows", m_rows)
    if n_players < 1:
        raise ValueError("need at least one player")
    g = stream(seed, "bernoulli-matrix")
    signs = g.integers(0, 2, size=(m_rows, n_players)) * 2 - 1
    return signs / math.sqrt(m_rows)


def compressive_sample(
    game: Game, m_rows: int, t_permutations: int, seed: int, *, threads: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(a, y_bar): the (M, N) sign matrix for ``seed`` and the per-ordering
    marginals projected through it, averaged over orderings.

    Orderings reuse the permutation sampler's prefix caching, so each
    costs N utility evaluations.  For monotone games every single
    measurement is certified to lie in [-r/sqrt(M), r/sqrt(M)].
    """
    check_count("t_permutations", t_permutations)
    a = sample_bernoulli_matrix(m_rows, game.n_players, seed)
    bound = game.range_r / math.sqrt(m_rows) + 1e-9 * max(1.0, game.range_r)

    def chunk_sum(i: int, lo: int, hi: int) -> np.ndarray:
        phi = marginal_chunk(game, seed, "compressive", i, hi - lo)
        y = phi @ a.T
        if game.monotone and float(np.abs(y).max()) > bound:
            raise ShapvalError(
                "measurement outside the guaranteed range for a monotone utility"
            )
        return y.sum(axis=0)

    total = ordered_chunk_map(chunk_sum, chunk_ranges(t_permutations, ORDERING_CHUNK), threads)
    return a, total / t_permutations


_TIE = 1e-12  # relative to lam: events this close coincide, and smaller rates are tangent


def _segment(mat: np.ndarray, b: np.ndarray, active: np.ndarray, signs: np.ndarray):
    """Lasso path segment x_S = p - lam d with these active columns and signs.

    Returns p, d, the residual at lam = 0, the slope of a^T r in lam,
    ||A_S d||^2 and which columns lie off span(A_S).
    """
    q, r = np.linalg.qr(mat[:, active])
    qb, z = q.T @ b, np.linalg.solve(r.T, signs[active])
    off_span = np.linalg.norm(mat - q @ (q.T @ mat), axis=0) > 1e-9 * np.linalg.norm(mat, axis=0)
    return np.linalg.solve(r, qb), np.linalg.solve(r, z), b - q @ qb, mat.T @ (q @ z), z @ z, off_span


def _next_segment(mat, b, moving: np.ndarray, tied: np.ndarray, signs: np.ndarray):
    """Active set and segment below a breakpoint; updates ``tied``.

    Nonzero coefficients stay; a tied zero one joins if the direction pushes
    its correlation past lam (Lawson-Hanson NNLS, lowest index first).
    """
    active = np.flatnonzero(moving)
    seg = _segment(mat, b, active, signs)
    while True:
        eligible = np.flatnonzero(tied & (1.0 - signs * seg[3] > _TIE) & seg[5])
        if eligible.size == 0:
            return active, seg
        old, active = np.append(seg[1], 0.0), np.append(active, eligible[0])
        while True:
            seg = _segment(mat, b, active, signs)
            new, sgn = seg[1], signs[active]
            bad = np.flatnonzero(~moving[active] & (new * sgn <= 0))
            if bad.size == 0:
                break
            ratios = old[bad] / (old[bad] - new[bad])
            tied[active[-1]] &= ratios.min() > 0.0  # a joining column that cannot move stays out
            old += ratios.min() * (new - old)
            keep = moving[active] | (old * sgn > 0)
            keep[bad[np.argmin(ratios)]] = False
            active, old = active[keep], old[keep]


def bpdn_solve(a: np.ndarray, residual_target: np.ndarray, epsilon: float) -> np.ndarray:
    """min ||x||_1 subject to ||a x - residual_target||_2 <= epsilon, exactly.

    Lasso homotopy (Osborne, Presnell & Turlach 2000; Efron et al. 2004): from
    lam = max |a^T b|, x = 0, the path of argmin 1/2 ||a x - b||^2 + lam ||x||_1
    is linear until an inactive correlation reaches lam, an active coefficient
    reaches zero or lam reaches 0 (events within a relative 1e-12 coincide).
    It stops where ||a x - b|| is the target, max(epsilon, 1e-10 max(1, ||b||)).
    With r = b - a x and lam = max |a^T r| the result is certified optimal:
    ||r|| is the target (or x = 0) and a_j^T r = lam sign(x_j) where x_j != 0.
    If no x meets the target, it returns the path's end (least squares, least l1).
    """
    if not epsilon >= 0:  # NaN fails too
        raise ValueError(f"epsilon must be nonnegative, got {epsilon!r}")
    mat = np.asarray(a, dtype=np.float64)
    b = np.asarray(residual_target, dtype=np.float64)
    if b.shape != (mat.shape[0],):
        raise ValueError("residual target length must match the row count")
    norm_b = float(np.linalg.norm(b))
    target = max(epsilon, 1e-10 * max(1.0, norm_b))
    x, corr = np.zeros(mat.shape[1]), mat.T @ b
    lam = float(np.max(np.abs(corr)))
    if norm_b <= target or lam == 0.0:
        return x
    side = np.array([[1.0], [-1.0]])
    while True:
        signs = np.where(x != 0, np.sign(x), np.sign(corr))
        tied = np.abs(corr) >= lam * (1.0 - _TIE)
        active, (p, d, base, slope, uu, off_span) = _next_segment(mat, b, x != 0, tied, signs)
        s, at_base, rate = signs[active], mat.T @ base, 1.0 - side * slope
        with np.errstate(divide="ignore", invalid="ignore"):
            leave = np.where(d * s < 0, np.minimum(p / d, lam), -np.inf)
            gap = np.maximum(lam - side * (at_base + lam * slope), 0.0)
            join = np.where((rate > _TIE) & off_span, lam - gap / rate, -np.inf)
        lam_next = max(leave.max(initial=0.0), join.max(), 0.0)
        slack = target * target - base @ base  # ||r||^2 = ||base||^2 + lam^2 uu
        stop = math.sqrt(slack / uu) if slack >= 0 and uu > 0 else -1.0
        lam_end = min(max(stop, lam_next), lam)
        vals = p - lam_end * d
        vals[(vals * s <= 0) | (leave >= lam_end - _TIE * lam)] = 0.0
        x = np.zeros(mat.shape[1])
        x[active] = vals
        if stop >= lam_next or lam_next == 0.0:
            return x
        corr, lam = at_base + lam_next * slope, lam_next


def required_t_compressive(range_r: float, epsilon: float, delta: float, m_rows: int) -> int:
    """Orderings per measurement row: ceil((2 r^2 / eps^2) ln(4M / delta))."""
    _check_accuracy(range_r, epsilon, delta)
    check_count("m_rows", m_rows)
    return max(1, math.ceil((2.0 * range_r**2 / epsilon**2) * math.log(4.0 * m_rows / delta)))


def estimate_compressive(
    game: Game,
    m_rows: int,
    t_permutations: int,
    epsilon: float,
    seed: int,
    *,
    threads: int | None = None,
) -> ValueVector:
    """Estimate values as mean + sparse correction from M compressed measurements.

    The recovery guarantee assumes a monotone utility; for games not
    declared monotone the estimate is still computed but flagged.
    """
    a, y_bar = compressive_sample(game, m_rows, t_permutations, seed, threads=threads)
    s_bar = game.u_total / game.n_players
    correction = bpdn_solve(a, y_bar - s_bar * (a @ np.ones(game.n_players)), epsilon)
    return ValueVector(
        s_bar + correction,
        method="compressive",
        eval_count=int(t_permutations) * game.n_players,
        seed=seed,
        epsilon=epsilon,
        flags=() if game.monotone else ("uncertified-nonmonotone",),
    )


def sigma_k(values: np.ndarray, k: int) -> float:
    """l1 distance to the best k-sparse approximation: sum of the N-k smallest magnitudes."""
    v = np.abs(np.asarray(values, dtype=np.float64))
    if not 0 <= k <= v.size:
        raise ValueError("k must lie in [0, N]")
    if k == v.size:
        return 0.0
    return float(np.sort(v)[: v.size - k].sum())
