"""Compressive permutation sampling.

Per-ordering marginal contributions are projected through a random
sign matrix, so only M << N noisy linear measurements of the value
vector are averaged.  The deviation of the values from their mean
U(I)/N is then recovered by l1 minimization under an l2 residual
constraint (basis pursuit denoising), exploiting that most players
carry near-average value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapvalError
from .games import Game, ValueVector
from .parallel import chunk_ranges, ordered_chunk_map, ordered_sum, resolve_threads
from .permutation import ORDERING_CHUNK, marginal_chunk
from .rng import stream

__all__ = [
    "MeasurementMatrix",
    "CompressiveState",
    "sample_bernoulli_matrix",
    "compressive_sample",
    "bpdn_solve",
    "required_t_compressive",
    "estimate_compressive",
    "sigma_k",
]


@dataclass(frozen=True)
class MeasurementMatrix:
    """Random sign matrix with entries +-1/sqrt(M); every column has unit l2 norm."""

    entries: np.ndarray
    m_rows: int
    seed: int

    def __post_init__(self) -> None:
        e = np.asarray(self.entries, dtype=np.float64)
        object.__setattr__(self, "entries", e)
        if e.shape[0] != self.m_rows:
            raise ValueError("row count mismatch")
        if not np.all(np.abs(np.abs(e) * math.sqrt(self.m_rows) - 1.0) < 1e-12):
            raise ValueError("entries must all have magnitude 1/sqrt(M)")


@dataclass(frozen=True)
class CompressiveState:
    """Averaged measurements of the marginal-contribution vector."""

    y_bar: np.ndarray
    s_bar: float
    t_permutations: int

    def __post_init__(self) -> None:
        if self.t_permutations < 1:
            raise ValueError("need at least one permutation")
        if not np.all(np.isfinite(self.y_bar)):
            raise ValueError("measurements must be finite")


def sample_bernoulli_matrix(m_rows: int, n_players: int, seed: int) -> MeasurementMatrix:
    """i.i.d. signs, each +1/sqrt(M) or -1/sqrt(M) with equal probability."""
    if m_rows < 1 or n_players < 1:
        raise ValueError("matrix dimensions must be positive")
    g = stream(seed, "bernoulli-matrix")
    signs = g.integers(0, 2, size=(m_rows, n_players)) * 2 - 1
    return MeasurementMatrix(signs / math.sqrt(m_rows), m_rows, seed)


def compressive_sample(
    game: Game,
    a: MeasurementMatrix,
    t_permutations: int,
    seed: int,
    *,
    threads: int | None = None,
) -> CompressiveState:
    """Project per-ordering marginals through ``a`` and average over orderings.

    Orderings reuse the permutation sampler's prefix caching, so each
    costs N utility evaluations.  For monotone games every single
    measurement is certified to lie in [-r/sqrt(M), r/sqrt(M)].
    """
    if a.entries.shape[1] != game.n_players:
        raise ValueError("measurement matrix width must match the player count")
    if t_permutations < 1:
        raise ValueError("need at least one permutation")
    at = a.entries.T
    bound = game.range_r / math.sqrt(a.m_rows) + 1e-9 * max(1.0, game.range_r)

    def chunk_sum(i: int, lo: int, hi: int) -> np.ndarray:
        phi = marginal_chunk(game, seed, "compressive", i, hi - lo)
        y = phi @ at
        if game.monotone and float(np.abs(y).max()) > bound:
            raise ShapvalError(
                "measurement outside the guaranteed range for a monotone utility"
            )
        return y.sum(axis=0)

    parts = ordered_chunk_map(
        chunk_sum, chunk_ranges(t_permutations, ORDERING_CHUNK), resolve_threads(threads)
    )
    return CompressiveState(
        y_bar=ordered_sum(parts) / t_permutations,
        s_bar=game.u_total / game.n_players,
        t_permutations=t_permutations,
    )


def _soft_threshold(x: np.ndarray, t: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def _lasso(
    a: np.ndarray,
    b: np.ndarray,
    lam: float,
    x0: np.ndarray,
    lipschitz: float,
    max_iter: int = 20_000,
    gap_tol: float = 1e-14,
) -> np.ndarray:
    """min 1/2 ||a x - b||^2 + lam ||x||_1 by accelerated shrinkage.

    Stops on the duality gap, checked every 25 iterations.
    """
    x = x0.copy()
    z = x.copy()
    momentum = 1.0
    scale = max(1.0, 0.5 * float(b @ b))
    for it in range(max_iter):
        grad = a.T @ (a @ z - b)
        x_new = _soft_threshold(z - grad / lipschitz, lam / lipschitz)
        if float((z - x_new) @ (x_new - x)) > 0.0:  # restart on objective reversal
            momentum, z = 1.0, x_new
        else:
            m_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum * momentum))
            z = x_new + ((momentum - 1.0) / m_new) * (x_new - x)
            momentum = m_new
        x = x_new
        if it % 25 == 0:
            r = a @ x - b
            primal = 0.5 * float(r @ r) + lam * float(np.abs(x).sum())
            corr = float(np.max(np.abs(a.T @ r)))
            nu = r * (1.0 if corr <= lam else lam / corr)
            dual = -0.5 * float(nu @ nu) - float(nu @ b)
            if primal - dual <= gap_tol * scale:
                break
    return x


def bpdn_solve(
    a: MeasurementMatrix | np.ndarray, residual_target: np.ndarray, epsilon: float
) -> np.ndarray:
    """min ||x||_1 subject to ||a x - residual_target||_2 <= epsilon.

    Solved through the penalized form: the penalty weight is bisected
    (at most 60 steps) until the residual constraint is active within
    1e-8.  A zero epsilon is handled by targeting a tiny residual floor,
    which reproduces the equality-constrained minimizer to well below
    the advertised 1e-6 accuracy.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    mat = a.entries if isinstance(a, MeasurementMatrix) else np.asarray(a, dtype=np.float64)
    b = np.asarray(residual_target, dtype=np.float64)
    if b.shape != (mat.shape[0],):
        raise ValueError("residual target length must match the row count")
    norm_b = float(np.linalg.norm(b))
    target = max(epsilon, 1e-10 * max(1.0, norm_b))
    if norm_b <= target:
        return np.zeros(mat.shape[1])
    lipschitz = float(np.linalg.norm(mat, 2)) ** 2
    lam_hi = float(np.max(np.abs(mat.T @ b)))  # at lam_hi the solution is 0
    lam_lo = 0.0
    x = np.zeros(mat.shape[1])
    feasible: np.ndarray | None = None
    for _ in range(60):
        lam = lam_hi / 2.0 if lam_lo == 0.0 else 0.5 * (lam_lo + lam_hi)
        x = _lasso(mat, b, lam, x, lipschitz)
        residual = float(np.linalg.norm(mat @ x - b))
        if residual <= target:
            feasible = x.copy()
            lam_lo = lam
            if target - residual <= 1e-8:
                break
        else:
            lam_hi = lam
    return feasible if feasible is not None else x


def required_t_compressive(range_r: float, epsilon: float, delta: float, m_rows: int) -> int:
    """Orderings per measurement row: ceil((2 r^2 / eps^2) ln(4M / delta))."""
    if range_r <= 0 or epsilon <= 0 or m_rows < 1:
        raise ValueError("range_r, epsilon and m_rows must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
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
    before = game.eval_count
    a = sample_bernoulli_matrix(m_rows, game.n_players, seed)
    state = compressive_sample(game, a, t_permutations, seed, threads=threads)
    residual = state.y_bar - state.s_bar * (a.entries @ np.ones(game.n_players))
    correction = bpdn_solve(a, residual, epsilon)
    return ValueVector(
        state.s_bar + correction,
        method="compressive",
        eval_count=game.eval_count - before,
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
