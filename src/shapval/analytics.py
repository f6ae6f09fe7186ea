"""Value heuristics and bounds for machine-learning utilities.

Covers uniform division with its stability justification, the
lambda-stable spread bound, closed-form influence of removing one point
from a logistic regression, and the largest-coalition marginal
heuristic together with its additivity diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .games import Game, ValueVector

__all__ = [
    "LogisticModel",
    "uniform_division",
    "stability_value_gap_bound",
    "lambda_stable_gap_bound",
    "fit_logistic",
    "influence_removal_logistic",
    "leave_one_out_marginals",
    "largest_s_values",
    "AdditivityReport",
    "additivity_violation",
]

# stopping rule of fit_logistic's Newton iterations
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 200


def uniform_division(u_total: float, n_players: int) -> ValueVector:
    """Assign every player u_total / N."""
    if n_players < 1:
        raise ValueError("need at least one player")
    return ValueVector(
        np.full(n_players, u_total / n_players), method="uniform", eval_count=0
    )


def stability_value_gap_bound(c_stab: float, n_players: int) -> float:
    """Largest possible value gap for a uniformly stable learner.

    2 * c_stab * (1 + ln(N-1)) / (N-1), the lambda-stable bound at
    lam = 2 c_stab; vanishes as N grows, which is what justifies uniform
    division for stable learners.
    """
    if not 0 <= c_stab < math.inf:
        raise ValueError("c_stab must be finite and nonnegative")
    # doubling commutes with rounding, so this is the bound at lam = 2 c_stab
    # bit for bit unless a step of it is subnormal
    return 2.0 * lambda_stable_gap_bound(c_stab, n_players)


def lambda_stable_gap_bound(lam: float, n_players: int) -> float:
    """Value gap bound lam * (1 + ln(N-1)) / (N-1) for a lambda-stable utility.

    A utility is lambda-stable when swapping one member of any coalition
    changes its worth by at most lam / (|S| + 1).
    """
    if n_players < 2:
        raise ValueError("need at least two players")
    if not 0 <= lam < math.inf:
        raise ValueError("lam must be finite and nonnegative")
    return lam * (1.0 + math.log(n_players - 1)) / (n_players - 1)


# -- logistic regression influence ----------------------------------------


@dataclass(frozen=True)
class LogisticModel:
    """Fitted logistic regression over features x and labels y in {-1, +1}."""

    theta: np.ndarray
    x: np.ndarray
    y: np.ndarray
    l2: float = 0.0

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta, dtype=np.float64)
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 2 or y.shape != (x.shape[0],) or theta.shape != (x.shape[1],):
            raise ValueError("inconsistent model dimensions")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")


def _sigmoid(u: np.ndarray) -> np.ndarray:
    out = np.empty_like(u, dtype=np.float64)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    e = np.exp(u[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def logistic_loss(theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Mean log loss, computed overflow-safely."""
    margins = y * (x @ theta)
    return float(np.mean(np.logaddexp(0.0, -margins)))


def fit_logistic(x: np.ndarray, y: np.ndarray, l2: float = 0.0) -> LogisticModel:
    """Newton fit of sum_i log(1 + exp(-y_i x_i' theta)) + l2/2 ||theta||^2.

    With l2 = 0 on separable data the optimum diverges; pass a positive
    l2 for such data.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = x.shape
    theta = np.zeros(d)
    for _ in range(_NEWTON_MAX_ITER):
        margins = y * (x @ theta)
        p = _sigmoid(-margins)  # per-point misfit weight
        grad = -(x.T @ (p * y)) + l2 * theta
        if float(np.linalg.norm(grad)) <= _NEWTON_TOL * max(1.0, n):
            break
        s = _sigmoid(x @ theta)
        hess = x.T @ (x * (s * (1.0 - s))[:, None]) + l2 * np.eye(d)
        # tiny damping keeps the step defined on separable data
        step = np.linalg.solve(hess + 1e-12 * np.eye(d), grad)
        theta = theta - step
    return LogisticModel(theta=theta, x=x, y=y, l2=l2)


def _damped_hessian_solve(model: LogisticModel, rhs: np.ndarray, damping=None) -> np.ndarray:
    """H^{-1} rhs, with H and its default damping as influence_removal_logistic states."""
    x, theta = model.x, model.theta
    d = x.shape[1]
    s = _sigmoid(x @ theta)
    hess = x.T @ (x * (s * (1.0 - s))[:, None])
    if damping is None:
        damping = model.l2 if model.l2 > 0 else 1e-6 * float(np.trace(hess)) / d
    hess = hess + damping * np.eye(d)
    try:
        delta = np.linalg.solve(hess, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular influence Hessian; pass a positive damping value") from exc
    residual = float(np.linalg.norm(hess @ delta - rhs))
    if residual > 1e-10 * max(1.0, float(np.linalg.norm(rhs))):
        raise ValueError("influence solve did not reach the required residual; increase damping")
    return delta


def influence_removal_logistic(
    model: LogisticModel, index: int, damping: float | None = None
) -> np.ndarray:
    """Closed-form parameter shift attributed to one training point.

    Returns H^{-1} sigma(-y x' theta) y x for the indexed point, where H
    sums sigma(x_i' theta) sigma(-x_i' theta) x_i x_i' over the training
    set plus a ridge term.  The sign is oriented as
    (theta on all points) - (theta with the point removed): removing the
    point moves the parameters by the negative of the returned vector.

    ``damping`` defaults to the model's own l2 strength when the model
    was fit with one, else to 1e-6 * trace(H)/d; a fully undamped
    Hessian can be requested with damping=0, at the caller's risk of
    singularity.
    """
    if not 0 <= index < model.x.shape[0]:
        raise ValueError("index out of range")
    xi, yi = model.x[index], model.y[index]
    grad = float(_sigmoid(np.array([-yi * (xi @ model.theta)]))[0]) * yi * xi
    return _damped_hessian_solve(model, grad, damping)


# -- largest-coalition heuristic -------------------------------------------


def leave_one_out_marginals(game: Game) -> np.ndarray:
    """Exact marginals to the full coalition: U(I) - U(I minus i) per player."""
    n = game.n_players
    full = (1 << n) - 1
    drops = game.values_of_masks(np.array([full ^ (1 << i) for i in range(n)], dtype=np.int64))
    return game.u_total - drops


def largest_s_values(marginals: np.ndarray, u_total: float) -> ValueVector:
    """Scale each player's full-coalition marginal so the values sum to u_total.

    The marginals may come from exact leave-one-out utilities or from an
    influence approximation.  This scheme matches the true values on
    additive games but is biased in general and, unlike them, is not
    additive across utilities.
    """
    m = np.asarray(marginals, dtype=np.float64)
    total = float(m.sum())
    if total == 0.0:
        raise ZeroDivisionError("marginals sum to zero; cannot normalize")
    return ValueVector((u_total / total) * m, method="largest-s", eval_count=0)


class AdditivityReport(NamedTuple):
    violation: float
    condition_holds: bool


def additivity_violation(u_game: Game, v_game: Game) -> AdditivityReport:
    """Worst additivity gap of the largest-coalition heuristic on a game pair.

    Reports max_i |s(U+V, i) - s(U, i) - s(V, i)| together with a direct
    check of the exact proportionality condition V(I) * a = U(I) * b, where
    a and b are the sums of the leave-one-out marginals m_U and m_V. The
    gap factors as (a*V(I) - b*U(I)) / (a + b) * (m_U/a - m_V/b), so the
    condition is sufficient for it to vanish but not necessary: it also
    vanishes when m_U/a = m_V/b.
    """
    if u_game.n_players != v_game.n_players:
        raise ValueError("games must have the same number of players")
    mu = leave_one_out_marginals(u_game)
    mv = leave_one_out_marginals(v_game)
    su = largest_s_values(mu, u_game.u_total).values
    sv = largest_s_values(mv, v_game.u_total).values
    sw = largest_s_values(mu + mv, u_game.u_total + v_game.u_total).values
    violation = float(np.max(np.abs(sw - su - sv)))
    lhs = v_game.u_total * float(mu.sum())
    rhs = u_game.u_total * float(mv.sum())
    scale = max(1.0, abs(lhs), abs(rhs))
    return AdditivityReport(violation, abs(lhs - rhs) <= 1e-12 * scale)
