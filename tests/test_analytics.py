import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from shapval import (
    Game,
    additivity_violation,
    exact_shapley_subsets,
    fit_logistic,
    influence_removal_logistic,
    lambda_stable_gap_bound,
    largest_s_values,
    leave_one_out_marginals,
    make_additive_game,
    make_glove_game,
    make_symmetric_game,
    make_voting_game,
    stability_value_gap_bound,
    uniform_division,
)
from shapval.analytics import logistic_loss


def lambda_stable_game(n, seed, base=1.0):
    """U(S) = base * |S| + mean of per-member constants.

    Swapping one member of a size-(s+1) coalition changes the utility by
    (c_i - c_j) / (s + 1), so the game is stable with constant
    max(c) - min(c) by construction.
    """
    g = np.random.default_rng(seed)
    c = g.uniform(0.0, 1.0, size=n)

    def batch(masks):
        out = np.zeros(len(masks))
        for t, m in enumerate(np.asarray(masks)):
            members = [i for i in range(n) if m >> i & 1]
            if members:
                out[t] = base * len(members) + float(np.mean(c[members]))
        return out

    game = Game(n, batch, range_r=base * n + 1.0)
    return game, float(c.max() - c.min()), c


def separable_logistic_data(n=20, seed=99):
    g = np.random.default_rng(seed)
    x = np.vstack(
        [g.normal((2, 2), 1.0, size=(n // 2, 2)), g.normal((-2, -2), 1.0, size=(n // 2, 2))]
    )
    y = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
    return x, y


class TestUniformDivision:
    def test_examples(self):
        assert_allclose(uniform_division(6.0, 3).values, [2.0, 2.0, 2.0])
        assert_allclose(uniform_division(0.0, 5).values, np.zeros(5))

    def test_matches_exact_values_on_symmetric_games(self):
        g = make_symmetric_game(6)
        assert_allclose(
            uniform_division(g.u_total, 6).values,
            exact_shapley_subsets(g).values,
            atol=1e-12,
        )

    def test_needs_a_player(self):
        with pytest.raises(ValueError):
            uniform_division(1.0, 0)


class TestGapBounds:
    def test_stability_reference_value(self):
        assert stability_value_gap_bound(1.0, 11) == pytest.approx(0.66052, abs=1e-4)

    def test_zero_constant(self):
        assert stability_value_gap_bound(0.0, 7) == 0.0

    def test_vanishes_for_large_n(self):
        assert stability_value_gap_bound(1.0, 10**6) < 1e-4

    def test_lambda_reference_value(self):
        assert lambda_stable_gap_bound(1.0, 3) == pytest.approx((1 + math.log(2)) / 2, abs=1e-12)

    def test_bounds_are_the_same_formula_up_to_factor_two(self):
        for n in (2, 5, 40):
            assert stability_value_gap_bound(0.7, n) == lambda_stable_gap_bound(1.4, n)
        # a finite constant whose double overflows gives an infinite bound, not a refusal
        assert stability_value_gap_bound(1e308, 5) == math.inf

    @pytest.mark.parametrize("c_stab", [-1.0, math.inf, math.nan])
    def test_constant_must_be_finite_and_nonnegative(self, c_stab):
        with pytest.raises(ValueError, match="c_stab must be finite and nonnegative"):
            stability_value_gap_bound(c_stab, 11)

    @pytest.mark.parametrize("lam", [-1.0, math.inf, -math.inf, math.nan])
    def test_lam_must_be_finite_and_nonnegative(self, lam):
        with pytest.raises(ValueError, match="lam must be finite and nonnegative"):
            lambda_stable_gap_bound(lam, 11)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            stability_value_gap_bound(1.0, 1)
        with pytest.raises(ValueError):
            lambda_stable_gap_bound(1.0, 1)

    def test_stability_bound_at_c_two(self):
        assert stability_value_gap_bound(2.0, 11) == pytest.approx(2 * 0.6605170185988092, abs=1e-12)

    def test_lambda_stable_game_construction_and_bound(self):
        for seed in (0, 1, 2):
            game, lam, c = lambda_stable_game(8, seed)
            # spot-check the stability property itself
            g = np.random.default_rng(seed + 100)
            for _ in range(200):
                i, j = g.choice(8, size=2, replace=False)
                others = [p for p in range(8) if p not in (i, j)]
                pick = g.random(6) < 0.5
                mask = sum(1 << p for p, take in zip(others, pick) if take)
                size = bin(mask).count("1")
                with_i, with_j = game.values_of_masks([mask | 1 << i, mask | 1 << j])
                gap = abs(with_i - with_j)
                assert gap <= lam / (size + 1) + 1e-12
            values = exact_shapley_subsets(game).values
            spread = float(values.max() - values.min())
            assert spread <= lambda_stable_gap_bound(lam, 8) + 1e-12

    def test_ridge_regression_spread_within_empirical_bound(self):
        # 1-D ridge with exactly consistent data; closed-form per-subset fit
        n, lam_reg = 6, 2.0
        g = np.random.default_rng(5)
        x = g.uniform(0.5, 1.5, size=n)
        y = 2.0 * x
        xt = g.uniform(0.5, 1.5, size=4)
        yt = 2.0 * xt

        def theta(mask):
            idx = [i for i in range(n) if mask >> i & 1]
            if not idx:
                return 0.0
            xs, ys = x[idx], y[idx]
            return float((xs @ ys) / (xs @ xs + lam_reg))

        def loss(mask):
            return float(np.mean((theta(mask) * xt - yt) ** 2))

        top = max(loss(m) for m in range(1 << n))
        game = Game(n, lambda ms: np.array([top - loss(int(m)) for m in ms]), range_r=top)
        c_emp = 0.0
        for mask in range(1, 1 << n):
            size = bin(mask).count("1")
            for i in range(n):
                if mask >> i & 1:
                    with_i, without_i = theta(mask), theta(mask ^ (1 << i))
                    pointwise = max(
                        abs((with_i * a - b) ** 2 - (without_i * a - b) ** 2)
                        for a, b in zip(xt, yt)
                    )
                    c_emp = max(c_emp, size * pointwise)
        values = exact_shapley_subsets(game).values
        assert values.max() - values.min() <= stability_value_gap_bound(c_emp, n)


class TestInfluence:
    def test_zero_feature_vector_has_zero_influence(self):
        x = np.array([[1.0, 0.5], [0.0, 0.0], [-1.0, 1.0], [0.3, -2.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        model = fit_logistic(x, y, l2=0.5)
        assert_allclose(influence_removal_logistic(model, 1), np.zeros(2), atol=1e-15)

    def test_matches_retraining_oracle(self):
        x, y = separable_logistic_data()
        l2 = 1.0
        model = fit_logistic(x, y, l2=l2)
        within = 0
        for i in range(x.shape[0]):
            keep = np.arange(x.shape[0]) != i
            retrained = fit_logistic(x[keep], y[keep], l2=l2)
            actual = model.theta - retrained.theta
            predicted = influence_removal_logistic(model, i)
            rel = np.linalg.norm(predicted - actual) / np.linalg.norm(actual)
            within += rel <= 0.2
        assert within >= 16

    def test_solve_residual_is_tiny(self):
        x, y = separable_logistic_data(seed=3)
        model = fit_logistic(x, y, l2=0.7)
        s = 1.0 / (1.0 + np.exp(-(x @ model.theta)))
        hess = x.T @ (x * (s * (1 - s))[:, None]) + 0.7 * np.eye(2)
        for i in (0, 7, 19):
            delta = influence_removal_logistic(model, i)
            margin = -y[i] * (x[i] @ model.theta)
            grad = (1.0 / (1.0 + np.exp(-margin))) * y[i] * x[i]
            assert np.linalg.norm(hess @ delta - grad) <= 1e-10

    def test_heavier_damping_shrinks_the_shift(self):
        x, y = separable_logistic_data(seed=4)
        model = fit_logistic(x, y, l2=0.5)
        norms = [
            np.linalg.norm(influence_removal_logistic(model, 3, damping=d))
            for d in (0.1, 1.0, 10.0, 1e3, 1e6)
        ]
        assert all(a > b for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-5

    def test_singular_hessian_without_damping(self):
        x = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0], [-2.0, 0.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        model = fit_logistic(x, y, l2=0.1)
        with pytest.raises(ValueError, match="damping"):
            influence_removal_logistic(model, 0, damping=0.0)

    def test_newton_fit_reaches_stationarity(self):
        x, y = separable_logistic_data(seed=8)
        model = fit_logistic(x, y, l2=0.4)
        margins = y * (x @ model.theta)
        grad = -(x.T @ ((1.0 / (1.0 + np.exp(margins))) * y)) + 0.4 * model.theta
        assert np.linalg.norm(grad) < 1e-8
        assert logistic_loss(model.theta, x, y) < math.log(2.0)


class TestLargestS:
    def test_additive_games_are_exact(self):
        g = make_additive_game((1.0, 2.0, 3.0))
        vv = largest_s_values(leave_one_out_marginals(g), g.u_total)
        assert_allclose(vv.values, [1.0, 2.0, 3.0], atol=1e-12)

    def test_glove_bias_versus_true_values(self):
        g = make_glove_game()
        marg = leave_one_out_marginals(g)
        assert_allclose(marg, [1.0, 0.0, 0.0], atol=1e-12)
        vv = largest_s_values(marg, g.u_total)
        assert_allclose(vv.values, [1.0, 0.0, 0.0], atol=1e-12)
        truth = exact_shapley_subsets(g).values
        assert np.max(np.abs(vv.values - truth)) > 0.3  # heuristic, not the true values

    def test_symmetric_games_become_uniform(self):
        g = make_symmetric_game(5)
        vv = largest_s_values(leave_one_out_marginals(g), g.u_total)
        assert_allclose(vv.values, np.full(5, g.u_total / 5), atol=1e-12)

    def test_scale_equivariance(self, rng):
        marg = rng.uniform(0.1, 1.0, size=6)
        base = largest_s_values(marg, 4.0).values
        scaled = largest_s_values(3.0 * marg, 12.0).values
        assert_allclose(scaled, 3.0 * base, atol=1e-12)
        assert np.argmax(scaled) == np.argmax(base)

    def test_sum_pinned_to_total(self, rng):
        marg = rng.uniform(-1.0, 1.0, size=9)
        vv = largest_s_values(marg, 2.5)
        assert vv.total == pytest.approx(2.5, rel=1e-12)

    def test_zero_marginals_rejected(self):
        with pytest.raises(ZeroDivisionError):
            largest_s_values(np.zeros(4), 1.0)


def scaled_game(game, c):
    return Game(game.n_players, lambda m: c * game.values_of_masks(m), range_r=c * game.range_r)


class TestAdditivityDiagnostic:
    def test_proportional_games_do_not_violate(self):
        g = make_glove_game()
        report = additivity_violation(g, scaled_game(make_glove_game(), 2.5))
        assert report.violation <= 1e-12
        assert report.condition_holds

    def test_two_additive_games_do_not_violate(self):
        report = additivity_violation(
            make_additive_game((1.0, 2.0, 3.0)), make_additive_game((0.5, 0.5, 4.0))
        )
        assert report.violation <= 1e-12
        assert report.condition_holds

    def test_symmetric_in_its_arguments(self):
        u = make_glove_game()
        v = make_voting_game((1.0, 1.0, 1.0), 3.0)
        a = additivity_violation(u, v)
        b = additivity_violation(v, u)
        assert a.violation > 0.01
        assert a.violation == pytest.approx(b.violation, abs=1e-15)
        assert a.condition_holds == b.condition_holds

    def test_gap_vanishes_without_proportionality(self):
        # additive(1,1,1) and the 3-player unanimity game both have
        # marginals (1,1,1), so m_U/a = m_V/b and the gap is zero, yet
        # V(I)*a = 1*3 differs from U(I)*b = 3*3: proportionality is
        # sufficient for additivity, not necessary.
        report = additivity_violation(
            make_additive_game((1.0, 1.0, 1.0)), make_voting_game((1.0, 1.0, 1.0), 3.0)
        )
        assert report.violation <= 1e-12
        assert not report.condition_holds

    def test_disproportionate_pair_violates(self):
        # quadratic-in-size game scaled so totals and marginal sums disagree
        quad = Game(
            3,
            lambda m: (np.bitwise_count(np.asarray(m, dtype=np.uint64)) ** 2) / 9.0,
            range_r=1.0,
        )
        report = additivity_violation(quad, make_additive_game((1.0, 2.0, 3.0)))
        assert report.violation > 0.01
        assert not report.condition_holds

    def test_player_count_mismatch(self):
        with pytest.raises(ValueError):
            additivity_violation(make_glove_game(), make_additive_game((1.0, 2.0)))
