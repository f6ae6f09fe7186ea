import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from shapval import (
    Game,
    ShapvalError,
    bpdn_solve,
    compressive_sample,
    estimate_compressive,
    exact_shapley_subsets,
    make_additive_game,
    make_glove_game,
    make_random_game,
    make_symmetric_game,
    required_t_compressive,
    sample_bernoulli_matrix,
    sigma_k,
)
from shapval.permutation import ORDERING_CHUNK
from conftest import exhaustive_one_sparse, one_sparse_recovery_instances


def spiked_additive(n=16, spike=0.5, seed=0):
    """Additive game whose weights deviate from their mean at two spots only.

    The spikes cancel, so the value vector minus its mean is exactly
    2-sparse.
    """
    g = np.random.default_rng(seed)
    w = np.ones(n)
    i, j = g.choice(n, size=2, replace=False)
    w[i] += spike
    w[j] -= spike
    return make_additive_game(w), w


class TestMeasurementMatrix:
    def test_entry_magnitudes(self):
        a = sample_bernoulli_matrix(4, 10, seed=0)
        assert np.all(np.abs(a.entries) == 0.5)

    def test_column_norms_are_one(self):
        a = sample_bernoulli_matrix(7, 9, seed=1)
        assert_allclose(np.linalg.norm(a.entries, axis=0), np.ones(9), atol=1e-12)

    def test_sign_frequency(self):
        a = sample_bernoulli_matrix(500, 200, seed=2)
        positives = int((a.entries > 0).sum())
        total = a.entries.size
        band = 3.0 * math.sqrt(total * 0.25)
        assert abs(positives - total / 2) <= band

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            sample_bernoulli_matrix(0, 3, seed=0)


class TestCompressiveSample:
    def test_additive_measurements_are_exact_and_seed_free(self):
        game, w = spiked_additive(seed=3)
        a = sample_bernoulli_matrix(6, 16, seed=4)
        s1 = compressive_sample(game, a, 40, seed=1)
        s2 = compressive_sample(game, a, 40, seed=999)
        assert_allclose(s1.y_bar, a.entries @ w, atol=1e-12)
        assert np.array_equal(s1.y_bar, s2.y_bar)
        assert s1.s_bar == pytest.approx(w.sum() / 16)

    def test_mean_measurement_matches_projected_values(self):
        game = make_glove_game()
        a = sample_bernoulli_matrix(4, 3, seed=5)
        t = 10_000
        state = compressive_sample(game, a, t, seed=6)
        target = a.entries @ exact_shapley_subsets(game).values
        # each single-ordering measurement lies in [-r/sqrt(M), r/sqrt(M)]
        band = 3.0 * (1.0 / math.sqrt(4)) / math.sqrt(t)
        assert np.all(np.abs(state.y_bar - target) <= band)

    def test_eval_count(self):
        game = make_glove_game()
        a = sample_bernoulli_matrix(2, 3, seed=7)
        before = game.eval_count
        compressive_sample(game, a, 25, seed=8)
        assert game.eval_count - before == 25 * 3

    def test_identical_across_thread_counts(self, monkeypatch):
        monkeypatch.delenv("SHAPVAL_THREADS", raising=False)
        g = make_random_game(7, seed=14)
        a = sample_bernoulli_matrix(5, 7, seed=2)
        t = 3 * ORDERING_CHUNK + 17  # four chunks, the last one partial
        one = compressive_sample(g, a, t, seed=6, threads=1)
        two = compressive_sample(g, a, t, seed=6, threads=2)
        assert np.array_equal(one.y_bar, two.y_bar)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compressive_sample(make_glove_game(), sample_bernoulli_matrix(2, 4, 0), 5, seed=0)

    def test_range_check_trips_on_mislabeled_monotone_game(self):
        # swings of +-1 in the marginals exceed r/sqrt(M) whenever a row
        # carries opposite signs, so the monotone certificate must fail
        table = {0: 0.0, 1: 1.0, 2: 0.0, 3: 0.0}
        lying = Game(
            2,
            None,
            range_r=1.0,
            batch_utility=lambda m: np.array([table[int(x)] for x in m]),
            monotone=True,
        )
        a = sample_bernoulli_matrix(4, 2, seed=11)
        with pytest.raises(ShapvalError):
            compressive_sample(lying, a, 50, seed=12)


class TestBpdn:
    def test_square_invertible_at_zero_epsilon(self, rng):
        a = rng.normal(size=(5, 5))
        x0 = rng.normal(size=5)
        out = bpdn_solve(a, a @ x0, epsilon=0.0)
        assert_allclose(out, x0, atol=1e-7)

    def test_zero_target_gives_zero(self):
        a = sample_bernoulli_matrix(4, 8, seed=13)
        assert_allclose(bpdn_solve(a, np.zeros(4), 0.1), np.zeros(8))

    def test_one_sparse_exact_recovery_matches_oracle(self):
        for a, planted, target in one_sparse_recovery_instances(10):
            out = bpdn_solve(a, target, epsilon=0.0)
            _, exact_fits = exhaustive_one_sparse(a, target)
            expected = np.zeros(a.shape[1])
            expected[exact_fits[0][0]] = exact_fits[0][1]
            assert np.max(np.abs(out - expected)) <= 1e-6
            assert np.max(np.abs(out - planted)) <= 1e-6

    def test_noiseless_sparse_recovery_rate(self):
        successes = 0
        for s in range(100):
            g = np.random.default_rng(8800 + s)
            a = g.choice([-1.0, 1.0], size=(12, 16)) / math.sqrt(12)
            k = 1 + s % 2
            x0 = np.zeros(16)
            support = g.choice(16, size=k, replace=False)
            x0[support] = g.uniform(0.5, 2.0, size=k) * g.choice([-1.0, 1.0], size=k)
            out = bpdn_solve(a, a @ x0, epsilon=0.0)
            successes += np.max(np.abs(out - x0)) <= 1e-6
        assert successes >= 95

    def test_l1_norm_monotone_in_epsilon(self, rng):
        a = rng.choice([-1.0, 1.0], size=(6, 10)) / math.sqrt(6)
        b = rng.normal(size=6)
        norms = [np.abs(bpdn_solve(a, b, eps)).sum() for eps in (0.01, 0.1, 0.5)]
        assert norms[0] >= norms[1] - 1e-8 >= norms[2] - 2e-8

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            bpdn_solve(np.eye(2), np.ones(2), -0.1)


class TestEstimate:
    def test_spiked_additive_recovery_tight(self):
        game, w = spiked_additive(seed=21)
        vv = estimate_compressive(game, m_rows=12, t_permutations=50, epsilon=1e-8, seed=3)
        assert np.linalg.norm(vv.values - w) <= 1e-3
        assert vv.flags == ()  # additive games are monotone

    def test_symmetric_game_stays_uniform(self):
        game = make_symmetric_game(12)
        vv = estimate_compressive(game, m_rows=8, t_permutations=2000, epsilon=0.05, seed=4)
        assert np.max(np.abs(vv.values - 1.0 / 12)) <= 0.05

    def test_required_t_reference_value(self):
        assert required_t_compressive(1.0, 0.1, 0.05, 32) == 1570
        assert required_t_compressive(1.0, 0.1, 0.05, 32) == math.ceil(
            200.0 * math.log(4 * 32 / 0.05)
        )

    def test_residual_constraint_holds(self):
        game = make_random_game(10, seed=9)
        eps = 0.05
        a = sample_bernoulli_matrix(6, 10, seed=31)
        state = compressive_sample(game, a, 400, seed=31)
        correction = bpdn_solve(a, state.y_bar - state.s_bar * (a.entries @ np.ones(10)), eps)
        shat = state.s_bar + correction
        assert np.linalg.norm(a.entries @ shat - state.y_bar) <= eps + 1e-8

    def test_nonmonotone_results_are_flagged(self):
        game = make_random_game(8, seed=10)
        vv = estimate_compressive(game, m_rows=6, t_permutations=30, epsilon=0.1, seed=5)
        assert "uncertified-nonmonotone" in vv.flags

    def test_eval_count(self):
        game, _ = spiked_additive(seed=22)
        vv = estimate_compressive(game, m_rows=4, t_permutations=10, epsilon=0.1, seed=6)
        assert vv.eval_count == 10 * 16


class TestSigmaK:
    def test_reference_values(self):
        v = np.array([3.0, -1.0, 0.5, 0.2])
        assert sigma_k(v, 2) == pytest.approx(0.7, abs=1e-12)
        assert sigma_k(v, 4) == 0.0
        assert sigma_k(v, 0) == pytest.approx(np.abs(v).sum())

    def test_monotone_in_k(self, rng):
        v = rng.normal(size=15)
        vals = [sigma_k(v, k) for k in range(16)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sigma_k(np.ones(3), 4)
        with pytest.raises(ValueError):
            sigma_k(np.ones(3), -1)
