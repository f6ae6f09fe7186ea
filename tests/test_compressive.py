import itertools
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
from shapval import SizeGuardError, compressive
from shapval.permutation import ORDERING_CHUNK
from shapval.rng import stream
from conftest import chunks, exhaustive_one_sparse, marginal_chunk, one_sparse_recovery_instances


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


def bpdn_target(b, epsilon):
    """The residual norm bpdn_solve aims for: epsilon, floored for epsilon = 0."""
    return max(epsilon, 1e-10 * max(1.0, float(np.linalg.norm(b))))


def assert_certificate(a, b, epsilon, x, tol=1e-9):
    """Optimality of x for min ||x||_1 s.t. ||a x - b|| <= epsilon, by KKT.

    With r = b - a x and lam = max |a^T r|: ||r|| is the target, every
    correlation is at most lam (so none off the support exceeds it), and
    a_j^T r = lam sign(x_j) on the support.
    """
    target = bpdn_target(b, epsilon)
    if not x.any():
        assert np.linalg.norm(b) <= target
        return
    r = b - a @ x
    corr = a.T @ r
    lam = float(np.max(np.abs(corr)))
    support = x != 0
    assert lam > 0
    assert abs(float(np.linalg.norm(r)) - target) <= tol
    assert np.all(np.abs(corr[~support]) <= lam + tol)
    assert np.max(np.abs(corr[support] - lam * np.sign(x[support]))) <= tol


def certificate_instances():
    """Sign matrices with sparse-plus-noise targets in their range.

    Every M, N and epsilon of the grid, each with a plain matrix, a
    planted duplicate column, a planted opposite column and a
    nonsingular square matrix (M = N): 225 instances.
    """
    kinds = ("plain", "plain", "duplicate", "opposite", "square")
    grid = itertools.product((8, 12, 16), (16, 40, 63), (0.0, 0.005, 0.02, 0.05, 0.1), kinds)
    for seed, (m, n, epsilon, kind) in enumerate(grid):
        g = np.random.default_rng(7000 + seed)
        n = m if kind == "square" else n
        a = g.choice([-1.0, 1.0], size=(m, n)) / math.sqrt(m)
        while kind == "square" and np.linalg.matrix_rank(a) < m:
            a = g.choice([-1.0, 1.0], size=(m, n)) / math.sqrt(m)
        j, k = g.choice(n, size=2, replace=False)
        if kind in ("duplicate", "opposite"):
            a[:, j] = a[:, k] if kind == "duplicate" else -a[:, k]
        x0 = 0.02 * g.normal(size=n)
        x0[g.choice(n, size=3, replace=False)] += g.uniform(0.2, 1.0, size=3) * g.choice([-1.0, 1.0], size=3)
        yield a, a @ x0, epsilon


def tied_instances(count):
    """Problems where many correlations tie: targets built from a few small numbers.

    Small {-1, 0, 1} matrices, some with repeated or opposite columns, and
    sign matrices with 1- to 3-sparse targets of +-1/2 and +-1 (as in the
    spiked additive games), ``count`` of each.
    """
    g = np.random.default_rng(21)
    for i in range(count):
        m, n = int(g.integers(2, 7)), int(g.integers(2, 12))
        a = g.integers(-1, 2, size=(m, n)).astype(float)
        if i % 3 == 0:
            a = a[:, g.integers(0, n, size=n)]
        if i % 5 == 0:
            a = a * g.choice([-1.0, 1.0], size=n)
        b = g.integers(-3, 4, size=m).astype(float)
        if i % 2:
            b = a @ g.integers(-2, 3, size=n).astype(float)
        yield a, b, (0.0, 0.5, 1.0)[i % 3]
    g = np.random.default_rng(23)
    for _ in range(count):
        m, n = int(g.choice([4, 6, 8, 12, 16])), int(g.choice([8, 16, 40, 63]))
        a = g.choice([-1.0, 1.0], size=(m, n)) / math.sqrt(m)
        x0 = np.zeros(n)
        k = int(g.integers(1, 4))
        x0[g.choice(n, size=k, replace=False)] = g.choice([-1.0, -0.5, 0.5, 1.0], size=k)
        yield a, a @ x0, float(g.choice([0.0, 0.02, 0.1, 0.3]))


class TestMeasurementMatrix:
    def test_entry_magnitudes(self):
        a = sample_bernoulli_matrix(4, 10, seed=0)
        assert a.shape == (4, 10) and np.all(np.abs(a) == 0.5)

    def test_column_norms_are_one(self):
        a = sample_bernoulli_matrix(7, 9, seed=1)
        assert_allclose(np.linalg.norm(a, axis=0), np.ones(9), atol=1e-12)

    def test_sign_frequency(self):
        a = sample_bernoulli_matrix(500, 200, seed=2)
        positives = int((a > 0).sum())
        total = a.size
        band = 3.0 * math.sqrt(total * 0.25)
        assert abs(positives - total / 2) <= band

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            sample_bernoulli_matrix(0, 3, seed=0)
        for rows in (2.5, True):
            with pytest.raises(ValueError, match="m_rows"):
                sample_bernoulli_matrix(rows, 3, seed=0)
            with pytest.raises(ValueError, match="m_rows"):
                required_t_compressive(1.0, 0.1, 0.05, rows)

    def test_more_than_2_to_the_24_cells_are_refused_before_the_draw(self, monkeypatch):
        # the stream is stubbed, so no matrix is drawn at either size
        class Drawn(Exception):
            pass

        def stub(*args):
            raise Drawn

        monkeypatch.setattr(compressive, "stream", stub)
        with pytest.raises(Drawn):
            sample_bernoulli_matrix(1 << 21, 8, seed=0)  # exactly 2^24 cells
        for rows, n in (((1 << 21) + 1, 8), (30_000_000, 8), (1 << 62, 63)):
            with pytest.raises(SizeGuardError, match=r"at most 2\^24 cells"):
                sample_bernoulli_matrix(rows, n, seed=0)


class TestCompressiveSample:
    def test_additive_measurements_are_exact_and_seed_free(self):
        # every ordering of an additive game gives the same marginals, so the
        # measurements are a @ w whatever orderings the seed draws
        game, w = spiked_additive(seed=3)
        for seed in (1, 999):
            a, y_bar = compressive_sample(game, 6, 40, seed=seed)
            assert np.array_equal(a, sample_bernoulli_matrix(6, 16, seed))
            assert_allclose(y_bar, a @ w, atol=1e-12)
        assert game.u_total / 16 == pytest.approx(w.sum() / 16)

    def test_mean_measurement_matches_projected_values(self):
        game = make_glove_game()
        t = 10_000
        a, y_bar = compressive_sample(game, 4, t, seed=6)
        target = a @ exact_shapley_subsets(game).values
        # each single-ordering measurement lies in [-r/sqrt(M), r/sqrt(M)]
        band = 3.0 * (1.0 / math.sqrt(4)) / math.sqrt(t)
        assert np.all(np.abs(y_bar - target) <= band)

    def test_eval_count(self):
        game = make_glove_game()
        before = game.eval_count
        compressive_sample(game, 2, 25, seed=8)
        assert game.eval_count - before == 25 * 3

    def test_identical_across_thread_counts(self, monkeypatch):
        monkeypatch.delenv("SHAPVAL_THREADS", raising=False)
        g = make_random_game(7, seed=14)
        t = 3 * ORDERING_CHUNK + 17  # four chunks, the last one partial
        _, one = compressive_sample(g, 5, t, seed=6, threads=1)
        _, two = compressive_sample(g, 5, t, seed=6, threads=2)
        assert np.array_equal(one, two)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("t", [1, 255, 256, 257, 1000])
    def test_measurements_are_the_mean_projected_marginal_vector(self, t, threads, monkeypatch):
        # y_bar projects the permutation estimate once; the mean of the
        # per-ordering projections a . phi_t adds in another order
        monkeypatch.delenv("SHAPVAL_THREADS", raising=False)
        for seed in (0, 1, 2):
            game = make_random_game(12, 40 + seed)
            a, y_bar = compressive_sample(game, 8, t, seed=seed, threads=threads)
            phi = np.concatenate(
                [marginal_chunk(game, seed, "compressive", i, hi - lo) for i, lo, hi in chunks(t, ORDERING_CHUNK)]
            )
            assert phi.shape == (t, 12)
            assert np.max(np.abs(y_bar - (phi @ a.T).mean(axis=0))) <= 1e-15

    def test_range_check_trips_on_mislabeled_monotone_game(self):
        # swings of +-1 in the marginals exceed r/sqrt(M) whenever a row
        # carries opposite signs, so the monotone certificate must fail
        table = {0: 0.0, 1: 1.0, 2: 0.0, 3: 0.0}
        lying = Game(
            2,
            lambda m: np.array([table[int(x)] for x in m]),
            range_r=1.0,
            monotone=True,
        )
        with pytest.raises(ShapvalError):
            compressive_sample(lying, 4, 50, seed=12)


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

    def test_certificate_and_repeatability(self):
        count = 0
        for a, b, epsilon in certificate_instances():
            x = bpdn_solve(a, b, epsilon)
            assert_certificate(a, b, epsilon, x)
            assert x.tobytes() == bpdn_solve(a, b, epsilon).tobytes()
            count += 1
        assert count >= 200

    def test_certificate_with_many_ties(self):
        for a, b, epsilon in tied_instances(600):
            x = bpdn_solve(a, b, epsilon)
            least_squares = np.linalg.lstsq(a, b, rcond=None)[0]
            if np.linalg.norm(a @ least_squares - b) <= bpdn_target(b, epsilon):
                assert_certificate(a, b, epsilon, x)
            else:  # no x meets the target: the path ends at a least-squares solution
                assert np.max(np.abs(a.T @ (b - a @ x))) <= 1e-9

    def test_zero_epsilon_matches_linear_program(self):
        optimize = pytest.importorskip("scipy.optimize")
        for a, b, epsilon in certificate_instances():
            if epsilon != 0.0:
                continue
            n = a.shape[1]
            lp = optimize.linprog(
                np.ones(2 * n), A_eq=np.hstack([a, -a]), b_eq=b, bounds=(0, None), method="highs"
            )
            assert lp.status == 0
            l1 = float(np.abs(bpdn_solve(a, b, 0.0)).sum())
            # the target floor relaxes a x = b to a ball of radius t, which can
            # lower ||x||_1 below basis pursuit's by at most t ||nu|| (nu its dual)
            slack = bpdn_target(b, 0.0) * float(np.linalg.norm(lp.eqlin.marginals))
            assert lp.fun - slack - 1e-9 <= l1 <= lp.fun + 1e-9

    def test_coinciding_join_and_leave(self):
        # the grouptest-additive63 benchmark game at workload seed 1 and
        # compressive seed 1000021: on its path a column joins and another
        # leaves at values of lam 1.2e-16 apart (lam ~ 0.0532), one breakpoint
        rng = np.random.default_rng([1, 63])
        w = np.ones(63)
        heavy = rng.choice(63, size=4, replace=False)
        w[heavy] = rng.uniform(8.0, 12.0, size=4)
        game = make_additive_game(w / w.sum())
        a, y_bar = compressive_sample(game, 16, 1293, seed=1000021)
        b = y_bar - game.u_total / 63 * (a @ np.ones(63))
        x = bpdn_solve(a, b, 0.1)
        assert_certificate(a, b, 0.1, x)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            bpdn_solve(np.eye(2), np.ones(2), -0.1)

    def test_nan_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            bpdn_solve(np.eye(2), np.ones(2), math.nan)


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
        a, y_bar = compressive_sample(game, 6, 400, seed=31)
        s_bar = game.u_total / 10
        correction = bpdn_solve(a, y_bar - s_bar * (a @ np.ones(10)), eps)
        shat = s_bar + correction
        assert np.linalg.norm(a @ shat - y_bar) <= eps + 1e-8

    def test_nonmonotone_results_are_flagged(self):
        game = make_random_game(8, seed=10)
        vv = estimate_compressive(game, m_rows=6, t_permutations=30, epsilon=0.1, seed=5)
        assert "uncertified-nonmonotone" in vv.flags

    def test_eval_count(self):
        game, _ = spiked_additive(seed=22)
        vv = estimate_compressive(game, m_rows=4, t_permutations=10, epsilon=0.1, seed=6)
        assert vv.eval_count == 10 * 16

    def test_one_matrix_draw_per_estimate(self, monkeypatch):
        tags = []

        def counted(seed, tag, index=0):
            tags.append(tag)
            return stream(seed, tag, index)

        monkeypatch.setattr(compressive, "stream", counted)
        game, _ = spiked_additive(seed=23)
        estimate_compressive(game, m_rows=4, t_permutations=10, epsilon=0.1, seed=7)
        assert tags == ["bernoulli-matrix"]


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
