import math
import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import binom, chi2

from shapval import (
    build_plan,
    estimate_group_testing,
    exact_shapley_difference,
    exact_shapley_subsets,
    make_additive_game,
    make_glove_game,
    make_random_game,
    make_symmetric_game,
    optimize_split_constants,
    recover_feasibility,
    required_tests,
    run_tests,
)
from shapval.group_testing import _TEST_CHUNK, _baseline_budgets, bennett_h
from shapval.permutation import ORDERING_CHUNK
from conftest import drawn_tests, has_negative_cycle, lp_max_violation


def random_antisymmetric(g, n):
    upper = np.triu(g.uniform(-1.0, 1.0, size=(n, n)), 1)
    return upper - upper.T


def max_violation(values, diffs):
    return float(np.max(np.abs(values[:, None] - values[None, :] - diffs)))


def member(masks, player):
    return ((masks >> player) & 1).astype(np.float64)


def assert_uniform_k_subsets(n, t, seed):
    """Chi-square test that every size k of t pooled tests is a uniform k-subset.

    The bound is the chi-square quantile at a 1e-6 false-alarm rate per
    size, fixed before any draw was looked at.
    """
    masks, _ = drawn_tests(make_additive_game(np.ones(n)), build_plan(n), t, seed)
    sizes = np.bitwise_count(masks)
    for k in range(1, n):
        subsets, counts = np.unique(masks[sizes == k], return_counts=True)
        assert subsets.size == math.comb(n, k)
        expected = counts.sum() / subsets.size
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat <= chi2.ppf(1.0 - 1e-6, subsets.size - 1), k


class TestPlan:
    def test_two_players(self):
        plan = build_plan(2)
        assert plan.z_norm == 2.0
        assert_allclose(plan.q, [1.0])
        assert plan.q_tot == 0.0

    def test_three_players(self):
        plan = build_plan(3)
        assert plan.z_norm == pytest.approx(3.0, abs=1e-15)
        assert_allclose(plan.q, [0.5, 0.5], atol=1e-15)
        assert plan.q_tot == pytest.approx(1 / 3, abs=1e-12)

    def test_normalizer_log_bound(self):
        plan = build_plan(100)
        assert plan.z_norm <= 2.0 * (math.log(99.0) + 1.0)

    def test_probabilities_normalized_up_to_a_million_players(self):
        for n in (2, 3, 10, 137, 1000, 10**6):
            plan = build_plan(n)
            assert abs(float(plan.q.sum()) - 1.0) <= 1e-12
            assert 0.0 <= plan.q_tot < 1.0

    def test_qtot_equals_one_minus_two_over_z(self):
        for n in range(2, 1001):
            plan = build_plan(n)
            assert plan.q_tot == pytest.approx(1.0 - 2.0 / plan.z_norm, abs=1e-10)

    def test_rejects_single_player(self):
        with pytest.raises(ValueError):
            build_plan(1)


class TestRequiredTests:
    def test_reference_value(self):
        # ceil of 1397.2203...; recomputed at 50-digit precision offline
        assert required_tests(3, 1.0, 0.1, 1.0) == 1398

    def test_reference_value_recomputed(self):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        mp.dps = 50
        z = 2 * sum(mpmath.mpf(1) / k for k in range(1, 3))
        q = 1 - 2 / z
        spread = 1 - q**2
        u = 1 / (z * mpmath.sqrt(3) * spread)
        h = (1 + u) * mpmath.log(1 + u) - u
        t = 8 * mpmath.log(3 * 2 / mpmath.mpf("0.2")) / (spread * h)
        assert int(mpmath.ceil(t)) == required_tests(3, 1.0, 0.1, 1.0)

    def test_bennett_rate_function(self):
        assert bennett_h(0.0) == 0.0
        u = 1e-8
        assert bennett_h(u) == pytest.approx(u * u / 2.0, rel=1e-6)

    def test_diverges_as_epsilon_shrinks(self):
        t = [required_tests(6, eps, 0.1, 1.0) for eps in (1.0, 0.1, 0.01)]
        assert t[0] < t[1] < t[2]
        assert t[2] > 100 * t[1] / 2  # roughly quadratic growth in 1/eps

    def test_growth_ratio_matches_n_log_squared(self):
        for n in (100, 200, 400, 800, 1600):
            ratio = required_tests(2 * n, 0.1, 0.05, 1.0) / required_tests(n, 0.1, 0.05, 1.0)
            assert 1.9 <= ratio <= 2.6


class TestRunTests:
    def test_eval_count_and_record_shapes(self):
        g = make_glove_game()
        plan = build_plan(3)
        before = g.eval_count
        potentials = run_tests(g, plan, 500, seed=3)
        assert g.eval_count - before == 500
        assert potentials.shape == (3,)
        masks, utils = drawn_tests(g, plan, 500, seed=3)
        assert masks.shape == utils.shape == (500,)
        sizes = np.bitwise_count(masks[:50])
        assert np.all((1 <= sizes) & (sizes <= 2))
        assert np.all((0.0 <= utils[:50]) & (utils[:50] <= 1.0))

    def test_count_must_be_a_positive_integer(self):
        g = make_glove_game()
        for count in (0, 2.5, 3.0, True):
            with pytest.raises(ValueError, match="t_tests"):
                run_tests(g, build_plan(3), count, seed=3)
        assert g.eval_count == 0

    def test_plan_must_match_the_game(self):
        g = make_glove_game()
        for n in (2, 4):
            with pytest.raises(ValueError):
                run_tests(g, build_plan(n), 10, seed=3)
        assert g.eval_count == 0

    def test_memory_does_not_grow_with_the_test_count(self):
        # a chunk keeps only its 63 sums, so 18 more chunks add ~11 kB; keeping
        # every test's mask and utility (16 B per test) would add ~1.2 MB
        game = make_additive_game(np.ones(63))
        plan = build_plan(63)
        run_tests(game, plan, 2 * _TEST_CHUNK, seed=4, threads=1)

        def peak(chunks):
            tracemalloc.start()
            try:
                run_tests(game, plan, chunks * _TEST_CHUNK, seed=4, threads=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(20) - peak(2) < 0.5 * 2**20

    def test_per_test_statistic_is_bounded(self):
        g = make_random_game(6, seed=4)
        plan = build_plan(6)
        masks, utils = drawn_tests(g, plan, 2000, seed=8)
        stats = plan.z_norm * utils * (member(masks, 0) - member(masks, 5))
        assert np.all(np.abs(stats) <= plan.z_norm * g.range_r + 1e-12)

    def test_difference_matrix_antisymmetric(self):
        g = make_random_game(5, seed=6)
        plan = build_plan(5)
        potentials = run_tests(g, plan, 300, seed=2)
        masks, utils = drawn_tests(g, plan, 300, seed=2)
        weighted = np.array([member(masks, i) @ utils for i in range(5)])
        assert_allclose(potentials, (plan.z_norm / 300) * weighted, rtol=1e-12, atol=1e-12)
        delta_u = potentials[:, None] - potentials[None, :]
        assert np.array_equal(delta_u, -delta_u.T)
        assert np.all(np.diag(delta_u) == 0.0)

    def test_symmetric_players_difference_near_zero(self):
        g = make_symmetric_game(6)
        plan = build_plan(6)
        t = 40_000
        potentials = run_tests(g, plan, t, seed=5)
        masks, utils = drawn_tests(g, plan, t, seed=5)
        # exchangeable players: the pair statistic is centered at zero
        stats = plan.z_norm * utils * (member(masks, 1) - member(masks, 4))
        stderr = stats.std(ddof=1) / math.sqrt(t)
        assert abs(potentials[1] - potentials[4]) <= 4.0 * stderr

    def test_pair_statistic_unbiased_on_glove(self):
        g = make_glove_game()
        plan = build_plan(3)
        t = 60_000
        masks, utils = drawn_tests(g, plan, t, seed=11)
        stats = plan.z_norm * utils * (member(masks, 0) - member(masks, 1))
        exact = exact_shapley_difference(g, 0, 1)
        stderr = stats.std(ddof=1) / math.sqrt(t)
        assert abs(stats.mean() - exact) <= 3.0 * stderr

    def test_deterministic_across_thread_counts(self, monkeypatch):
        monkeypatch.delenv("SHAPVAL_THREADS", raising=False)
        g = make_random_game(6, seed=12)
        plan = build_plan(6)
        one = run_tests(g, plan, 9000, seed=1, threads=1)
        eight = run_tests(g, plan, 9000, seed=1, threads=8)
        assert np.array_equal(one, eight)

    def test_activation_is_a_uniform_k_subset(self):
        # 40 000 tests over ten 4096-test chunks at N=5
        assert_uniform_k_subsets(5, 40_000, seed=23)

    @pytest.mark.parametrize("n, seed", [(6, 31), (7, 32)])
    def test_every_size_is_a_uniform_k_subset(self, n, seed):
        # 60 000 tests over fifteen 4096-test chunks; sizes above N/2 are drawn
        # as complements, N=6 adds k = N/2
        assert_uniform_k_subsets(n, 60_000, seed)

    def test_inclusion_rates_at_63_players(self):
        # among the size-k tests, a player's count is Binomial(tests, k/N); the
        # band is its 1e-6 and 1 - 1e-6 quantiles, fixed before any draw was
        # looked at
        n, t = 63, 100_000
        masks, _ = drawn_tests(make_additive_game(np.ones(n)), build_plan(n), t, seed=29)
        sizes = np.bitwise_count(masks)
        for k in (1, 2, 61, 62):
            rows = masks[sizes == k]
            counts = ((rows[:, None] >> np.arange(n)) & 1).sum(axis=0)
            lo, hi = binom.ppf([1e-6, 1.0 - 1e-6], rows.size, k / n)
            assert np.all((lo <= counts) & (counts <= hi)), k

    def test_identical_across_thread_counts_at_63_players(self, monkeypatch):
        monkeypatch.delenv("SHAPVAL_THREADS", raising=False)
        g = make_additive_game(np.linspace(0.1, 1.0, 63))
        plan = build_plan(63)
        t = 3 * _TEST_CHUNK + 17
        one = run_tests(g, plan, t, seed=2, threads=1)
        two = run_tests(g, plan, t, seed=2, threads=2)
        assert one.tobytes() == two.tobytes()


class TestRecoverFeasibility:
    def test_exact_differences_recover_exactly(self):
        truth = np.array([2 / 3, 1 / 6, 1 / 6])
        diffs = truth[:, None] - truth[None, :]
        out = recover_feasibility(diffs, u_total=1.0, epsilon=0.1)
        assert_allclose(out.values, truth, atol=1e-12)
        assert out.flags == ()

    def test_zero_differences_give_uniform(self):
        out = recover_feasibility(np.zeros((3, 3)), u_total=9.0, epsilon=0.1)
        assert_allclose(out.values, [3.0, 3.0, 3.0], atol=1e-12)

    def test_perturbed_input_stays_close_and_near_optimal(self, rng):
        truth = np.array([0.5, 0.3, 0.2])
        diffs = truth[:, None] - truth[None, :]
        noise = np.triu(rng.uniform(-0.01, 0.01, size=(3, 3)), 1)
        noisy = diffs + noise - noise.T
        out = recover_feasibility(noisy, u_total=1.0, epsilon=0.1)
        assert np.max(np.abs(out.values - truth)) <= 0.02
        _, best = lp_max_violation(noisy, 1.0)
        gaps = (out.values[:, None] - out.values[None, :] - noisy)[np.triu_indices(3, 1)]
        assert np.max(np.abs(gaps)) <= best + 1e-3

    def test_matches_lp_oracle_on_random_matrices(self):
        g = np.random.default_rng(404)
        for trial in range(40):
            n = 2 + trial % 11
            diffs = random_antisymmetric(g, n)
            out = recover_feasibility(diffs, u_total=1.5, epsilon=0.1)
            _, best = lp_max_violation(diffs, 1.5)
            assert abs(max_violation(out.values, diffs) - best) <= 1e-9, (trial, n)
            assert abs(out.total - 1.5) <= 1e-12

    def test_large_matrix_is_fast_and_optimal(self):
        n = 300
        diffs = random_antisymmetric(np.random.default_rng(300), n)
        start = time.perf_counter()
        out = recover_feasibility(diffs, u_total=1.0, epsilon=0.1)
        elapsed = time.perf_counter() - start
        violation = max_violation(out.values, diffs)
        # the values attain `violation`, and no vector attains violation - 1e-9:
        # with that slack on every edge j -> i of weight diffs[i, j], some cycle
        # is negative (Floyd-Warshall), so violation is the optimum within 1e-9
        assert has_negative_cycle(diffs.T + (violation - 1e-9))
        assert not has_negative_cycle(diffs.T + violation + 1e-12)
        assert out.flags == ("uncertified-violation",)
        assert elapsed < 5.0

    def test_translation_consistency(self):
        diffs = np.array([[0.0, 0.4], [-0.4, 0.0]])
        base = recover_feasibility(diffs, u_total=1.0, epsilon=1.0)
        shifted = recover_feasibility(diffs, u_total=3.0, epsilon=1.0)
        assert_allclose(shifted.values, base.values + 1.0, atol=1e-12)

    def test_non_antisymmetric_rejected(self):
        bad = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            recover_feasibility(bad, u_total=1.0, epsilon=0.1)
        with pytest.raises(ValueError):
            recover_feasibility(np.zeros((2, 3)), u_total=1.0, epsilon=0.1)

    def test_uncertifiable_input_is_flagged(self):
        # cyclically inconsistent differences cannot be fit to any vector
        diffs = np.array(
            [
                [0.0, 1.0, -1.0],
                [-1.0, 0.0, 1.0],
                [1.0, -1.0, 0.0],
            ]
        )
        out = recover_feasibility(diffs, u_total=0.0, epsilon=1e-6)
        assert "uncertified-violation" in out.flags


class TestSplitConstants:
    def test_constants_exceed_one(self):
        split = optimize_split_constants(10, 0.1, 0.05, 1.0)
        assert split.c_eps > 1.0 and split.c_delta > 1.0
        assert split.m1 >= 1 and split.m2 >= 1

    def test_no_worse_than_conventional_choice(self):
        plan = build_plan(10)
        m1, m2 = _baseline_budgets(plan, 0.1, 0.05, 1.0, 2.0, 2.0)
        split = optimize_split_constants(10, 0.1, 0.05, 1.0)
        assert split.m1 + split.m2 <= m1 + m2

    def test_grid_refinement_changes_total_little(self):
        split = optimize_split_constants(10, 0.1, 0.05, 1.0)
        plan = build_plan(10)
        fine = 2.0 ** (np.arange(1, 257) / 40.0)
        ce, cd = np.meshgrid(fine, fine, indexing="ij")
        m1, m2 = _baseline_budgets(plan, 0.1, 0.05, 1.0, ce, cd)
        refined = float((m1 + m2).min())
        total = split.m1 + split.m2
        assert abs(total - refined) <= 0.02 * refined

    def test_deterministic(self):
        a = optimize_split_constants(7, 0.2, 0.1, 1.0)
        b = optimize_split_constants(7, 0.2, 0.1, 1.0)
        assert a == b


class TestEstimator:
    def test_glove_feasibility_accuracy(self):
        truth = np.array([2 / 3, 1 / 6, 1 / 6])
        hits = 0
        for seed in range(10):
            vv = estimate_group_testing(make_glove_game(), 0.15, 0.1, seed=seed)
            hits += np.linalg.norm(vv.values - truth) <= 0.15
        assert hits >= 8

    def test_feasibility_route_is_the_closed_form_at_63_players(self):
        w = np.random.default_rng(63).uniform(0.5, 1.5, size=63)
        game = make_additive_game(w / w.sum())
        potentials = run_tests(game, build_plan(63), 20_000, seed=3)
        vv = estimate_group_testing(game, 0.1, 0.1, seed=3, t_tests=20_000)
        pairwise = vv.values[:, None] - vv.values[None, :]
        assert np.max(np.abs(pairwise - (potentials[:, None] - potentials[None, :]))) <= 1e-12
        assert abs(vv.total - game.u_total) <= 1e-12
        assert vv.flags == ()

    def test_baseline_route_guarantee_holds_in_max_norm(self):
        # the baseline budget carries no sqrt(N) factor, so its (eps, delta)
        # claim is per player; misses over 40 seeds are at most binomial(40,
        # delta), bounded by its quantile at a 1e-3 false-alarm rate, fixed
        # before any run
        n, eps, delta, seeds = 40, 0.3, 0.1, 40
        bound = binom.ppf(1.0 - 1e-3, seeds, delta)
        w = np.random.default_rng(40).uniform(0.5, 1.5, size=n)
        game = make_additive_game(w / w.sum())
        misses = 0
        for seed in range(seeds):
            vv = estimate_group_testing(game, eps, delta, seed=seed, recovery="baseline")
            misses += float(np.max(np.abs(vv.values - game.exact_values))) > eps
        assert misses <= bound

    def test_feasibility_enforces_efficiency(self):
        g = make_random_game(5, seed=31)
        vv = estimate_group_testing(g, 0.5, 0.2, seed=2, t_tests=2000)
        assert vv.total == pytest.approx(g.u_total, rel=1e-9)

    def test_test_count_override(self):
        g = make_glove_game()
        vv = estimate_group_testing(g, 0.5, 0.1, seed=0, t_tests=777)
        assert vv.eval_count == 777

    def test_baseline_agrees_with_feasibility(self):
        g = make_random_game(5, seed=17)
        eps = 0.3
        feas = estimate_group_testing(g, eps, 0.2, seed=6, recovery="feasibility")
        base = estimate_group_testing(g, eps, 0.2, seed=6, recovery="baseline")
        exact = exact_shapley_subsets(g).values
        assert np.max(np.abs(feas.values - exact)) <= 2 * eps
        assert np.max(np.abs(base.values - exact)) <= 2 * eps
        assert np.max(np.abs(feas.values - base.values)) <= 2 * eps

    def test_baseline_route_identical_across_thread_counts(self, monkeypatch):
        monkeypatch.delenv("SHAPVAL_THREADS", raising=False)
        g = make_random_game(6, seed=13)
        split = optimize_split_constants(6, 0.2, 0.1, 1.0)
        assert math.ceil(split.m2 / 2) > 3 * ORDERING_CHUNK  # orderings span several chunks
        one = estimate_group_testing(g, 0.2, 0.1, seed=4, recovery="baseline", threads=1)
        two = estimate_group_testing(g, 0.2, 0.1, seed=4, recovery="baseline", threads=2)
        assert np.array_equal(one.values, two.values)

    @pytest.mark.parametrize(
        "name, epsilon, delta",
        [("epsilon", -0.3, 0.1), ("epsilon", math.nan, 0.1), ("delta", 0.3, 2.0), ("delta", 0.3, 0.0)],
    )
    @pytest.mark.parametrize("recovery", ["feasibility", "baseline"])
    def test_accuracy_checked_when_the_test_count_is_given(self, recovery, name, epsilon, delta):
        with pytest.raises(ValueError, match=name):
            estimate_group_testing(make_glove_game(), epsilon, delta, seed=0, recovery=recovery, t_tests=100)

    def test_unknown_recovery_rejected(self):
        with pytest.raises(ValueError):
            estimate_group_testing(make_glove_game(), 0.5, 0.1, seed=0, recovery="other")

    def test_method_tags(self):
        g = make_glove_game()
        feas = estimate_group_testing(g, 0.5, 0.2, seed=0, t_tests=50)
        assert feas.method == "group-test-feasibility"
        base = estimate_group_testing(g, 0.5, 0.2, seed=0, recovery="baseline", t_tests=50)
        assert base.method == "group-test-baseline"
