import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import chi2

from shapval import (
    PermutationBudget,
    estimate_permutation,
    optimize_split_constants,
    required_t_compressive,
    required_tests,
    exact_shapley_subsets,
    make_additive_game,
    make_glove_game,
    make_random_game,
    required_permutations,
    sample_permutation_marginals,
)
from shapval.errors import ConfigError
from shapval.parallel import chunk_ranges, resolve_threads
from shapval.permutation import ORDERING_CHUNK, sample_orderings


class TestRequiredPermutations:
    def test_reference_value(self):
        # ceil(2000 * ln 400), recomputed independently below
        assert required_permutations(1.0, 10, 0.1, 0.05) == 11983
        assert required_permutations(1.0, 10, 0.1, 0.05) == math.ceil(
            2000.0 * math.log(400.0)
        )

    def test_tiny_budget_floors_at_one(self):
        assert required_permutations(1.0, 1, 10.0, 0.5) == 1

    def test_monotone_in_players_and_range(self):
        base = required_permutations(1.0, 10, 0.1, 0.05)
        assert required_permutations(1.0, 20, 0.1, 0.05) >= base
        assert required_permutations(2.0, 10, 0.1, 0.05) >= base
        assert required_permutations(1.0, 10, 0.2, 0.05) <= base
        assert required_permutations(1.0, 10, 0.1, 0.2) <= base

    def test_doubling_range_quadruples_raw_bound(self):
        raw = lambda r: (2.0 * r * r * 10 / 0.1**2) * math.log(2 * 10 / 0.05)
        assert raw(2.0) == pytest.approx(4.0 * raw(1.0), rel=1e-12)
        # the ceiled values stay within one unit of the 4x relation
        assert abs(required_permutations(2.0, 10, 0.1, 0.05) - 4 * 11983) <= 4

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            required_permutations(0.0, 10, 0.1, 0.05)
        with pytest.raises(ValueError):
            required_permutations(1.0, 10, -1.0, 0.05)
        with pytest.raises(ValueError):
            required_permutations(1.0, 10, 0.1, 1.5)


# every function that sizes a budget from (epsilon, delta), called as (r, epsilon, delta)
SIZERS = {
    "required_permutations": lambda r, eps, delta: required_permutations(r, 10, eps, delta),
    "required_tests": lambda r, eps, delta: required_tests(10, eps, delta, r),
    "optimize_split_constants": lambda r, eps, delta: optimize_split_constants(10, eps, delta, r),
    "required_t_compressive": lambda r, eps, delta: required_t_compressive(r, eps, delta, 8),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("sizer", list(SIZERS))
def test_accuracy_arguments_are_checked(sizer, bad):
    size = SIZERS[sizer]
    size(1.0, 0.5, 0.1)
    with pytest.raises(ValueError, match="range_r"):
        size(bad, 0.5, 0.1)
    with pytest.raises(ValueError, match="epsilon"):
        size(1.0, bad, 0.1)
    with pytest.raises(ValueError, match="delta"):
        size(1.0, 0.5, bad)


class TestEstimate:
    def test_additive_is_exact_with_one_permutation(self):
        g = make_additive_game((1.0, 2.0, 3.0))
        for seed in (0, 7, 123456):
            vv = estimate_permutation(g, PermutationBudget(1), seed=seed)
            assert_allclose(vv.values, [1.0, 2.0, 3.0], atol=1e-12)

    def test_zero_permutations_rejected(self):
        with pytest.raises(ValueError):
            PermutationBudget(0)
        for count in (2.5, 3.0, True, "4"):
            with pytest.raises(ValueError, match="t_permutations"):
                PermutationBudget(count)
        assert PermutationBudget(np.int64(3)).t_permutations == 3

    def test_glove_within_l2_guarantee(self):
        g = make_glove_game()
        budget = PermutationBudget.from_accuracy(1.0, 3, 0.1, 0.05)
        vv = estimate_permutation(g, budget, seed=42)
        err = np.linalg.norm(vv.values - np.array([2 / 3, 1 / 6, 1 / 6]))
        assert err <= 0.1

    def test_eval_count_is_t_times_n(self):
        g = make_glove_game()
        vv = estimate_permutation(g, PermutationBudget(37), seed=1)
        assert vv.eval_count == 37 * 3

    def test_budget_metadata_propagates(self):
        g = make_glove_game()
        budget = PermutationBudget.from_accuracy(1.0, 3, 0.5, 0.2)
        vv = estimate_permutation(g, budget, seed=3)
        assert vv.epsilon == 0.5 and vv.delta == 0.2 and vv.seed == 3


class TestSamplingProperties:
    def test_telescoping_within_each_permutation(self):
        g = make_random_game(6, seed=11)
        phi = sample_permutation_marginals(g, 64, seed=5)
        assert_allclose(phi.sum(axis=1), np.full(64, g.u_total), atol=1e-12)

    def test_estimate_sums_to_total_utility(self):
        g = make_random_game(6, seed=11)
        vv = estimate_permutation(g, PermutationBudget(500), seed=8)
        assert vv.total == pytest.approx(g.u_total, rel=1e-9)

    def test_unbiased_with_single_permutation(self):
        g = make_random_game(5, seed=21)
        exact = exact_shapley_subsets(g).values
        runs = np.stack(
            [
                estimate_permutation(g, PermutationBudget(1), seed=s).values
                for s in range(1000)
            ]
        )
        mean = runs.mean(axis=0)
        stderr = runs.std(axis=0, ddof=1) / math.sqrt(runs.shape[0])
        assert np.all(np.abs(mean - exact) <= 3.0 * stderr + 1e-12)

    def test_deterministic_across_thread_counts(self, monkeypatch):
        g = make_random_game(7, seed=2)
        budget = PermutationBudget(700)
        monkeypatch.delenv("SHAPVAL_THREADS", raising=False)
        single = estimate_permutation(g, budget, seed=9, threads=1)
        eight = estimate_permutation(g, budget, seed=9, threads=8)
        assert np.array_equal(single.values, eight.values)

    def test_thread_env_cap_does_not_change_values(self, monkeypatch):
        g = make_random_game(4, seed=3)
        budget = PermutationBudget(300)
        monkeypatch.setenv("SHAPVAL_THREADS", "1")
        a = estimate_permutation(g, budget, seed=4)
        monkeypatch.setenv("SHAPVAL_THREADS", "8")
        b = estimate_permutation(g, budget, seed=4)
        assert np.array_equal(a.values, b.values)



class TestResolveThreads:
    @pytest.mark.parametrize(
        "env, requested, expected",
        [(None, None, 1), (None, 4, 4), ("", 4, 4), ("3", None, 3), ("3", 8, 3), (" 3 ", 2, 2)],
    )
    def test_request_capped_by_variable(self, env, requested, expected, monkeypatch):
        monkeypatch.delenv("SHAPVAL_THREADS", raising=False)
        if env is not None:
            monkeypatch.setenv("SHAPVAL_THREADS", env)
        assert resolve_threads(requested) == expected

    @pytest.mark.parametrize("value", ["abc", "1.5", "0", "-3"])
    def test_variable_must_be_a_positive_integer(self, value, monkeypatch):
        monkeypatch.setenv("SHAPVAL_THREADS", value)
        with pytest.raises(ConfigError, match="SHAPVAL_THREADS"):
            resolve_threads(2)

    @pytest.mark.parametrize("requested", [0, -3])
    def test_explicit_request_must_be_positive(self, requested, monkeypatch):
        monkeypatch.delenv("SHAPVAL_THREADS", raising=False)
        with pytest.raises(ConfigError, match="at least 1"):
            resolve_threads(requested)
        with pytest.raises(ConfigError, match="at least 1"):
            estimate_permutation(make_additive_game((1.0, 2.0)), PermutationBudget(4), 0, threads=requested)


class TestOrderingSampler:
    def test_orderings_uniform_across_many_chunks(self):
        # 47 chunks at N=4; the bound is the chi-square quantile at a 1e-6
        # false-alarm rate, fixed before any draw was looked at
        n, t = 4, 12_000
        chunks = enumerate(chunk_ranges(t, ORDERING_CHUNK))
        perms = np.concatenate(
            [sample_orderings(17, "perm", i, hi - lo, n) for i, (lo, hi) in chunks]
        )
        assert perms.shape == (t, n)
        assert np.all(np.sort(perms, axis=1) == np.arange(n))
        codes = perms @ (n ** np.arange(n))
        _, counts = np.unique(codes, return_counts=True)
        assert counts.size == math.factorial(n)
        expected = t / math.factorial(n)
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat <= chi2.ppf(1.0 - 1e-6, math.factorial(n) - 1)

    def test_marginals_mean_matches_estimator(self):
        g = make_random_game(6, seed=31)
        t = 2 * ORDERING_CHUNK + 188  # three chunks, the last one partial
        phi = sample_permutation_marginals(g, t, seed=12, tag="perm")
        vv = estimate_permutation(g, PermutationBudget(t), seed=12)
        assert_allclose(phi.mean(axis=0), vv.values, rtol=0, atol=1e-12)
