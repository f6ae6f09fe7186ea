import math
import sys
import threading
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import chi2

from shapval import (
    Game,
    KnnInstance,
    PermutationBudget,
    compressive_sample,
    estimate_compressive,
    estimate_group_testing,
    estimate_permutation,
    knn_game,
    make_symmetric_game,
    make_voting_game,
    optimize_split_constants,
    required_t_compressive,
    required_tests,
    exact_shapley_subsets,
    make_additive_game,
    make_glove_game,
    make_random_game,
    required_permutations,
)
from shapval.errors import ConfigError, ShapvalError
from shapval.parallel import ordered_chunk_map, resolve_threads
from shapval.rng import stream
from shapval.permutation import ORDERING_CHUNK, _ordered_marginals, sample_orderings

from conftest import built_in_game, chunks, marginal_chunk


def sampled_marginals(game, t, seed):
    """(T, N) marginals of the orderings ``estimate_permutation`` draws."""
    return np.concatenate(
        [marginal_chunk(game, seed, "perm", i, hi - lo) for i, lo, hi in chunks(t, ORDERING_CHUNK)]
    )


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


# every function that sizes a budget from (epsilon, delta), and the budget
# that carries them, called as (r, epsilon, delta)
SIZERS = {
    "PermutationBudget": lambda r, eps, delta: PermutationBudget(10, epsilon=eps, delta=delta, range_r=r),
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


BUDGET_NAMES = {
    "required_permutations": "permutation",
    "required_tests": "group-test",
    "optimize_split_constants": "baseline-route",
    "required_t_compressive": "compressive ordering",
}


@pytest.mark.parametrize("r, eps", [(1e308, 0.5), (1.0, 1e-300)])
@pytest.mark.parametrize("sizer", list(BUDGET_NAMES))
def test_a_bound_that_is_not_finite_is_refused(sizer, r, eps):
    # r^2 overflows, or eps^2 underflows to a zero divisor
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning either
        with pytest.raises(ValueError, match=f"the {BUDGET_NAMES[sizer]} budget is not a finite number"):
            SIZERS[sizer](r, eps, 0.1)


class TestEstimate:
    def test_additive_is_exact_with_one_permutation(self):
        g = make_additive_game((1.0, 2.0, 3.0))
        for seed in (0, 7, 123456):
            vv = estimate_permutation(g, PermutationBudget(1), seed=seed)
            assert_allclose(vv.values, [1.0, 2.0, 3.0], atol=1e-12)

    def test_zero_permutations_rejected(self):
        with pytest.raises(ValueError):
            PermutationBudget(0)
        # a count of 2^63 or more has no range length, also one sized from (eps, delta)
        for count in (2.5, 3.0, True, "4", 1 << 63):
            with pytest.raises(ValueError, match="t_permutations"):
                PermutationBudget(count)
        with pytest.raises(ValueError, match="t_permutations must be a positive integer below 2\\^63"):
            PermutationBudget.from_accuracy(1e150, 10, 0.5, 0.1)
        assert PermutationBudget(np.int64(3)).t_permutations == 3
        assert PermutationBudget((1 << 63) - 1).t_permutations == (1 << 63) - 1

    def test_accuracy_labels_are_optional(self):
        assert PermutationBudget(10, epsilon=0.5).delta is None
        assert PermutationBudget(10, epsilon=0.5, delta=0.1, range_r=2.0).range_r == 2.0

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
        phi = sampled_marginals(g, 64, seed=5)
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
        [
            (None, None, 1), (None, 4, 4), ("", 4, 4), ("3", None, 3), ("3", 8, 3), (" 3 ", 2, 2),
            (None, 256, 256), ("256", None, 256), ("256", 256, 256),
        ],
    )
    def test_request_capped_by_variable(self, env, requested, expected, monkeypatch):
        monkeypatch.delenv("SHAPVAL_THREADS", raising=False)
        if env is not None:
            monkeypatch.setenv("SHAPVAL_THREADS", env)
        assert resolve_threads(requested) == expected

    @pytest.mark.parametrize("value", ["abc", "1.5", "0", "-3", "257", "99999999999999999999"])
    def test_variable_must_be_a_positive_integer(self, value, monkeypatch):
        monkeypatch.setenv("SHAPVAL_THREADS", value)
        with pytest.raises(ConfigError, match="SHAPVAL_THREADS"):
            resolve_threads(2)

    @pytest.mark.parametrize("requested", [0, -3, True, False, 2.5, 2.0, "2", 257, 10**20])
    def test_explicit_request_must_be_positive(self, requested, monkeypatch):
        monkeypatch.delenv("SHAPVAL_THREADS", raising=False)
        with pytest.raises(ConfigError, match="at least 1"):
            resolve_threads(requested)
        with pytest.raises(ConfigError, match="at least 1"):
            estimate_permutation(make_additive_game((1.0, 2.0)), PermutationBudget(4), 0, threads=requested)


    def test_numpy_integer_request(self, monkeypatch):
        monkeypatch.delenv("SHAPVAL_THREADS", raising=False)
        assert resolve_threads(np.int64(2)) == 2


def negative_zero_game(n):
    """|S| / N once S holds player 0 and another player, else -0.0 (+0.0
    when empty), so that marginals can be -0.0; with one player, all are."""

    def utility(masks):
        masks = np.asarray(masks)
        size = np.bitwise_count(masks.astype(np.uint64))
        worth = np.where((masks & 1) & (size >= 2), size / n, -0.0)
        return np.where(masks == 0, 0.0, worth)

    return Game(n, utility, range_r=1.0, name="negative-zero")


def knn_prefix_game():
    g = np.random.default_rng(31)
    x, y = np.round(g.normal(size=(20, 2))), g.integers(0, 3, 20)
    xt, yt = np.round(g.normal(size=(4, 2))), g.integers(0, 3, 4)
    return knn_game([KnnInstance(x, y, xt[i], yt[i], 3) for i in range(4)])


IDENTITY_GAMES = {
    "additive63": lambda: make_additive_game(np.random.default_rng(5).uniform(0.0, 1.0, 63)),
    "voting": lambda: make_voting_game(np.random.default_rng(6).integers(1, 5, 12).astype(float), 14.0),
    "random-table": lambda: make_random_game(9, seed=7),
    "symmetric": lambda: make_symmetric_game(11, np.sqrt(np.arange(12.0))),
    "glove": make_glove_game,
    "knn-prefix": knn_prefix_game,
    "negative-zero": lambda: negative_zero_game(6),
    "one-player": lambda: make_additive_game([0.1]),
    "one-player-negative-zero": lambda: negative_zero_game(1),
}


@pytest.fixture(scope="module")
def identity_games():
    return {name: build() for name, build in IDENTITY_GAMES.items()}


class TestChunkTotals:
    """The estimate is the chunk-ordered sum of each chunk's marginal block,
    summed over its orderings, byte for byte."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("t", [1, 7, 256, 300, 777])
    @pytest.mark.parametrize("name", list(IDENTITY_GAMES))
    def test_estimate_is_the_sum_of_marginal_blocks(self, identity_games, name, t, threads, monkeypatch):
        monkeypatch.delenv("SHAPVAL_THREADS", raising=False)
        game = identity_games[name]
        expected = ordered_chunk_map(
            lambda i, lo, hi: marginal_chunk(game, 21, "perm", i, hi - lo).sum(axis=0),
            range(0, t, ORDERING_CHUNK),
            threads,
        ) / t
        got = estimate_permutation(game, PermutationBudget(t), seed=21, threads=threads).values
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", ["negative-zero", "one-player-negative-zero"])
    def test_negative_zero_marginals_occur(self, identity_games, name):
        phi = marginal_chunk(identity_games[name], 21, "perm", 0, 50)
        assert np.any(np.signbit(phi) & (phi == 0.0))

    @pytest.mark.parametrize("r", [1, 2, 3, 129, 255])
    def test_partial_chunk_is_the_full_chunks_first_rows(self, r):
        # a chunk's first r orderings are the same whatever its length, and
        # so are their marginals, since a mask's utility is batch-invariant
        game = make_additive_game(np.random.default_rng(63).uniform(0.0, 1.0, 63))
        full = marginal_chunk(game, 5, "perm", 2, ORDERING_CHUNK)
        assert marginal_chunk(game, 5, "perm", 2, r).tobytes() == full[:r].tobytes()


class TestMonotoneCheck:
    """A game declared monotone must give marginals of at least -tol; the
    ordering kernel checks it for both samplers that run on it."""

    def test_estimate_permutation_refuses_a_mislabeled_monotone_game(self):
        # the twin of compressive's refusal, on the same game: adding player 1
        # to {0} loses 1
        table = {0: 0.0, 1: 1.0, 2: 0.0, 3: 0.0}
        lying = Game(
            2,
            lambda m: np.array([table[int(x)] for x in m]),
            range_r=1.0,
            monotone=True,
        )
        with pytest.raises(ShapvalError, match="monotone"):
            estimate_permutation(lying, PermutationBudget(50), seed=12)

    @pytest.mark.parametrize("family", ["additive", "voting"])
    def test_monotone_63_player_games_pass_both_samplers(self, family):
        game = built_in_game(family, 63)  # real weights; the voting quota is half their total
        assert game.monotone
        t = 2 * ORDERING_CHUNK + 89
        vv = estimate_permutation(game, PermutationBudget(t), seed=17)
        a, y_bar = compressive_sample(game, 16, t, seed=17)
        assert np.all(np.isfinite(vv.values)) and np.all(np.isfinite(y_bar))
        assert game.eval_count == 2 * t * 63


class TestEvalCounts:
    """Each estimator reports the evaluations it billed, not the change of
    the game's shared counter, so concurrent callers do not see each other's."""

    ESTIMATORS = {
        "perm": lambda g: estimate_permutation(g, PermutationBudget(600), seed=1),
        "compressive": lambda g: estimate_compressive(g, 4, 300, 0.1, seed=2),
        "feasibility": lambda g: estimate_group_testing(g, 0.5, 0.2, 3, t_tests=5000),
        "baseline": lambda g: estimate_group_testing(g, 1.0, 0.5, 4, "baseline"),
    }

    def test_single_caller_counts_match_the_game_counter(self):
        for name, run in self.ESTIMATORS.items():
            game = make_random_game(10, seed=5)
            vv = run(game)
            assert vv.eval_count == game.eval_count, name
        assert self.ESTIMATORS["perm"](game).eval_count == 600 * 10
        assert self.ESTIMATORS["compressive"](game).eval_count == 300 * 10
        assert self.ESTIMATORS["feasibility"](game).eval_count == 5000
        vv = estimate_permutation(game, PermutationBudget(np.int64(3)), seed=1)
        assert type(vv.eval_count) is int and vv.eval_count == 30

    @pytest.mark.parametrize("pair", [("perm", "compressive"), ("feasibility", "baseline"), ("perm", "baseline")])
    def test_two_threads_on_one_game(self, pair):
        expected = {}
        for name in pair:
            alone = make_random_game(10, seed=5)
            expected[name] = self.ESTIMATORS[name](alone).eval_count
        shared = make_random_game(10, seed=5)
        barrier = threading.Barrier(len(pair), timeout=30)
        counts = {name: [] for name in pair}

        def worker(name):
            barrier.wait()
            for _ in range(3):
                counts[name].append(self.ESTIMATORS[name](shared).eval_count)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=worker, args=(name,)) for name in pair]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        for name in pair:
            assert counts[name] == [expected[name]] * 3, name
        assert shared.eval_count == 3 * sum(expected.values())


class TestOrderingSampler:
    def test_orderings_uniform_across_many_chunks(self):
        # 47 chunks at N=4; the bound is the chi-square quantile at a 1e-6
        # false-alarm rate, fixed before any draw was looked at
        n, t = 4, 12_000
        perms = np.concatenate(
            [sample_orderings(17, "perm", i, hi - lo, n) for i, lo, hi in chunks(t, ORDERING_CHUNK)]
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
        phi = sampled_marginals(g, t, seed=12)
        vv = estimate_permutation(g, PermutationBudget(t), seed=12)
        assert_allclose(phi.mean(axis=0), vv.values, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("count", [0, 1, 7, 256])
    @pytest.mark.parametrize("n", [1, 2, 16, 63])
    def test_block_is_a_shuffled_tile_of_the_players(self, n, count):
        reference = np.tile(np.arange(n), (count, 1))
        reference = stream(3, "perm", 4).permuted(reference, axis=1, out=reference)
        perms = sample_orderings(3, "perm", 4, count, n)
        assert perms.dtype == np.intp and perms.flags.c_contiguous
        assert perms.shape == (count, n) and np.array_equal(perms, reference)


class TestOrderedMarginals:
    @pytest.mark.parametrize("count", [0, 1, 257])
    @pytest.mark.parametrize("n", [1, 2, 63])
    def test_same_as_the_column_wise_differences(self, n, count):
        game = make_random_game(n, seed=n) if n <= 20 else make_additive_game(
            np.random.default_rng(n).uniform(0.0, 1.0, n)
        )
        perms, marginals = _ordered_marginals(game, 9, "perm", 2, count)
        vals = game._values_of_orderings(sample_orderings(9, "perm", 2, count, n))
        expected = np.empty_like(vals)
        expected[:, 0] = vals[:, 0]
        np.subtract(vals[:, 1:], vals[:, :-1], out=expected[:, 1:])
        assert np.array_equal(perms, sample_orderings(9, "perm", 2, count, n))
        assert marginals.shape == (count, n) and marginals.flags.c_contiguous
        assert marginals.tobytes() == expected.tobytes()
