import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from shapval import (
    Game,
    ShapvalError,
    SizeGuardError,
    UtilityRangeError,
    ValueVector,
    exact_shapley_difference,
    exact_shapley_permutations,
    exact_shapley_subsets,
    make_additive_game,
    make_glove_game,
    make_random_game,
    make_symmetric_game,
    make_voting_game,
)
from shapval import games
from shapval.games import _in_blocks, _inverse_binomial, _masks, _membership
from conftest import brute_force_shapley, built_in_game, glove_mask_utility, run_python, voting_half


def sizes(masks):
    return np.bitwise_count(masks.astype(np.uint64))


class TestValueVector:
    def test_rejects_negative_eval_count(self):
        with pytest.raises(ValueError):
            ValueVector(np.zeros(3), method="x", eval_count=-1)

    def test_total(self):
        assert ValueVector(np.array([1.0, 2.0]), "x", 0).total == 3.0


class TestGame:
    def test_empty_coalition_is_free_and_zero(self):
        g = make_additive_game((1.0, 2.0))
        assert g.values_of_masks([0])[0] == 0.0
        assert g.eval_count == 0

    def test_offset_enforces_empty_zero(self):
        g = Game(2, lambda m: 5.0 + sizes(m), range_r=2.0)
        assert g.values_of_masks([0])[0] == 0.0
        assert g.values_of_masks([0b11])[0] == 2.0

    def test_out_of_range_utility_raises(self):
        # caught immediately when the full coalition already breaks the bound
        with pytest.raises(UtilityRangeError):
            Game(2, lambda m: 2.0 * sizes(m), range_r=1.0)
        # caught on evaluation when only an interior coalition breaks it
        sneaky = Game(2, lambda m: np.where(sizes(m) == 1, 5.0, sizes(m) / 2.0), range_r=1.0)
        with pytest.raises(UtilityRangeError):
            sneaky.values_of_masks([0b01])

    def test_nan_utility_is_out_of_range(self):
        with pytest.raises(UtilityRangeError):
            Game(2, lambda m: np.full(len(m), np.nan), range_r=1.0)
        g = Game(2, lambda m: np.where(sizes(m) == 1, np.nan, sizes(m) / 2.0), range_r=1.0)
        with pytest.raises(UtilityRangeError):
            g.values_of_masks([0b01, 0b11])
        assert g.eval_count == 0

    @pytest.mark.parametrize(
        "bad, caught_at_construction",
        [
            (lambda m: 0.5, True),  # a scalar
            # one value per batch, which is right for the one-mask construction probes
            (lambda m: np.full(1, 0.5), False),
            (lambda m: np.full((len(m), 1), 0.5), True),  # a column
            (lambda m: np.full(len(m), "0.5"), True),  # not numbers
        ],
        ids=["scalar", "length-1", "2-D", "text"],
    )
    def test_utility_must_return_one_value_per_mask(self, bad, caught_at_construction):
        if caught_at_construction:
            with pytest.raises(ShapvalError, match="one real value per mask"):
                Game(3, bad, range_r=1.0)
        # well-formed for the one-mask construction probes only
        g = Game(3, lambda m: np.zeros(len(m)) if len(m) == 1 else bad(m), range_r=1.0)
        with pytest.raises(ShapvalError, match="one real value per mask"):
            g.values_of_masks([1, 2, 3])
        assert g.eval_count == 0

    def test_eval_count_tracks_nonempty_evaluations(self):
        g = make_additive_game((1.0, 1.0, 1.0))
        g.values_of_masks(np.array([0, 1, 3, 7]))
        assert g.eval_count == 3

    @pytest.mark.parametrize("exact", [np.zeros(7), np.zeros((1, 3)), np.zeros(2), 0.5])
    def test_exact_values_must_be_one_per_player(self, exact):
        with pytest.raises(ValueError, match="exact_values must have shape"):
            Game(3, sizes, range_r=3.0, exact_values=exact)
        assert Game(3, sizes, range_r=3.0, exact_values=[1, 1, 1]).exact_values.dtype == np.float64

    def test_exact_values_are_a_read_only_copy(self):
        given = np.array([1.0, 2.0])
        g = make_additive_game(given)
        for game in (g, Game(2, sizes, range_r=2.0, exact_values=given)):
            with pytest.raises(ValueError, match="read-only"):
                game.exact_values[0] = 9
            assert not np.shares_memory(game.exact_values, given)
        given[0] = 5.0
        assert g.exact_values.tolist() == [1.0, 2.0]
        assert exact_shapley_subsets(g).values.tolist() == [1.0, 2.0]

    def test_weighted_games_keep_their_own_weights(self):
        weights = np.array([1.0, 2.0, 3.0])
        additive, voting = make_additive_game(weights), make_voting_game(weights, 3.0)
        weights[:] = [9.0, 0.0, 0.0]
        assert additive.values_of_masks([1, 7]).tolist() == [1.0, 6.0]
        assert voting.values_of_masks([1, 3, 4]).tolist() == [0.0, 1.0, 1.0]

    def test_u_total_cached_at_construction(self):
        g = make_glove_game()
        assert g.u_total == 1.0
        assert g.eval_count == 0  # bookkeeping probes are not billed

    @pytest.mark.parametrize("kind", ["additive", "table"])
    def test_bad_masks_are_rejected_before_evaluation(self, kind):
        g = make_additive_game((1.0, 2.0, 3.0)) if kind == "additive" else make_random_game(4, seed=1)
        top = 1 << g.n_players
        bad = [[-1], [top], [1, top + 5], [np.iinfo(np.int64).min], [1 << 70], [[1, 2]], 1]
        # non-integer dtypes: no truncation of a float, no bool read as 0 and 1
        bad += [[3.7], [1.0], [True, False], np.array([1], dtype=object), [-1, 1 << 63]]
        for masks in bad:
            with pytest.raises(ShapvalError, match="coalition masks must be"):
                g.values_of_masks(masks)
        assert g.eval_count == 0  # rejected before anything is evaluated
        assert g.values_of_masks([top - 1])[0] == pytest.approx(g.u_total)
        # numpy reads an empty list as float64; it stays an empty batch
        assert g.values_of_masks([]).tolist() == []
        assert g.values_of_masks(np.array([1, 2], dtype=np.uint8)).tolist() == g.values_of_masks([1, 2]).tolist()

    @pytest.mark.parametrize("masks", [[1, 2, 3, 2], [0, 1, 2, 3], [3, 0, 0, 1], [0, 0], []])
    def test_batches_with_and_without_empty_masks(self, masks):
        buffer = np.zeros(8)
        seen = []

        def utility(m):
            seen.append(m.tolist())
            buffer[: len(m)] = m / 4.0
            return buffer[: len(m)]  # a view of the utility's own buffer

        g = Game(2, utility, range_r=1.0)
        seen.clear()
        masks = np.array(masks, dtype=np.int64)
        out = g.values_of_masks(masks)
        assert out.dtype == np.float64 and out.flags.c_contiguous
        assert not np.shares_memory(out, buffer) and not np.shares_memory(out, masks)
        assert out.tolist() == (masks / 4.0).tolist()
        # one call on the nonempty masks, in order; only they are billed
        nonempty = masks[masks != 0].tolist()
        assert seen == ([nonempty] if nonempty else [])
        assert g.eval_count == len(nonempty)

    @pytest.mark.parametrize("empty", [[], [0]], ids=["without-empty", "with-empty"])
    def test_checks_with_and_without_an_empty_mask(self, empty):
        # U({1}) = 5 breaks the declared range; the full coalition does not
        g = Game(2, lambda m: np.where(m == 2, 5.0, m / 3.0), range_r=1.0)
        for bad in ([*empty, 1, 4], [*empty, 1, -1], [[*empty, 1, 3]]):
            with pytest.raises(ShapvalError, match="coalition masks must be"):
                g.values_of_masks(bad)
        with pytest.raises(UtilityRangeError):
            g.values_of_masks([*empty, 1, 2])
        assert g.eval_count == 0
        assert g.values_of_masks([*empty, 1, 3]).tolist() == [0.0] * len(empty) + [1 / 3, 1.0]
        assert g.eval_count == 2

    def test_mask_range_at_63_players(self):
        # 2^63 does not fit in int64, so the largest int64 is the full coalition
        g = make_additive_game(np.ones(63))
        assert g.values_of_masks([np.iinfo(np.int64).max])[0] == 63.0
        for masks in ([-1], [np.iinfo(np.int64).min], [1 << 63]):
            with pytest.raises(ShapvalError, match="coalition masks must be"):
                g.values_of_masks(masks)

    def test_player_limit_of_int64_masks(self):
        assert make_symmetric_game(63).u_total == pytest.approx(1.0)
        with pytest.raises(ShapvalError, match="63 players"):
            make_symmetric_game(64)
        with pytest.raises(ShapvalError, match="63 players"):
            Game(100, lambda m: np.zeros(len(m)), range_r=1.0)


class TestPrefixUtility:
    """The optional prefix form gets the mask form's checks, offset and billing."""

    perms = np.array([[0, 1, 2, 3], [3, 1, 0, 2], [2, 0, 3, 1]])

    @staticmethod
    def game(prefix, offset=0.0):
        # worth |S| / 4 plus an empty-coalition offset, in mask and prefix form
        return Game(4, lambda m: offset + sizes(m) / 4, range_r=1.0, prefix_utility=prefix)

    @staticmethod
    def by_size(perms, offset=0.0):
        return offset + np.broadcast_to(np.arange(1, 5) / 4, perms.shape)

    @pytest.mark.parametrize("offset", [0.0, 5.0])
    def test_same_values_as_mask_form(self, offset):
        # an F-ordered prefix result still comes back C-ordered
        prefix = self.game(lambda p: np.asfortranarray(self.by_size(p, offset)), offset)
        masks = self.game(None, offset)
        got = prefix._values_of_orderings(self.perms)
        assert got.flags.c_contiguous
        assert got.tobytes() == masks._values_of_orderings(self.perms).tobytes()
        assert np.array_equal(got, self.by_size(self.perms))

    def test_eval_count_grows_by_rows_times_players(self):
        g = self.game(self.by_size)
        g._values_of_orderings(self.perms)
        assert g.eval_count == self.perms.size
        g._values_of_orderings(self.perms[:1])
        assert g.eval_count == self.perms.size + 4

    @pytest.mark.parametrize("prefix", [None, "prefix"])
    def test_empty_block_costs_nothing(self, prefix):
        # the prefix utility, like the mask utility, is never called on no rows
        g = self.game(None if prefix is None else self.by_size)
        got = g._values_of_orderings(self.perms[:0])
        assert got.shape == (0, 4) and got.dtype == np.float64
        assert g.eval_count == 0

    @pytest.mark.parametrize(
        "bad",
        [
            lambda p: 0.5,
            lambda p: np.full(p.shape[0], 0.5),
            lambda p: np.full(p.shape[::-1], 0.5),
            lambda p: np.full((*p.shape, 1), 0.5),
            lambda p: np.full(p.shape, "0.5"),
            lambda p: np.full(p.shape, 0.5 + 0j),
        ],
        ids=["scalar", "1-D", "transposed", "3-D", "text", "complex"],
    )
    def test_wrong_shape_or_dtype_raises(self, bad):
        g = self.game(bad)
        with pytest.raises(ShapvalError, match="one real value per prefix"):
            g._values_of_orderings(self.perms)
        assert g.eval_count == 0

    @pytest.mark.parametrize("value", [np.nan, 1.5, -0.25])
    def test_nan_or_out_of_range_raises(self, value):
        def prefix(p):
            vals = self.by_size(p).copy()
            vals[1, 2] = value
            return vals

        g = self.game(prefix)
        with pytest.raises(UtilityRangeError):
            g._values_of_orderings(self.perms)
        assert g.eval_count == 0


class TestMembership:
    @pytest.mark.parametrize("n", [1, 3, 40, 63])
    def test_matches_shift_and_mask(self, n):
        top = 1 << n
        edges = [0, 1, top - 1, 1 << (n - 1), 1 << 62, (1 << 62) | 5, np.iinfo(np.int64).max]
        drawn = np.random.default_rng(n).integers(0, top - 1, size=1000, endpoint=True)
        masks = np.concatenate([np.array(edges, dtype=np.int64), drawn])
        reference = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
        member = _membership(masks, n)
        assert member.dtype == bool and member.flags.c_contiguous
        assert member.shape == reference.shape
        assert member.tobytes() == reference.tobytes()
        in_range = masks < top
        assert np.array_equal(_masks(member[in_range]), masks[in_range])


class TestMasks:
    @pytest.mark.parametrize("n", range(1, 64))
    def test_matches_a_per_row_pack(self, n):
        g = np.random.default_rng(6300 + n)
        for rows in (0, 1, 4097):
            # rows of every density, and an empty and a full row when there are enough
            member = g.random((rows, n)) < g.random((rows, 1))
            member[1:2], member[2:3] = False, True
            reference = np.array(
                [sum(1 << int(j) for j in np.flatnonzero(row)) for row in member], dtype=np.int64
            )
            masks = _masks(member)
            assert masks.dtype == np.int64 and masks.shape == (rows,)
            assert masks.tobytes() == reference.tobytes()


class TestWeightChecks:
    @pytest.mark.parametrize(
        "weights", [[np.inf, 1.0], [np.nan, 1.0], [1.0, -np.inf], [np.inf, -np.inf], [1e308, 1e308]]
    )
    def test_non_finite_weights_and_totals_are_rejected_without_a_warning(self, weights):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="weights must be finite"):
                make_additive_game(weights)
            with pytest.raises(ValueError, match="weights must be finite"):
                make_voting_game(weights, 1.0)

    @pytest.mark.parametrize("quota", [np.nan, np.inf, -np.inf])
    def test_non_finite_quota_is_rejected(self, quota):
        with pytest.raises(ValueError, match="quota must be finite"):
            make_voting_game([1.0, 1.0], quota)

    def test_largest_finite_total_is_accepted(self):
        game = make_additive_game([1e308, 7e307])
        assert game.range_r == 1e308 + 7e307


class TestBlocks:
    @pytest.mark.parametrize(
        "count, sizes",
        [(0, []), (1, [1]), (2, [2]), (8, [8]), (9, [8, 1]), (10, [8, 2]), (16, [8, 8]), (17, [8, 8, 1])],
    )
    def test_each_row_scored_once_in_row_blocks(self, count, sizes):
        seen = []

        def score(block, out):
            seen.append(block.size)
            out += block

        assert _in_blocks(np.arange(count), 8, score).tolist() == list(range(count))
        assert seen == sizes

    @pytest.mark.parametrize("make", [make_additive_game, voting_half])
    def test_full_table_batch_memory_stays_below_one_float_block(self, make):
        n = 18
        game = make(np.random.default_rng(n).uniform(0.0, 1.0, n))
        masks = np.arange(1 << n, dtype=np.int64)
        tracemalloc.start()
        try:
            game.values_of_masks(masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (2^N, N) float64 temporary alone would take this much
        assert peak < masks.size * n * 8


def batch_masks(n, count):
    return np.random.default_rng(100 + n).integers(0, 1 << n, count, dtype=np.int64)


def assert_any_split_gives_one_call(game, masks, sizes):
    one_call = game.values_of_masks(masks).tobytes()
    for size in sizes:
        split = [game.values_of_masks(masks[lo : lo + size]) for lo in range(0, masks.size, size)]
        assert np.concatenate(split).tobytes() == one_call, (game.n_players, size)


class TestBatchInvariance:
    """A built-in utility gives a mask the same bits in any batch, so the
    game is a function of the coalition, as ``Game`` requires."""

    @pytest.mark.parametrize("family", ["additive", "voting", "symmetric", "glove", "random", "knn"])
    def test_any_split_gives_the_bits_of_one_call(self, family):
        for n in range(2, 64):
            game = built_in_game(family, n)
            if game is not None:
                largest = game
                assert_any_split_gives_one_call(game, batch_masks(n, 130), (1, 2, 3, 5, 7, 63))
        # two 4099-mask batches and more, across the 4096-row weight blocks
        masks = batch_masks(largest.n_players, 8200)
        assert_any_split_gives_one_call(largest, masks, (63, 4095, 4097, 4099))

    @pytest.mark.parametrize("rows", [1, 3, 5, 64, 4096])
    @pytest.mark.parametrize("family", ["additive", "voting"])
    def test_any_weight_block_size_gives_the_same_bits(self, family, rows, monkeypatch):
        # in either form: as masks, and as the float64 membership block a
        # pooled-test chunk hands the game
        for n in range(2, 64):
            game, masks = built_in_game(family, n), batch_masks(n, 8200 if n == 63 else 130)
            one_call = game.values_of_masks(masks)
            drawn = masks != 0  # a drawn block has no empty row
            block = _membership(masks[drawn], n).astype(np.float64)
            with monkeypatch.context() as patch:
                patch.setattr(games, "_WEIGHT_ROWS", rows)
                assert game.values_of_masks(masks).tobytes() == one_call.tobytes(), n
                assert game._values_of_members(block).tobytes() == one_call[drawn].tobytes(), n

    def test_blas_thread_count_changes_no_bits(self, monkeypatch):
        # OpenBLAS caps OPENBLAS_NUM_THREADS at the core count, but not a
        # count set through its API, so the child sets that too and
        # reports the count its gemv calls run on.
        code = """if 1:
            import ctypes, glob, hashlib, os, sys, numpy as np
            from shapval import compressive_sample, estimate_compressive, make_additive_game, make_voting_game, run_tests
            from shapval.group_testing import _baseline_player_value
            libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "lib*openblas*"))
            blas = ctypes.CDLL(libs[0]) if libs else None
            for name in ("scipy_openblas_%s64_", "openblas_%s"):
                if blas is not None and hasattr(blas, name % "set_num_threads"):
                    getattr(blas, name % "set_num_threads")(int(os.environ["OPENBLAS_NUM_THREADS"]))
                    print("threads", getattr(blas, name % "get_num_threads")())
                    break
            else:
                print("threads unknown")
            w = np.random.default_rng(63).uniform(0.0, 1.0, 63)
            masks = np.random.default_rng(7).integers(1, 1 << 63, 12291, dtype=np.int64)
            sha = lambda vals: hashlib.sha256(np.asarray(vals, dtype=np.float64).tobytes()).hexdigest()
            games = (make_additive_game(w), make_voting_game(w, w.sum() / 2))
            for game in games:
                # one call of 3 * 4096 + 3 masks, then batches that leave 1 to
                # 3 rows over, and threaded gemv calls whose padded rows do not
                # split into equal multiples of 4 across 2 or 3 threads
                for size in (masks.size, 8192, 4099, 3777, 156, 155, 154, 153, 7):
                    vals = [game.values_of_masks(masks[lo : lo + size]) for lo in range(0, masks.size, size)]
                    print(game.name, size, sha(np.concatenate(vals)))
            for game in games:
                # the pooled tests score membership blocks: one 4096-test chunk
                # and a 905-test tail; the baseline player scores masks in
                # three chunks of orderings and a 233-ordering tail
                print(game.name, "tests", sha(run_tests(game, 5001, 25)))
                print(game.name, "baseline", sha(_baseline_player_value(game, 3 * 256 + 233, 25, 1)))
            for game in games:
                # compressive measurements at M = 16, 300 and 20 000 (a threaded
                # dgemv projection gives some rows other bits at 20 000 on 3
                # threads), and their recovery at the first two, since the lasso
                # path's own BLAS calls give other bits at M = 20 000.  The
                # epsilons keep each path to 2-29 steps: at 3 BLAS threads on 2
                # cores a step waits on the threads, and the additive game's
                # whole 63-step path at M = 300 takes ~15 s
                for rows in (16, 300, 20000):
                    print(game.name, rows, "sample", sha(compressive_sample(game, rows, 3 * 256 + 233, 25)[1]))
                for rows in (16, 300):
                    epsilon = 2.0 if (game.name, rows) == ("additive", 300) else 0.05
                    print(game.name, rows, "estimate", sha(estimate_compressive(game, rows, 600, epsilon, 25).values))
            """
        outputs = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
            result = run_python("-c", code)
            assert result.returncode == 0, result.stderr
            reported, _, hashes = result.stdout.partition("\n")
            if reported == "threads unknown":
                pytest.skip("numpy's OpenBLAS library was not found; its thread count is unknown")
            assert reported == f"threads {threads}"
            outputs.append(hashes)
        assert outputs[0] == outputs[1] == outputs[2]
        lines = [line.split() for line in outputs[0].splitlines()]
        assert len(lines) == 32
        # and every split of a game's masks gives the bits of one call
        assert len({(name, sha) for name, _, sha in lines[:18]}) == 2


class TestExactOracles:
    def test_subset_weights_are_correctly_rounded(self):
        # C(n, k) passes 2^53 at n = 57, so a float division of it rounds twice
        for n in range(21, 60):
            for k in range(n + 1):
                assert _inverse_binomial(n, k) == float(Fraction(1, math.comb(n, k))), (n, k)

    def test_additive_game_recovers_weights(self):
        g = make_additive_game((1.0, 2.0, 3.0))
        assert_allclose(exact_shapley_subsets(g).values, [1.0, 2.0, 3.0], atol=1e-12)
        assert_allclose(g.exact_values, [1.0, 2.0, 3.0])

    def test_additive_with_zero_weights(self):
        g = make_additive_game((0.0, 0.0, 5.0))
        assert_allclose(exact_shapley_subsets(g).values, [0.0, 0.0, 5.0], atol=1e-12)

    def test_symmetric_game_uniform(self):
        g = make_symmetric_game(4)  # worth |S| / 4
        assert_allclose(exact_shapley_subsets(g).values, np.full(4, 0.25), atol=1e-12)
        assert_allclose(g.exact_values, np.full(4, 0.25))

    def test_symmetric_unit_weights(self):
        g = make_symmetric_game(3, size_values=(0.0, 1.0, 2.0, 3.0))
        assert_allclose(exact_shapley_permutations(g).values, np.ones(3), atol=1e-12)

    def test_single_player_takes_all(self):
        g = make_additive_game((2.5,))
        assert_allclose(exact_shapley_permutations(g).values, [2.5])

    def test_glove_game_against_definition_oracle(self):
        g = make_glove_game()
        expected = brute_force_shapley(3, glove_mask_utility)
        assert_allclose(expected, [2 / 3, 1 / 6, 1 / 6], atol=1e-12)
        assert_allclose(exact_shapley_subsets(g).values, expected, atol=1e-12)
        assert_allclose(exact_shapley_permutations(g).values, expected, atol=1e-12)

    def test_voting_game_symmetric(self):
        g = make_voting_game((1.0, 1.0, 1.0), quota=2.0)
        assert_allclose(exact_shapley_subsets(g).values, np.full(3, 1 / 3), atol=1e-12)

    def test_oracles_agree_on_random_games(self):
        for n in range(2, 9):
            g = make_random_game(n, seed=100 + n)
            a = exact_shapley_subsets(g).values
            b = exact_shapley_permutations(g).values
            assert_allclose(a, b, atol=1e-9)

    def test_efficiency(self):
        for n in (2, 5, 8):
            g = make_random_game(n, seed=7 * n)
            vv = exact_shapley_subsets(g)
            assert vv.total == pytest.approx(g.u_total, rel=1e-9)

    def test_null_player_gets_exact_zero(self):
        # utility ignores player 2 entirely
        table = np.random.default_rng(3).uniform(size=8)
        table[0] = 0.0

        def batch(masks):
            reduced = (masks & 0b011) | ((masks & 0b1000) >> 1)
            return table[reduced]

        g = Game(4, batch, range_r=1.0)
        values = exact_shapley_subsets(g).values
        assert values[2] == 0.0

    def test_additivity_of_exact_values(self, rng):
        for n in (3, 5, 7):
            ta = rng.uniform(size=1 << n)
            tb = rng.uniform(size=1 << n)
            ta[0] = tb[0] = 0.0
            ga = Game(n, lambda m, t=ta: t[m], 1.0)
            gb = Game(n, lambda m, t=tb: t[m], 1.0)
            gsum = Game(n, lambda m: ta[m] + tb[m], 2.0)
            combined = exact_shapley_subsets(gsum).values
            parts = exact_shapley_subsets(ga).values + exact_shapley_subsets(gb).values
            assert_allclose(combined, parts, atol=1e-9)

    def test_guards(self):
        g = make_random_game(4, seed=0)
        with pytest.raises(SizeGuardError):
            exact_shapley_subsets(g, max_players=3)
        with pytest.raises(SizeGuardError):
            exact_shapley_permutations(g, max_players=3)
        with pytest.raises(SizeGuardError):
            exact_shapley_difference(g, 0, 1, max_players=3)


class TestExactDifference:
    def test_glove_pair(self):
        g = make_glove_game()
        assert exact_shapley_difference(g, 0, 1) == pytest.approx(0.5, abs=1e-12)

    def test_additive_pair(self):
        g = make_additive_game((1.0, 2.0, 3.0))
        assert exact_shapley_difference(g, 2, 0) == pytest.approx(2.0, abs=1e-12)

    def test_symmetric_players_give_exact_zero(self):
        g = make_symmetric_game(5)
        assert exact_shapley_difference(g, 1, 3) == 0.0

    def test_matches_value_gaps_on_random_games(self):
        for n in (2, 4, 6, 8):
            g = make_random_game(n, seed=50 + n)
            values = exact_shapley_subsets(g).values
            for i in range(n):
                for j in range(i + 1, n):
                    gap = exact_shapley_difference(g, i, j)
                    assert gap == pytest.approx(values[i] - values[j], abs=1e-9)

    def test_same_player_rejected(self):
        with pytest.raises(ValueError):
            exact_shapley_difference(make_glove_game(), 1, 1)

    @staticmethod
    def bit_array_difference(g, i, j):
        """The (2^(N-2), N-2) bit-array form the mask deposit replaced."""
        n = g.n_players
        others = np.array([p for p in range(n) if p not in (i, j)], dtype=np.int64)
        sub = np.arange(1 << (n - 2), dtype=np.int64)
        masks = (((sub[:, None] >> np.arange(n - 2)) & 1) * (1 << others)).sum(axis=1)
        weights = np.array([1.0 / math.comb(n - 2, s) for s in range(n - 1)])
        diff = g.values_of_masks(masks | (1 << i)) - g.values_of_masks(masks | (1 << j))
        return float(np.sum(weights[sizes(sub)] * diff) / (n - 1))

    @pytest.mark.parametrize("n", [2, 3, 7, 12])
    def test_equals_the_bit_array_form(self, n):
        g = make_random_game(n, seed=90 + n)
        pairs = [(0, n - 1), (n - 1, 0)] + [(i, (i * 5 + 1) % n) for i in range(n)]
        for i, j in pairs:
            if i != j:
                assert exact_shapley_difference(g, i, j) == self.bit_array_difference(g, i, j)

    def test_twenty_players_stay_lean(self):
        g = make_random_game(20, seed=4)
        tracemalloc.start()
        try:
            exact_shapley_difference(g, 3, 17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # the bit-array form peaked at ~80 MB


class TestConstructorValidation:
    def test_negative_weights(self):
        with pytest.raises(ValueError):
            make_additive_game((-1.0, 2.0))

    def test_all_zero_weights(self):
        with pytest.raises(ValueError):
            make_additive_game((0.0, 0.0))

    def test_unattainable_quota(self):
        with pytest.raises(ValueError):
            make_voting_game((1.0, 1.0), quota=3.0)

    @pytest.mark.parametrize("weights", [[[1, 2], [3, 4]], [], 2.0])
    def test_voting_weights_must_be_a_nonempty_vector(self, weights):
        with pytest.raises(ValueError, match="weights"):
            make_voting_game(weights, 2)

    def test_symmetric_empty_must_be_zero(self):
        with pytest.raises(ValueError):
            make_symmetric_game(2, size_values=(1.0, 1.0, 1.0))

    @pytest.mark.parametrize("range_r", [0.0, -1.0, float("inf"), float("nan")])
    def test_random_game_range_must_be_positive_and_finite(self, range_r):
        with pytest.raises(ValueError, match="range_r"):
            make_random_game(3, seed=0, range_r=range_r)

    def test_random_game_determinism(self):
        a = make_random_game(5, seed=9)
        b = make_random_game(5, seed=9)
        masks = np.arange(32)
        assert np.array_equal(a.values_of_masks(masks), b.values_of_masks(masks))
