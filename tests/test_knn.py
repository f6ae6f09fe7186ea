import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from shapval import (
    KnnInstance,
    PermutationBudget,
    estimate_permutation,
    exact_shapley_difference,
    exact_shapley_subsets,
    knn_game,
    knn_shapley_exact,
    knn_shapley_testset,
)

import shapval.knn as knn_module
from shapval.parallel import ordered_chunk_map
from shapval.permutation import sample_orderings

from conftest import feature_order_distances, knn_loop_game, marginal_chunk, pascal_identity_lhs


def line_instance(labels, k, test_label="pos", distance="euclidean"):
    """Points at 1, 2, 3, ... on a line; the test point sits at the origin,
    so the given labels are already in distance order."""
    n = len(labels)
    points = np.arange(1, n + 1, dtype=float)[:, None]
    return KnnInstance(points, np.array(labels), np.zeros(1), test_label, k, distance)


def random_instance(rng, n, k):
    points = rng.uniform(size=(n, 1))
    labels = rng.integers(0, 2, size=n)
    return KnnInstance(points, labels, rng.uniform(size=1), 1, k)


class TestUtility:
    def test_single_nearest_correct(self):
        inst = line_instance(["pos", "neg", "neg"], k=1)
        assert knn_game(inst).values_of_masks([0b001])[0] == 1.0

    def test_two_nearest_split(self):
        inst = line_instance(["pos", "neg", "neg"], k=2)
        assert knn_game(inst).values_of_masks([0b011])[0] == 0.5

    def test_small_coalition_truncates_at_its_size(self):
        inst = line_instance(["pos", "neg", "neg"], k=2)
        # a single correct member fills only one of the two neighbor slots
        assert knn_game(inst).values_of_masks([0b001])[0] == 0.5

    def test_empty_is_zero(self):
        inst = line_instance(["pos", "neg"], k=1)
        assert knn_game(inst).values_of_masks([0])[0] == 0.0

    def test_only_nearest_k_members_count(self):
        inst = line_instance(["neg", "pos", "pos"], k=1)
        # the wrong-label point 0 masks the correct points behind it
        assert knn_game(inst).values_of_masks([0b111])[0] == 0.0


class TestRecursion:
    def test_hand_example_k1(self):
        inst = line_instance(["pos", "neg", "neg"], k=1)
        assert_allclose(knn_shapley_exact(inst).values, [1.0, 0.0, 0.0], atol=1e-15)

    def test_hand_example_k2(self):
        inst = line_instance(["pos", "pos", "neg"], k=2)
        assert_allclose(knn_shapley_exact(inst).values, [0.5, 0.5, 0.0], atol=1e-15)

    def test_all_labels_match(self):
        for k in (1, 2, 4):
            inst = line_instance(["pos"] * 5, k=k)
            assert_allclose(knn_shapley_exact(inst).values, np.full(5, 0.2), atol=1e-15)

    def test_matches_enumeration_oracle(self, rng):
        for trial in range(40):
            n = int(rng.integers(3, 11))
            k = int(rng.integers(1, min(4, n)))
            inst = random_instance(rng, n, k)
            recursion = knn_shapley_exact(inst).values
            oracle = exact_shapley_subsets(knn_game(inst)).values
            assert np.max(np.abs(recursion - oracle)) <= 1e-12

    def test_efficiency(self, rng):
        for trial in range(10):
            inst = random_instance(rng, 8, 3)
            vv = knn_shapley_exact(inst)
            total = knn_game(inst).u_total
            assert abs(vv.total - total) <= 1e-12

    def test_equal_adjacent_labels_share_values_exactly(self):
        inst = line_instance(["neg", "pos", "pos", "neg", "neg"], k=2)
        values = knn_shapley_exact(inst).values
        assert values[1] == values[2]
        assert values[3] == values[4]

    def test_values_reported_in_original_order(self, rng):
        points = np.array([[3.0], [1.0], [2.0]])  # distance order is 1, 2, 0
        labels = np.array([0, 1, 0])
        inst = KnnInstance(points, labels, np.zeros(1), 1, 1)
        values = knn_shapley_exact(inst).values
        by_hand = line_instance(["pos", "neg", "neg"], k=1)
        assert_allclose(values, knn_shapley_exact(by_hand).values[[2, 0, 1]])

    def test_distance_ties_break_by_index(self):
        points = np.array([[1.0], [1.0], [2.0]])
        labels = np.array([1, 0, 0])
        inst = KnnInstance(points, labels, np.zeros(1), 1, 1)
        assert list(inst.order) == [0, 1, 2]

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            line_instance(["pos", "neg"], k=2)
        with pytest.raises(ValueError):
            line_instance(["pos", "neg"], k=0)
        with pytest.raises(ValueError):
            line_instance(["pos", "neg", "neg", "pos", "neg"], k=2.5)
        with pytest.raises(ValueError):
            line_instance(["pos", "neg", "neg"], k=True)
        assert line_instance(["pos", "neg", "neg"], k=np.int64(2)).k_neighbors == 2

    def test_pairwise_difference_identity(self, rng):
        inst = random_instance(rng, 7, 2)
        game = knn_game(inst)
        values = knn_shapley_exact(inst).values
        for i in range(7):
            for j in range(i + 1, 7):
                gap = exact_shapley_difference(game, i, j)
                assert gap == pytest.approx(values[i] - values[j], abs=1e-12)

    def test_manhattan_metric(self):
        points = np.array([[1.0, 1.0], [0.0, 1.5]])
        inst = KnnInstance(points, np.array([1, 0]), np.zeros(2), 1, 1, "manhattan")
        assert list(inst.order) == [1, 0]  # |0|+|1.5| < |1|+|1|


def stable_order(points, test_point, distance):
    diff = points - test_point
    if distance == "euclidean":
        dist = np.einsum("ij,ij->i", diff, diff)
    else:
        dist = np.abs(diff).sum(axis=1)
    return np.argsort(dist, kind="stable")


def sort_cases():
    g = np.random.default_rng(44)
    grid = g.integers(-3, 4, size=(400, 3)).astype(float)
    dup = np.repeat(g.normal(size=(50, 4)), 6, axis=0)[g.permutation(300)]
    special = g.normal(size=(60, 2))
    special[[3, 17, 40], 0] = np.nan
    special[[5, 22], 1] = np.inf
    special[[9, 30], 0] = -np.inf
    special[[11, 50]] = np.nan
    yield "integer-grid", grid, grid[7] + 0.0
    yield "integer-grid-off-grid-test", grid, np.array([0.5, -1.0, 2.0])
    yield "duplicated", dup, dup[0].copy()
    yield "duplicated-elsewhere", dup, g.normal(size=4)
    yield "distinct", g.normal(size=(500, 3)), g.normal(size=3)
    yield "nan-and-inf", special, np.zeros(2)
    yield "nan-only", np.where(np.arange(80)[:, None] % 9 == 0, np.nan, g.normal(size=(80, 2))), np.ones(2)
    yield "inf-test-point", special, np.array([np.inf, 0.0])


class TestSortOrder:
    """``order`` is the stable argsort of the distances, also when the
    default sort is taken: ties and NaNs must not change the permutation."""

    @pytest.mark.parametrize("distance", ["euclidean", "manhattan"])
    @pytest.mark.parametrize("case", list(sort_cases()), ids=lambda c: c[0])
    def test_order_is_the_stable_argsort(self, case, distance):
        _, points, test_point = case
        labels = np.arange(points.shape[0]) % 3
        inst = KnnInstance(points, labels, test_point, 0, 2, distance)
        expected = stable_order(points, test_point, distance)
        assert np.array_equal(inst.order, expected)
        assert np.array_equal(inst.matches, (labels[expected] == 0).astype(float))

    @settings(max_examples=60, deadline=None)
    @given(
        cells=st.lists(st.integers(-2, 2), min_size=8, max_size=80),
        distance=st.sampled_from(["euclidean", "manhattan"]),
    )
    def test_order_on_small_integer_grids(self, cells, distance):
        points = np.array(cells[: len(cells) // 2 * 2], dtype=float).reshape(-1, 2)
        test_point = points[-1] + 0.5 * (len(cells) % 2)
        inst = KnnInstance(points, np.zeros(points.shape[0]), test_point, 0, 1, distance)
        assert np.array_equal(inst.order, stable_order(points, test_point, distance))


# N at the edges of the sort keys' index bits, ceil(log2 N): 2^b and 2^b + 1
EDGE_SIZES = [2, 3, 4, 5, 8, 9, 64, 65, 1024, 1025]


@st.composite
def distance_arrays(draw):
    """Distances of +0.0 or more, +inf and NaNs of either sign, with exact
    ties and near-ties a few ulps apart, which share all but the keys'
    index bits."""
    n = draw(st.sampled_from(EDGE_SIZES) | st.integers(2, 300))
    bases = np.array(draw(st.lists(st.floats(0.0, 1e300), min_size=1, max_size=4)))
    ulps = draw(st.sampled_from([0, 1, 3, n, 4 * n]))
    specials = draw(st.lists(st.sampled_from([np.inf, np.nan, -np.nan]), max_size=3))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = bases.view(np.uint64)[g.integers(0, len(bases), n)]
    dist = (bits + g.integers(0, ulps + 1, n).astype(np.uint64)).view(np.float64)
    dist[g.integers(0, n, len(specials))] = specials
    return dist


def assert_stable_argsort(dist):
    kept = dist.copy()
    order = knn_module._stable_order(dist)
    expected = np.argsort(kept, kind="stable")
    assert order.dtype == expected.dtype and order.tobytes() == expected.tobytes()
    assert dist.tobytes() == kept.tobytes()


class TestPackedKeyOrder:
    """The one-sort order is the stable argsort, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(dist=distance_arrays())
    def test_equals_the_stable_argsort(self, dist):
        assert_stable_argsort(dist)

    @pytest.mark.parametrize("n", EDGE_SIZES)
    def test_index_bit_edges(self, n):
        assert_stable_argsort(np.full(n, 2.5))
        assert_stable_argsort(np.zeros(n))
        # descending near-ties: every pair differs only in the index bits
        near = np.float64(1.0).view(np.uint64) + np.arange(n, 0, -1, dtype=np.uint64)
        assert_stable_argsort(near.view(np.float64))
        assert_stable_argsort(np.nextafter(np.full(n, 7.0), np.where(np.arange(n) % 2, np.inf, 0.0)))
        assert_stable_argsort(np.where(np.arange(n) % 2, np.inf, 1.0))
        assert_stable_argsort(np.where(np.arange(n) % 3, -np.nan, np.nan))


def permuted_rows(rng, n, d):
    """Rows that each permute one draw of d coordinates: their distances to
    the origin are equal up to the rounding of the sum."""
    return rng.normal(size=d)[np.array([rng.permutation(d) for _ in range(n)])]


def layouts(points):
    """C-ordered, Fortran-ordered and strided copies of ``points``."""
    big = np.zeros((2 * points.shape[0], points.shape[1]))
    big[::2] = points
    return [np.ascontiguousarray(points), np.asfortranarray(points), big[::2]]


class TestDistanceDefinition:
    """A distance is the feature-order sum, whatever the points' layout."""

    @pytest.mark.parametrize("distance", ["euclidean", "manhattan"])
    def test_layouts_give_identical_bytes(self, rng, distance):
        points = permuted_rows(rng, 60, 9)
        labels = rng.integers(0, 3, 60)
        tests = np.vstack([np.zeros((2, 9)), rng.normal(size=(3, 9))])
        test_labels = rng.integers(0, 3, 5)
        masks = rng.integers(0, 1 << 60, 300)
        results = []
        for copy in layouts(points):
            build = lambda: [KnnInstance(copy, labels, t, lab, 4, distance) for t, lab in zip(tests, test_labels)]
            insts = build()
            results.append(b"".join([
                *(inst.order.tobytes() for inst in insts),
                *(knn_shapley_exact(inst).values.tobytes() for inst in insts),
                knn_shapley_testset(build()).values.tobytes(),
                knn_game(build()).values_of_masks(masks).tobytes(),
            ]))
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("distance", ["euclidean", "manhattan"])
    def test_order_is_the_stable_argsort_of_the_feature_order_sum(self, rng, distance):
        special = rng.normal(size=(50, 3))
        special[[4, 20], 1] = np.nan
        special[[7, 33], 2] = np.inf
        cases = [
            (permuted_rows(rng, 200, 9), np.zeros(9)),
            (permuted_rows(rng, 100, 4), rng.normal(size=4)),
            (rng.integers(-2, 3, size=(300, 3)).astype(float), np.zeros(3)),
            (special, np.zeros(3)),
            (np.zeros((5, 0)), np.zeros(0)),
        ]
        for points, test_point in cases:
            expected = np.argsort(feature_order_distances(points, test_point, distance), kind="stable")
            for copy in layouts(points):
                inst = KnnInstance(copy, np.zeros(len(copy)), test_point, 0, 1, distance)
                assert inst.order.tobytes() == expected.tobytes()

    def test_knn_game_sorts_from_one_column_copy(self, rng, monkeypatch):
        copies = []

        class Counted(knn_module._Sweep):
            def __init__(self, points):
                copies.append(points)
                super().__init__(points)

        monkeypatch.setattr(knn_module, "_Sweep", Counted)
        points, labels = rng.normal(size=(30, 3)), rng.integers(0, 2, 30)
        shared = [KnnInstance(points, labels, t, 1, 3) for t in rng.normal(size=(6, 3))]
        equal = [KnnInstance(points.copy(), labels, t, 1, 3) for t in rng.normal(size=(6, 3))]
        game = knn_game(shared + equal)
        assert len(copies) == 1
        game.values_of_masks(np.arange(64, dtype=np.int64))
        knn_shapley_testset(shared + equal)
        assert len(copies) == 2
        for inst in shared + equal:
            fresh = KnnInstance(inst.points, labels, inst.test_point, 1, 3)
            assert inst.order.tobytes() == fresh.order.tobytes()


def grid_instances(rng, n, k, distance, n_test):
    """Instances on a small integer grid, where many distances tie."""
    points = rng.integers(0, 3, size=(n, 2)).astype(float)
    labels = rng.integers(0, 2, size=n)
    tests = rng.integers(0, 3, size=(n_test, 2)).astype(float)
    return [KnnInstance(points, labels, t, 1, k, distance) for t in tests]


def random_masks(rng, n, count):
    """``count`` uniform masks plus every coalition of at most two players."""
    small = [0] + [1 << i for i in range(n)]
    small += [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]
    drawn = rng.integers(0, 1 << n, size=count, dtype=np.int64)
    return np.concatenate([drawn, np.array(small, dtype=np.int64)])


class TestVectorizedUtility:
    """The cumsum rule against the loop over one coalition at a time."""

    @pytest.mark.parametrize(  # N = 16 training points, so K = 15 is N - 1
        "k, distance, n_test",
        [
            (1, "euclidean", 1),
            (3, "manhattan", 1),
            (15, "euclidean", 1),
            (5, "euclidean", 4),
            (15, "manhattan", 3),
        ],
    )
    def test_batch_matches_reference_loop_bytewise(self, rng, k, distance, n_test):
        n = 16
        instances = grid_instances(rng, n, k, distance, n_test)
        diff = instances[0].points - instances[0].test_point
        dist = np.abs(diff).sum(axis=1) if distance == "manhattan" else (diff * diff).sum(axis=1)
        assert np.unique(dist).size < n  # the data carries tied distances
        masks = random_masks(rng, n, 5000)
        vectorized = knn_game(instances).values_of_masks(masks)
        reference = knn_loop_game(instances).values_of_masks(masks)
        assert vectorized.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_permutation_estimate_matches_reference_loop_bytewise(self, rng, seed):
        instances = grid_instances(rng, 12, 3, "euclidean", 3)
        budget = PermutationBudget(300)
        fast = estimate_permutation(knn_game(instances), budget, seed)
        slow = estimate_permutation(knn_loop_game(instances), budget, seed)
        assert fast.values.tobytes() == slow.values.tobytes()
        assert fast.eval_count == slow.eval_count

    def test_permutation_estimate_identical_across_threads(self, rng):
        game = knn_game(grid_instances(rng, 20, 4, "euclidean", 5))
        budget = PermutationBudget(600)  # three chunks of orderings
        one = estimate_permutation(game, budget, 7, threads=1)
        two = estimate_permutation(game, budget, 7, threads=2)
        assert one.values.tobytes() == two.values.tobytes()

    def test_oracle_at_18_players_matches_closed_form(self, rng):
        inst = random_instance(rng, 18, 3)
        game = knn_game(inst)
        oracle = exact_shapley_subsets(game).values
        assert np.max(np.abs(oracle - knn_shapley_exact(inst).values)) <= 1e-12

    def test_full_table_batch_memory_stays_below_one_float_block(self, rng):
        n = 18
        game = knn_game(random_instance(rng, n, 3))
        masks = np.arange(1 << n, dtype=np.int64)
        tracemalloc.start()
        try:
            game.values_of_masks(masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (2^N, N) float64 temporary alone would take this much
        assert peak < masks.size * n * 8


def prefix_case(n, k, n_test, labels):
    """Instances on rounded Gaussian features (tie-heavy) with one NaN training row."""
    g = np.random.default_rng([n, k, n_test])
    points = np.round(g.normal(size=(n, 2)))
    points[g.integers(n)] = np.nan
    tests = np.round(g.normal(size=(n_test, 2)))
    y, yt = g.integers(0, 3, n), g.integers(0, 3, n_test)
    if labels == "str":
        names = np.array(["a", "b", "c"])
        y, yt = names[y], names[yt]
    return [KnnInstance(points, y, t, label, k) for t, label in zip(tests, yt)]


PREFIX_N_K = [(n, k) for n in (2, 3, 16, 40, 63) for k in sorted({1, 2, n // 2, n - 1}) if k < n]


def brute_prefix_hits(perms, orders, gains, k):
    """Hit counts and exit times of every prefix, by counting.

    ``perms`` (R, N) are orderings, ``orders`` (N, B) each test point's
    training points by distance and ``gains`` (B, N) the label matches by
    player.  Returns hits (N, B, R): the matching points among the K
    nearest of positions 0..t, and exits (N, B, R): the first position at
    which test point b's j-th nearest point has arrived but is not among
    the K nearest, N if there is none.
    """
    n = perms.shape[1]
    position = np.argsort(perms, axis=1)  # position[r, i]: when player i arrives
    arrive = position.T[orders]  # (N, B, R) by distance rank
    times = np.arange(n)[:, None, None, None]
    present = arrive[None] <= times  # (time, rank, B, R)
    counted = present & (np.cumsum(present, axis=1) <= k)
    match = np.take_along_axis(gains.T, orders, axis=0).astype(bool)  # (N, B) by rank
    hits = np.count_nonzero(counted & match[None, :, :, None], axis=1)
    pushed = present & ~counted
    exits = np.where(pushed.any(axis=0), pushed.argmax(axis=0), n)
    return hits, exits


PREFIX_HIT_N_K = [
    (n, k) for n in (2, 3, 40, 254, 255, 256, 300) for k in sorted({1, 2, n // 2, n - 1}) if k < n
]


class TestPrefixHits:
    """``_prefix_hits`` against counting, beyond 63 players and across the uint8 arrival type."""

    @staticmethod
    def check(n, k, p_match, n_test=3, rows=4):
        g = np.random.default_rng([n, k])
        perms = np.argsort(g.random((rows, n)), axis=1)
        orders = np.argsort(g.random((n, n_test)), axis=0)
        gains = (g.random((n_test, n)) < p_match).astype(np.int8)
        # the inputs as knn_game's prefix form builds them
        positions = np.arange(n, dtype=np.min_scalar_type(n))[:, None]
        arrival = np.empty((n, rows), dtype=positions.dtype)
        np.put_along_axis(arrival, perms.T, positions, axis=0)
        miss = np.take_along_axis(gains.T, orders, axis=0) == 0
        hits = knn_module._prefix_hits(perms, arrival[orders], miss, gains, k)
        expected, exits = brute_prefix_hits(perms, orders, gains, k)
        assert hits.shape == (n, n_test, rows)
        assert hits.dtype == np.min_scalar_type(-k - 1)
        assert np.array_equal(hits, expected)
        return exits

    @pytest.mark.parametrize("n, k", PREFIX_HIT_N_K)
    def test_counts_match_brute_force(self, n, k):
        exits = self.check(n, k, 0.6)
        # the exits are written by assignment: in each cell those before N are distinct
        for b in range(exits.shape[1]):
            for r in range(exits.shape[2]):
                early = exits[:, b, r][exits[:, b, r] < n]
                assert np.unique(early).size == early.size

    @pytest.mark.parametrize("k", [127, 128])
    def test_counts_reach_k_when_every_point_matches(self, k):
        # hit counts reach +K, past int8 at K = 128
        self.check(256, k, 1.0)

    @pytest.mark.parametrize(
        "n, k, n_test, rows", [(40, 5, 1, 1), (300, 150, 1, 1), (3, 1, 20, 50), (3, 2, 20, 50), (40, 5, 20, 50)]
    )
    def test_block_shapes_match_brute_force(self, n, k, n_test, rows):
        # one cell, and cells (test points x orderings) far above N
        self.check(n, k, 0.6, n_test, rows)


class TestPrefixForm:
    """Prefix utilities of orderings against the mask form on the same prefixes."""

    @pytest.mark.parametrize("labels", ["int", "str"])
    @pytest.mark.parametrize("n_test", [1, 3, 20])
    @pytest.mark.parametrize("n, k", PREFIX_N_K)
    def test_orderings_match_prefix_masks_bytewise(self, n, k, n_test, labels, monkeypatch):
        monkeypatch.delenv("SHAPVAL_THREADS", raising=False)
        game = knn_game(prefix_case(n, k, n_test, labels))
        assert game._prefix_utility is not None
        checked = []

        def chunk(i, lo, hi):
            perms = sample_orderings(9, "perm", i, hi - lo, n)
            masks = np.cumsum(1 << perms, axis=1)
            expected = game.values_of_masks(masks.ravel()).reshape(masks.shape)
            got = game._values_of_orderings(perms)
            assert got.flags.c_contiguous
            assert got.tobytes() == expected.tobytes()
            checked.append(i)
            return np.zeros(1)

        for threads in (1, 2):
            checked.clear()
            ordered_chunk_map(chunk, range(0, 70, 25), threads)
            assert sorted(checked) == [0, 1, 2]


    def test_two_test_point_blocks_match_masks_bytewise(self):
        # 40 players and 256 orderings give blocks of 12 test points: 12 then 8
        game = knn_game(prefix_case(40, 5, 20, "int"))
        assert knn_module._BLOCK_CELLS // (40 * 256) == 12
        perms = sample_orderings(9, "perm", 0, 256, 40)
        masks = np.cumsum(1 << perms, axis=1)
        expected = game.values_of_masks(masks.ravel()).reshape(masks.shape)
        assert game._values_of_orderings(perms).tobytes() == expected.tobytes()

    def test_empty_chunk(self):
        game = knn_game(prefix_case(40, 5, 3, "int"))
        phi = marginal_chunk(game, 9, "perm", 0, 0)
        assert phi.shape == (0, 40)
        assert game.eval_count == 0


class TestTestset:
    def test_single_instance_matches_exact(self, rng):
        inst = random_instance(rng, 6, 2)
        assert_allclose(
            knn_shapley_testset([inst]).values, knn_shapley_exact(inst).values
        )

    def test_duplicate_test_point_leaves_mean_unchanged(self, rng):
        inst = random_instance(rng, 6, 2)
        once = knn_shapley_testset([inst]).values
        thrice = knn_shapley_testset([inst, inst, inst]).values
        assert_allclose(once, thrice, atol=1e-15)

    def test_two_point_mean_equals_averaged_game_values(self, rng):
        points = rng.uniform(size=(6, 2))
        labels = rng.integers(0, 2, size=6)
        a = KnnInstance(points, labels, rng.uniform(size=2), 1, 2)
        b = KnnInstance(points, labels, rng.uniform(size=2), 0, 2)
        mean_values = knn_shapley_testset([a, b]).values
        oracle = exact_shapley_subsets(knn_game([a, b])).values
        assert_allclose(mean_values, oracle, atol=1e-12)

    def test_mismatched_training_sets_rejected(self, rng):
        a = random_instance(rng, 5, 1)
        b = random_instance(rng, 5, 1)
        with pytest.raises(ValueError):
            knn_shapley_testset([a, b])

    @pytest.mark.parametrize("build", [knn_shapley_testset, knn_game])
    def test_same_shape_different_content_rejected(self, rng, build):
        points = rng.normal(size=(6, 2))
        labels = rng.integers(0, 2, size=6)
        first = KnnInstance(points, labels, rng.normal(size=2), 1, 2)
        moved = points.copy()
        moved[4, 1] += 1e-12
        relabelled = labels.copy()
        relabelled[0] = 1 - relabelled[0]
        with pytest.raises(ValueError, match="training points"):
            build([first, KnnInstance(moved, labels, rng.normal(size=2), 1, 2)])
        with pytest.raises(ValueError, match="training labels"):
            build([first, KnnInstance(points, relabelled, rng.normal(size=2), 1, 2)])
        with pytest.raises(ValueError, match="neighborhood size"):
            build([first, KnnInstance(points, labels, rng.normal(size=2), 1, 3)])

    @pytest.mark.parametrize("nan", [False, True])
    def test_equal_content_copies_accepted(self, rng, nan):
        points = rng.normal(size=(6, 2))
        if nan:
            points[2, 0] = np.nan
        labels = np.array(["a", "b", "a", "a", "b", "b"], dtype=object)
        tests = rng.normal(size=(3, 2))
        shared = [KnnInstance(points, labels, t, "a", 2) for t in tests]
        copies = [KnnInstance(points.copy(), labels.copy(), t, "a", 2) for t in tests]
        assert shared[1].points is shared[0].points and copies[1].points is not copies[0].points
        assert np.array_equal(
            knn_shapley_testset(copies).values, knn_shapley_testset(shared).values
        )
        masks = np.arange(1 << 6, dtype=np.int64)
        assert np.array_equal(
            knn_game(copies).values_of_masks(masks), knn_game(shared).values_of_masks(masks)
        )


def in_order_mean(instances):
    total = np.zeros(instances[0].n_players)
    for inst in instances:
        total += knn_shapley_exact(inst).values
    return total / len(instances)


def stream_cases():
    g = np.random.default_rng(91)
    grid = g.integers(0, 3, size=(60, 2)).astype(float)
    yield "tie-heavy", grid, g.integers(0, 2, 60), g.integers(0, 3, (25, 2)).astype(float), g.integers(0, 2, 25)
    nan_points = g.normal(size=(50, 3))
    nan_points[[2, 9, 30], 1] = np.nan
    nan_tests = g.normal(size=(12, 3))
    nan_tests[4, 0] = np.nan
    yield "nan-features", nan_points, g.integers(0, 3, 50), nan_tests, g.integers(0, 3, 12)
    mixed = np.array([1, "1", None, 1.0] * 10, dtype=object)
    yield "mixed-labels", np.round(g.normal(size=(40, 2))), mixed, g.normal(size=(8, 2)), [1, "1", None, 1.0, True, "x", 1, None]
    # np.array("b") is unhashable, so its row is compared anew
    yield "absent-label", g.normal(size=(30, 2)), np.array(["a", "b"] * 15), g.normal(size=(6, 2)), ["a", "z", np.array("b"), "z", "q", "a"]
    # more distinct test labels than knn._LABEL_ROWS keeps
    many = np.arange(100) % 90
    yield "many-labels", g.normal(size=(100, 2)), many, g.normal(size=(200, 2)), np.arange(200) % 90


class TestStreamedTestset:
    """``knn_shapley_testset`` streams the test points without instance caches."""

    @pytest.mark.parametrize("distance", ["euclidean", "manhattan"])
    @pytest.mark.parametrize("k", [1, 3, 7])
    @pytest.mark.parametrize("case", list(stream_cases()), ids=lambda c: c[0])
    def test_equals_in_order_mean_of_exact_bytewise(self, case, k, distance):
        _, points, labels, tests, test_labels = case
        instances = [KnnInstance(points, labels, t, lab, k, distance) for t, lab in zip(tests, test_labels)]
        streamed = knn_shapley_testset(instances).values
        for inst in instances:
            assert "order" not in vars(inst) and "matches" not in vars(inst)
        assert streamed.tobytes() == in_order_mean(instances).tobytes()

    def test_mixed_metrics_and_copied_training_sets(self, rng):
        # rows permute one set of coordinates, so distances from the origin
        # differ only by rounding, which must not depend on each copy's layout
        rows = np.array([rng.permutation(9) for _ in range(40)])
        points = np.asfortranarray(rng.normal(size=9)[rows])
        labels = rng.integers(0, 2, 40)
        copies = [points, points.copy(), np.ascontiguousarray(points)] * 2
        metrics = ["euclidean", "manhattan"] * 3
        instances = [
            KnnInstance(p, labels, np.zeros(9), i % 2, 4, metric)
            for i, (p, metric) in enumerate(zip(copies, metrics))
        ]
        streamed = knn_shapley_testset(instances).values
        assert streamed.tobytes() == in_order_mean(instances).tobytes()

    def test_construction_validates_without_sorting(self, monkeypatch):
        def no_sort(*args):
            raise AssertionError("sorted on construction")

        monkeypatch.setattr(knn_module, "_distance_order", no_sort)
        x, y = np.zeros((6, 3)), np.array(list("aabbab"))
        good = dict(points=x, labels=y, test_point=np.zeros(3), test_label="a", k_neighbors=2)
        inst = KnnInstance(**good)
        for bad in (
            dict(k_neighbors=0),
            dict(k_neighbors=6),
            dict(distance="cosine"),
            dict(test_point=np.array([0.5])),
            dict(test_point=np.zeros((6, 3))),
            dict(test_point=np.float64(0.5)),
            dict(labels=y[:5]),
        ):
            with pytest.raises(ValueError):
                KnnInstance(**{**good, **bad})
        with pytest.raises(AssertionError, match="sorted on construction"):
            inst.order

    def test_peak_memory_does_not_grow_with_test_points(self):
        g = np.random.default_rng(5)
        n = 2000
        points, labels = g.normal(size=(n, 3)), g.integers(0, 3, n).astype(str)
        peaks, call_peaks = [], []
        for t in (10, 200):
            tests = g.normal(size=(t, 3))
            tracemalloc.start()
            try:
                instances = [KnnInstance(points, labels, p, labels[i], 5) for i, p in enumerate(tests)]
                built = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                knn_shapley_testset(instances)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            peaks.append(peak)
            call_peaks.append(peak - built)
        # the call's own peak is one test point's, not the test set's
        assert call_peaks[1] < call_peaks[0] + n * 8
        # instances cost a few hundred bytes each; one kept (N,) order or
        # matches per test point would add 8 N bytes each
        assert peaks[1] - peaks[0] < 190 * n


class TestPascalIdentity:
    def test_hand_values(self):
        assert pascal_identity_lhs(5, 1, 1) == pytest.approx(3.0, abs=1e-12)
        assert pascal_identity_lhs(0, 1, 1) == pytest.approx(1.5, abs=1e-12)

    def test_m_zero_counts_terms(self):
        for n in (0, 1, 4, 9):
            assert pascal_identity_lhs(n, n, 0) == pytest.approx(n + 1, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.integers(min_value=0, max_value=12),
        n=st.integers(min_value=0, max_value=10),
        m=st.integers(min_value=0, max_value=10),
    )
    def test_closed_form(self, a, n, m):
        closed = (min(a, n) + 1) * (m + n + 1) / (n + 1)
        assert pascal_identity_lhs(a, n, m) == pytest.approx(closed, rel=1e-9)
