"""Outputs pinned by SHA-256 digest at fixed seeds.

Permutation sampling (also on a tie-heavy KNN game, a 16-player random
table and 1- and 2-player games), compressive sampling (also on a KNN
game), group testing (both recovery routes and the test potentials;
the drawn tests and potentials also at N = 2, 3, 17 and 40, and the
potentials and both routes on a 63-player symmetric game and a
16-player random table, which have no member form), the
budgets both group-testing routes size, the baseline player's direct
estimate, the utilities decoded from masks by
``games._membership`` (also across several row blocks), a full utility
table and the values CSV of ``shapval knn`` (also on distances that
differ only by rounding) are pinned, so a
change to the shared sampling, mask, sort, loading or writing code that
moves any of them, even in the last bit, fails here.  Recorded with
numpy 2.4 and OpenBLAS 0.3.31 on x86-64; a different BLAS may round the
additive and voting games' weight sums differently (KNN hit counts are
exact integers and use no BLAS).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shapval
from shapval import (
    PermutationBudget,
    estimate_compressive,
    estimate_group_testing,
    estimate_permutation,
    make_additive_game,
    make_random_game,
    make_symmetric_game,
    make_voting_game,
)
from shapval.cli import EXIT_OK, main
from shapval.group_testing import (
    _TEST_CHUNK,
    GroupTestPlan,
    _baseline_player_value,
    _draw_tests,
    optimize_split_constants,
    required_tests,
    run_tests,
)

from conftest import chunks, drawn_tests
from shapval.knn import KnnInstance, knn_game


def digest(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def games():
    g = np.random.default_rng(2019)
    additive = make_additive_game(g.uniform(0.0, 1.0, 63))
    points, labels = g.normal(size=(40, 3)), g.integers(0, 2, 40)
    tests, test_labels = g.normal(size=(3, 3)), g.integers(0, 2, 3)
    knn = knn_game([KnnInstance(points, labels, tests[i], test_labels[i], 3) for i in range(3)])
    voting = make_voting_game(g.integers(1, 5, 40).astype(float), 30.0)
    masks = g.integers(0, 1 << 40, 2000)
    return additive, knn, voting, masks


def test_permutation_sampling(games):
    additive, knn, _, _ = games
    assert digest(estimate_permutation(additive, PermutationBudget(600), seed=3).values) == (
        "7b5b02af63a96ec65c40cc914d4aa1d415f8cadf4e9a74147ce14e311550a443"
    )
    assert digest(estimate_permutation(knn, PermutationBudget(300), seed=4).values) == (
        "2c0c8ce92f545711e7c69d5fd8be558c9b321b2728cc0a85c56f41fbea2eb4ad"
    )


# Re-pinned when the measurements became the projection of the permutation
# estimate of the same orderings, summed without BLAS, instead of the mean of
# per-ordering projections: y_bar moved by at most 9.2e-15 on these games.
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_compressive_sampling(games, threads):
    additive = games[0]
    assert digest(estimate_compressive(additive, 20, 600, 0.05, seed=5, threads=threads).values) == (
        "f3958ad80f3136dd7c4120687951da20974de696f9000a933a3a2555cfddfb70"
    )


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_compressive_sampling_knn(games, threads):
    knn = games[1]
    assert digest(estimate_compressive(knn, 20, 600, 0.05, seed=5, threads=threads).values) == (
        "23ea7d147f15947124358079065cf6167be3301ef4e18249c074743a62ee6e2a"
    )


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_permutation_sampling_knn_ties(threads):
    # integer grid: tied distances everywhere; K = 1 and three chunks of orderings
    g = np.random.default_rng(1111)
    x, y = g.integers(-1, 2, size=(30, 2)), g.integers(0, 3, 30)
    xt, yt = g.integers(-1, 2, size=(6, 2)), g.integers(0, 3, 6)
    ties = knn_game([KnnInstance(x, y, xt[i], yt[i], 1) for i in range(6)])
    vv = estimate_permutation(ties, PermutationBudget(700), seed=8, threads=threads)
    assert digest(vv.values) == "4da2980499c622f8c9ce565b28e8be939d0662fca96c1b3e06e511101215a4ac"


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_permutation_sampling_small_games(threads):
    # 600 orderings: two full chunks and a partial one
    table = make_random_game(16, 12)
    vv = estimate_permutation(table, PermutationBudget(600), seed=13, threads=threads)
    assert digest(vv.values) == "a03bb75df904a845d372bf5ad7dda5f42ddbd6f96083024f72dedf4abbbc6ab6"
    # one player: numpy sums a (T, 1) block pairwise, so 8 orderings of 0.1 total 0.8
    one = make_additive_game([0.1])
    vals = [estimate_permutation(one, PermutationBudget(t), seed=14, threads=threads).values for t in (8, 300)]
    assert digest(np.concatenate(vals)) == (
        "27f38bc9041d87370c09400bb227fc5a3737c3c7302176b5418f03923629c36d"
    )
    two = make_additive_game([0.1, 0.7])
    vv = estimate_permutation(two, PermutationBudget(777), seed=15, threads=threads)
    assert digest(vv.values) == "1fed8407566bd0cdef322648a8cdcff0b18d66cea77afdf6838022e7ea23ef58"


def test_baseline_player_estimate(games):
    additive = games[0]
    assert digest([_baseline_player_value(additive, 700, 6, 1)[0]]) == (
        "a462d14eb0210b77c1f81390dc8e66a27aa74c108787390c2220981d080ac5a1"
    )


def test_decoded_utilities(games):
    _, knn, voting, masks = games
    assert digest(knn.values_of_masks(masks)) == (
        "6ca9340844841a7f1538e70445ff9dba1688c25adc8fe912dd2fb2f39c1dee39"
    )
    assert digest(voting.values_of_masks(masks)) == (
        "7b52bbb4b46694d4f40b71e4c89e00e44e49e04a738ff90b6d6043e7fc4e414c"
    )


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_group_testing(games, threads):
    # 10 001 tests: two full 4096-test chunks and a partial one
    additive, plan = games[0], GroupTestPlan(63)
    potentials = run_tests(additive, 10_001, 21)
    _, utils = drawn_tests(additive, plan, 10_001, 21)
    assert digest(np.concatenate([utils, potentials])) == (
        "8ecd7a73df8ec9b7ec6fc16fbe40aef8ebc87cd70cd7096af75a2a49c5133a23"
    )
    vals = [
        estimate_group_testing(additive, 5.0, 0.1, 22, recovery, t_tests=10_001, threads=threads).values
        for recovery in ("feasibility", "baseline")
    ]
    assert digest(np.concatenate(vals)) == (
        "bd4dc812bce496387b54be3c89f2af446f4419b9a5c2a7c70ef36e815e27afd0"
    )


@pytest.mark.parametrize(
    "game, potentials_sha, routes_sha",
    [
        (
            lambda: make_symmetric_game(63),
            "ab7817499c38ea0ec81f0b813f99661689880de1e9bd73d550adfbab8a4e5de7",
            "9c752f1f1fd36d9b56bee1a50e9ce538430a09ca9cf1b84233bfbed81863358e",
        ),
        (
            lambda: make_random_game(16, 30),
            "bdc5d0f0f0af0ffc7de8c6be04e71242e49a39168d42498092120b948d52e311",
            "52757015943b3d7f153a7b5ab6e636441ebd2ac3d3680ec3f434ff917eb81437",
        ),
    ],
    ids=["symmetric63", "random16"],
)
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_group_testing_mask_form_games(game, potentials_sha, routes_sha, threads):
    # games without a member form: the pooled tests are packed to masks
    game = game()
    assert digest(run_tests(game, 10_001, 31)) == potentials_sha
    vals = [
        estimate_group_testing(game, 5.0, 0.1, 32, recovery, t_tests=10_001, threads=threads).values
        for recovery in ("feasibility", "baseline")
    ]
    assert digest(np.concatenate(vals)) == routes_sha


@pytest.mark.parametrize(
    "n, drawn_sha, potentials_sha",
    [
        (
            2,
            "b43a589682a523dcd591fe979c9220ffc310c3e3695740ad8aa9f6295c88abb1",
            "dfb3356ecb2ea9e664071593e5724aca145e4a339c1a4269c282ba8082575530",
        ),
        (
            3,
            "f2eb91ff4f87867fd651cd1e5c966f877ebd216d3c15bebd8e48b7d432137b0e",
            "f06b46082f4d28157ad528eec5fd2a5ece864294aeca8c9691b778a9c0b7e890",
        ),
        (
            17,
            "b3c414ec4fea1d3276de3d0c4587e6de3bc236c5c09c88f9d0e7fd3a162dfb02",
            "fe5cb864a9f26649c589df96d801a7027982868b4daf86ec7bdf57ac34a5ab35",
        ),
        (
            40,
            "c19f1c5747a0850465b1cef2eab15e69f8eb5b21657bb4633e2567dd7d00a7da",
            "42c0787bf3eb54c56d96e51f974347021751f60cc8a50a930a59390d742cbc2d",
        ),
    ],
)
def test_group_testing_below_63_players(n, drawn_sha, potentials_sha):
    # 5 000 tests: one full chunk and a partial one; the test-size draw
    # depends on N, so the membership bytes are pinned at several N
    game = make_additive_game(np.random.default_rng(2500 + n).uniform(0.0, 1.0, n))
    plan = GroupTestPlan(n)
    member = np.concatenate([_draw_tests(plan, 25, i, hi - lo) for i, lo, hi in chunks(5_000, _TEST_CHUNK)])
    assert hashlib.sha256(member.tobytes()).hexdigest() == drawn_sha
    assert digest(run_tests(game, 5_000, 25)) == potentials_sha


def test_group_test_sizing():
    # every budget both routes size, over N = 2..63, 100 and 1000; at
    # delta <= 0.5 each baseline split has m1 >= 1 at every grid point
    rows = []
    for n in [*range(2, 64), 100, 1000]:
        for eps in (0.01, 0.03, 0.1, 0.3, 1.0, 3.0):
            for delta in (0.01, 0.1, 0.5):
                for r in (0.5, 1.0, 4.0):
                    split = optimize_split_constants(n, eps, delta, r)
                    t = required_tests(n, eps, delta, r)
                    rows.append((t, split.c_eps, split.c_delta, split.m1, split.m2))
    assert rows[0] == (1477124, 2.0 ** 0.9, 2.0 ** 0.7, 307333, 290357)  # N = 2
    assert rows[-1] == (22002615, 2.0 ** 0.3, 2.0 ** 0.7, 2457, 473)  # N = 1000
    # budgets below 2^53 are exact in float64
    assert digest(rows) == "e410aeaed5ef77eebe5be78bc85a310ddc43e38c26d8363b08adad1389476798"


def test_decoded_utilities_across_blocks(games):
    # 10 001 masks: more than two 4096-row blocks, and not a multiple of 4 rows
    additive, _, voting, _ = games
    g = np.random.default_rng(23)
    wide = g.integers(1, np.iinfo(np.int64).max, 10_001)
    assert digest(additive.values_of_masks(wide)) == (
        "15d908ca839d25df58ac003af921fe2f490be273c52660577c7a7229c87bf00c"
    )
    # one row past a block: a one-row block, padded to 4 rows, gives the bits of one call
    assert digest(additive.values_of_masks(wide[:4097])) == (
        "5d0cc855de49a1e53da09996f683eb3e4206787a21172f0d94e9cf5bf05c6398"
    )
    assert digest(voting.values_of_masks(g.integers(1, 1 << 40, 10_001))) == (
        "7ca4b903f0f360e44fb97373246b94dda72f88bb45e0792c2cce8661a7580bc1"
    )


def test_utility_table():
    game = make_additive_game(np.random.default_rng(24).uniform(0.0, 1.0, 16))
    table = game.values_of_masks(np.arange(1 << 16, dtype=np.int64))
    # Re-pinned when the weight sums became batch-invariant: the table's
    # 65 535 nonempty masks end in a 4095-row block.  Its last 3 rows were
    # summed outside the BLAS kernel's 4-row groups; they are now padded to
    # one, and the sum of mask 65533 moved in the last bit.
    assert digest(table) == "a3f270b20c3a6d16a573a3bf5f702eefcd0cbf8458dc4d823556b34b4981b58d"


def write_rows(path, x, y):
    # repr of a Python float round-trips exactly
    path.write_text("".join(",".join(map(repr, row)) + f",{lab}\n" for row, lab in zip(x.tolist(), y)))
    return path


def knn_dataset(tmp_path, x, y, xt, yt):
    return write_rows(tmp_path / "train.csv", x, y), write_rows(tmp_path / "test.csv", xt, yt)


def knn_argv(train, test, k, out):
    return ["knn", "--train", str(train), "--test", str(test), "--k", str(k), "--output", str(out)]


def knn_values_csv(train, test, k, out):
    assert main(knn_argv(train, test, k, out)) == EXIT_OK
    return out.read_bytes()


@pytest.mark.parametrize(
    "kind, sha",
    [
        ("continuous", "422c0e3c2932a0cab084e663d88e6cd5e5ca3292b8a51ca62887dd6eb4a8eb0f"),
        ("integer-ties", "ccdb6e230a42d25e9c307b7e1fe13c9830e9fc1e740cb48fbd017e1c0e8fd959"),
        ("near-ties", "4b5eea0c1eb4966464c78a0fc8349e8f6f4e4f41ab2ac86dac3f8a92750a0ee9"),
    ],
)
def test_knn_cli_values_csv(tmp_path, capsys, kind, sha):
    g = np.random.default_rng(1019)
    if kind == "continuous":
        x, xt = g.normal(size=(2000, 8)), g.normal(size=(40, 8))
        k = 5
    elif kind == "integer-ties":
        # few distinct points: duplicated rows and tied distances everywhere
        x, xt = g.integers(-2, 3, size=(600, 3)), g.integers(-2, 3, size=(40, 3))
        k = 7
    else:
        # each row permutes one draw of 9 coordinates, so the distances to the
        # origin differ only by rounding: this pins the feature-order sum
        x = g.normal(size=9)[np.array([g.permutation(9) for _ in range(60)])]
        xt = np.zeros((6, 9))
        k = 4
    y, yt = g.integers(0, 3, x.shape[0]), g.integers(0, 3, xt.shape[0])
    train, test = knn_dataset(tmp_path, x, y, xt, yt)
    raw = knn_values_csv(train, test, k, tmp_path / "values.csv")
    assert hashlib.sha256(raw).hexdigest() == sha


def test_knn_cli_subprocess_writes_the_in_process_bytes(tmp_path, capsys):
    g = np.random.default_rng(7)
    train, test = knn_dataset(
        tmp_path, g.normal(size=(30, 2)), g.integers(0, 2, 30), g.normal(size=(4, 2)), g.integers(0, 2, 4)
    )
    in_process = knn_values_csv(train, test, 3, tmp_path / "main.csv")
    out = tmp_path / "child.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(shapval.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    ))
    result = subprocess.run(
        [sys.executable, "-m", "shapval.cli", *knn_argv(train, test, 3, out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert out.read_bytes() == in_process
