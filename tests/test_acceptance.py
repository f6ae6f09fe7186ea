"""End-to-end acceptance suite.

Each test implements one numbered criterion at its stated tolerance and
prints a PASS/FAIL verdict line (run ``pytest tests/test_acceptance.py
-v -s`` to see them).  Statistical criteria run on pinned seeds so the
suite is deterministic.
"""

import math
import time

import numpy as np

from shapval import (
    GroupTestPlan,
    KnnInstance,
    PermutationBudget,
    additivity_violation,
    bpdn_solve,
    estimate_compressive,
    estimate_group_testing,
    estimate_permutation,
    exact_shapley_permutations,
    exact_shapley_subsets,
    fit_logistic,
    influence_removal_logistic,
    knn_game,
    knn_shapley_exact,
    lambda_stable_gap_bound,
    largest_s_values,
    leave_one_out_marginals,
    make_additive_game,
    make_glove_game,
    make_random_game,
    make_voting_game,
    recover_feasibility,
    required_permutations,
    required_tests,
    stability_value_gap_bound,
    uniform_division,
)
from shapval.cli import ExperimentConfig, run_experiment
from shapval.results import write_record

from conftest import (
    drawn_tests,
    exhaustive_one_sparse,
    one_sparse_recovery_instances,
    pascal_identity_lhs,
)
from test_analytics import lambda_stable_game, separable_logistic_data


def verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_oracle_cross_check():
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(101)
    for trial in range(100):
        n = int(rng.integers(2, 9))
        game = make_random_game(n, seed=int(rng.integers(1 << 30)))
        a = exact_shapley_subsets(game).values
        b = exact_shapley_permutations(game).values
        worst = max(worst, float(np.max(np.abs(a - b))))
    elapsed = time.perf_counter() - start
    verdict(
        "1 oracle cross-check",
        worst <= 1e-9 and elapsed < 10.0,
        f"max deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_knn_recursion_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(3, 11))
        k = int(rng.integers(1, 4))
        if k >= n:
            k = n - 1
        inst = KnnInstance(
            rng.uniform(size=(n, 1)),
            rng.integers(0, 2, size=n),
            rng.uniform(size=1),
            1,
            k,
        )
        recursion = knn_shapley_exact(inst).values
        oracle = exact_shapley_subsets(knn_game(inst)).values
        worst = max(worst, float(np.max(np.abs(recursion - oracle))))
    # hand examples: nearest-correct at K=1, two-correct at K=2
    points = np.arange(1, 4, dtype=float)[:, None]
    one = knn_shapley_exact(KnnInstance(points, np.array([1, 0, 0]), np.zeros(1), 1, 1))
    two = knn_shapley_exact(KnnInstance(points, np.array([1, 1, 0]), np.zeros(1), 1, 2))
    hands = np.max(np.abs(one.values - [1, 0, 0])) <= 1e-12 and np.max(
        np.abs(two.values - [0.5, 0.5, 0.0])
    ) <= 1e-12
    elapsed = time.perf_counter() - start
    verdict(
        "2 knn recursion exactness",
        worst <= 1e-12 and hands and elapsed < 30.0,
        f"max deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_pascal_identity():
    worst = 0.0
    for n in range(21):
        for m in range(21):
            for a in range(n + 3):
                lhs = pascal_identity_lhs(a, n, m)
                rhs = (min(a, n) + 1) * (m + n + 1) / (n + 1)
                worst = max(worst, abs(lhs - rhs) / rhs)
    verdict("3 pascal identity", worst <= 1e-9, f"max relative deviation {worst:.2e}")


def test_criterion_04_permutation_sampling_guarantee():
    start = time.perf_counter()
    game = make_glove_game()
    truth = np.array([2 / 3, 1 / 6, 1 / 6])
    t = required_permutations(1.0, 3, 0.15, 0.1)
    budget = PermutationBudget(t, epsilon=0.15, delta=0.1)
    hits = 0
    for seed in range(100):
        values = estimate_permutation(game, budget, seed=seed).values
        hits += float(np.linalg.norm(values - truth)) <= 0.15
    elapsed = time.perf_counter() - start
    verdict(
        "4 permutation sampling guarantee",
        hits >= 88 and elapsed < 120.0,
        f"{hits}/100 within l2 0.15 at T={t}, {elapsed:.1f}s",
    )


def _pair_statistics(game, t, seed):
    """Per-test statistics Z * u * (beta_i - beta_j) for all ordered pairs i < j."""
    plan = GroupTestPlan(game.n_players)
    masks, utils = drawn_tests(game, plan, t, seed)
    membership = ((masks[:, None] >> np.arange(game.n_players)) & 1).astype(np.float64)
    return plan, membership, utils


def test_criterion_05_group_testing_unbiasedness():
    t = 200_000
    failures = []
    for game, seed in ((make_glove_game(), 7), (make_random_game(6, seed=60), 8)):
        n = game.n_players
        plan, membership, utils = _pair_statistics(game, t, seed)
        exact = exact_shapley_subsets(game).values
        for i in range(n):
            for j in range(i + 1, n):
                stats = plan.z_norm * utils * (membership[:, i] - membership[:, j])
                stderr = stats.std(ddof=1) / math.sqrt(t)
                gap = abs(stats.mean() - (exact[i] - exact[j]))
                if gap > 3.0 * stderr:
                    failures.append((game.name, i, j, gap, stderr))
    verdict(
        "5 group-testing unbiasedness",
        not failures,
        f"all pairs within 3 standard errors over {t} tests" if not failures else str(failures),
    )


def test_criterion_06_group_testing_end_to_end():
    game = make_random_game(6, seed=61)
    truth = exact_shapley_subsets(game).values
    t = required_tests(6, 0.5, 0.1, 1.0)
    hits = 0
    for seed in range(100):
        vv = estimate_group_testing(game, 0.5, 0.1, seed=seed, t_tests=t)
        hits += float(np.linalg.norm(vv.values - truth)) <= 0.5
    # empirical test-size frequencies against the sampling distribution
    plan10 = GroupTestPlan(10)
    masks, _ = drawn_tests(make_random_game(10, seed=62), plan10, 100_000, seed=5)
    sizes = np.bitwise_count(masks)
    counts = np.bincount(sizes, minlength=10)[1:10]
    expected = 100_000 * plan10.q
    bands = 3.0 * np.sqrt(100_000 * plan10.q * (1 - plan10.q))
    freq_ok = bool(np.all(np.abs(counts - expected) <= bands))
    # the zero-contribution probability against its term sum
    # sum_k q(k) P(size-k test treats a pair alike)
    ident_ok = True
    for n in range(2, 1001):
        k = np.arange(1.0, n)
        q = (1.0 / k + 1.0 / (n - k)) / (2.0 * math.fsum((1.0 / k).tolist()))
        term_sum = math.fsum((q * (1.0 + (2.0 * k * (k - n)) / (n * (n - 1)))).tolist())
        ident_ok &= abs(GroupTestPlan(n).q_tot - term_sum) <= 1e-15 * term_sum
    verdict(
        "6 group-testing end-to-end",
        hits >= 85 and freq_ok and ident_ok,
        f"{hits}/100 within l2 0.5 at T={t}; frequencies in 3-sigma bands: {freq_ok}",
    )


def test_criterion_07_budget_formula_values():
    perm_ok = required_permutations(1.0, 10, 0.1, 0.05) == 11983
    # independent recomputation of the test-count formula at n=3, eps=1,
    # delta=0.1, r=1: Z = 3, q_tot = 1/3, 1 - q_tot^2 = 8/9,
    # u = 1/(3 sqrt(3) * 8/9) = sqrt(3)/8 = 0.2165063509...,
    # h(u) = (1+u) ln(1+u) - u = 0.0219083396...,
    # 8 ln(30) / ((8/9) h(u)) = 1397.2202804... -> ceil 1398
    u = math.sqrt(3.0) / 8.0
    h = (1.0 + u) * math.log1p(u) - u
    recomputed = math.ceil(8.0 * math.log(30.0) / ((8.0 / 9.0) * h))
    tests_ok = required_tests(3, 1.0, 0.1, 1.0) == 1398 == recomputed
    verdict(
        "7 budget formula values",
        perm_ok and tests_ok,
        f"permutations 11983, tests {required_tests(3, 1.0, 0.1, 1.0)}",
    )


def test_criterion_08_compressive_recovery():
    hits = 0
    for seed in range(100):
        g = np.random.default_rng(5000 + seed)
        w = np.ones(16)
        i, j = g.choice(16, size=2, replace=False)
        w[i] += 0.5
        w[j] -= 0.5
        game = make_additive_game(w)
        vv = estimate_compressive(
            game, m_rows=12, t_permutations=5000, epsilon=0.02, seed=seed
        )
        hits += float(np.linalg.norm(vv.values - w)) <= 0.05
    solver_ok = True
    for a, planted, target in one_sparse_recovery_instances(50):
        out = bpdn_solve(a, target, epsilon=0.0)
        _, exact_fits = exhaustive_one_sparse(a, target)
        expected = np.zeros(a.shape[1])
        expected[exact_fits[0][0]] = exact_fits[0][1]
        if np.max(np.abs(out - expected)) > 1e-6:
            solver_ok = False
    verdict(
        "8 compressive recovery",
        hits >= 90 and solver_ok,
        f"{hits}/100 within l2 0.05; solver matched the 1-sparse oracle on 50 instances: {solver_ok}",
    )


def test_criterion_09_efficiency_axiom():
    game = make_random_game(7, seed=90)
    total = game.u_total
    checks = {}
    checks["exact-subsets"] = exact_shapley_subsets(game).total
    checks["exact-permutations"] = exact_shapley_permutations(game).total
    inst = KnnInstance(
        np.random.default_rng(91).uniform(size=(8, 2)),
        np.random.default_rng(92).integers(0, 2, size=8),
        np.zeros(2),
        1,
        3,
    )
    knn_total = knn_game(inst).u_total
    knn_sum = knn_shapley_exact(inst).total
    truth = exact_shapley_subsets(game).values
    diffs = truth[:, None] - truth[None, :]
    checks["feasibility-recovery"] = recover_feasibility(diffs, total, 0.1).total
    checks["uniform"] = uniform_division(total, 7).total
    checks["largest-s"] = largest_s_values(leave_one_out_marginals(game), total).total
    ok = all(abs(v - total) <= 1e-9 * max(1.0, abs(total)) for v in checks.values())
    knn_ok = abs(knn_sum - knn_total) <= 1e-9 * max(1.0, knn_total)
    verdict("9 efficiency axiom", ok and knn_ok, f"totals {checks}")


def test_criterion_10a_additivity_violation_on_glove_pair():
    # With a, b the sums of the leave-one-out marginals m_U, m_V, the gap
    # factors as sw - su - sv = (a*V(I) - b*U(I)) / (a + b) * (m_U/a - m_V/b).
    # The glove game has m_U = (1,0,0) and a = U(I) = 1, and every additive
    # game has b = V(I), so no glove/additive pair can violate additivity.
    # The 3-player unanimity game has m_V = (1,1,1), so b = 3 while V(I) = 1:
    # the first factor is -1/2, the second (2/3,-1/3,-1/3), the gap 1/3.
    report = additivity_violation(make_glove_game(), make_voting_game((1.0, 1.0, 1.0), 3.0))
    verdict(
        "10a additivity violation (glove vs unanimity)",
        report.violation > 0.01
        and not report.condition_holds
        and abs(report.violation - 1.0 / 3.0) <= 1e-12,
        f"violation {report.violation:.3e}, condition holds: {report.condition_holds}",
    )


def test_criterion_10b_additivity_preserved_under_scaling():
    from test_analytics import scaled_game

    glove = make_glove_game()
    report = additivity_violation(glove, scaled_game(make_glove_game(), 3.0))
    verdict(
        "10b additivity under scaling",
        report.violation <= 1e-12 and report.condition_holds,
        f"violation {report.violation:.3e}",
    )


def test_criterion_10c_diagnostic_detects_genuine_violations():
    from shapval import Game

    quad = Game(
        3,
        lambda m: (np.bitwise_count(np.asarray(m, dtype=np.uint64)) ** 2) / 9.0,
        range_r=1.0,
    )
    report = additivity_violation(quad, make_additive_game((1.0, 2.0, 3.0)))
    verdict(
        "10c diagnostic detects violations",
        report.violation > 0.01 and not report.condition_holds,
        f"violation {report.violation:.3e}",
    )


def test_criterion_11_stability_bounds():
    spread_ok = True
    for n, seed in ((4, 0), (6, 1), (8, 2)):
        game, lam, _ = lambda_stable_game(n, seed)
        values = exact_shapley_subsets(game).values
        spread = float(values.max() - values.min())
        if spread > lambda_stable_gap_bound(lam, n) + 1e-12:
            spread_ok = False
    ref = stability_value_gap_bound(1.0, 11)
    ref_ok = abs(ref - 0.66052) <= 1e-4
    verdict(
        "11 stability bounds",
        spread_ok and ref_ok,
        f"gap bound at (1, 11) = {ref:.6f}",
    )


def test_criterion_12_influence_sanity():
    x, y = separable_logistic_data(n=20, seed=99)
    l2 = 1.0
    model = fit_logistic(x, y, l2=l2)
    within = 0
    for i in range(20):
        keep = np.arange(20) != i
        retrained = fit_logistic(x[keep], y[keep], l2=l2)
        actual = model.theta - retrained.theta
        predicted = influence_removal_logistic(model, i)
        if np.linalg.norm(predicted - actual) <= 0.2 * np.linalg.norm(actual):
            within += 1
    verdict("12 influence sanity", within >= 16, f"{within}/20 within 20% of retraining")


def test_criterion_13_determinism_across_threads(tmp_path, monkeypatch):
    configs = [
        ExperimentConfig(
            method="perm", game_kind="random", players=6, game_seed=1, permutations=600, seed=3
        ),
        ExperimentConfig(
            method="group-test", game_kind="random", players=6, game_seed=1,
            epsilon=0.5, delta=0.2, seed=3,
        ),
        ExperimentConfig(
            method="group-test", game_kind="random", players=6, game_seed=1,
            epsilon=0.5, delta=0.2, seed=3, recovery="baseline",
        ),
        ExperimentConfig(
            method="compressive", game_kind="additive",
            weights=tuple(1.0 + 0.1 * np.arange(8)), measurements=6,
            permutations=300, epsilon=0.05, seed=3,
        ),
    ]
    all_ok = True
    for idx, config in enumerate(configs):
        outputs = []
        for threads in ("1", "8"):
            monkeypatch.setenv("SHAPVAL_THREADS", threads)
            record = run_experiment(config)
            path = tmp_path / f"{idx}_{threads}.csv"
            write_record(record, path, "csv")
            outputs.append(path.read_bytes())
        if outputs[0] != outputs[1]:
            all_ok = False
    monkeypatch.delenv("SHAPVAL_THREADS")
    verdict("13 determinism across threads", all_ok, "1 vs 8 worker threads, byte-identical CSV")
