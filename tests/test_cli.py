import json
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from shapval import analytics, cli
from shapval.cli import (
    EXIT_BAD_CONFIG,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_SIZE_GUARD,
    EXIT_UNKNOWN_METHOD,
    EXIT_UNREADABLE,
    METHODS,
    ExperimentConfig,
    main,
    run_experiment,
    sweep_budgets,
)
from shapval.datasets import load_labeled_csv, signed_labels
from shapval.results import read_record, sibling_json_path, write_record
from conftest import run_python


def write_knn_files(tmp_path):
    """Three training points on a line; nearest has the test label."""
    train = tmp_path / "train.csv"
    train.write_text("1.0,pos\n2.0,neg\n3.0,neg\n")
    test = tmp_path / "test.csv"
    test.write_text("0.0,pos\n")
    return train, test


def logistic_files(tmp_path, n=12, seed=17):
    g = np.random.default_rng(seed)
    x = np.vstack([g.normal((1.5, 1.5), 1.0, size=(n // 2, 2)),
                   g.normal((-1.5, -1.5), 1.0, size=(n // 2, 2))])
    y = [1] * (n // 2) + [-1] * (n // 2)
    train = tmp_path / "lr_train.csv"
    train.write_text("".join(f"{a},{b},{lab}\n" for (a, b), lab in zip(x, y)))
    test = tmp_path / "lr_test.csv"
    test.write_text("1.0,1.0,1\n-1.0,-1.0,-1\n2.0,0.5,1\n")
    return train, test


def logistic_arrays(train, test):
    """Features and signed labels of the training and test files."""
    (x, labels), (xt, labels_t) = load_labeled_csv(train), load_labeled_csv(test)
    return x, signed_labels(labels), xt, signed_labels(labels_t)


class TestRunExperiment:
    def test_knn_hand_example(self, tmp_path):
        train, test = write_knn_files(tmp_path)
        config = ExperimentConfig(method="knn", train=str(train), test=str(test), k=1)
        record = run_experiment(config)
        assert_allclose(record.values_array(), [1.0, 0.0, 0.0], atol=1e-12)

    def test_perm_additive_single_permutation_with_oracle(self):
        config = ExperimentConfig(
            method="perm",
            game_kind="additive",
            weights=(1.0, 2.0, 3.0),
            permutations=1,
            seed=11,
            with_oracle=True,
        )
        record = run_experiment(config)
        assert_allclose(record.values_array(), [1.0, 2.0, 3.0], atol=1e-12)
        assert record.l2_error == pytest.approx(0.0, abs=1e-12)
        assert record.eval_count == 3

    def test_group_test_record_has_oracle_metrics(self):
        config = ExperimentConfig(
            method="group-test",
            game_kind="glove",
            epsilon=0.5,
            delta=0.2,
            seed=1,
            with_oracle=True,
        )
        record = run_experiment(config)
        assert record.has_oracle_metrics
        assert record.l2_error is not None and record.linf_error is not None

    def test_uniform_on_glove(self):
        record = run_experiment(ExperimentConfig(method="uniform", game_kind="glove"))
        assert_allclose(record.values_array(), np.full(3, 1 / 3), atol=1e-12)

    def test_loo_influence_runs_and_sums_to_total(self, tmp_path):
        train, test = logistic_files(tmp_path)
        config = ExperimentConfig(
            method="loo-influence", train=str(train), test=str(test), l2=0.5
        )
        record = run_experiment(config)
        assert record.n_players == 12
        assert np.isfinite(record.values_array()).all()
        x, y, xt, yt = logistic_arrays(train, test)
        model = analytics.fit_logistic(x, y, l2=0.5)
        total = math.log(2.0) - analytics.logistic_loss(model.theta, xt, yt)
        assert abs(sum(record.values) - total) <= 1e-12

    @pytest.mark.parametrize("l2", [0.5, 1e-3])
    def test_loo_influence_is_one_solve_of_the_per_point_formula(self, tmp_path, monkeypatch, l2):
        train, test = logistic_files(tmp_path, n=40, seed=3)
        solves, seen = [], []
        solve, scale = analytics._damped_hessian_solve, analytics.largest_s_values

        def counted_solve(*args):
            solves.append(args)
            return solve(*args)

        def kept_marginals(marginals, u_total):
            seen.append(marginals)
            return scale(marginals, u_total)

        monkeypatch.setattr(analytics, "_damped_hessian_solve", counted_solve)
        monkeypatch.setattr(analytics, "largest_s_values", kept_marginals)
        config = ExperimentConfig(method="loo-influence", train=str(train), test=str(test), l2=l2)
        run_experiment(config)
        assert len(solves) == 1
        x, y, xt, yt = logistic_arrays(train, test)
        model = analytics.fit_logistic(x, y, l2=l2)
        misfit = np.exp(-np.logaddexp(0.0, yt * (xt @ model.theta)))  # sigma(-margin)
        test_grad = -(xt.T @ (misfit * yt)) / len(yt)
        expected = [-(test_grad @ analytics.influence_removal_logistic(model, i)) for i in range(40)]
        assert_allclose(seen[0], expected, rtol=1e-12, atol=0)

    def test_compressive_via_config(self):
        config = ExperimentConfig(
            method="compressive",
            game_kind="additive",
            weights=tuple(np.ones(16)),
            measurements=12,
            permutations=20,
            epsilon=1e-6,
            seed=2,
        )
        record = run_experiment(config)
        assert_allclose(record.values_array(), np.ones(16), atol=1e-4)

    def test_oracle_guard(self):
        config = ExperimentConfig(
            method="perm",
            game_kind="additive",
            weights=tuple(np.ones(21)),
            permutations=2,
            with_oracle=True,
        )
        from shapval import SizeGuardError

        with pytest.raises(SizeGuardError):
            run_experiment(config)

    def test_deterministic_given_seed(self):
        config = ExperimentConfig(
            method="group-test", game_kind="glove", epsilon=0.4, delta=0.2, seed=33
        )
        a = run_experiment(config)
        b = run_experiment(config)
        assert a.values == b.values


class TestSweep:
    def test_one_record_per_budget(self):
        config = ExperimentConfig(
            method="sweep",
            sweep_method="perm",
            game_kind="random",
            players=6,
            game_seed=4,
            seed=9,
        )
        records = sweep_budgets(config, (5, 20, 80))
        assert [r.method for r in records] == ["perm"] * 3
        assert [r.eval_count for r in records] == [30, 120, 480]

    def test_single_budget_single_record(self):
        config = ExperimentConfig(
            method="sweep", sweep_method="perm", game_kind="glove", seed=0
        )
        records = sweep_budgets(config, (10,))
        assert len(records) == 1
        assert records[0].eval_count == 30

    def test_empty_budget_list(self):
        config = ExperimentConfig(
            method="sweep", sweep_method="perm", game_kind="glove", seed=0
        )
        assert sweep_budgets(config, ()) == []

    @pytest.mark.parametrize(
        "method, extra, flag",
        [
            ("perm", [], "--permutations"),
            ("compressive", ["--measurements", "4", "--epsilon", "0.01"], "--permutations"),
            ("group-test", ["--epsilon", "0.5", "--delta", "0.2"], "--tests"),
        ],
    )
    def test_builds_game_and_oracle_once_and_matches_single_runs(
        self, tmp_path, monkeypatch, method, extra, flag
    ):
        game = ["--game", "random", "--players", "8", "--game-seed", "5", "--seed", "2"]
        budgets = ("3", "256", "300")
        calls = {"build_game": 0, "exact_shapley_subsets": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(cli, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(cli, name, counted)
        sweep_argv = ["sweep", "--method", method, *game, *extra, "--with-oracle"]
        out = tmp_path / "sweep.csv"
        assert main([*sweep_argv, "--budgets", ",".join(budgets), "--output", str(out)]) == EXIT_OK
        assert calls == {"build_game": 1, "exact_shapley_subsets": 1}
        for budget in budgets:
            single = tmp_path / f"single_{budget}.csv"
            argv = [method, *game, *extra, flag, budget, "--with-oracle", "--output", str(single)]
            assert main(argv) == EXIT_OK
            swept = tmp_path / f"sweep_b{budget}.csv"
            assert swept.read_bytes() == single.read_bytes()
            assert read_record(swept).l2_error == read_record(single).l2_error

    def test_median_error_decreases_with_budget(self):
        budgets = (8, 64, 512)
        errors = {b: [] for b in budgets}
        for seed in range(20):
            config = ExperimentConfig(
                method="sweep",
                sweep_method="perm",
                game_kind="random",
                players=8,
                game_seed=123,
                seed=seed,
                with_oracle=True,
            )
            for budget, record in zip(budgets, sweep_budgets(config, budgets)):
                errors[budget].append(record.l2_error)
        medians = [float(np.median(errors[b])) for b in budgets]
        assert medians[0] > medians[1] > medians[2]


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        record = run_experiment(
            ExperimentConfig(method="exact", game_kind="glove", seed=5)
        )
        path = tmp_path / "out.csv"
        write_record(record, path, "csv")
        assert read_record(path) == record
        meta = json.loads(sibling_json_path(path).read_text())
        assert meta["method"] == "exact"
        assert "values" not in meta

    def test_json_round_trip(self, tmp_path):
        record = run_experiment(
            ExperimentConfig(method="uniform", game_kind="glove", seed=5)
        )
        path = tmp_path / "out.json"
        write_record(record, path, "json")
        assert read_record(path) == record


class TestMainExitCodes:
    def test_success_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "glove.csv"
        code = main(["exact", "--game", "glove", "--output", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "player,value"
        assert len(lines) == 4

    def test_stdout_mode(self, capsys):
        assert main(["exact", "--game", "glove"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("player,value")

    def test_stdout_is_the_written_csv(self, tmp_path, capsys):
        out = tmp_path / "perm.csv"
        argv = ["perm", "--game", "additive", "--weights", "1,2,3", "--permutations", "7"]
        assert main([*argv, "--output", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == out.read_text()

    def test_baseline_route_at_two_players_and_a_large_delta(self, capsys):
        argv = ["group-test", "--game", "additive", "--weights", "0.5,0.5", "--epsilon", "0.3"]
        assert main([*argv, "--delta", "0.9", "--recovery", "baseline"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("player,value\n")

    def test_unknown_method_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("method = banzhaf\n")
        assert main(["exact", "--game", "glove", "--config", str(cfg)]) == EXIT_UNKNOWN_METHOD

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("not a key value line\n")
        assert main(["exact", "--game", "glove", "--config", str(cfg)]) == EXIT_BAD_CONFIG

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("spline = 7\n")
        assert main(["exact", "--game", "glove", "--config", str(cfg)]) == EXIT_BAD_CONFIG

    def test_unreadable_dataset(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        code = main(["knn", "--train", str(missing), "--test", str(missing), "--k", "1"])
        assert code == EXIT_UNREADABLE

    @pytest.mark.parametrize(
        "content, error",
        [
            (b"1.0,pos\n\xff2.0,neg\n", " is not UTF-8 text"),
            (b'1.0,pos\n2.0,"' + b"n" * 200_000 + b'"\n', ": line 2: field larger than field limit"),
        ],
        ids=["undecodable", "over_the_csv_field_limit"],
    )
    def test_unparsable_dataset_is_a_config_error_naming_the_file(self, tmp_path, capsys, content, error):
        train, test = write_knn_files(tmp_path)
        train.write_bytes(content)
        assert main(["knn", "--train", str(train), "--test", str(test), "--k", "1"]) == EXIT_BAD_CONFIG
        assert f"dataset {train}{error}" in one_line_error(capsys)

    def test_oracle_guard_exit(self, capsys):
        weights = ",".join(["1"] * 21)
        code = main(["exact", "--game", "additive", "--weights", weights, "--with-oracle"])
        assert code == EXIT_SIZE_GUARD

    @pytest.mark.parametrize("case", ["knn-100", "knn-30", "exact-21"])
    def test_oracle_guard_comes_before_the_method(self, case, tmp_path, monkeypatch, capsys):
        from shapval import cli, knn

        def never(*args, **kwargs):
            raise AssertionError("the method ran before the oracle guard")

        monkeypatch.setattr(knn, "knn_shapley_testset", never)
        monkeypatch.setattr(cli, "exact_shapley_subsets", never)
        if case == "exact-21":
            argv = ["exact", "--game", "symmetric", "--players", "21"]
        else:
            n = int(case.split("-")[1])
            train, test = tmp_path / "train.csv", tmp_path / "test.csv"
            train.write_text("".join(f"{i}.5,{i % 2}\n" for i in range(n)))
            test.write_text("0.0,1\n")
            argv = ["knn", "--train", str(train), "--test", str(test), "--k", "3"]
        assert main([*argv, "--with-oracle"]) == EXIT_SIZE_GUARD
        assert "oracle error metrics are limited to 20 players" in one_line_error(capsys)

    @pytest.mark.parametrize("budget", [["--permutations", "5"], ["--delta", "0.1"]])
    def test_oversized_sign_matrix_is_a_size_guard_error(self, budget, monkeypatch, capsys):
        from shapval import compressive

        def never(*args):
            raise AssertionError("the sign matrix was drawn")

        monkeypatch.setattr(compressive, "stream", never)
        argv = ["compressive", "--game", "symmetric", "--players", "8", "--epsilon", "0.1"]
        assert main([*argv, "--measurements", "30000000", *budget]) == EXIT_SIZE_GUARD
        assert "at most 2^24 cells, got 30000000 x 8" in one_line_error(capsys)

    def test_player_limit_is_a_one_line_error(self, capsys):
        code = main(["perm", "--game", "symmetric", "--players", "64", "--permutations", "5"])
        assert code == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "63 players" in err

    def test_missing_game_is_config_error(self, capsys):
        assert main(["perm", "--permutations", "5"]) == EXIT_BAD_CONFIG

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--format", "parquet", "--game", "glove"])
        assert exc.value.code == 2


class TestConfigPrecedence:
    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "game = glove\nepsilon = 0.5\ndelta = 0.2\nseed = 1\n# comment\n"
        )
        out = tmp_path / "r.csv"
        code = main(
            [
                "group-test",
                "--config",
                str(cfg),
                "--epsilon",
                "0.9",
                "--output",
                str(out),
            ]
        )
        assert code == EXIT_OK
        meta = json.loads(sibling_json_path(out).read_text())
        assert meta["epsilon"] == 0.9
        assert meta["delta"] == 0.2
        assert meta["seed"] == 1

    def test_config_can_define_everything(self, tmp_path):
        train, test = write_knn_files(tmp_path)
        cfg = tmp_path / "knn.cfg"
        cfg.write_text(f"train = {train}\ntest = {test}\nk = 1\nmethod = knn\n")
        out = tmp_path / "knn.csv"
        assert main(["knn", "--config", str(cfg), "--output", str(out)]) == EXIT_OK
        record = read_record(out)
        assert_allclose(record.values_array(), [1.0, 0.0, 0.0], atol=1e-12)


class TestDeterminismAcrossThreads:
    def test_byte_identical_csv_for_one_and_eight_threads(self, tmp_path, monkeypatch):
        outputs = []
        for threads in ("1", "8"):
            monkeypatch.setenv("SHAPVAL_THREADS", threads)
            out = tmp_path / f"t{threads}.csv"
            code = main(
                [
                    "perm",
                    "--game",
                    "random",
                    "--players",
                    "7",
                    "--game-seed",
                    "3",
                    "--permutations",
                    "900",
                    "--seed",
                    "12",
                    "--output",
                    str(out),
                ]
            )
            assert code == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_sweep_writes_per_budget_files(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--method",
                "perm",
                "--game",
                "glove",
                "--budgets",
                "2,4",
                "--seed",
                "3",
                "--output",
                str(out),
            ]
        )
        assert code == EXIT_OK
        assert (tmp_path / "sweep_b2.csv").exists()
        assert (tmp_path / "sweep_b4.csv").exists()


def test_console_entry_point(tmp_path):
    result = run_python("-m", "shapval.cli", "exact", "--game", "glove")
    assert result.returncode == 0
    assert result.stdout.startswith("player,value")


@pytest.mark.parametrize(
    "argv, unused_here",
    [
        (["knn", "--train", "{train}", "--test", "{test}", "--k", "1"], ()),
        (["exact", "--game", "glove"], ("shapval.knn",)),
    ],
    ids=["knn", "exact"],
)
def test_knn_imports_only_the_closed_form_path(tmp_path, argv, unused_here):
    train, test = write_knn_files(tmp_path)
    unused = (
        "shapval.analytics", "shapval.compressive", "shapval.group_testing",
        "shapval.permutation", "shapval.rng", "concurrent.futures", *unused_here,
    )
    argv = [arg.format(train=train, test=test) for arg in argv]
    result = run_python("-c", (
        "import sys\n"
        "import shapval.cli\n"
        f"code = shapval.cli.main({argv!r})\n"
        f"print(code, [m for m in {unused!r} if m in sys.modules])\n"
    ))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 []"


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    return err


def run_meta(argv, out):
    assert main([*argv, "--output", str(out)]) == EXIT_OK
    return json.loads(sibling_json_path(out).read_text())


class TestRejectedInputs:
    @pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
    def test_range_must_be_positive_and_finite(self, value, capsys):
        argv = ["perm", "--game", "random", "--players", "4", "--permutations", "5"]
        assert main([*argv, "--range", value]) == EXIT_BAD_CONFIG
        assert "--range" in one_line_error(capsys)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--game", "voting", "--weights", "inf,1", "--quota", "1"], "--weights"),
            (["--game", "voting", "--weights", "nan,1", "--quota", "1"], "--weights"),
            (["--game", "additive", "--weights", "1,-inf"], "--weights"),
            (["--game", "voting", "--weights", "1,1", "--quota", "nan"], "--quota"),
            (["--game", "voting", "--weights", "1,1", "--quota", "inf"], "--quota"),
        ],
    )
    def test_weights_and_quota_must_be_finite(self, argv, flag, capsys):
        assert main(["exact", *argv]) == EXIT_BAD_CONFIG
        assert f"{flag} must be finite" in one_line_error(capsys)

    def test_non_finite_weights_in_a_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("weights = 1,nan\n")
        assert main(["exact", "--game", "additive", "--config", str(cfg)]) == EXIT_BAD_CONFIG
        assert "--weights must be finite" in one_line_error(capsys)

    def test_overflowing_weights_fail_without_a_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["exact", "--game", "additive", "--weights", "1e308,1e308"]) == EXIT_BAD_CONFIG
        assert "--weights must be finite, with a finite total" in one_line_error(capsys)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--game", "additive", "--weights", "0,0"], "at least one weight must be positive"),
            (["--game", "additive", "--weights=-1,2"], "weights must be nonnegative"),
            (["--game", "voting", "--weights", "1,1", "--quota", "5"], "quota must be"),
            (["--game", "voting", "--weights", "1,1", "--quota", "-1"], "quota must be"),
            (["--game", "symmetric", "--players", "3", "--size-values", "0,1"], "size_values must"),
        ],
    )
    def test_game_the_library_refuses_is_a_config_error(self, argv, message, capsys):
        assert main(["exact", *argv]) == EXIT_BAD_CONFIG
        assert message in one_line_error(capsys)

    @pytest.mark.parametrize("argv", [["knn"], ["perm", "--permutations", "2"]])
    def test_k_not_below_the_training_size_is_a_config_error(self, argv, tmp_path, capsys):
        train, test = write_knn_files(tmp_path)  # three training rows
        assert main([*argv, "--train", str(train), "--test", str(test), "--k", "3"]) == EXIT_BAD_CONFIG
        assert "k_neighbors must satisfy" in one_line_error(capsys)

    @pytest.mark.parametrize("recovery", ["feasibility", "baseline"])
    def test_group_testing_one_player_is_a_config_error(self, recovery, capsys):
        argv = ["group-test", "--game", "additive", "--weights", "1", "--epsilon", "0.5"]
        assert main([*argv, "--delta", "0.1", "--recovery", recovery]) == EXIT_BAD_CONFIG
        assert "group testing needs at least two players" in one_line_error(capsys)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["perm", "--game", "glove"], "perm needs --permutations or --epsilon/--delta"),
            (["perm", "--game", "glove", "--epsilon", "0.1"], "perm needs --permutations or --epsilon/--delta"),
            (["group-test", "--game", "glove", "--epsilon", "0.5"], "group-test needs --epsilon and --delta"),
            (["group-test", "--game", "glove", "--delta", "0.1"], "group-test needs --epsilon and --delta"),
            (
                ["compressive", "--game", "glove", "--epsilon", "0.1", "--permutations", "5"],
                "compressive needs --measurements",
            ),
            (
                ["compressive", "--game", "glove", "--measurements", "2", "--permutations", "5"],
                "compressive needs --epsilon",
            ),
            (
                ["compressive", "--game", "glove", "--measurements", "2", "--epsilon", "0.1"],
                "compressive needs --permutations or --delta",
            ),
            (
                ["sweep", "--method", "uniform", "--game", "glove", "--budgets", "10"],
                "method 'uniform' takes no sampling budget",
            ),
            (["loo-influence", "--with-oracle"], "--with-oracle is not supported for loo-influence"),
        ],
    )
    def test_each_subcommand_names_the_options_it_needs(self, argv, message, tmp_path, capsys):
        if argv[0] == "loo-influence":
            train, test = logistic_files(tmp_path)
            argv = [*argv, "--train", str(train), "--test", str(test)]
        assert main(argv) == EXIT_BAD_CONFIG
        assert one_line_error(capsys) == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["exact", "--game", "additive", "--weights", "1,2", "--range", "2"],
            ["exact", "--game", "glove", "--players", "7"],
            ["exact", "--game", "voting", "--weights", "1,2"],
        ],
    )
    def test_game_parameter_the_kind_does_not_take_or_needs(self, argv, capsys):
        assert main(argv) == EXIT_BAD_CONFIG
        one_line_error(capsys)

    def test_random_game_player_limit(self, tmp_path, capsys):
        argv = ["exact", "--game", "random"]
        assert main([*argv, "--players", "30"]) == EXIT_BAD_CONFIG
        assert "--players must be at most 20" in one_line_error(capsys)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("players = 21\n")
        assert main([*argv, "--config", str(cfg)]) == EXIT_BAD_CONFIG
        assert "--players must be at most 20" in one_line_error(capsys)
        assert ExperimentConfig("exact", game_kind="random", players=20).players == 20

    def test_random_game_takes_range_and_game_seed(self, capsys):
        argv = ["exact", "--game", "random", "--players", "4", "--range", "2", "--game-seed", "3"]
        assert main(argv) == EXIT_OK

    def test_knn_has_no_game_flags(self):
        with pytest.raises(SystemExit) as exc:
            main(["knn", "--game", "additive", "--weights", "1,2", "--k", "1"])
        assert exc.value.code == 2

    def test_rejected_flag_is_reported_by_its_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["knn", "--game", "additive", "--k", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: shapval knn ")
        assert err.endswith("shapval knn: error: unrecognized arguments: --game additive\n")

    @pytest.mark.parametrize("method", ["knn", "loo-influence"])
    def test_synthetic_game_from_config_file_is_rejected(self, method, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("game = additive\nweights = 1,2\nk = 1\n")
        assert main([method, "--config", str(cfg)]) == EXIT_BAD_CONFIG
        assert method in one_line_error(capsys)

    @pytest.mark.parametrize("value", ["0", "-4", "257", "99999999999999999999"])
    def test_threads_must_be_positive(self, value, tmp_path, capsys):
        assert main(["exact", "--game", "glove", "--threads", value]) == EXIT_BAD_CONFIG
        one_line_error(capsys)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"threads = {value}\n")
        assert main(["exact", "--game", "glove", "--config", str(cfg)]) == EXIT_BAD_CONFIG
        one_line_error(capsys)

    @pytest.mark.parametrize("value", ["0", "-2"])
    @pytest.mark.parametrize("flag", ["players", "k", "permutations", "tests", "measurements"])
    def test_counts_must_be_positive(self, flag, value, tmp_path, capsys):
        train, test = write_knn_files(tmp_path)
        argv = {  # every other option valid, so only the count check can reject
            "players": ["exact", "--game", "random"],
            "k": ["knn", "--train", str(train), "--test", str(test)],
            "permutations": ["perm", "--game", "glove"],
            "tests": ["group-test", "--game", "glove", "--epsilon", "0.5", "--delta", "0.2"],
            "measurements": [
                "compressive", "--game", "glove", "--epsilon", "0.5", "--permutations", "3",
            ],
        }[flag]
        assert main([*argv, f"--{flag}", value]) == EXIT_BAD_CONFIG
        assert f"--{flag} must be positive" in one_line_error(capsys)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{flag} = {value}\n")
        assert main([*argv, "--config", str(cfg)]) == EXIT_BAD_CONFIG
        assert f"--{flag} must be positive" in one_line_error(capsys)

    @pytest.mark.parametrize(
        "command", ["perm", "exact", "knn", "uniform", "loo-influence"]
    )
    @pytest.mark.parametrize("value", ["abc", "1.5", "0", "-3", "257"])
    def test_threads_variable_must_be_a_positive_integer(
        self, value, command, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("SHAPVAL_THREADS", value)
        train, test = write_knn_files(tmp_path)
        dataset = ["--train", str(train), "--test", str(test)]
        argv = {
            "perm": ["perm", "--game", "glove", "--permutations", "3"],
            "knn": ["knn", *dataset, "--k", "1"],
            "loo-influence": ["loo-influence", *dataset],
        }.get(command, [command, "--game", "glove"])
        assert main(argv) == EXIT_BAD_CONFIG
        assert "SHAPVAL_THREADS" in one_line_error(capsys)

    def test_sized_budget_that_overflows_is_a_one_line_error(self, capsys):
        argv = ["perm", "--game", "symmetric", "--players", "3", "--size-values", "0,1,1,1e308"]
        assert main([*argv, "--epsilon", "0.1", "--delta", "0.1"]) == EXIT_BAD_CONFIG
        err = one_line_error(capsys)
        assert "permutation budget is not a finite number" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["perm", "--permutations", "9223372036854775808"], id="perm-2^63"),
            pytest.param(["perm", "--permutations", "99999999999999999999"], id="perm-count"),
            pytest.param(["perm", "--epsilon", "1e-200", "--delta", "0.1"], id="perm-sized"),
            pytest.param(
                ["compressive", "--epsilon", "0.5", "--measurements", "2",
                 "--permutations", "99999999999999999999"],
                id="compressive-count",
            ),
            pytest.param(
                ["compressive", "--epsilon", "1e-200", "--delta", "0.1", "--measurements", "2"],
                id="compressive-sized",
            ),
            pytest.param(
                ["sweep", "--method", "perm", "--budgets", "3,99999999999999999999"],
                id="sweep-perm",
            ),
            pytest.param(
                ["sweep", "--method", "group-test", "--epsilon", "0.5", "--delta", "0.2",
                 "--budgets", "3,9223372036854775808"],
                id="sweep-group-test",
            ),
            pytest.param(
                ["group-test", "--epsilon", "0.5", "--delta", "0.2",
                 "--tests", "99999999999999999999"],
                id="group-test-count",
            ),
            pytest.param(["group-test", "--epsilon", "1e-200", "--delta", "0.1"], id="group-test-sized"),
        ],
    )
    def test_refused_budget_is_a_config_error(self, argv, monkeypatch, capsys):
        # a count of 2^63 or more, or a sized budget that is no finite count, exits 4 on
        # every sampling command; a sweep refuses before its first budget runs
        def ran(*args):
            raise AssertionError("a budget ran")

        if argv[0] == "sweep":
            monkeypatch.setattr(cli, "_estimator_values", ran)
        assert main([*argv, "--game", "glove"]) == EXIT_BAD_CONFIG
        err = one_line_error(capsys)
        assert "2^63" in err or "not a finite number" in err

    @pytest.mark.parametrize("command", METHODS)
    def test_epsilon_and_delta_out_of_range(self, command, tmp_path, capsys):
        train, test = write_knn_files(tmp_path)
        dataset = ["--train", str(train), "--test", str(test)]
        argv = {
            "knn": ["knn", *dataset, "--k", "1"],
            "loo-influence": ["loo-influence", *dataset],
            "compressive": ["compressive", "--game", "glove", "--measurements", "2"],
            "sweep": ["sweep", "--method", "perm", "--game", "glove", "--budgets", "3"],
        }.get(command, [command, "--game", "glove"])
        # each bad value comes with a valid partner, so only the range check can reject it
        bad = [("epsilon", v, ["--delta", "0.2"]) for v in ("0", "-1", "inf", "nan")]
        bad += [("delta", v, ["--epsilon", "0.5"]) for v in ("0", "1", "-0.5", "nan")]
        cfg = tmp_path / "c.cfg"
        for key, value, partner in bad:
            assert main([*argv, *partner, f"--{key}", value]) == EXIT_BAD_CONFIG
            assert f"--{key} must" in one_line_error(capsys)
            cfg.write_text(f"{key} = {value}\n")
            assert main([*argv, *partner, "--config", str(cfg)]) == EXIT_BAD_CONFIG
            assert f"--{key} must" in one_line_error(capsys)

    def test_bad_list_flag_is_a_config_error(self, capsys):
        assert main(["exact", "--game", "additive", "--weights", "1,x"]) == EXIT_BAD_CONFIG
        one_line_error(capsys)


class TestOptionSources:
    def test_falsy_flag_beats_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 5\n")
        argv = ["perm", "--game", "glove", "--permutations", "3", "--config", str(cfg)]
        assert run_meta([*argv, "--seed", "0"], tmp_path / "a.csv")["seed"] == 0
        assert run_meta(argv, tmp_path / "b.csv")["seed"] == 5

    def test_file_beats_field_default(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("recovery = baseline\n")
        argv = ["group-test", "--game", "random", "--players", "5", "--epsilon", "0.5",
                "--delta", "0.2", "--seed", "1"]
        from_file = run_meta([*argv, "--config", str(cfg)], tmp_path / "f.csv")
        from_flag = run_meta([*argv, "--recovery", "baseline"], tmp_path / "g.csv")
        default = run_meta(argv, tmp_path / "d.csv")
        assert from_file["eval_count"] == from_flag["eval_count"] != default["eval_count"]

    def test_bad_file_value_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 0x3\n")
        assert main(["exact", "--game", "glove", "--config", str(cfg)]) == EXIT_BAD_CONFIG
        assert "'seed'" in one_line_error(capsys)

    def test_sweep_file_names_its_target(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("method = perm\ngame = glove\nbudgets = 2,4\n")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--output", str(out)]) == EXIT_OK
        assert (tmp_path / "sweep_b2.csv").exists()
        assert (tmp_path / "sweep_b4.csv").exists()
        assert read_record(tmp_path / "sweep_b4.csv").eval_count == 12

    def test_sweep_method_flag_beats_file(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("method = uniform\ngame = glove\nbudgets = 2\n")
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--config", str(cfg), "--method", "perm", "--output", str(out)]
        assert main(argv) == EXIT_OK
        assert read_record(tmp_path / "sweep_b2.csv").method == "perm"

    def test_sweep_file_cannot_target_sweep(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("method = sweep\ngame = glove\nbudgets = 2\n")
        assert main(["sweep", "--config", str(cfg)]) == EXIT_BAD_CONFIG
        one_line_error(capsys)
