"""Command-line front end.

Subcommands select the valuation method; the game comes either from a
synthetic family (``--game``) or from CSV datasets (``--train/--test``).
A flat key=value config file can hold any option, with command-line
flags taking precedence.  Results go to stdout or, with ``--output``, to
CSV plus a JSON metadata sibling (or a single JSON document).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

# the estimator modules and ``knn`` are imported by the code that runs them,
# so a process loads only its subcommand's modules (``knn`` only the closed form)
from .datasets import load_labeled_csv, signed_labels
from .errors import ConfigError, ShapvalError, SizeGuardError, UnknownMethodError
from .games import (
    RANDOM_GAME_PLAYERS,
    Game,
    ValueVector,
    exact_shapley_subsets,
    make_additive_game,
    make_glove_game,
    make_random_game,
    make_symmetric_game,
    make_voting_game,
)
from .parallel import resolve_threads
from .results import ResultRecord, _csv_text, write_record

if TYPE_CHECKING:
    from .knn import KnnInstance

# subcommand -> help text; each subcommand is a method
_COMMANDS = {
    "exact": "exact values by subset enumeration",
    "perm": "Monte Carlo permutation sampling",
    "group-test": "pooled-test estimation of pairwise differences",
    "compressive": "compressed sensing over permutation marginals",
    "knn": "closed-form values for the KNN utility",
    "uniform": "uniform division of the total utility",
    "loo-influence": "largest-coalition influence heuristic",
    "sweep": "run one method across a list of sampling budgets",
}
METHODS = tuple(_COMMANDS)
ORACLE_GUARD = 20

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_UNKNOWN_METHOD = 3
EXIT_BAD_CONFIG = 4
EXIT_UNREADABLE = 5
EXIT_SIZE_GUARD = 6

# game kind -> (the game parameters it takes, builder); weights, quota and players are required
_GAMES = {
    "additive": (("weights",), lambda c: make_additive_game(c.weights)),
    "symmetric": (
        ("players", "size_values"),
        lambda c: make_symmetric_game(c.players, c.size_values),
    ),
    "glove": ((), lambda c: make_glove_game()),
    "voting": (("weights", "quota"), lambda c: make_voting_game(c.weights, c.quota)),
    "random": (
        ("players", "game_seed", "range_r"),
        lambda c: make_random_game(
            c.players,
            0 if c.game_seed is None else c.game_seed,
            1.0 if c.range_r is None else c.range_r,
        ),
    ),
}
GAME_KINDS = tuple(_GAMES)
_REQUIRED_GAME_PARAMS = ("weights", "quota", "players")
_GAME_PARAMS = _REQUIRED_GAME_PARAMS + ("size_values", "game_seed", "range_r")


def _tuple_of(parse, what: str):
    def convert(text: str) -> tuple:
        try:
            return tuple(parse(tok) for tok in text.split(",") if tok.strip())
        except ValueError as exc:
            raise ConfigError(f"expected comma-separated {what}, got {text!r}") from exc

    return convert


_floats, _ints = _tuple_of(float, "numbers"), _tuple_of(int, "integers")


def _bool(text: str) -> bool:
    val = text.strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


_SYNTHETIC = tuple(m for m in METHODS if m not in ("knn", "loo-influence"))


def _option(key: str, parse, commands, default=None, **extras):
    """One option: flag ``--key`` and config-file ``key``, parsed by ``parse``.

    ``commands`` are the subcommands whose parser has the flag; ``extras``
    go to ``add_argument``.  A ``_bool`` option is a switch.
    """
    how = {"action": "store_true"} if parse is _bool else {"type": parse}
    meta = {"key": key, "parse": parse, "commands": commands, "argparse": {**how, **extras}}
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run needs; exactly one game source.

    Each field after ``method`` declares its command-line flag and
    config-file key; the parser and the file-plus-flag merge read them.
    """

    method: str
    game_kind: str | None = _option("game", str, _SYNTHETIC, choices=GAME_KINDS)
    weights: tuple[float, ...] | None = _option("weights", _floats, _SYNTHETIC)
    quota: float | None = _option("quota", float, _SYNTHETIC)
    players: int | None = _option("players", int, _SYNTHETIC)
    size_values: tuple[float, ...] | None = _option("size_values", _floats, _SYNTHETIC)
    game_seed: int | None = _option("game_seed", int, _SYNTHETIC)
    range_r: float | None = _option("range", float, _SYNTHETIC, metavar="RANGE")
    train: str | None = _option(
        "train", str, METHODS, help="training CSV: f1,...,fd,label per row"
    )
    test: str | None = _option("test", str, METHODS, help="test CSV, same shape")
    k: int | None = _option("k", int, METHODS, help="neighborhood size")
    epsilon: float | None = _option("epsilon", float, METHODS)
    delta: float | None = _option("delta", float, METHODS)
    seed: int = _option("seed", int, METHODS, default=0)
    permutations: int | None = _option("permutations", int, ("perm", "compressive", "sweep"))
    tests: int | None = _option("tests", int, ("group-test", "sweep"))
    measurements: int | None = _option("measurements", int, ("compressive", "sweep"))
    recovery: str = _option(
        "recovery", str, ("group-test", "sweep"), default="feasibility",
        choices=("feasibility", "baseline"),
    )
    l2: float = _option(
        "l2", float, ("loo-influence",), default=1e-3, help="ridge strength (default 1e-3)"
    )
    with_oracle: bool = _option("with_oracle", _bool, METHODS, default=False)
    output: str | None = _option(
        "output", str, METHODS, help="output path (CSV gets a .json metadata sibling)"
    )
    fmt: str = _option("format", str, METHODS, default="csv", choices=("csv", "json"))
    threads: int | None = _option("threads", int, METHODS)
    budgets: tuple[int, ...] = _option("budgets", _ints, ("sweep",), default=())
    sweep_method: str | None = _option("method", str, ("sweep",), choices=METHODS[:-1])

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise UnknownMethodError(f"unknown method {self.method!r}")
        synthetic = self.game_kind is not None
        dataset = self.train is not None or self.test is not None
        if synthetic and self.method in ("knn", "loo-influence"):
            raise ConfigError(f"{self.method} needs --train/--test, not a synthetic game")
        if synthetic and dataset:
            raise ConfigError("give either a synthetic game or dataset paths, not both")
        if not synthetic and not dataset and self.method != "sweep":
            raise ConfigError("no game specified: use --game or --train/--test")
        if dataset and (self.train is None or self.test is None):
            raise ConfigError("dataset games need both --train and --test")
        for f in _OPTIONS:
            choices, value = f.metadata["argparse"].get("choices"), getattr(self, f.name)
            if choices and value is not None and value not in choices:
                raise ConfigError(f"{_FLAGS[f.name]} must be one of {choices}, got {value!r}")
        takes = _GAMES[self.game_kind][0] if synthetic else ()
        kind = self.game_kind or "dataset"
        for name in _GAME_PARAMS:
            given = getattr(self, name) is not None
            if given and name not in takes:
                raise ConfigError(f"{kind} games take no {_FLAGS[name]}")
            if not given and name in takes and name in _REQUIRED_GAME_PARAMS:
                raise ConfigError(f"{kind} games need {_FLAGS[name]}")
        if self.weights is not None and not math.isfinite(sum(self.weights)):
            raise ConfigError(f"--weights must be finite, with a finite total: {self.weights!r}")
        if self.quota is not None and not math.isfinite(self.quota):
            raise ConfigError(f"--quota must be finite, got {self.quota!r}")
        if self.range_r is not None and not 0 < self.range_r < math.inf:
            raise ConfigError(f"--range must be positive and finite, got {self.range_r!r}")
        if self.epsilon is not None and not 0 < self.epsilon < math.inf:
            raise ConfigError(f"--epsilon must be positive and finite, got {self.epsilon!r}")
        if self.delta is not None and not 0 < self.delta < 1:
            raise ConfigError(f"--delta must lie in (0, 1), got {self.delta!r}")
        for name in _COUNTS:
            value = getattr(self, name)
            if value is not None and not 0 < value < 1 << 63:
                raise ConfigError(f"{_FLAGS[name]} must be positive and below 2^63, got {value}")
        resolve_threads(self.threads)  # the upper bound and SHAPVAL_THREADS, for every method
        if self.game_kind == "random" and self.players > RANDOM_GAME_PLAYERS:
            raise ConfigError(
                f"--players must be at most {RANDOM_GAME_PLAYERS} for random games,"
                f" got {self.players}"
            )


_OPTIONS = tuple(f for f in fields(ExperimentConfig) if f.metadata)
_FLAGS = {f.name: "--" + f.metadata["key"].replace("_", "-") for f in _OPTIONS}
# count options, each in [1, 2^63) when given, as parallel.check_count takes them
_COUNTS = ("players", "k", "permutations", "tests", "measurements", "threads")


@contextmanager
def _refusal_is_config_error():
    """The library's ``ValueError`` for a configured input (zero weights, K not
    below the training size) is a malformed configuration: a ``ConfigError``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_game(config: ExperimentConfig) -> Game:
    """Materialize the configured game (synthetic family or KNN dataset)."""
    if config.game_kind is not None:
        with _refusal_is_config_error():
            return _GAMES[config.game_kind][1](config)
    from . import knn

    return knn.knn_game(load_knn_instances(config))


def load_knn_instances(config: ExperimentConfig) -> list[KnnInstance]:
    from . import knn

    if config.k is None:
        raise ConfigError("dataset games need --k")
    x_train, y_train = load_labeled_csv(config.train)
    x_test, y_test = load_labeled_csv(config.test)
    if x_test.shape[1] != x_train.shape[1]:
        raise ConfigError("train and test files must share the feature width")
    with _refusal_is_config_error():
        return [
            knn.KnnInstance(x_train, y_train, x_test[i], y_test[i], config.k)
            for i in range(x_test.shape[0])
        ]


def _looinfluence_values(config: ExperimentConfig) -> ValueVector:
    """Largest-coalition heuristic fed by influence-approximated marginals.

    Utility convention: a coalition is worth the drop in mean test log
    loss relative to the untrained (zero-parameter) model, so the total
    is ln 2 - test loss of the full model.
    """
    from . import analytics

    x, labels = load_labeled_csv(config.train)
    y = signed_labels(labels)
    xt, labels_t = load_labeled_csv(config.test)
    yt = signed_labels(labels_t)
    model = analytics.fit_logistic(x, y, l2=config.l2)
    margins_t = yt * (xt @ model.theta)
    misfit = 1.0 / (1.0 + np.exp(np.clip(margins_t, -500, 500)))
    test_grad = -(xt.T @ (misfit * yt)) / xt.shape[0]
    marginals = np.array(
        [
            -float(test_grad @ analytics.influence_removal_logistic(model, i))
            for i in range(x.shape[0])
        ]
    )
    u_total = math.log(2.0) - analytics.logistic_loss(model.theta, xt, yt)
    return analytics.largest_s_values(marginals, u_total)


def _estimator_values(config: ExperimentConfig, game: Game) -> ValueVector:
    method = config.method
    if method == "exact":
        return exact_shapley_subsets(game)
    if method == "perm":
        from . import permutation

        if config.permutations is not None:
            budget = permutation.PermutationBudget(
                config.permutations, epsilon=config.epsilon, delta=config.delta
            )
        else:
            if config.epsilon is None or config.delta is None:
                raise ConfigError("perm needs --permutations or --epsilon/--delta")
            with _refusal_is_config_error():  # a sized budget that is not a finite count
                budget = permutation.PermutationBudget.from_accuracy(
                    game.range_r, game.n_players, config.epsilon, config.delta
                )
        return permutation.estimate_permutation(game, budget, config.seed, threads=config.threads)
    if method == "group-test":
        from . import group_testing

        if config.epsilon is None or config.delta is None:
            raise ConfigError("group-test needs --epsilon and --delta")
        with _refusal_is_config_error():  # one player; the config checked the rest
            return group_testing.estimate_group_testing(
                game,
                config.epsilon,
                config.delta,
                config.seed,
                recovery=config.recovery,
                t_tests=config.tests,
                threads=config.threads,
            )
    if method == "compressive":
        from . import compressive

        if config.measurements is None:
            raise ConfigError("compressive needs --measurements")
        if config.epsilon is None:
            raise ConfigError("compressive needs --epsilon")
        if config.permutations is not None:
            t = config.permutations
        else:
            if config.delta is None:
                raise ConfigError("compressive needs --permutations or --delta")
            with _refusal_is_config_error():
                t = compressive.required_t_compressive(
                    game.range_r, config.epsilon, config.delta, config.measurements
                )
        return compressive.estimate_compressive(
            game, config.measurements, t, config.epsilon, config.seed, threads=config.threads
        )
    if method == "uniform":
        from . import analytics

        return analytics.uniform_division(game.u_total, game.n_players)
    raise UnknownMethodError(f"unknown method {method!r}")


def _check_oracle_guard(config: ExperimentConfig, n_players: int) -> None:
    """Refuse ``--with-oracle`` above ORACLE_GUARD players before any method runs."""
    if config.with_oracle and n_players > ORACLE_GUARD:
        raise SizeGuardError(
            f"oracle error metrics are limited to {ORACLE_GUARD} players, got {n_players}"
        )


def run_experiment(config: ExperimentConfig) -> ResultRecord:
    """Dispatch to the configured method; optionally attach oracle error metrics."""
    start = time.perf_counter()
    if config.method == "loo-influence":
        if config.with_oracle:
            raise ConfigError("--with-oracle is not supported for loo-influence")
        vv = _looinfluence_values(config)
    elif config.method == "knn":
        from . import knn

        instances = load_knn_instances(config)
        _check_oracle_guard(config, instances[0].n_players)
        vv = knn.knn_shapley_testset(instances)
        game = knn.knn_game(instances) if config.with_oracle else None
    else:
        game = build_game(config)
        _check_oracle_guard(config, game.n_players)
        vv = _estimator_values(config, game)
    l2_err = linf_err = None
    if config.with_oracle:
        oracle = exact_shapley_subsets(game)
        diff = vv.values - oracle.values
        l2_err = float(np.linalg.norm(diff))
        linf_err = float(np.max(np.abs(diff)))
    wall = time.perf_counter() - start
    return ResultRecord(
        values=vv.values.tolist(),
        method=config.method,
        n_players=len(vv),
        seed=config.seed,
        eval_count=vv.eval_count,
        wall_time_s=wall,
        epsilon=config.epsilon,
        delta=config.delta,
        flags=vv.flags,
        l2_error=l2_err,
        linf_error=linf_err,
    )


def sweep_budgets(config: ExperimentConfig, budget_list) -> list[ResultRecord]:
    """One record per budget entry, for the method named in the sweep config."""
    method = config.sweep_method or config.method
    if method == "sweep":
        raise UnknownMethodError(f"sweep needs a concrete method, got {method!r}")
    # every budget's config is built, and so checked, before the first one runs
    configs = []
    for budget in budget_list:
        override: dict = {"method": method, "budgets": (), "sweep_method": None}
        if method in ("perm", "compressive"):
            override["permutations"] = int(budget)
        elif method == "group-test":
            override["tests"] = int(budget)
        else:
            raise ConfigError(f"method {method!r} takes no sampling budget")
        configs.append(replace(config, **override))
    return [run_experiment(c) for c in configs]


# -- configuration plumbing -------------------------------------------------


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat ``key = value`` lines; '#' starts a comment."""
    known = {f.metadata["key"] for f in _OPTIONS}
    entries: dict[str, str] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        entries[key] = value.strip()
    return entries


def config_from_sources(
    method: str, file_entries: dict[str, str], args: argparse.Namespace
) -> ExperimentConfig:
    """Merge config file entries with CLI flags: a flag beats the file, the file the default.

    The file's ``method`` must name the subcommand, except for ``sweep``,
    where it names the method swept.
    """
    entries = dict(file_entries)
    file_method = entries.get("method")
    if file_method is not None and file_method not in METHODS:
        raise UnknownMethodError(f"unknown method {file_method!r} in config")
    if method != "sweep" and entries.pop("method", method) != method:
        raise ConfigError(
            f"config file method {file_method!r} conflicts with subcommand {method!r}"
        )
    kwargs = {}
    for f in _OPTIONS:
        key = f.metadata["key"]
        value = getattr(args, f.name, None)
        if value is None and key in entries:
            try:
                value = f.metadata["parse"](entries[key])
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
        if value is not None:
            kwargs[f.name] = value
    return ExperimentConfig(method, **kwargs)


class _SubcommandParser(argparse.ArgumentParser):
    """Rejects an option the subcommand does not take with the subcommand's own usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shapval", description="Shapley value computation and estimation"
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)
    for name, help_text in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", help="flat key=value config file; flags override it")
        for f in (f for f in _OPTIONS if name in f.metadata["commands"]):
            sub.add_argument(_FLAGS[f.name], dest=f.name, default=None, **f.metadata["argparse"])
    return parser


def _emit(record: ResultRecord, config: ExperimentConfig, budget: int | None = None) -> None:
    if config.output:
        path = Path(config.output)
        if budget is not None:
            path = path.with_name(f"{path.stem}_b{budget}{path.suffix}")
        write_record(record, path, config.fmt)
        summary = f"{record.method}: wrote {path} ({record.eval_count} evaluations)"
        if record.has_oracle_metrics:
            summary += f", l2 error {record.l2_error:.6g}"
        print(summary, file=sys.stderr)
    else:
        sys.stdout.write(_csv_text(record))


# checked in order: a subclass comes before its parent
_EXIT_CODES = {
    UnknownMethodError: EXIT_UNKNOWN_METHOD,
    ConfigError: EXIT_BAD_CONFIG,
    OSError: EXIT_UNREADABLE,
    SizeGuardError: EXIT_SIZE_GUARD,
    ShapvalError: EXIT_FAILURE,
    ValueError: EXIT_FAILURE,
    ZeroDivisionError: EXIT_FAILURE,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        file_entries = parse_config_file(args.config) if args.config else {}
        config = config_from_sources(args.command, file_entries, args)
        if config.method == "sweep":
            if not config.budgets:
                print("sweep: empty budget list, nothing to do", file=sys.stderr)
                return EXIT_OK
            for budget, record in zip(
                config.budgets, sweep_budgets(config, config.budgets)
            ):
                _emit(record, config, budget=budget)
        else:
            _emit(run_experiment(config), config)
        return EXIT_OK
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
