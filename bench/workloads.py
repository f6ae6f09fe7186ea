"""The benchmark's workloads.

Each workload builds its inputs from the workload seed, computes the
exact answer once, and then runs jobs one at a time (a closed loop).  A
job's time covers only the calls into the package; the output checks and
the error against the exact answer are made after the clock stops.
Parameters come from ``spec.json``.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import shapval.cli
import shapval.compressive
import shapval.games
import shapval.group_testing
import shapval.knn
import shapval.permutation
from child import run_child

SUM_TOL = 1e-9


@dataclass
class Call:
    """One estimator call in a job: its l2 error against the exact values,
    and whether that error exceeded the epsilon it was sized for (None when
    the call was not sized for an (epsilon, delta) guarantee)."""

    family: str
    err_l2: float
    missed: bool | None


@dataclass
class JobResult:
    seconds: float
    ref_seconds: float = math.nan  # the reference work timed just before the job (run.Reference)
    evals: int = 0
    pairs: int = 0
    calls: list[Call] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def job_seed(seed: int, j: int) -> int:
    """Estimator seed of job j (the warm-up job is j = -1)."""
    return seed * 1_000_000 + j + 1


class Workload:
    """Set up with ``setup(seed)``, then call ``run(j)`` once per job."""

    runs_cli = False  # jobs are CLI processes

    def __init__(self, params: dict, work_dir: Path) -> None:
        self.params = params
        self.work_dir = work_dir

    def setup(self, seed: int) -> None:
        """Inputs, exact answer and an untimed warm-up job."""
        self.seed = seed
        self._build(seed)
        warm = self.run(-1)
        if warm.failures:
            print(f"warm-up job failed: {warm.failures[0]}", file=sys.stderr)

    def prepare_checks(self) -> None:
        """References for output checks that are too costly to count as set-up."""

    def run(self, j: int) -> JobResult:
        start = time.perf_counter()
        try:
            out = self._job(j)
        except Exception as exc:  # a job that raises is a failed job, not a crash
            return JobResult(time.perf_counter() - start, failures=[f"raised {type(exc).__name__}: {exc}"])
        result = JobResult(time.perf_counter() - start)
        try:
            self._check(j, out, result)
        except Exception as exc:  # e.g. an output file the program did not write
            result.failures.append(f"output check raised {type(exc).__name__}: {exc}")
        return result

    def _build(self, seed: int) -> None:
        raise NotImplementedError

    def _job(self, j: int):
        raise NotImplementedError

    def _check(self, j: int, out, result: JobResult) -> None:
        raise NotImplementedError


def _record_call(
    result: JobResult,
    family: str,
    vv: shapval.games.ValueVector,
    exact: np.ndarray,
    *,
    total: float | None = None,
    epsilon: float | None = None,
) -> None:
    values = vv.values
    result.evals += vv.eval_count
    if not np.all(np.isfinite(values)):
        result.failures.append(f"{family}: non-finite value")
        return
    if total is not None and abs(float(values.sum()) - total) > SUM_TOL:
        result.failures.append(f"{family}: sum {float(values.sum())!r} differs from U(I) = {total!r}")
    err = float(np.linalg.norm(values - exact))
    result.calls.append(Call(family, err, None if epsilon is None else err > epsilon))


class PermTable16(Workload):
    """Permutation sampling on a random-table game: a utility call is one lookup."""

    def _build(self, seed: int) -> None:
        p = self.params
        self.game = shapval.games.make_random_game(p["players"], seed)
        self.exact = shapval.games.exact_shapley_subsets(self.game).values
        self.budget = shapval.permutation.PermutationBudget.from_accuracy(
            self.game.range_r, p["players"], p["epsilon"], p["delta"]
        )

    def _job(self, j: int):
        return shapval.permutation.estimate_permutation(
            self.game, self.budget, job_seed(self.seed, j), threads=self.params["threads"]
        )

    def _check(self, j: int, vv, result: JobResult) -> None:
        _record_call(result, "perm", vv, self.exact, total=self.game.u_total, epsilon=self.params["epsilon"])


def _knn_data(rng: np.random.Generator, n_train: int, n_test: int, dim: int):
    """Gaussian points labelled by a noisy random hyperplane, as strings."""
    w = rng.normal(size=dim)

    def draw(n: int):
        x = rng.normal(size=(n, dim))
        y = np.where(x @ w + 0.5 * rng.normal(size=n) > 0, "1", "0")
        return x, y

    return draw(n_train), draw(n_test)


class KnnGame40(Workload):
    """Permutation sampling on the KNN utility, a Python loop per coalition."""

    def _build(self, seed: int) -> None:
        p = self.params
        rng = np.random.default_rng([seed, p["train"]])
        (x, y), (xt, yt) = _knn_data(rng, p["train"], p["test"], p["dim"])
        instances = [shapval.knn.KnnInstance(x, y, xt[i], yt[i], p["k"]) for i in range(p["test"])]
        self.game = shapval.knn.knn_game(instances)
        self.exact = shapval.knn.knn_shapley_testset(instances).values
        self.budget = shapval.permutation.PermutationBudget(p["permutations"])

    def _job(self, j: int):
        return shapval.permutation.estimate_permutation(
            self.game, self.budget, job_seed(self.seed, j), threads=self.params["threads"]
        )

    def _check(self, j: int, vv, result: JobResult) -> None:
        _record_call(result, "perm", vv, self.exact, total=self.game.u_total)


class GroupTestAdditive63(Workload):
    """Group testing (both recovery routes) and compressive sampling at N = 63."""

    reference = None

    def _build(self, seed: int) -> None:
        p = self.params
        rng = np.random.default_rng([seed, p["players"]])
        w = np.ones(p["players"])
        heavy = rng.choice(p["players"], size=p["heavy"], replace=False)
        w[heavy] = rng.uniform(*p["heavy_weight"], size=p["heavy"])
        self.game = shapval.games.make_additive_game(w / w.sum())
        self.exact = self.game.exact_values
        self.t_compressive = shapval.compressive.required_t_compressive(
            self.game.range_r, p["compressive_epsilon"], p["delta"], p["measurements"]
        )

    def prepare_checks(self) -> None:
        self.reference = self._job(0, threads=1)

    def _job(self, j: int, threads: int | None = None):
        p = self.params
        threads = threads or p["threads"]
        s = job_seed(self.seed, j)
        gt = shapval.group_testing
        return (
            gt.estimate_group_testing(self.game, p["epsilon"], p["delta"], s, "baseline", threads=threads),
            gt.estimate_group_testing(
                self.game, p["epsilon"], p["delta"], s, "feasibility",
                t_tests=p["feasibility_tests"], threads=threads,
            ),
            shapval.compressive.estimate_compressive(
                self.game, p["measurements"], self.t_compressive, p["compressive_epsilon"], s, threads=threads
            ),
        )

    def _check(self, j: int, out, result: JobResult) -> None:
        baseline, feasibility, compressive = out
        _record_call(result, "baseline", baseline, self.exact, epsilon=self.params["epsilon"])
        _record_call(result, "feasibility", feasibility, self.exact, total=self.game.u_total)
        _record_call(result, "compressive", compressive, self.exact)
        if j == 0 and self.reference is not None:
            for one, two in zip(self.reference, out):
                if one.values.tobytes() != two.values.tobytes():
                    result.failures.append(f"{two.method}: values differ between 1 and 2 threads")


def _write_csv(path: Path, x: np.ndarray, y: np.ndarray) -> None:
    # repr of a Python float round-trips exactly, so the CLI parses these very values
    lines = [",".join(map(repr, row)) + f",{label}" for row, label in zip(x.tolist(), y)]
    path.write_text("\n".join(lines) + "\n")


def knn_full_utility(x: np.ndarray, y: np.ndarray, xt: np.ndarray, yt: np.ndarray, k: int) -> float:
    """Mean over test points of the KNN utility of the whole training set,
    computed here without the package (ties go to the lower index)."""
    total = 0.0
    for point, label in zip(xt, yt):
        diff = x - point
        nearest = np.argsort(np.einsum("ij,ij->i", diff, diff), kind="stable")[:k]
        total += float(np.sum(y[nearest] == label)) / k
    return total / len(xt)


class KnnCli10k(Workload):
    """The ``shapval knn`` command on CSV files, run as a user runs it.

    ``in_process`` calls ``shapval.cli.main`` instead of starting a
    process; traced runs use it so spans can be recorded.
    """

    runs_cli = True
    in_process = False
    first_csv: bytes | None = None  # every job's CSV, across repeated set-ups, must equal the first

    def _build(self, seed: int) -> None:
        p = self.params
        rng = np.random.default_rng([seed, p["train"]])
        (x, y), (xt, yt) = _knn_data(rng, p["train"], p["test"], p["dim"])
        self.work_dir.mkdir(parents=True, exist_ok=True)
        train, test = self.work_dir / "train.csv", self.work_dir / "test.csv"
        self.output = self.work_dir / "values.csv"
        self.output.unlink(missing_ok=True)  # a file left by an earlier run must not pass the checks
        _write_csv(train, x, y)
        _write_csv(test, xt, yt)
        self.total = knn_full_utility(x, y, xt, yt, p["k"])
        self.argv = ["knn", "--train", str(train), "--test", str(test), "--k", str(p["k"]), "--output", str(self.output)]

    def _job(self, j: int):
        if self.in_process:
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = shapval.cli.main(self.argv)
            return code, err.getvalue()
        return run_child([sys.executable, "-m", "shapval.cli", *self.argv], timeout=120)

    def _check(self, j: int, out, result: JobResult) -> None:
        code, stderr = out
        p = self.params
        raw = self.output.read_bytes() if self.output.exists() else None
        self.output.unlink(missing_ok=True)  # the next job must write its own
        if code != 0:
            result.failures.append(f"exit code {code}: {stderr.strip()[-200:]}")
            return
        if raw is None:
            result.failures.append(f"exit code 0 but no output file {self.output.name}")
            return
        lines = raw.decode().splitlines()
        if lines[:1] != ["player,value"] or len(lines) - 1 != p["train"]:
            result.failures.append(f"expected a header and {p['train']} rows, got {len(lines)} lines")
            return
        values = np.array([float(line.split(",")[1]) for line in lines[1:]])
        if not np.all(np.isfinite(values)):
            result.failures.append("non-finite value")
        elif abs(float(values.sum()) - self.total) > SUM_TOL:
            result.failures.append(f"sum {float(values.sum())!r} differs from the full-set utility {self.total!r}")
        if self.first_csv is None:
            self.first_csv = raw
        elif raw != self.first_csv:
            result.failures.append("values CSV differs from the first job's")
        result.pairs = p["train"] * p["test"]


WORKLOADS = {
    "perm-table16": PermTable16,
    "knn-game40": KnnGame40,
    "grouptest-additive63": GroupTestAdditive63,
    "knn-cli10k": KnnCli10k,
}
