"""shapval benchmark: one workload, measured for a fixed time, one job at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the package is imported from ``src/``).
The workload's inputs come from ``--seed``.  Jobs run one after another
(a closed loop) for ``--seconds`` in all; an untraced run repeats the
set-up ``SETUP_REPEATS`` times at even intervals and reports its median.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` spends half the time untraced and half with spans recorded
at every layer boundary, and reports the per-layer metrics and the
tracing overhead; the spans go to ``bench/out/spans/``.

The full metric table goes to stderr and to ``bench/out/runs/``; the last
line of stdout is one JSON object with the metrics ``BENCHMARK.json``
names for the chosen mode.  Metric meanings are in ``bench/spec.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# BLAS takes its thread count from these when numpy is first imported, and
# spans imports numpy: one BLAS thread, so a job runs only its own workers
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import spans  # noqa: E402
from child import run_child  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
TAIL_BEYOND = 10
SETUP_REPEATS = 5
CLI_START_REPEATS = 3
IMPORTS = "import numpy, shapval.cli, shapval.compressive, shapval.group_testing, shapval.knn, shapval.permutation"


def load_spec() -> dict:
    return json.loads((BENCH_DIR / "spec.json").read_text())


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def tail_percentile(times: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(time, percentile) of the highest percentile with ``beyond`` jobs above it.

    With n sorted job times this is the (n - beyond)-th smallest, at
    percentile 100 (n - beyond) / n.  With ``beyond`` jobs or fewer no such
    percentile exists and the maximum is reported at percentile 100.
    """
    ordered = sorted(times)
    k = len(ordered) - beyond
    if k < 1:
        return ordered[-1], 100.0
    return ordered[k - 1], 100.0 * k / len(ordered)


def rms(values: list[float]) -> float:
    return math.sqrt(sum(v * v for v in values) / len(values)) if values else 0.0


class Reference:
    """A fixed piece of work, timed just before every job.

    Other tenants of the shared host change this machine's speed by up to
    2x for seconds to minutes at a time, so a job's wall time swings with
    them.  Its ratio to the reference, timed a moment earlier on the same
    cores, keeps what the program costs and drops most of that drift
    (``job_p50_ref``).  The mix of a bytecode loop, a sort and many small
    numpy calls is the mix the package's estimators spend their time in.
    Row-wise double argsorts, the pooled-test samplers' kernel, then run
    on as many threads as the workload's estimators use: a job with two
    workers slows when either core does, and a one-thread reference
    misses half of that.  Where each job is a process of its own, a fresh
    interpreter importing numpy is timed too: process start and imports
    are most of such a job and do not slow with the in-process work.
    """

    def __init__(self, threads: int = 1, process: bool = False) -> None:
        rng = np.random.default_rng(0)
        self.big = rng.random(20_000)
        self.small = rng.random(64)
        self.blocks = [rng.random((1_500, 63)) for _ in range(threads)]
        self.process = process

    @staticmethod
    def _rank_rows(block: np.ndarray) -> None:
        for _ in range(2):
            np.argsort(np.argsort(block, axis=1), axis=1)

    def seconds(self) -> float:
        start = time.perf_counter()
        total, seen = 0, {}
        for i in range(15_000):
            total += i * i % 7
            seen[i & 255] = total
        for _ in range(3):
            np.argsort(self.big)
        for _ in range(1_000):
            self.small.sum()
            np.flatnonzero(self.small > 0.5)
        if len(self.blocks) == 1:
            self._rank_rows(self.blocks[0])
        else:
            with ThreadPoolExecutor(max_workers=len(self.blocks)) as pool:
                list(pool.map(self._rank_rows, self.blocks))
        if self.process:
            run_checked([sys.executable, "-c", "import numpy"])
        return time.perf_counter() - start


def measure(workload, first_job: int, seconds: float, reference: Reference, tracer=None) -> list:
    """Run jobs one after another until ``seconds`` have passed (at least
    one), each preceded by a timing of the reference work."""
    jobs = []
    deadline = time.perf_counter() + seconds
    j = first_job
    while not jobs or time.perf_counter() < deadline:
        ref_seconds = reference.seconds()
        if tracer is None:
            job = workload.run(j)
        else:
            tracer.job = j
            with tracer.span("bench.job"):
                job = workload.run(j)
        job.ref_seconds = ref_seconds
        jobs.append(job)
        j += 1
    return jobs


def peak_rss_mb(with_children: bool) -> float:
    """This process's peak RSS, plus that of its largest waited-for child
    when the jobs are child processes (ru_maxrss is in KiB on Linux).

    The import-timing children are left out elsewhere; where CLI jobs run
    they are smaller than any CLI child, which imports the same modules."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def end_to_end(jobs: list, setup_s: float, with_children: bool) -> tuple[dict[str, float], dict]:
    """All end-to-end metrics that apply to these jobs, plus run details."""
    times = [job.seconds for job in jobs]
    busy = sum(times)
    tail, pct = tail_percentile(times)
    calls = [call for job in jobs for call in job.calls]
    sized = [call.missed for call in calls if call.missed is not None]
    evals = sum(job.evals for job in jobs)
    pairs = sum(job.pairs for job in jobs)
    m = {
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail,
        "job_p50_ref": statistics.median(job.seconds / job.ref_seconds for job in jobs),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(with_children),
        "failed_frac": sum(1 for job in jobs if job.failures) / len(jobs),
    }
    if evals:
        m["evals_per_s"] = evals / busy
        m["evals_per_job"] = evals / len(jobs)
    if pairs:
        m["pairs_per_s"] = pairs / busy
    if calls:
        m["err_l2_rms"] = rms([call.err_l2 for call in calls])
    if sized:
        m["eps_miss_frac"] = sum(sized) / len(sized)
    families = sorted({call.family for call in calls})
    details = {
        "jobs": len(jobs),
        "job_tail_percentile": pct,
        "job_seconds": times,
        "ref_p50_s": statistics.median(job.ref_seconds for job in jobs),
        "err_l2_rms_by_family": {
            f: rms([c.err_l2 for c in calls if c.family == f]) for f in families
        },
    }
    return m, details


def run_checked(argv: list[str]) -> None:
    code, err = run_child(argv, timeout=60)
    if code != 0:
        raise RuntimeError(f"{argv} exited with {code}: {err.strip()[-200:]}")


def import_seconds(statement: str) -> float:
    """Time for a fresh interpreter to run an import statement."""
    start = time.perf_counter()
    run_checked([sys.executable, "-c", statement])
    return time.perf_counter() - start


def per_layer(summary: dict, n_jobs: int, traced: list, cli_start_s: float, plain_p50: float) -> dict[str, float]:
    """Per-layer metrics from the span summary of ``n_jobs`` traced jobs."""
    def row(name: str) -> dict[str, float]:
        return summary.get(name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "value": 0.0})

    def per_job(name: str, key: str) -> float:
        return row(name)[key] / n_jobs

    def family_rms(*families: str) -> float:
        return rms([c.err_l2 for job in traced for c in job.calls if c.family in families])

    layer_self = spans.layer_self_times(summary)
    chunks = [r for name, r in summary.items() if name.endswith(".chunk")]
    evals = row("games.eval")
    bpdn = row("compressive.bpdn")
    traced_p50 = statistics.median(job.seconds for job in traced)
    return {
        "rng.streams": per_job("rng.stream", "count"),
        "rng.stream_s": per_job("rng.stream", "total_s"),
        "parallel.chunks": sum(r["count"] for r in chunks) / n_jobs,
        "parallel.map_s": per_job("parallel.map", "total_s"),
        "parallel.busy_s": sum(r["total_s"] for r in chunks) / n_jobs,
        "parallel.self_s": layer_self["parallel"] / n_jobs,
        "games.evals": evals["value"] / n_jobs,
        "games.eval_calls": evals["count"] / n_jobs,
        "games.eval_s": evals["total_s"] / n_jobs,
        "games.us_per_eval": 1e6 * evals["total_s"] / evals["value"] if evals["value"] else 0.0,
        "permutation.estimate_s": per_job("permutation.estimate", "total_s"),
        "permutation.self_s": layer_self["permutation"] / n_jobs,
        "permutation.err_l2_rms": family_rms("perm"),
        "compressive.sample_s": per_job("compressive.sample", "total_s"),
        "compressive.bpdn_s": bpdn["total_s"] / n_jobs,
        "compressive.bpdn_calls": bpdn["count"] / n_jobs,
        "compressive.zero_correction_frac": bpdn["value"] / bpdn["count"] if bpdn["count"] else 0.0,
        "compressive.err_l2_rms": family_rms("compressive"),
        "compressive.self_s": layer_self["compressive"] / n_jobs,
        "group_testing.baseline_s": per_job("group_testing.baseline", "total_s"),
        "group_testing.feasibility_s": per_job("group_testing.feasibility", "total_s"),
        "group_testing.self_s": layer_self["group_testing"] / n_jobs,
        "group_testing.recover_s": per_job("group_testing.recover", "total_s"),
        "group_testing.split_s": per_job("group_testing.split", "total_s"),
        "group_testing.uncertified": per_job("group_testing.recover", "value"),
        "group_testing.baseline_err_l2_rms": family_rms("baseline"),
        "group_testing.feasibility_err_l2_rms": family_rms("feasibility"),
        "knn.instances": per_job("knn.build", "count"),
        "knn.build_s": per_job("knn.build", "total_s"),
        "knn.closed_form_s": per_job("knn.closed_form", "total_s"),
        "datasets.rows": per_job("datasets.load", "value"),
        "datasets.load_s": per_job("datasets.load", "total_s"),
        "results.bytes": per_job("results.write", "value"),
        "results.write_s": per_job("results.write", "total_s"),
        "cli.start_s": cli_start_s,
        "cli.self_s": layer_self["cli"] / n_jobs,
        "trace.overhead_s": traced_p50 - plain_p50,
        "trace.spans": sum(r["count"] for r in summary.values()) / n_jobs,
    }


def dominant_check(summary: dict, n_jobs: int, cli_start_s: float, predicted: list[str]) -> dict:
    """Does the predicted layer set take more self time than any other layer?"""
    share = {layer: s / n_jobs for layer, s in spans.layer_self_times(summary).items()}
    share["cli"] += cli_start_s
    rest = max(s for layer, s in share.items() if layer not in predicted)
    ranked = sorted(share, key=share.get, reverse=True)
    return {
        "predicted": predicted,
        "confirmed": sum(share[layer] for layer in predicted) > rest,
        "self_s_per_job": {layer: share[layer] for layer in ranked},
    }


def traced_run(workload, name: str, seed: int, seconds: float, predicted: list[str], reference: Reference):
    if workload.runs_cli:
        workload.in_process = True
    plain = measure(workload, 0, seconds / 2, reference)
    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        traced = measure(workload, len(plain), seconds / 2, reference, tracer)
    finally:
        tracer.restore()
    cli_start_s = 0.0
    if workload.runs_cli:
        cli_start_s = statistics.median(import_seconds("import shapval.cli") for _ in range(CLI_START_REPEATS))
    summary = spans.summarize(tracer.columns())
    plain_p50 = statistics.median(job.seconds for job in plain)
    metrics = per_layer(summary, len(traced), traced, cli_start_s, plain_p50)
    details = {
        "jobs_untraced": len(plain),
        "jobs_traced": len(traced),
        "job_p50_s_untraced": plain_p50,
        "dominant": dominant_check(summary, len(traced), cli_start_s, predicted),
    }
    tracer.save(OUT_DIR / "spans" / f"{name}-seed{seed}.npz")
    return plain + traced, metrics, details


def result_line(values: dict[str, float], wanted: list[dict], jobs: list) -> dict:
    """The contract's last line: exactly the metrics ``wanted`` names."""
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if not NAME_RE.fullmatch(name) or name not in values:
            raise KeyError(f"metric {name!r} is not a valid name or was not measured")
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
    failed = sum(1 for job in jobs if job.failures)
    return {"correct": failed == 0, "attempted": len(jobs), "failed": failed, "metrics": metrics}


def pin_environment() -> None:
    """Import the package from src/, in this process and in CLI children;
    worker counts only from the workload."""
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    os.environ.pop("SHAPVAL_THREADS", None)


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "shapval" / "__init__.py").is_file():
        print(f"error: no shapval package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    pin_environment()
    import workloads  # imports numpy and shapval

    entry = spec["workloads"][args.workload]
    workload = workloads.WORKLOADS[args.workload](entry["params"], OUT_DIR / "work" / args.workload)
    reference = Reference(entry["params"].get("threads", 1), process=workload.runs_cli)
    if args.trace:
        workload.setup(args.seed)
        workload.prepare_checks()
        jobs, values, details = traced_run(workload, args.workload, args.seed, args.seconds, entry["dominant"], reference)
        wanted = bench["per_layer"]
        units = {e["name"]: e["unit"] for e in wanted}
    else:
        jobs, setup_times = [], []
        for k in range(SETUP_REPEATS):
            # set-up is repeated at even intervals through the run, so its
            # median spans the machine's speed changes as the jobs do
            import_s = import_seconds(IMPORTS)
            start = time.perf_counter()
            workload.setup(args.seed)
            setup_times.append(import_s + time.perf_counter() - start)
            if k == 0:
                workload.prepare_checks()
            jobs += measure(workload, len(jobs), args.seconds / SETUP_REPEATS, reference)
        values, details = end_to_end(jobs, statistics.median(setup_times), workload.runs_cli)
        details["setup_repeats_s"] = setup_times
        wanted = bench["end_to_end"]
        # BENCHMARK.json gives the gated metrics' units, spec.json the others'
        units = {e["name"]: e["unit"] for e in wanted}
        units.update((name, e["unit"]) for name, e in spec["end_to_end"].items() if name not in units)

    failures = sorted({msg for job in jobs for msg in job.failures})
    for name, value in values.items():
        print(f"{args.workload:<22} {name:<38} {value:<24.6g} {units[name]}", file=sys.stderr)
    for msg in failures[:10]:
        print(f"{args.workload}: failed check: {msg}", file=sys.stderr)
    if args.trace and not details["dominant"]["confirmed"]:
        print(f"{args.workload}: predicted dominant layer {entry['dominant']} not confirmed", file=sys.stderr)

    line = result_line(values, wanted, jobs)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "result": line,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
        "details": details,
        "failures": failures[:10],
    }
    runs = OUT_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
