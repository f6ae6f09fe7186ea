"""Self-checks of the benchmark itself (not part of tier-1).

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

import run
import spans

BENCHMARK = run.load_benchmark()
SPEC = run.load_spec()


def test_benchmark_json_has_the_contract_keys():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(SPEC["workloads"])
    assert any(e["name"] == "setup_s" and e["unit"] == "s" and e["better"] == "lower" for e in BENCHMARK["end_to_end"])
    assert all(0 < e["bound"] <= 0.25 for e in BENCHMARK["end_to_end"])
    bounds = {e["name"]: e["bound"] for e in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads through /proc")
def test_blas_starts_no_threads_when_run_imports_numpy():
    # OpenBLAS starts its worker threads as numpy is imported; they would
    # compete with the estimators' own workers for the two cores
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    code = "import os, sys, run; assert 'numpy' in sys.modules; print(len(os.listdir('/proc/self/task')))"
    out = subprocess.run([sys.executable, "-c", code], cwd=run.BENCH_DIR, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "1"


def test_metric_names_are_valid_and_unique():
    names = [e["name"] for e in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += list(SPEC["end_to_end"]) + list(SPEC["workloads"])
    assert all(run.NAME_RE.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(e["name"] for e in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"])) == len(
        BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    )


@pytest.mark.parametrize(
    "n, expected",
    [
        (100, (90.0, 90.0)),  # the 90th of 100 sorted times has 10 beyond it
        (11, (1.0, 100.0 / 11)),
        (10, (10.0, 100.0)),  # no percentile has 10 jobs beyond: the maximum
        (1, (1.0, 100.0)),
    ],
)
def test_tail_percentile_rule(n, expected):
    times = [float(t) for t in range(n, 0, -1)]  # unsorted on purpose
    assert run.tail_percentile(times) == expected


def test_self_time_on_a_synthetic_span_tree():
    # id, parent, start, end
    tree = [
        (1, 0, 0.0, 10.0),  # root: children cover [1, 5] and [7, 8] -> 5 self
        (2, 1, 1.0, 3.0),   # overlaps its sibling (another thread)
        (3, 1, 2.0, 5.0),   # child 5 covers [3, 4] -> 2 self
        (4, 1, 7.0, 8.0),
        (5, 3, 3.0, 4.0),
        (6, 4, 7.5, 9.0),   # overruns its parent: only [7.5, 8] is subtracted
    ]
    ids, parents, starts, ends = (list(col) for col in zip(*tree))
    excl = spans.exclusive_times(ids, parents, starts, ends)
    assert excl == pytest.approx([5.0, 2.0, 2.0, 0.5, 1.0, 1.5])

    cols = {
        "id": ids, "parent": parents, "start": starts, "end": ends,
        "name": ["bench.job", "rng.stream", "permutation.chunk", "parallel.map", "games.eval", "games.eval"],
        "value": [0, 0, 0, 0, 3, 4],
    }
    summary = spans.summarize(cols)
    assert summary["games.eval"] == {"count": 2, "total_s": 2.5, "self_s": 2.5, "value": 7}
    layers = spans.layer_self_times(summary)
    assert layers["games"] == 2.5 and layers["permutation"] == 2.0 and layers["parallel"] == 0.5
    assert "bench" not in layers


def test_chunk_spans_on_worker_threads_hang_under_their_map():
    def ordered_chunk_map(fn, ranges, threads):
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return [f.result() for f in [pool.submit(fn, i, lo, hi) for i, (lo, hi) in enumerate(ranges)]]

    def leaf(i):
        return i

    module = types.SimpleNamespace(ordered_chunk_map=ordered_chunk_map, leaf=leaf)
    tracer = spans.Tracer()
    tracer.wrap_chunk_map(module, "group_testing")
    tracer.wrap(module, "leaf", "rng.stream", value=lambda args, kwargs, out: out)
    tracer.job = 7
    threads = set()

    def chunk(i, lo, hi):
        threads.add(threading.get_ident())
        return module.leaf(i)

    assert module.ordered_chunk_map(chunk, [(0, 1), (1, 2), (2, 3), (3, 4)], 2) == [0, 1, 2, 3]
    assert threading.get_ident() not in threads  # every chunk ran on a worker thread
    tracer.restore()
    assert module.ordered_chunk_map is ordered_chunk_map and module.leaf is leaf

    cols = tracer.columns()
    by_id = dict(zip(cols["id"], zip(cols["name"], cols["parent"])))
    (map_id,) = [i for i, (name, _) in by_id.items() if name == "parallel.map"]
    chunks = [i for i, (name, parent) in by_id.items() if name == "group_testing.chunk"]
    assert len(chunks) == 4 and all(by_id[c][1] == map_id for c in chunks)
    leaves = [parent for name, parent in by_id.values() if name == "rng.stream"]
    assert sorted(leaves) == sorted(chunks)
    assert set(cols["job"]) == {7}
    assert sorted(v for n, v in zip(cols["name"], cols["value"]) if n == "rng.stream") == [0, 1, 2, 3]


def test_dominant_check_counts_cli_start():
    summary = {
        "knn.build": {"count": 1, "total_s": 0.3, "self_s": 0.3, "value": 0},
        "datasets.load": {"count": 1, "total_s": 0.4, "self_s": 0.4, "value": 0},
    }
    assert not run.dominant_check(summary, 1, 0.0, ["cli", "knn"])["confirmed"]
    assert run.dominant_check(summary, 1, 0.2, ["cli", "knn"])["confirmed"]


def test_job_p50_ref_is_the_median_of_each_jobs_ratio_to_its_reference():
    # the machine runs twice as slow for the last two jobs: raw times move, ratios do not
    jobs = [
        types.SimpleNamespace(seconds=s, ref_seconds=r, calls=[], evals=0, pairs=0, failures=[])
        for s, r in [(0.10, 0.01), (0.11, 0.01), (0.20, 0.02), (0.21, 0.02), (0.10, 0.01)]
    ]
    metrics, details = run.end_to_end(jobs, 1.0, with_children=False)
    assert metrics["job_p50_ref"] == pytest.approx(10.0)
    assert metrics["job_p50_s"] == pytest.approx(0.11)
    assert details["ref_p50_s"] == pytest.approx(0.01)
    for reference in (run.Reference(), run.Reference(threads=2), run.Reference(process=True)):
        assert reference.seconds() > 0


def test_result_line_holds_exactly_the_wanted_metrics():
    job = types.SimpleNamespace(failures=[])
    bad = types.SimpleNamespace(failures=["sum differs"])
    wanted = [{"name": "job_p50_s", "unit": "s"}]
    line = run.result_line({"job_p50_s": 0.5, "extra": 1.0}, wanted, [job, bad])
    assert line == {
        "correct": False,
        "attempted": 2,
        "failed": 1,
        "metrics": {"job_p50_s": {"value": 0.5, "unit": "s"}},
    }
    json.dumps(line)
    with pytest.raises(KeyError):
        run.result_line({}, wanted, [job])
