"""Benchmark history and test-suite timings; neither is a workload or a gate.

    python3 bench/record.py durations
        Run the tier-1 test suite with --durations=20 and write the slowest
        tests to bench/out/durations.json.

    python3 bench/record.py history --n N [--commit REV] [--note TEXT]
        Collect every run in bench/out/runs/ (and durations.json, if present)
        into bench/history/BENCH_<N>.json: per workload and metric the
        values, seeds, median, quartiles and spread (IQR / median).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
DURATION_RE = re.compile(r"^\s*([0-9.]+)s (setup|call|teardown)\s+(\S+)")


def durations() -> int:
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=20", "-p", "no:cacheprovider"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=1800)
    lines = proc.stdout.splitlines()
    slowest = [
        {"seconds": float(m.group(1)), "phase": m.group(2), "test": m.group(3)}
        for m in map(DURATION_RE.match, lines)
        if m
    ]
    record = {
        "command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors --durations=20",
        "summary": lines[-1] if lines else "",
        "exit_code": proc.returncode,
        "slowest": slowest,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "durations.json").write_text(json.dumps(record, indent=1) + "\n")
    for row in slowest:
        print(f"{row['seconds']:8.2f}s {row['phase']:<8} {row['test']}")
    print(record["summary"])
    return 0


def spread_stats(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def history(n: int, commit: str | None, note: str | None) -> int:
    runs = [json.loads(p.read_text()) for p in sorted((OUT_DIR / "runs").glob("*.json"))]
    if not runs:
        print(f"no runs under {OUT_DIR / 'runs'}", file=sys.stderr)
        return 1
    grouped: dict[str, dict[str, list]] = {}
    for run in sorted(runs, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        mode = "traced" if run["trace"] else "untraced"
        grouped.setdefault(run["workload"], {}).setdefault(mode, []).append(run)
    workloads = {}
    for workload, modes in grouped.items():
        entry = {}
        for mode, group in modes.items():
            names = sorted({name for run in group for name in run["metrics"]})
            entry[mode] = {
                "seeds": [run["seed"] for run in group],
                "seconds": sorted({run["seconds"] for run in group}),
                "all_correct": all(run["result"]["correct"] for run in group),
                "metrics": {
                    name: dict(
                        unit=next(r["metrics"][name]["unit"] for r in group if name in r["metrics"]),
                        **spread_stats([r["metrics"][name]["value"] for r in group if name in r["metrics"]]),
                    )
                    for name in names
                },
            }
            if mode == "traced":
                entry[mode]["dominant_confirmed"] = [run["details"]["dominant"]["confirmed"] for run in group]
        workloads[workload] = entry
    spec = json.loads((BENCH_DIR / "spec.json").read_text())
    record = {"n": n, "commit": commit, "note": note, "machine": spec["machine"], "workloads": workloads}
    durations_file = OUT_DIR / "durations.json"
    if durations_file.exists():
        record["tier1_durations"] = json.loads(durations_file.read_text())
    target = BENCH_DIR / "history" / f"BENCH_{n}.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(record, indent=1) + "\n")
    print(target)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="benchmark history and test-suite timings")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("durations", help="record the slowest tier-1 tests")
    hist = sub.add_parser("history", help="collect bench/out/runs into bench/history/BENCH_<n>.json")
    hist.add_argument("--n", type=int, required=True)
    hist.add_argument("--commit")
    hist.add_argument("--note")
    args = parser.parse_args(argv)
    if args.command == "durations":
        return durations()
    return history(args.n, args.commit, args.note)


if __name__ == "__main__":
    sys.exit(main())
