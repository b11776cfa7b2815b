#!/usr/bin/env python3
"""Fast self-test of the benchmark at a tiny input size.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json and both ``--trace`` modes it runs
``perfbench/run.py --tiny`` and checks that the last line of stdout is the
result object, that its metrics are exactly the ones BENCHMARK.json names for
that mode, each with its unit and a finite value, and that every correctness
check passed with nothing failed.  It then copies only BENCHMARK.json and the
benchmark's own files into an otherwise empty directory and checks that the
benchmark exits nonzero there without printing a result.  Takes about a
minute; exits 1 if anything is wrong.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIMEOUT_S = 180


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_result(result, expected: dict) -> list[str]:
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"last line is not a result object: {result!r}"]
    problems = []
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    metrics = result["metrics"]
    for name in sorted(set(expected) ^ set(metrics)):
        problems.append(f"metric {name} {'missing' if name in expected else 'not in BENCHMARK.json'}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, BENCHMARK.json says {unit!r}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name}: value {m.get('value')!r} is not a finite number")
    return problems


def run_bench(cwd: Path, workload: str, trace: int, extra=()) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1"]
    return subprocess.run(
        [*argv, "--trace", str(trace), *extra], cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = run_bench(ROOT, workload, trace, ["--tiny"])
            problems = [f"exit code {done.returncode}"] if done.returncode else []
            problems += check_result(last_json(done.stdout), expected[trace])
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}")
            for p in problems:
                print(f"     {p}")
            if problems:
                print(done.stderr[-2000:])

    bare = BENCH / "out" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = run_bench(bare, spec["workloads"][0]["name"], 0)
        refused = done.returncode != 0 and last_json(done.stdout) is None
        failures += not refused
        print(f"{'ok  ' if refused else 'FAIL'} refuses to run without the program (exit {done.returncode})")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
