"""Quick self-test of the benchmark (about a minute).

Usage (from the root of the repository):

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at its tiny size, untraced and traced,
and checks that no operation fails, that every output is correct, and that
the metric names and units printed are exactly those BENCHMARK.json lists.
Then checks that the benchmark refuses to run, without printing a result,
in a directory holding only BENCHMARK.json and perfbench/.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {list(WORKLOADS)}")
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in names:
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            tag = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-1500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} failed="
                                f"{result['failed']}/{result['attempted']}\n{proc.stderr}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{tag}: metrics {units} != BENCHMARK.json {expected[trace]}")
            print(f"{tag}: ok, {result['attempted']} operations", flush=True)

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(bare, names[0], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without src/ the benchmark exited {proc.returncode} "
                        f"and printed {proc.stdout.strip()[:200]!r}")
    else:
        print(f"without src/: exit {proc.returncode}, nothing printed: ok")
    shutil.rmtree(bare)

    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
