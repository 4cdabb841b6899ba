"""Run-to-run spread of the benchmark: one run per seed, then quartiles.

Usage (from the root of the repository):

    python3 perfbench/spread.py --label set-a --seeds 1-10 --seconds 24 \\
        [--workloads exact-table,mc-gates] [--trace 0]
    python3 perfbench/spread.py --compare set-a set-b

Runs perfbench/run.py once per workload and seed, one run at a time, keeps
each result line (and the run's stderr, with its per-pass figures) under
perfbench/out/<label>/, and prints for every metric
the median, the quartiles (statistics.quantiles, n=4) and their distance as
a share of the median.  --compare prints two labels side by side as a
Markdown table, with the change of the second median against the first.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def load(label: str, trace: int) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted((HERE / "out" / label).glob(f"*-trace{trace}.json")):
        workload = path.name.rsplit("-", 2)[0]
        runs.setdefault(workload, []).append(json.loads(path.read_text()))
    return runs


def compare(first: str, second: str, trace: int) -> None:
    a, b = load(first, trace), load(second, trace)
    print(f"| workload | metric | {first} median [q1, q3] | iqr/median | "
          f"{second} median [q1, q3] | iqr/median | change |")
    print("|---|---|---|---|---|---|---|")
    for workload in WORKLOADS:
        if workload not in a or workload not in b:
            continue
        for name in a[workload][0]["metrics"]:
            cells = []
            for runs in (a[workload], b[workload]):
                med, q1, q3, spread = summarize([r["metrics"][name]["value"] for r in runs])
                cells.append((med, f"{med:.4g} [{q1:.4g}, {q3:.4g}] | {spread:.3f}"))
            change = cells[1][0] / cells[0][0] - 1 if cells[0][0] else 0.0
            print(f"| {workload} | {name} | {cells[0][1]} | {cells[1][1]} | {change:+.3f} |")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label")
    parser.add_argument("--compare", nargs=2, metavar="LABEL")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare, args.trace)
        return 0
    if not args.label:
        parser.error("--label or --compare is required")
    out_dir = HERE / "out" / args.label
    out_dir.mkdir(parents=True, exist_ok=True)
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=HERE.parent, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            line = proc.stdout.strip().splitlines()[-1]
            stem = out_dir / f"{workload}-{seed}-trace{args.trace}"
            stem.with_suffix(".json").write_text(line + "\n")
            stem.with_suffix(".log").write_text(proc.stderr)
            runs.append(json.loads(line))
            values = {k: v["value"] for k, v in runs[-1]["metrics"].items()}
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.4f}" for k, v in values.items()), flush=True)
        failed = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: correct={all(r['correct'] for r in runs)} failed share={failed}")
        for name in runs[0]["metrics"]:
            med, q1, q3, spread = summarize([r["metrics"][name]["value"] for r in runs])
            print(f"  {name:28s} median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
                  f"iqr/median {spread:.4f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
