"""Benchmark of hurwitzkit: one workload per call, one JSON result line.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload exact-table --seed 1 --seconds 20 --trace 0

Each run repeats whole passes over the workload's fixed list of operations,
each pass in a fresh interpreter (perfbench/one_pass.py), until --seconds have
gone by and at least MIN_PASSES passes are done.  Caches are therefore cold
in the same way in every pass.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  How each figure is made robust to bursts of host slowness is in
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
PASS_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "characters.self_s": "s", "characters.calls": "count", "characters.cache_entries": "count",
    "hurwitz.self_s": "s", "hurwitz.calls": "count",
    "symfunc.self_s": "s", "symfunc.cache_entries": "count",
    "genfun.self_s": "s", "hirota.self_s": "s",
    "oracle.self_s": "s", "oracle.calls": "count", "oracle.cache_entries": "count",
    "matrixmc.self_s": "s", "matrixmc.calls": "count",
    "numpy.qr_s": "s", "numpy.qr_matrices": "count",
    "partitions.self_s": "s", "partitions.cache_entries": "count",
    "cli.self_s": "s", "cli.startup_s": "s",
}


class PassError(RuntimeError):
    pass


def pass_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("HURWITZKIT_THREADS", None)  # the CLI's default worker count
    return env


def run_pass(args, env) -> dict:
    spawned = time.monotonic()
    argv = [sys.executable, str(HERE / "one_pass.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--trace", str(args.trace), "--size", args.size,
            "--spawned", repr(spawned)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass timed out after {PASS_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def end_to_end(passes: list[dict]) -> dict[str, float]:
    # Operation times are rescaled to the reference host speed measured in
    # each pass, then the median pass is taken; start-up, which does not slow
    # in step with the calibration loop, is taken as measured.  See README.md.
    return {
        "wall_s": statistics.median(sum(p["op_ref_s"]) for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] / 1024 for p in passes),
    }


def per_layer(passes: list[dict]) -> dict[str, float]:
    out = {}
    for name, unit in LAYER_UNITS.items():
        values = [p["layers"].get(name, 0) for p in passes]
        if unit == "count":
            if len(set(values)) > 1:
                print(f"warning: {name} differs between passes: {values}", file=sys.stderr)
            out[name] = min(values)
        elif name == "cli.startup_s":
            out[name] = statistics.median(values)
        else:
            out[name] = statistics.median(v / p["host_slowdown"] for v, p in zip(values, passes))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few seconds per workload, for the self-test")
    args = parser.parse_args()
    if not (ROOT / "src" / "hurwitzkit" / "__init__.py").is_file():
        print(f"no hurwitzkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # On SIGTERM unwind through subprocess.run, which kills and reaps the pass.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = pass_env()
    start = time.monotonic()
    passes: list[dict] = []
    try:
        while len(passes) < MIN_PASSES or time.monotonic() - start < args.seconds:
            passes.append(run_pass(args, env))
    except PassError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    for i, p in enumerate(passes):
        print(f"pass {i}: wall {sum(p['op_s']):.4f} s, setup {p['setup_s']:.4f} s, "
              f"host slowdown {p['host_slowdown']:.3f}, "
              f"at reference speed {sum(p['op_ref_s']):.4f} s, "
              f"peak {p['peak_rss_kb'] / 1024:.1f} MB, failed {p['failed']}/{p['attempted']}",
              file=sys.stderr)
        for note in p["notes"]:
            print(f"  {note}", file=sys.stderr)
    if args.trace:
        print(f"traced wall_s {end_to_end(passes)['wall_s']:.4f}", file=sys.stderr)
        values, units = per_layer(passes), LAYER_UNITS
    else:
        values, units = end_to_end(passes), END_TO_END_UNITS
    print(json.dumps({
        "correct": all(p["wrong"] == 0 for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
