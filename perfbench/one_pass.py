"""One pass over a workload, in a fresh interpreter.

Usage: python3 perfbench/one_pass.py --workload NAME --seed N --trace 0|1
           --size full|tiny --spawned T

T is the moment, on the monotonic clock, at which the caller started this
process.

Imports hurwitzkit, builds the workload's operations, times them one after
another, then checks every output.  Prints one JSON line: the set-up time
(from T to the first timed call), the time of each operation as measured and
rescaled to the reference host speed,
the peak resident memory of the process doing the work, and the number of
operations that failed or gave a wrong answer.  With --trace 1 it also
reports the per-layer metrics.
"""
import time  # first, so the import of hurwitzkit counts as set-up

import argparse
import importlib
import json
import os
import resource
import signal
import sys
from pathlib import Path

import hurwitzkit

IMPORTED = time.monotonic()

import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CALIBRATE_EVERY_S = 0.1
REFERENCE_CALIBRATION_S = 0.0025  # the loop's typical time on a 2-core Xeon VM, Python 3.11


def calibrate() -> float:
    """Time a fixed loop of integer and dict work.

    The loop allocates one small dict of ints and nothing else, so it does
    not set off the cyclic garbage collector, and its time does not depend
    on how much the program holds in memory; it tracks only how fast the
    host runs Python right now.
    """
    start = time.perf_counter()
    table = dict.fromkeys(range(97), 0)
    for i in range(15000):
        table[i % 97] += i * i % 7
    return time.perf_counter() - start


def _peak_rss_kb(children: bool) -> int:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args()
    # On SIGTERM unwind through subprocess.run, which kills and reaps a command.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    cli = args.workload == "cli-oneshot"
    if cli:
        importlib.import_module("hurwitzkit.cli")  # the start-up every command pays
    tracer = layers.install() if args.trace and not cli else None
    ops = workloads.build(args.workload, hurwitzkit, args.seed, args.size, ROOT,
                          dict(os.environ), bool(args.trace))
    if tracer is not None:
        tracer.reset()

    outputs, errors, op_s, calibrations, cal_before = [], [], [], [], []
    ready = time.monotonic()
    calibrated = float("-inf")
    for op in ops:
        if time.perf_counter() - calibrated > CALIBRATE_EVERY_S:
            calibrations.append(calibrate())
            calibrated = time.perf_counter()
        cal_before.append(len(calibrations) - 1)
        start = time.perf_counter()
        try:
            outputs.append(op.run())
            errors.append(None)
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        op_s.append(time.perf_counter() - start)
    calibrations.append(calibrate())
    # Each operation is rescaled by the host speed measured just before and
    # just after it (at most CALIBRATE_EVERY_S away, or around it if longer).
    op_ref_s = [t * 2 * REFERENCE_CALIBRATION_S / (calibrations[i] + calibrations[i + 1])
                for t, i in zip(op_s, cal_before)]
    peak_kb = _peak_rss_kb(children=cli)

    failed, wrong, notes = 0, 0, []
    for op, out, err in zip(ops, outputs, errors):
        if err is None and not op.check(out):
            wrong += 1
            err = "wrong output"
            if cli:
                err += f" (exit {out.returncode}): {out.stderr.strip()[-300:]}"
        if err is not None:
            failed += 1
            notes.append(f"{op.name}: {err}")

    result = {
        "setup_s": ready - args.spawned,
        # Above 1 when the host ran slower than the reference during this pass.
        "host_slowdown": sum(calibrations) / len(calibrations) / REFERENCE_CALIBRATION_S,
        "op_s": op_s,
        "op_ref_s": op_ref_s,
        "peak_rss_kb": peak_kb,
        "attempted": len(ops),
        "failed": failed,
        "wrong": wrong,
        "notes": notes[:20],
    }
    if tracer is not None:
        result["layers"] = dict(tracer.metrics(), **{"cli.startup_s": IMPORTED - args.spawned})
    elif cli and args.trace:
        result["layers"] = layers.merge_command_traces(outputs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
