"""The cost table of the guard rows: for every row of hurwitzkit.LIMITS, the
slowest admitted call found, with its seconds and peak RSS (the most of five
cold runs on a 2-core host), and the inputs that must be refused at
once, with their exit codes.  Run it from the root of the repository:

    python tests/cost_table.py

Each distinct call runs once, in a fresh interpreter, under a timeout of
max(10 s, 5 x its stated seconds); its wall time and peak RSS come from
os.wait4.  A child's peak RSS starts at its parent's, so this script imports
no part of the package.  One JSON line per entry says what its call cost.
The run fails, exit code 1, on a timeout, an exit code other than the stated
one, a traceback on stderr, or a refusal that writes 1 KB or more to stderr."""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parents[1] / "src"


class Cost(NamedTuple):
    argv: tuple[str, ...]  # after the interpreter
    seconds: float
    peak_mb: int  # peak RSS, MiB
    code: int = 0


def cli(*args: str) -> tuple[str, ...]:
    return ("-m", "hurwitzkit", *args)


def lib(code: str) -> tuple[str, ...]:
    return ("-c", code)


def timeout(cost: Cost) -> float:
    return max(10.0, 5 * cost.seconds)


NINES = "9" * 4301  # one digit past Python's limit for integer strings

# Inputs that must end at once in their exit code, stderr under 1 KB: a rational
# literal is checked before any Fraction is built (Fraction('1e10000000') alone
# takes seconds), and integer text past 4 300 digits is named by its flag.
REFUSED = (
    Cost(cli("schur", "--partition", "1", "--at-constant", "1e10000000"), 0.3, 30, 3),
    Cost(cli("hirota", "--r", "1e10000000"), 0.3, 30, 3),
    Cost(cli("oracle", "--surface", f"crosscaps:{NINES}", "--degree", "3"), 0.3, 30, 2),
    Cost(cli("hirota", f"--n={NINES}"), 0.3, 30, 2),
    Cost(cli("hurwitz", "--euler", "1", "--degree", "3", "--profile", NINES), 0.3, 30, 2),
    Cost(cli("hurwitz", "--euler", "1", f"--degree={NINES}"), 0.3, 30, 2),
)

# The calls that are the slowest admitted call of more than one row.
MC_PROPOSITION = Cost(  # 8 Haar matrices of 5 x 5 per sample, in 4 chunks of 250 000 samples
    cli("mc", "--proposition", "prop3_u", "--n", "8", "--N", "5", "--degree", "3",
        "--samples", "1000000"), 17.0, 1659)
MC_MOMENT = Cost(
    cli("mc", "--relation", "sAUU-1B", "--lambda", "4", "--mu", "1,1,1,1", "--N", "6",
        "--samples", "1000000"), 5.6, 416)
BILINEAR = Cost(  # every offset the row admits, the content shift at its digit bound
    cli("hirota", "--r=9973/9967", "--N", "8", "--dmax", "6",
        "--n=" + ",".join(map(str, range(-16, 17)))), 1.3, 34)
POCHHAMMER = Cost(  # a symbolic factor raised by 64 series products to x^12, 99 707 keys
    lib("from hurwitzkit import PochhammerParam, hypergeometric_series; hypergeometric_series("
        "2, 3, (PochhammerParam(64, symbol='a'),), d_max=8, series_trunc=12)"), 5.0, 72)
SCHUR = ("schur", "--partition", "4,3,2,1")

# LIMITS row -> its slowest admitted call found.
SLOWEST = {
    # The 111 classes of degree 32 with the smallest parts, the most profiles the output-size
    # row admits at E = 0: their chains need 627 class columns.
    "character formula": Cost(
        lib("from hurwitzkit import partitions_of; from hurwitzkit.cli import main; "
            "raise SystemExit(main(['hurwitz', '--euler', '0', '--degree', '32', *('--profile=' "
            "+ ','.join(map(str, p)) for p in partitions_of(32)[-111:])]))"), 16.5, 189),
    "partitions": Cost(lib("from hurwitzkit import partitions_of; partitions_of(32)"), 0.4, 34),
    # The oracle at the bound, (|E| + F) * digits(8!) = 800 * 5; the character formula's
    # call is at this bound too.
    "output size": Cost(cli("oracle", "--surface", "crosscaps:802", "--degree", "8"), 1.4, 39),
    # 999 profiles, the most the output-size row admits at E = 0 and d = 7.
    "identity check": Cost(
        lib("from hurwitzkit import hurwitz_down_identity_holds, partitions_of; "
            "hurwitz_down_identity_holds(0, 7, [partitions_of(7)[i % 15] for i in range(999)])"),
        0.6, 29),
    "character table": Cost(cli("characters", "--d", "8", "--format", "json"), 0.4, 30),
    "schur expansion": Cost(cli(*SCHUR), 0.4, 30),
    "schur constant": Cost(cli(*SCHUR, "--at-constant", "9" * 400 + "/1" + "0" * 398 + "3"),
                           0.4, 30),
    "series degree": POCHHAMMER,
    # Each of the 8 349 terms of degree 32 runs Miller's recurrence to x^12 with a c of 4 digits.
    "weight order": Cost(
        lib("from fractions import Fraction; from hurwitzkit import hurwitz_weighted_sum; "
            "hurwitz_weighted_sum(0, 32, [], [(12, Fraction(9973, 9967))])"), 12.3, 38),
    "pochhammer exponent": POCHHAMMER,
    # 80 441 profile keys, most of the time spent writing their JSON.
    "series profile keys": Cost(cli("genfun", "--layout", "prop1", "--n", "5", "--dmax", "4"),
                                6.2, 67),
    "unbranched generator": Cost(cli("genfun", "--unbranched", "--dmax", "12"), 0.4, 30),
    "layout matrices": MC_PROPOSITION,
    "bilinear check": BILINEAR,
    "bilinear offset": BILINEAR,
    "content shift": BILINEAR,
    # genus:401 reads the commutator side of the class table, which crosscaps:802 does not.
    "oracle degree": Cost(cli("oracle", "--surface", "genus:401", "--degree", "8"), 1.1, 39),
    # 120^3 free tuples.  A profile of the identity class costs a composition per tuple but
    # counts as 1 in the row, so none is given here.
    "naive oracle work": Cost(
        lib("from hurwitzkit import SurfacePresentation, oracle_count_naive; "
            "oracle_count_naive(SurfacePresentation.nonorientable(3), 5, [(5,)])"), 21.1, 29),
    "mc weight": MC_MOMENT,
    "mc moment size": MC_MOMENT,
    "mc proposition size": MC_PROPOSITION,
    "mc proposition degree": MC_PROPOSITION,
    "mc samples": MC_PROPOSITION,
    # More workers only cut the same samples into smaller chunks.
    "mc workers": Cost(
        lib("from hurwitzkit import mc_proposition_check; mc_proposition_check('prop3_u', 8, 5, "
            "degree=3, samples=10**6, workers=64)"), 14.7, 189),
}


def run(cost: Cost, limit: float) -> tuple[dict, list[str]]:
    """The call's exit code, seconds and peak MB, and what is wrong with it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    with tempfile.TemporaryFile() as err:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, *cost.argv], stdout=subprocess.DEVNULL,
                                stderr=err, env=env)
        timer = threading.Timer(limit, proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.monotonic() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)  # reaped: kill() is a no-op
        timer.cancel()
        err.seek(0)
        stderr = err.read()
    faults = []
    if seconds >= limit:
        faults.append(f"ran past its timeout of {limit:g} s")
    elif code != cost.code:
        faults.append(f"exited {code}, not {cost.code}")
    if b"Traceback" in stderr:
        faults.append("wrote a traceback")
    if cost.code and len(stderr) >= 1024:
        faults.append(f"wrote {len(stderr)} bytes to stderr")
    return {"code": code, "seconds": round(seconds, 2),
            "peak_mb": round(usage.ru_maxrss / 1024, 1)}, faults


def main() -> int:
    entries = [*SLOWEST.items(), *(("refused", cost) for cost in REFUSED)]
    done: dict[Cost, tuple[dict, list[str]]] = {}
    failed = False
    for row, cost in entries:
        if cost not in done:
            done[cost] = run(cost, timeout(cost))
        measured, faults = done[cost]
        call = " ".join(cost.argv[2:]) if cost.argv[0] == "-m" else cost.argv[1].split("; ")[-1]
        print(json.dumps({"row": row, **measured, "call": call[:60]}), flush=True)
        for fault in faults:
            print(f"{row}: {call[:60]} {fault}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
