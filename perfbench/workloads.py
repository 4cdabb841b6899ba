"""The four workloads: fixed lists of operations, each with its own check.

An operation is a name, a `run` callable whose time is measured, and a
`check` that judges the output of `run` against `reference` (which uses none
of hurwitzkit's engines) or against a property the method must have.
Program functions are looked up through their modules at call time, so the
wrappers of a traced pass see every call.

The seed never changes how much work a pass does, nor any per-layer count.
It shuffles the order of the operations (the caches start cold, so the set
of cache entries a pass builds does not depend on the order), deals fixed
multiplicities out to the Euler characteristics, and picks an Euler
characteristic for the CLI and the content shift of the Hirota checks;
none of these changes which characters are evaluated.
"""
from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial
from pathlib import Path
from typing import Callable

import reference as ref

EULERS = (2, 1, 0, -1, -2)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def _frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


# --- exact-table ------------------------------------------------------------

EXACT_SIZES = {
    "full": {"degree": 24, "series_dmax": 6, "hirota_dmax": 4, "table_dmax": 8},
    "tiny": {"degree": 8, "series_dmax": 3, "hirota_dmax": 3, "table_dmax": 4},
}


def exact_table(hk, rng: random.Random, size: str) -> list[Op]:
    cfg = EXACT_SIZES[size]
    d = cfg["degree"]
    ops: list[Op] = []

    def value(euler, degree, profiles=()):
        return lambda: hk.hurwitz.hurwitz_value(euler, degree, profiles)

    # The seed deals fixed multisets of multiplicities out to the Euler
    # characteristics; which characters get evaluated, and how often, depends
    # only on the multisets, so the per-layer counts do not depend on the seed.
    full_k, transp_k, mixed_k = ([1, 1, 2, 2, 3], [1, 1, 2, 2, 3], [1, 1, 1, 2, 2])
    for ks in (full_k, transp_k, mixed_k):
        rng.shuffle(ks)
    for euler, kf, kt, km in zip(EULERS, full_k, transp_k, mixed_k):
        ops.append(Op(f"H({euler},{d})", value(euler, d),
                      lambda out, e=euler: out == ref.hurwitz(e, d)
                      and ref.unbranched_value(e, d) in (None, out)))
        ops.append(Op(f"H({euler},{d},full^{kf})", value(euler, d, [ref.full_cycle(d)] * kf),
                      lambda out, e=euler, k=kf: out == ref.full_cycle_count(e, d, k)))
        profs = [ref.transposition(d)] * kt
        ops.append(Op(f"H({euler},{d},transp^{kt})", value(euler, d, profs),
                      lambda out, e=euler, p=profs: out == ref.hurwitz(e, d, p)))
        profs = [ref.full_cycle(d)] + [ref.transposition(d)] * km
        ops.append(Op(f"H({euler},{d},full+transp^{km})", value(euler, d, profs),
                      lambda out, e=euler, p=profs: out == ref.hurwitz(e, d, p)))
    for n in range(1, d + 1):
        ops.append(Op(f"H(1,{n})", value(1, n),
                      lambda out, n=n: out == Fraction(ref.involutions(n), factorial(n))))

    dmax = cfg["series_dmax"]
    euler = rng.choice((2, 1, 0))
    for e, count, exps in ((euler, 2, ()), (2, 2, (1,)), (1, 1, (-1,)), (0, 1, (2,))):
        ops.append(Op(f"series({e},{count},{exps})",
                      _series_both_routes(hk, e, count, exps, dmax),
                      _series_check(e, count, exps, dmax)))

    shift = Fraction(2 * rng.randint(-3, 2) + 1, 2)
    for r_name in ("one", "shift"):
        for cutoff in (1, 2, 3):
            ops.append(Op(f"hirota({r_name},{cutoff})",
                          _hirota(hk, r_name, shift, cutoff, cfg["hirota_dmax"]),
                          lambda out: out is True))

    for n in range(1, cfg["table_dmax"] + 1):
        ops.append(Op(f"table({n})", _table(hk, n), _table_check(n)))
    rng.shuffle(ops)
    return ops


def _series_both_routes(hk, euler, count, exps, dmax):
    def run():
        params = tuple(hk.genfun.PochhammerParam(e, symbol=f"a{j}") for j, e in enumerate(exps))
        hyp = hk.genfun.hypergeometric_series
        left = hyp(euler, count, params, d_max=dmax, series_trunc=3)
        right = hyp(euler, count, params, d_max=dmax, series_trunc=3, route="pochhammer")
        return left, right
    return run


def _simple_profiles(d: int) -> list[tuple[int, ...]]:
    """The classes `reference` has closed forms for, without repeats."""
    return sorted({ref.identity(d), ref.full_cycle(d)} | ({ref.transposition(d)} if d >= 2 else set()))


def _series_check(euler, count, exps, dmax):
    def check(out):
        left, right = out
        if left != right:
            return False
        if exps:
            return True
        # Without parameters the coefficient of p_{D_1} ... p_{D_k} is H(E, d, D_1..D_k).
        for d in range(1, dmax + 1):
            for profs in combinations_with_replacement(_simple_profiles(d), count):
                if left.coefficient(d, profs) != ref.hurwitz(euler, d, profs):
                    return False
        return True
    return check


def _hirota(hk, r_name, shift, cutoff, dmax):
    def run():
        cf = hk.genfun.ContentFunction
        r = cf.one() if r_name == "one" else cf.rational([shift])
        return hk.hirota.hirota_bilinear_check(r, cutoff, dmax)
    return run


def _table(hk, d):
    def run():
        table = hk.characters.character_table(d)
        ok = table.check_row_orthogonality() and table.check_column_orthogonality()
        dims = [table.chi(lam, ref.identity(d)) for lam in table.row_labels]
        return ok, [tuple(lam.parts) for lam in table.row_labels], dims
    return run


def _table_check(d):
    def check(out):
        ok, labels, dims = out
        return (ok and labels == list(ref.partitions(d))
                and dims == [ref.hook_dimension(lam) for lam in labels]
                and sum(x * x for x in dims) == factorial(d))
    return check


# --- oracle-xcheck ----------------------------------------------------------

ORACLE_SIZES = {"full": {"sweep_dmax": 5, "big": 6}, "tiny": {"sweep_dmax": 3, "big": 4}}


def _presentations(hk, euler):
    sp = hk.oracle.SurfacePresentation
    out = []
    if euler % 2 == 0:
        out.append(sp.orientable((2 - euler) // 2))
    if euler <= 1:
        out.append(sp.nonorientable(2 - euler))
    return out


def _oracle_vs_formula(hk, pres, euler, d, profs):
    def run():
        count = hk.oracle.oracle_count(pres, d, profs)
        return count, hk.hurwitz.hurwitz_value(euler, d, profs)

    simple = _simple_profiles(d)
    plain = [tuple(p) for p in profs]

    def check(out):
        count, value = out
        if count != value * factorial(d):
            return False
        if not plain and pres.kind == "orientable" and pres.handles == 1:
            if count != factorial(d) * ref.partition_count(d):
                return False
        if not plain and pres.kind == "nonorientable" and pres.crosscaps == 1:
            if count != ref.involutions(d):
                return False
        if all(p in simple for p in plain):
            return value == ref.hurwitz(euler, d, plain)
        return True

    return run, check


def oracle_xcheck(hk, rng: random.Random, size: str) -> list[Op]:
    cfg = ORACLE_SIZES[size]
    ops: list[Op] = []
    for d in range(1, cfg["sweep_dmax"] + 1):
        pool = [tuple(p) for p in ref.partitions(d)]
        for euler in EULERS:
            for pres in _presentations(hk, euler):
                f_max = min(3, 4 - pres.crosscaps - 2 * pres.handles)
                for f in range(f_max + 1):
                    for combo in combinations_with_replacement(pool, f):
                        run, check = _oracle_vs_formula(hk, pres, euler, d, list(combo))
                        ops.append(Op(f"oracle({pres.kind},{euler},{d},{combo})", run, check))
            if euler in (0, -2):
                f_max = min(3, 4 - (2 - euler))
                for f in range(f_max + 1):
                    for combo in combinations_with_replacement(pool, f):
                        ops.append(Op(
                            f"independence({euler},{d},{combo})",
                            lambda e=euler, d=d, c=list(combo):
                                hk.oracle.presentation_independence_check(e, d, c),
                            lambda out: out is True))
    d = cfg["big"]
    sp = hk.oracle.SurfacePresentation
    big = [
        (sp.torus(), 0, []),
        (sp.torus(), 0, [ref.transposition(d)]),
        (sp.torus(), 0, [ref.full_cycle(d)]),
        (sp.torus(), 0, [ref.transposition(d), ref.full_cycle(d)]),
        (sp.klein_bottle(), 0, []),
        (sp.klein_bottle(), 0, [ref.transposition(d)]),
        (sp.orientable(2), -2, []),
    ]
    for pres, euler, profs in big:
        run, check = _oracle_vs_formula(hk, pres, euler, d, profs)
        ops.append(Op(f"oracle({pres.kind},{euler},{d},{profs})", run, check))
    rng.shuffle(ops)
    return ops


# --- mc-gates ---------------------------------------------------------------

MC_SIZES = {
    "full": {"samples": 100_000, "weights": (1, 2, 3),
             "groups": (("sAUBU-1", 3),),
             "singles": (("sAUU-1B", 3), ("sAZBZ+", 3), ("sAZZ+B", 3)),
             "props": (("prop2_u", 1, 4), ("prop1", 2, 2))},
    "tiny": {"samples": 10_000, "weights": (1, 2),
             "groups": (("sAUBU-1", 2),),
             "singles": (("sAUU-1B", 2), ("sAZBZ+", 2), ("sAZZ+B", 2)),
             "props": (("prop2", 1, 2),)},
}
MC_WORKERS = 4


def test_matrix(size: int, which: int):
    """The diagonal test matrix the MC entry points use when none is given."""
    import numpy as np

    k = np.arange(1, size + 1, dtype=float)
    return np.diag(1.0 + 0.25 * which + 0.5 * k / size + 0.3j * k / (size + which + 1))


def trace_formula(relation: str, size: int) -> complex:
    """Exact value of each relation at lambda = (1), straight from traces."""
    import numpy as np

    a, b = test_matrix(size, 0), test_matrix(size, 1)
    return {
        "sAUBU-1": np.trace(a) * np.trace(b) / size,
        "sAZBZ+": np.trace(a) * np.trace(b),
        "sAUU-1B": np.trace(a @ b) / size,
        "sAZZ+B": np.trace(a @ b),
    }[relation]


def _close(x: complex, y: complex) -> bool:
    return abs(complex(x) - complex(y)) <= 1e-9 * (1.0 + abs(complex(y)))


def _moment_op(hk, relation, lam, size, samples):
    def run():
        return hk.matrixmc.mc_schur_moment(relation, lam, size, samples=samples,
                                           seed=90_000 + size, workers=MC_WORKERS)

    def check(cmp):
        if not cmp.passed or cmp.estimate.samples != samples:
            return False
        if len(lam) > size:
            return cmp.exact == 0
        if lam == (1,):
            return _close(cmp.exact, trace_formula(relation, size))
        return True

    return Op(f"moment({relation},{lam},N={size})", run, check)


def mc_gates(hk, rng: random.Random, size: str) -> list[Op]:
    cfg = MC_SIZES[size]
    samples = cfg["samples"]
    lams = [p for w in cfg["weights"] for p in ref.partitions(w)]
    # One block per (relation, size): its partitions share the MC seed, so
    # the calls of a block stay together whatever the order.
    blocks: list[list[Op]] = []
    for relation, n in cfg["groups"]:
        block = [_moment_op(hk, relation, lam, n, samples) for lam in lams]
        rng.shuffle(block)
        blocks.append(block)
    for relation, n in cfg["singles"]:
        blocks.append([_moment_op(hk, relation, (1,), n, samples)])
    for name, n, n_size in cfg["props"]:
        blocks.append([Op(
            f"proposition({name},n={n},N={n_size})",
            lambda name=name, n=n, n_size=n_size: hk.matrixmc.mc_proposition_check(
                name, n, n_size, degree=2, samples=samples, seed=70_000 + n,
                workers=MC_WORKERS),
            lambda cmp: cmp.passed and cmp.estimate.samples == samples)])
    rng.shuffle(blocks)
    return [op for block in blocks for op in block]


# --- cli-oneshot ------------------------------------------------------------

CLI_SIZES = {
    "full": {"degree": 24, "oracle_degree": 6, "genfun_dmax": 8, "samples": 100_000,
             "mc_size": 3, "selftest": ["selftest"], "selftest_checks": 13},
    "tiny": {"degree": 8, "oracle_degree": 4, "genfun_dmax": 4, "samples": 10_000,
             "mc_size": 2, "selftest": ["selftest", "--quick"], "selftest_checks": 9},
}


def _check_hurwitz(euler, d, k):
    def check(out):
        data = json.loads(out)
        return (_frac(data["value"]) == ref.full_cycle_count(euler, d, k)
                and data["euler_cover"] == d * euler - k * (d - 1)
                and data["true_hurwitz"] is True)
    return check


def _check_oracle(d):
    def check(out):
        data = json.loads(out)
        return (data["count"] == factorial(d) * ref.partition_count(d)
                and _frac(data["value"]) == ref.partition_count(d) and data["euler"] == 0)
    return check


def _check_single_branch(dmax):
    def check(out):
        coeffs = {}
        for term in json.loads(out):
            prof = tuple(term["profiles"][0])
            if term["aux"] != {"c": term["degree"], "h_inv": len(prof)}:
                return False
            coeffs[prof] = _frac(term["coeff"])
        # The coefficient of p_D is the projective-plane count H(1, |D|, D).
        return all(coeffs.get(prof, 0) == ref.hurwitz(1, d, [prof])
                   for d in range(1, dmax + 1) for prof in _simple_profiles(d))
    return check


def _check_mc(relation, size, samples):
    def check(out):
        data = json.loads(out)
        return (data["pass"] is True and data["samples"] == samples
                and _close(complex(*data["exact"]), trace_formula(relation, size)))
    return check


def _check_selftest(expected):
    def check(out):
        lines = out.strip().splitlines()
        return len(lines) == expected and all(line.startswith("[PASS] ") for line in lines)
    return check


def cli_oneshot(hk, rng: random.Random, size: str, root: Path, env: dict, trace: bool) -> list[Op]:
    cfg = CLI_SIZES[size]
    d = cfg["degree"]
    euler, k = rng.choice(EULERS), 2
    relation = "sAUBU-1"
    commands = [
        (["hurwitz", "--euler", str(euler), "--degree", str(d)] + ["--profile", str(d)] * k,
         _check_hurwitz(euler, d, k)),
        (["oracle", "--surface", "torus", "--degree", str(cfg["oracle_degree"])],
         _check_oracle(cfg["oracle_degree"])),
        (["genfun", "--single-branch", "--dmax", str(cfg["genfun_dmax"])],
         _check_single_branch(cfg["genfun_dmax"])),
        (["mc", "--relation", relation, "--lambda", "1", "--N", str(cfg["mc_size"]),
          "--samples", str(cfg["samples"]), "--seed", "42"],
         _check_mc(relation, cfg["mc_size"], cfg["samples"])),
        (cfg["selftest"], _check_selftest(cfg["selftest_checks"])),
    ]
    if trace:
        prefix = [sys.executable, str(root / "perfbench" / "cli_trace.py")]
    else:
        prefix = [sys.executable, "-m", "hurwitzkit"]
    ops = []
    for argv, check in commands:
        ops.append(Op("hurwitzkit " + " ".join(argv), _command(prefix + argv, root, env),
                      _command_check(check)))
    rng.shuffle(ops)
    return ops


@dataclass
class CommandResult:
    returncode: int
    stdout: str
    stderr: str
    spawned: float


def _command(argv, root: Path, env: dict):
    def run():
        spawned = time.monotonic()
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                              timeout=120)
        return CommandResult(proc.returncode, proc.stdout, proc.stderr, spawned)
    return run


def _command_check(check):
    def wrapped(res: CommandResult) -> bool:
        return res.returncode == 0 and check(res.stdout)
    return wrapped


def build(name: str, hk, seed: int, size: str, root: Path, env: dict, trace: bool) -> list[Op]:
    rng = random.Random(f"{name}:{seed}")
    if name == "cli-oneshot":
        return cli_oneshot(hk, rng, size, root, env, trace)
    return {"exact-table": exact_table, "oracle-xcheck": oracle_xcheck,
            "mc-gates": mc_gates}[name](hk, rng, size)


WORKLOADS = ("exact-table", "oracle-xcheck", "mc-gates", "cli-oneshot")
