"""Batch command-line front end; machine-readable output only.

Exit codes: 0 success, 1 an exact check failed (`hirota` when an equation
fails, `selftest` when an exact check fails), 2 validation error / bad flags,
3 guard violation or out of memory, 4 Monte Carlo gate failure.  Rationals are
always printed as "num/den" strings so golden files stay diff-stable.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import factorial
from typing import Iterable

from ._errors import GuardError, ValidationError, digits, guard, shown
from .partitions import Partition, conjugate, partitions_of
from .symfunc import PowerAlphabet, eval_schur, fraction_text, pochhammer_lambda, schur_poly
from .characters import character_table
from .genfun import (
    ContentFunction,
    LAYOUT_NAMES,
    cauchy_littlewood_check,
    proposition_layout,
    single_branch_point_series,
    unbranched_cover_coefficients,
)
from .hirota import hirota_bilinear_check
from .hurwitz import hurwitz_number, hurwitz_value
from .oracle import SurfacePresentation, oracle_count, oracle_hurwitz
from .matrixmc import LEMMA_RELATIONS, check_seed, mc_proposition_check, mc_schur_moment

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GUARD = 3
EXIT_MC_GATE = 4


# command -> {mode flag: the flags that only this mode reads}. A flag given outside its
# mode would be ignored, and a bad value of it pass.
_MODES = {
    "genfun": {"--layout": ("--n", "--t", "--N"), "--unbranched": (), "--single-branch": ()},
    "mc": {"--relation": ("--lambda", "--mu"), "--proposition": ("--degree", "--n", "--t")},
}


def _mode(args) -> str:
    """The mode flag given to args.command: exactly one must be, and no flag only another
    mode reads."""
    modes, given = _MODES[args.command], vars(args)
    value = lambda flag: given[flag[2:].replace("-", "_")]
    chosen = [mode for mode in modes if value(mode)]
    if len(chosen) != 1:
        *most, last = modes
        raise ValidationError(f"choose one of {', '.join(most)} and {last}")
    unread = dict.fromkeys(flag for flags in modes.values() for flag in flags
                           if flag not in modes[chosen[0]] and value(flag) is not None)
    if unread:
        raise ValidationError(f"{args.command} {chosen[0]} takes no {', '.join(unread)}")
    return chosen[0]


def _integers(flag: str, text: str, build=tuple, takes: str = "comma-separated integers",
              error=ValidationError):
    """build(the comma-separated integers of text), the one reading of integer flag text; text
    int() refuses, or integers build refuses, is one error naming flag and text."""
    try:
        return build(map(int, text.split(",")))
    except ValueError as exc:
        raise error(f"{flag} takes {takes} of at most 4300 digits, got {shown(text)}".lstrip()
                    ) from exc


def _integer(text: str) -> int:
    """The type= of every integer flag: argparse prints the error after "argument <flag>:"
    and exits 2, so no value is printed whole."""
    return _integers("", text, _one, "an integer", argparse.ArgumentTypeError)


def _one(values):
    (value,) = values  # a ValueError unless there is exactly one
    return value


def _parse_partition(flag: str, text: str) -> Partition:
    if text.strip() in ("", "-"):
        return Partition()
    return _integers(flag, text, Partition, "weakly decreasing integers >= 1")


def _parse_rational(flag: str, text: str, limit: str) -> Fraction:
    """The rational literal of flag, its numerator and denominator digits guarded by limit
    before the Fraction is built: past +-4 len(text), an exponent only appends zeros."""
    mantissa, _, exp = text.lower().partition("e")
    try:
        (shift,) = _integers(flag, exp or "0")
        cut = max(-4 * len(text), min(shift, 4 * len(text)))
        value = Fraction(f"{mantissa}e{cut}" if exp else text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{flag} must be a rational number") from exc
    zeros = abs(shift - cut) if value else 0
    guard(limit, max(digits(value.numerator) + zeros * (shift > 0),
                   digits(value.denominator) + zeros * (shift < 0)))
    return value * Fraction(10) ** (zeros if shift > 0 else -zeros)


def _parse_surface(text: str) -> SurfacePresentation:
    names = {"sphere": SurfacePresentation.sphere, "rp2": SurfacePresentation.rp2,
             "torus": SurfacePresentation.torus, "klein": SurfacePresentation.klein_bottle}
    counted = {"genus": SurfacePresentation.orientable,
               "crosscaps": SurfacePresentation.nonorientable}
    kind, colon, count = text.partition(":")
    if text in names:
        return names[text]()
    if colon and kind in counted and "," not in count:
        return counted[kind](*_integers(f"--surface {kind}:", count, takes="an integer"))
    raise ValidationError(f"unknown surface {shown(text)}")


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _emit_series(terms: Iterable[dict], head: dict | None = None) -> None:
    """Print what _emit prints for the list of terms, or for head with that list
    under "series", writing one term at a time instead of one whole string."""
    frame = None if head is None else {**head, "series": None}
    before, after = json.dumps(frame, indent=2, sort_keys=True).split("null")  # head has no None
    pad, opening = "\n" + "  " * (1 if head is None else 2), "["
    for term in terms:
        text = json.dumps(term, indent=2, sort_keys=True).replace("\n", pad)
        sys.stdout.write(before + opening + pad + text)
        before, opening = "", ","
    sys.stdout.write(before + ("[]" if opening == "[" else pad[:-2] + "]") + after + "\n")


def _cmd_hurwitz(args) -> int:
    profiles = [_parse_partition("--profile", p) for p in args.profile]
    res = hurwitz_number(args.euler, args.degree, profiles, cutoff=args.cutoff)
    _emit({"value": fraction_text(res.value), "true_hurwitz": res.is_true_hurwitz,
           "euler_cover": res.euler_cover})
    return EXIT_OK


def _cmd_oracle(args) -> int:
    pres = _parse_surface(args.surface)
    profiles = [_parse_partition("--profile", p) for p in args.profile]
    count = oracle_count(pres, args.degree, profiles)
    _emit({"surface": {"kind": pres.kind, "handles": pres.handles, "crosscaps": pres.crosscaps},
           "euler": pres.euler, "count": count,
           "value": fraction_text(Fraction(count, factorial(args.degree)))})
    return EXIT_OK


def _cmd_characters(args) -> int:
    table = character_table(args.d)
    if args.format == "csv":
        sys.stdout.write(table.to_csv())
    else:
        label = lambda part: ",".join(map(str, part)) or "-"
        columns = [label(delta) for delta in table.column_labels]
        _emit({label(lam): dict(zip(columns, row)) for lam, row in zip(table.row_labels, table.rows)})
    return EXIT_OK


def _cmd_schur(args) -> int:
    lam = _parse_partition("--partition", args.partition)
    poly = schur_poly(lam)
    payload = {"partition": lam.to_json(), "power_sum_expansion": poly.to_json()}
    if args.at_constant is not None:
        a = _parse_rational("--at-constant", args.at_constant, "schur constant")
        alpha = PowerAlphabet.constant(a, max(1, lam.weight()))
        payload["value_at_constant"] = fraction_text(eval_schur(lam, alpha))
        payload["pochhammer"] = fraction_text(pochhammer_lambda(a, lam))
    _emit(payload)
    return EXIT_OK


def _cmd_genfun(args) -> int:
    mode = _mode(args)
    if mode == "--unbranched":
        coeffs = unbranched_cover_coefficients(args.dmax)
        _emit({"coefficients": [fraction_text(c) for c in coeffs]})
        return EXIT_OK
    if mode == "--single-branch":
        _emit_series(single_branch_point_series(args.dmax).json_terms())
        return EXIT_OK
    layout = proposition_layout(args.layout, 1 if args.n is None else args.n, t=args.t)
    series = layout.series(N=3 if args.N is None else args.N, d_max=args.dmax)
    _emit_series(series.json_terms(), {
        "layout": layout.name, "matrix_kind": layout.matrix_kind, "euler": layout.euler,
        "branch_points": layout.branch_points, "signature": layout.signature,
        "slots": list(layout.slots)})
    return EXIT_OK


def _cmd_hirota(args) -> int:
    if args.r == "one":
        r = ContentFunction.one()
    else:
        r = ContentFunction.rational([_parse_rational("--r", args.r, "content shift")])
    n_values = _integers("--n", args.n) if args.n else (0, 1)
    ok = hirota_bilinear_check(r, args.N, args.dmax, n_values=n_values)
    _emit({"r": r.description, "N": args.N, "dmax": args.dmax, "holds": ok})
    return EXIT_OK if ok else 1


def _cmd_mc(args) -> int:
    if _mode(args) == "--proposition":
        cmp = mc_proposition_check(args.proposition, 1 if args.n is None else args.n, args.N,
                                   degree=2 if args.degree is None else args.degree,
                                   samples=args.samples, seed=args.seed, t=args.t)
    else:
        lam = vars(args)["lambda"]  # "lambda" is a keyword, so no attribute name
        lam = _parse_partition("--lambda", "1" if lam is None else lam)
        mu = _parse_partition("--mu", args.mu) if args.mu else None
        cmp = mc_schur_moment(args.relation, lam, args.N, samples=args.samples, seed=args.seed,
                              mu=mu)
    est, exact = cmp.estimate, complex(cmp.exact)
    _emit({"mean": [est.mean.real, est.mean.imag], "stderr": est.stderr, "samples": est.samples,
           "seed": est.seed, "exact": [exact.real, exact.imag], "sigmas": cmp.sigmas,
           "pass": cmp.passed})
    return EXIT_OK if cmp.passed else EXIT_MC_GATE


def _cmd_selftest(args) -> int:
    from .hurwitz import gluing_identity_holds
    from .oracle import presentation_independence_check

    seed = args.seed
    check_seed(seed)  # before any check runs, with or without --quick
    checks: list[tuple[str, bool]] = []

    def run(name, fn):
        ok = bool(fn())
        checks.append((name, ok))
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")

    run("partition count p(8) = 22", lambda: len(partitions_of(8)) == 22)
    run(
        "conjugation is an involution (d <= 6)",
        lambda: all(
            conjugate(conjugate(lam)) == lam for d in range(7) for lam in partitions_of(d)
        ),
    )
    run("character table orthogonality d = 5", lambda: character_table(5).check_row_orthogonality())
    run("cauchy-littlewood degree 4", lambda: cauchy_littlewood_check(4))
    run("unbranched projective covers d = 3", lambda: hurwitz_value(1, 3) == Fraction(2, 3))
    run(
        "character formula matches oracle (rp2, d=3, one profile)",
        lambda: all(
            hurwitz_value(1, 3, [prof]) == oracle_hurwitz(SurfacePresentation.rp2(), 3, [prof])
            for prof in partitions_of(3)
        ),
    )
    run("presentation independence (torus vs klein bottle, d=3)",
        lambda: presentation_independence_check(0, 3))
    run("gluing identity d=3", lambda: gluing_identity_holds(1, 1, 3))
    run(
        "hirota bilinear, constant weight, N=1, degree 3",
        lambda: hirota_bilinear_check(ContentFunction.one(), 1, 3),
    )
    exact_ok = all(ok for _, ok in checks)

    mc_ok = True
    if not args.quick:
        for rel in LEMMA_RELATIONS:
            cmp = mc_schur_moment(rel, (2,), 2, samples=20000, seed=seed)
            checks.append((f"mc {rel}", cmp.passed))
            print(f"[{'PASS' if cmp.passed else 'FAIL'}] mc {rel} (sigmas={cmp.sigmas:.2f})")
            mc_ok &= cmp.passed
    if not exact_ok:
        return 1
    return EXIT_OK if mc_ok else EXIT_MC_GATE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hurwitzkit",
        description="Exact Hurwitz-number engines with oracle and Monte Carlo validation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hurwitz", help="character-formula cover count")
    p.add_argument("--euler", type=_integer, required=True)
    p.add_argument("--degree", type=_integer, required=True)
    p.add_argument("--profile", action="append", default=[])
    p.add_argument("--cutoff", type=_integer, default=None)
    p.set_defaults(fn=_cmd_hurwitz)

    p = sub.add_parser("oracle", help="brute-force surface-relation count")
    p.add_argument("--surface", required=True,
                   help="rp2|sphere|torus|klein|genus:g|crosscaps:q")
    p.add_argument("--degree", type=_integer, required=True)
    p.add_argument("--profile", action="append", default=[])
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("characters", help="dump a symmetric-group character table")
    p.add_argument("--d", type=_integer, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=_cmd_characters)

    p = sub.add_parser("schur", help="power-sum expansion of a Schur function")
    p.add_argument("--partition", required=True)
    p.add_argument("--at-constant", default=None,
                   help="also evaluate at the all-equal alphabet p(a)")
    p.set_defaults(fn=_cmd_schur)

    p = sub.add_parser("genfun", help="generating series")
    p.add_argument("--layout", choices=LAYOUT_NAMES)
    p.add_argument("--n", type=_integer, help="default 1")
    p.add_argument("--t", type=_integer)
    p.add_argument("--N", type=_integer, help="default 3")
    p.add_argument("--dmax", type=_integer, default=3)
    p.add_argument("--unbranched", action="store_true")
    p.add_argument("--single-branch", action="store_true")
    p.set_defaults(fn=_cmd_genfun)

    p = sub.add_parser("hirota", help="elementary bilinear checks")
    p.add_argument("--r", default="one",
                   help="'one' or a rational a for r(x)=x+a; a < 0 as --r=-1/2")
    p.add_argument("--N", type=_integer, default=2)
    p.add_argument("--dmax", type=_integer, default=3)
    p.add_argument("--n", default=None,
                   help="comma-separated offsets (default 0,1); negative ones as --n=-1,1")
    p.set_defaults(fn=_cmd_hirota)

    p = sub.add_parser("mc", help="Monte Carlo vs exact comparisons")
    p.add_argument("--relation", choices=LEMMA_RELATIONS)
    p.add_argument("--lambda", help="default 1")
    p.add_argument("--mu")
    p.add_argument("--proposition", choices=LAYOUT_NAMES)
    p.add_argument("--n", type=_integer, help="default 1")
    p.add_argument("--t", type=_integer)
    p.add_argument("--N", type=_integer, required=True)
    p.add_argument("--degree", type=_integer, help="default 2")
    p.add_argument("--samples", type=_integer, default=100_000)
    p.add_argument("--seed", type=_integer, default=42)
    p.set_defaults(fn=_cmd_mc)

    p = sub.add_parser("selftest", help="hermetic identity suite")
    p.add_argument("--quick", action="store_true", help="skip the Monte Carlo checks")
    p.add_argument("--seed", type=_integer, default=42)
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except GuardError as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:  # a ValidationError, or a value a library call refuses
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        print(f"out of memory: {exc}" if str(exc) else "out of memory", file=sys.stderr)
        return EXIT_GUARD
