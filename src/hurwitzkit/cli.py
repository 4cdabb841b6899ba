"""Batch command-line front end; machine-readable output only.

Exit codes: 0 success, 1 an exact check failed (`hirota` when an equation
fails, `selftest` when an exact check fails), 2 validation error / bad flags,
3 guard violation, 4 Monte Carlo gate failure.  Rationals are always printed as "num/den"
strings so golden files stay diff-stable.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import factorial
from typing import Iterable

from ._errors import GuardError, ValidationError, guard
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
from .matrixmc import LEMMA_RELATIONS, mc_proposition_check, mc_schur_moment

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GUARD = 3
EXIT_MC_GATE = 4


def _parse_partition(text: str) -> Partition:
    text = text.strip()
    if not text or text == "-":
        return Partition()
    try:
        return Partition(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad partition {text!r}: {exc}") from exc


def _parse_surface(text: str) -> SurfacePresentation:
    names = {
        "sphere": SurfacePresentation.sphere,
        "rp2": SurfacePresentation.rp2,
        "torus": SurfacePresentation.torus,
        "klein": SurfacePresentation.klein_bottle,
    }
    if text in names:
        return names[text]()
    if text.startswith("genus:"):
        return SurfacePresentation.orientable(int(text.split(":", 1)[1]))
    if text.startswith("crosscaps:"):
        return SurfacePresentation.nonorientable(int(text.split(":", 1)[1]))
    raise ValidationError(f"unknown surface {text!r}")


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
    profiles = [_parse_partition(p) for p in args.profile]
    res = hurwitz_number(args.euler, args.degree, profiles, cutoff=args.cutoff)
    _emit(
        {
            "value": fraction_text(res.value),
            "true_hurwitz": res.is_true_hurwitz,
            "euler_cover": res.euler_cover,
        }
    )
    return EXIT_OK


def _cmd_oracle(args) -> int:
    pres = _parse_surface(args.surface)
    profiles = [_parse_partition(p) for p in args.profile]
    count = oracle_count(pres, args.degree, profiles)
    _emit(
        {
            "surface": {"kind": pres.kind, "handles": pres.handles, "crosscaps": pres.crosscaps},
            "euler": pres.euler,
            "count": count,
            "value": fraction_text(Fraction(count, factorial(args.degree))),
        }
    )
    return EXIT_OK


def _cmd_characters(args) -> int:
    guard("character table", args.d)
    table = character_table(args.d)
    if args.format == "csv":
        sys.stdout.write(table.to_csv())
    else:
        label = lambda part: ",".join(str(p) for p in part.parts) or "-"
        columns = [label(delta) for delta in table.column_labels]
        _emit({label(lam): dict(zip(columns, row)) for lam, row in zip(table.row_labels, table.rows)})
    return EXIT_OK


def _cmd_schur(args) -> int:
    lam = _parse_partition(args.partition)
    guard("schur expansion", lam.weight())
    poly = schur_poly(lam)
    payload = {"partition": lam.to_json(), "power_sum_expansion": poly.to_json()}
    if args.at_constant is not None:
        try:
            a = Fraction(args.at_constant)
        except ZeroDivisionError as exc:
            raise ValidationError(f"zero denominator in --at-constant {args.at_constant}") from exc
        alpha = PowerAlphabet.constant(a, max(1, lam.weight()))
        payload["value_at_constant"] = fraction_text(eval_schur(lam, alpha))
        payload["pochhammer"] = fraction_text(pochhammer_lambda(a, lam))
    _emit(payload)
    return EXIT_OK


def _cmd_genfun(args) -> int:
    if args.unbranched:
        coeffs = unbranched_cover_coefficients(args.dmax)
        _emit({"coefficients": [fraction_text(c) for c in coeffs]})
        return EXIT_OK
    if args.single_branch:
        _emit_series(single_branch_point_series(args.dmax).json_terms())
        return EXIT_OK
    if not args.layout:
        raise ValidationError("choose --layout, --unbranched or --single-branch")
    layout = proposition_layout(args.layout, args.n, t=args.t)
    series = layout.series(N=args.N, d_max=args.dmax)
    _emit_series(
        series.json_terms(),
        {
            "layout": layout.name,
            "matrix_kind": layout.matrix_kind,
            "euler": layout.euler,
            "branch_points": layout.branch_points,
            "signature": layout.signature,
            "slots": list(layout.slots),
        },
    )
    return EXIT_OK


def _cmd_hirota(args) -> int:
    if args.r == "one":
        r = ContentFunction.one()
    else:
        try:
            shift = Fraction(args.r)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError("--r must be 'one' or a rational shift a for r(x)=x+a") from exc
        r = ContentFunction.rational([shift])
    n_values = tuple(int(x) for x in args.n.split(",")) if args.n else (0, 1)
    ok = hirota_bilinear_check(r, args.N, args.dmax, n_values=n_values)
    _emit({"r": r.description, "N": args.N, "dmax": args.dmax, "holds": ok})
    return EXIT_OK if ok else 1


def _cmd_mc(args) -> int:
    if args.proposition:
        cmp = mc_proposition_check(
            args.proposition,
            args.n,
            args.N,
            degree=args.degree,
            samples=args.samples,
            seed=args.seed,
            t=args.t,
        )
    else:
        if not args.relation:
            raise ValidationError("choose --relation or --proposition")
        lam = _parse_partition(args.lam)
        mu = _parse_partition(args.mu) if args.mu else None
        cmp = mc_schur_moment(
            args.relation,
            lam,
            args.N,
            samples=args.samples,
            seed=args.seed,
            mu=mu,
        )
    _emit(
        {
            "mean": [cmp.estimate.mean.real, cmp.estimate.mean.imag],
            "stderr": cmp.estimate.stderr,
            "samples": cmp.estimate.samples,
            "seed": cmp.estimate.seed,
            "exact": [complex(cmp.exact).real, complex(cmp.exact).imag],
            "sigmas": cmp.sigmas,
            "pass": cmp.passed,
        }
    )
    return EXIT_OK if cmp.passed else EXIT_MC_GATE


def _cmd_selftest(args) -> int:
    from .hurwitz import gluing_identity_holds
    from .oracle import presentation_independence_check

    seed = args.seed
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
    p.add_argument("--euler", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--profile", action="append", default=[])
    p.add_argument("--cutoff", type=int, default=None)
    p.set_defaults(fn=_cmd_hurwitz)

    p = sub.add_parser("oracle", help="brute-force surface-relation count")
    p.add_argument("--surface", required=True,
                   help="rp2|sphere|torus|klein|genus:g|crosscaps:q")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--profile", action="append", default=[])
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("characters", help="dump a symmetric-group character table")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=_cmd_characters)

    p = sub.add_parser("schur", help="power-sum expansion of a Schur function")
    p.add_argument("--partition", required=True)
    p.add_argument("--at-constant", default=None,
                   help="also evaluate at the all-equal alphabet p(a)")
    p.set_defaults(fn=_cmd_schur)

    p = sub.add_parser("genfun", help="generating series")
    p.add_argument("--layout", choices=LAYOUT_NAMES, default=None)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--N", type=int, default=3)
    p.add_argument("--dmax", type=int, default=3)
    p.add_argument("--unbranched", action="store_true")
    p.add_argument("--single-branch", dest="single_branch", action="store_true")
    p.set_defaults(fn=_cmd_genfun)

    p = sub.add_parser("hirota", help="elementary bilinear checks")
    p.add_argument("--r", default="one",
                   help="'one' or a rational a for r(x)=x+a; a < 0 as --r=-1/2")
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--dmax", type=int, default=3)
    p.add_argument("--n", default=None,
                   help="comma-separated offsets (default 0,1); negative ones as --n=-1,1")
    p.set_defaults(fn=_cmd_hirota)

    p = sub.add_parser("mc", help="Monte Carlo vs exact comparisons")
    p.add_argument("--relation", choices=LEMMA_RELATIONS, default=None)
    p.add_argument("--lambda", dest="lam", default="1")
    p.add_argument("--mu", default=None)
    p.add_argument("--proposition", choices=LAYOUT_NAMES, default=None)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=_cmd_mc)

    p = sub.add_parser("selftest", help="hermetic identity suite")
    p.add_argument("--quick", action="store_true", help="skip the Monte Carlo checks")
    p.add_argument("--seed", type=int, default=42)
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
    except (ValidationError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
