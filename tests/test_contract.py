"""The argument contract of the public exact API (ROADMAP item 14): every integer,
rational or partition argument is checked on entry, so a bad value ends in a
ValidationError that names it, or in a GuardError, and never in a TypeError from
deep inside, a float answer or a message that cannot be formatted."""
import time
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hurwitzkit import GuardError, LIMITS, ValidationError
from hurwitzkit._errors import as_int, shown
from hurwitzkit.characters import (CharacterTable, character, character_class_sum,
                                   character_table, class_column, colength_sums,
                                   full_cycle_normalized_character, hook_character_poly_check,
                                   hook_length_dimension, irrep_dimension, normalized_character)
from hurwitzkit.cli import main
from hurwitzkit.genfun import (ContentFunction, PochhammerParam, ProfileSeries, PropositionLayout,
                               SeriesKey, build_layout, cauchy_littlewood_check, fold_alphabet,
                               hyp_tau_series, hypergeometric_series, proposition_layout,
                               single_branch_point_series, unbranched_cover_coefficients)
from hurwitzkit.hirota import hirota_bilinear_check
from hurwitzkit.hurwitz import (HurwitzQuery, HurwitzResult, full_cycle_identity_holds,
                                gluing_identity_holds, hurwitz_down_identity_holds,
                                hurwitz_number, hurwitz_value, hurwitz_weighted_sum)
from hurwitzkit.oracle import (SurfacePresentation, oracle_count, oracle_count_naive,
                               oracle_hurwitz, presentation_independence_check)
from hurwitzkit.partitions import (Partition, checked_profiles, conjugate, cycle_class_size,
                                   euler_char_cover, partitions_of, z_order)
from hurwitzkit.symfunc import PowerAlphabet, PowerSumPoly, complete_homogeneous, schur_poly

HUGE = 10**5000

# The ten kinds of bad value of ROADMAP item 14. -1 and True can be legitimate
# (E = -1; True is the integer 1): those calls must then return their type.
BAD = (1.5, "2", None, -1, Fraction(1, 2), HUGE, -10**6, (1.5,), True, float("nan"))

ONE = ContentFunction.one()
SLOTS = [PowerAlphabet.p_infinity(2)] * 2  # the slot alphabets of prop2 at n = 1


# name -> (the call with its one spoiled argument v, the type it documents). The
# spoiled argument is the one after the function's name; a partition argument is
# spoiled whole, a list argument (profiles, pairs, shifts, offsets, sigma) by its
# only entry, and profiles, pairs, sigma and a presentation also whole. The Monte
# Carlo entry points, and the functions whose scalars may be complex floats for them (PowerAlphabet, eval_schur, ProfileSeries.evaluate,
# content_product and the Pochhammer products), are not swept.
CALLS = {
    "Partition": (lambda v: Partition(v), Partition),
    "Partition part": (lambda v: Partition((v,)), Partition),
    "partitions_of d": (lambda v: partitions_of(v), tuple),
    "conjugate lam": (lambda v: conjugate(v), Partition),
    "z_order delta": (lambda v: z_order(v), int),
    "cycle_class_size delta": (lambda v: cycle_class_size(v), int),
    "checked_profiles degree": (lambda v: checked_profiles(v, [(2, 1)]), tuple),
    "checked_profiles profile": (lambda v: checked_profiles(3, [v]), tuple),
    "checked_profiles profiles": (lambda v: checked_profiles(3, v), tuple),
    "euler_char_cover euler": (lambda v: euler_char_cover(v, [(2, 1)]), int),
    "euler_char_cover degree": (lambda v: euler_char_cover(2, [], v), int),
    "euler_char_cover profile": (lambda v: euler_char_cover(2, [v]), int),
    "euler_char_cover profiles": (lambda v: euler_char_cover(2, v, 3), int),
    "PowerSumPoly.variable m": (lambda v: PowerSumPoly.variable(v), PowerSumPoly),
    "complete_homogeneous k": (lambda v: complete_homogeneous(v), PowerSumPoly),
    "schur_poly lam": (lambda v: schur_poly(v), PowerSumPoly),
    "character lam": (lambda v: character(v, (2, 1)), int),
    "character delta": (lambda v: character((2, 1), v), int),
    "irrep_dimension lam": (lambda v: irrep_dimension(v), int),
    "hook_length_dimension lam": (lambda v: hook_length_dimension(v), int),
    "normalized_character lam": (lambda v: normalized_character(v, (2, 1)), int),
    "normalized_character delta": (lambda v: normalized_character((2, 1), v), int),
    "class_column delta": (lambda v: class_column(v), tuple),
    "colength_sums lam": (lambda v: colength_sums(v), tuple),
    "character_class_sum delta": (lambda v: character_class_sum(v), int),
    "full_cycle_normalized_character lam": (lambda v: full_cycle_normalized_character(v),
                                            Fraction),
    "hook_character_poly_check delta": (lambda v: hook_character_poly_check(v), bool),
    "CharacterTable d": (lambda v: CharacterTable(v), CharacterTable),
    "character_table d": (lambda v: character_table(v), CharacterTable),
    "CharacterTable.chi lam": (lambda v: character_table(3).chi(v, (3,)), int),
    "CharacterTable.chi delta": (lambda v: character_table(3).chi((3,), v), int),
    "HurwitzQuery euler": (lambda v: HurwitzQuery(v, 3, ()), HurwitzQuery),
    "HurwitzQuery degree": (lambda v: HurwitzQuery(2, v, ()), HurwitzQuery),
    "HurwitzQuery cutoff": (lambda v: HurwitzQuery(2, 3, (), v), HurwitzQuery),
    "hurwitz_number euler": (lambda v: hurwitz_number(v, 3, [(2, 1)]), HurwitzResult),
    "hurwitz_number degree": (lambda v: hurwitz_number(2, v, []), HurwitzResult),
    "hurwitz_number profiles": (lambda v: hurwitz_number(2, 3, v), HurwitzResult),
    "hurwitz_number cutoff": (lambda v: hurwitz_number(2, 3, [], v), HurwitzResult),
    "hurwitz_value euler": (lambda v: hurwitz_value(v, 3, [(2, 1)]), Fraction),
    "hurwitz_value degree": (lambda v: hurwitz_value(2, v), Fraction),
    "hurwitz_value profile": (lambda v: hurwitz_value(2, 3, [v]), Fraction),
    "hurwitz_value profiles": (lambda v: hurwitz_value(2, 3, v), Fraction),
    "hurwitz_value cutoff": (lambda v: hurwitz_value(2, 3, [(2, 1)], v), Fraction),
    "hurwitz_weighted_sum euler": (lambda v: hurwitz_weighted_sum(v, 3, [], [(1, 2)]), Fraction),
    "hurwitz_weighted_sum degree": (lambda v: hurwitz_weighted_sum(2, v, [], [(1, 2)]), Fraction),
    "hurwitz_weighted_sum profiles": (lambda v: hurwitz_weighted_sum(2, 3, v, [(1, 2)]),
                                      Fraction),
    "hurwitz_weighted_sum pairs": (lambda v: hurwitz_weighted_sum(2, 3, [], v), Fraction),
    "hurwitz_weighted_sum pair": (lambda v: hurwitz_weighted_sum(2, 3, [], [v]), Fraction),
    "hurwitz_weighted_sum k": (lambda v: hurwitz_weighted_sum(2, 3, [], [(v, 2)]), Fraction),
    "hurwitz_weighted_sum c": (lambda v: hurwitz_weighted_sum(2, 3, [], [(1, v)]), Fraction),
    "hurwitz_weighted_sum cutoff": (lambda v: hurwitz_weighted_sum(2, 3, [], [(1, 2)], v),
                                    Fraction),
    "gluing_identity_holds euler_a": (lambda v: gluing_identity_holds(v, 1, 3), bool),
    "gluing_identity_holds euler_b": (lambda v: gluing_identity_holds(1, v, 3), bool),
    "gluing_identity_holds degree": (lambda v: gluing_identity_holds(1, 1, v), bool),
    "gluing_identity_holds profiles_a": (lambda v: gluing_identity_holds(1, 1, 3, v), bool),
    "gluing_identity_holds profiles_b": (lambda v: gluing_identity_holds(1, 1, 3, (), v), bool),
    "hurwitz_down_identity_holds euler": (lambda v: hurwitz_down_identity_holds(v, 3), bool),
    "hurwitz_down_identity_holds degree": (lambda v: hurwitz_down_identity_holds(1, v), bool),
    "hurwitz_down_identity_holds profiles": (lambda v: hurwitz_down_identity_holds(1, 3, v),
                                             bool),
    "full_cycle_identity_holds euler": (lambda v: full_cycle_identity_holds(v, 3), bool),
    "full_cycle_identity_holds degree": (lambda v: full_cycle_identity_holds(2, v), bool),
    "full_cycle_identity_holds profiles": (lambda v: full_cycle_identity_holds(2, 3, v), bool),
    "full_cycle_identity_holds handles": (lambda v: full_cycle_identity_holds(2, 3, handles=v),
                                          bool),
    "SurfacePresentation handles": (lambda v: SurfacePresentation.orientable(v),
                                    SurfacePresentation),
    "SurfacePresentation crosscaps": (lambda v: SurfacePresentation.nonorientable(v),
                                      SurfacePresentation),
    "oracle_count handles": (lambda v: oracle_count(SurfacePresentation.orientable(v), 3), int),
    "oracle_count degree": (lambda v: oracle_count(SurfacePresentation.torus(), v), int),
    "oracle_count pres": (lambda v: oracle_count(v, 3), int),
    "oracle_count profiles": (lambda v: oracle_count(SurfacePresentation.torus(), 3, v), int),
    "oracle_hurwitz pres": (lambda v: oracle_hurwitz(v, 3), Fraction),
    "oracle_hurwitz degree": (lambda v: oracle_hurwitz(SurfacePresentation.rp2(), v), Fraction),
    "oracle_count_naive handles": (
        lambda v: oracle_count_naive(SurfacePresentation.orientable(v), 2), int),
    "oracle_count_naive degree": (lambda v: oracle_count_naive(SurfacePresentation.torus(), v),
                                  int),
    "oracle_count_naive degree, sphere": (
        lambda v: oracle_count_naive(SurfacePresentation.sphere(), v), int),
    "oracle_count_naive pres": (lambda v: oracle_count_naive(v, 2), int),
    "presentation_independence_check euler": (
        lambda v: presentation_independence_check(v, 3), bool),
    "presentation_independence_check degree": (
        lambda v: presentation_independence_check(0, v), bool),
    "presentation_independence_check profiles": (
        lambda v: presentation_independence_check(0, 3, v), bool),
    "ContentFunction.rational shift": (lambda v: ContentFunction.rational([v]), ContentFunction),
    "PochhammerParam exponent": (lambda v: PochhammerParam(v, symbol="a"), PochhammerParam),
    "PochhammerParam value": (lambda v: PochhammerParam(1, value=v), PochhammerParam),
    "hypergeometric_series euler": (lambda v: hypergeometric_series(v, 1, d_max=2),
                                    ProfileSeries),
    "hypergeometric_series alphabet_count": (lambda v: hypergeometric_series(2, v, d_max=2),
                                             ProfileSeries),
    "hypergeometric_series cutoff": (lambda v: hypergeometric_series(2, 1, cutoff=v, d_max=2),
                                     ProfileSeries),
    "hypergeometric_series d_max": (lambda v: hypergeometric_series(2, 1, d_max=v),
                                    ProfileSeries),
    "hypergeometric_series series_trunc": (
        lambda v: hypergeometric_series(2, 1, (PochhammerParam(-1, symbol="a"),), d_max=2,
                                        series_trunc=v), ProfileSeries),
    "hyp_tau_series n": (lambda v: hyp_tau_series("TL", ONE, v, 2), ProfileSeries),
    "hyp_tau_series d_max": (lambda v: hyp_tau_series("BKP", ONE, 0, v), ProfileSeries),
    "hyp_tau_series cutoff": (lambda v: hyp_tau_series("TL", ONE, 0, 2, v), ProfileSeries),
    "fold_alphabet index": (lambda v: fold_alphabet(hypergeometric_series(2, 2, d_max=1), v, "a"), ProfileSeries),
    "single_branch_point_series d_max": (lambda v: single_branch_point_series(v), ProfileSeries),
    "unbranched_cover_coefficients d_max": (lambda v: unbranched_cover_coefficients(v), list),
    "cauchy_littlewood_check d_max": (lambda v: cauchy_littlewood_check(v), bool),
    "proposition_layout name": (lambda v: proposition_layout(v, 1), PropositionLayout),
    "proposition_layout n": (lambda v: proposition_layout("prop1", v), PropositionLayout),
    "proposition_layout t": (lambda v: proposition_layout("int4", 3, v), PropositionLayout),
    "build_layout shape": (lambda v: build_layout(v, "complex", (1,)), PropositionLayout),
    "build_layout kind": (lambda v: build_layout("TL", v, (1,)), PropositionLayout),
    "build_layout sigma": (lambda v: build_layout("TL", "complex", (v,)), PropositionLayout),
    "build_layout sigma, whole": (lambda v: build_layout("TL", "complex", v), PropositionLayout),
    "build_layout t": (lambda v: build_layout("TL", "complex", (1,), t=v), PropositionLayout),
    "PropositionLayout.series N": (lambda v: proposition_layout("prop1_u", 1).series(v, 1),
                                   ProfileSeries),
    "PropositionLayout.series d_max": (lambda v: proposition_layout("prop1", 1).series(2, v),
                                       ProfileSeries),
    "PropositionLayout.value N": (
        lambda v: proposition_layout("prop2", 1).value(v, 2, SLOTS), Fraction),
    "PropositionLayout.value d_max": (
        lambda v: proposition_layout("prop2", 1).value(2, v, SLOTS), Fraction),
    "hirota_bilinear_check cutoff": (lambda v: hirota_bilinear_check(ONE, v, 2), bool),
    "hirota_bilinear_check d_max": (lambda v: hirota_bilinear_check(ONE, 2, v), bool),
    "hirota_bilinear_check offset": (lambda v: hirota_bilinear_check(ONE, 2, 2, (v,)), bool),
}


@seed(14)
@settings(max_examples=1500, deadline=None, database=None)
@given(st.sampled_from(sorted(CALLS)), st.sampled_from(BAD))
def test_each_bad_argument_ends_in_an_answer_or_a_documented_error(name, value):
    """Every one of the 1 080 pairs is drawn: Hypothesis stops once none is left."""
    call, kind = CALLS[name]
    try:
        out = call(value)
    except (ValidationError, GuardError):
        return
    assert isinstance(out, kind), (name, value, out)


def test_shown_names_any_value_in_one_short_line():
    assert [shown(v) for v in (7, -10**29, "2", None, 1.5, Fraction(-1, 3), (), (3,), (2, 1))] == [
        "7", repr(-10**29), "'2'", "None", "1.5", "-1/3", "()", "(3,)", "(2, 1)"]
    assert shown(-10**30) == "a value of 31 digits"
    assert shown(Fraction(HUGE, 3)) == "a value of 5001 digits/3"
    assert shown(Fraction(1, 10**40)) == "1/a value of 41 digits"
    assert shown(Partition((HUGE, 1))) == "(a value of 5001 digits, 1)"
    assert shown("9" * 24) == repr("9" * 24)
    assert shown("9" * 100_000) == "'999999999999999999999999'... (100000 characters)"


@pytest.mark.parametrize("call,message", [
    (lambda: character((HUGE,), (3,)),
     r"^weight mismatch: \|lam\|=a value of 5001 digits vs \|delta\|=3$"),
    (lambda: character_table(3).chi((HUGE,), (3,)), r"\|lam\|=a value of 5001 digits and"),
    (lambda: hurwitz_value(2, 3, [(HUGE,)]),
     r"^profile \(a value of 5001 digits,\) has weight a value of 5001 digits, expected 3$"),
    (lambda: euler_char_cover(2, [(HUGE,)], degree=3),
     "^degree 3 does not match profile weight a value of 5001 digits$"),
    (lambda: Partition((1, HUGE)),
     r"^partition parts must be weakly decreasing: \(1, a value of 5001 digits\)$"),
    (lambda: build_layout("TL", "complex", (HUGE,)), r"got \(a value of 5001 digits,\)$"),
    (lambda: full_cycle_identity_holds(2, 3, handles=1.5), "^handles must be an integer, got 1.5$"),
    (lambda: presentation_independence_check(-2.0, 3), "^euler must be an integer, got -2.0$"),
    (lambda: hurwitz_weighted_sum(2, 3, [], [(1, 0.5)]), "^c must be rational, got 0.5$"),
    (lambda: hurwitz_weighted_sum(2, 3, [], [(1.5, 1)]),
     "^weight order k must be an integer, got 1.5$"),
    (lambda: hypergeometric_series(1.5, 1), "^euler must be an integer, got 1.5$"),
    (lambda: hyp_tau_series("TL", ONE, 0, 2, 1.5), "^cutoff N must be an integer, got 1.5$"),
    (lambda: euler_char_cover(1.5, [(2, 1)]), "^euler must be an integer, got 1.5$"),
    (lambda: PochhammerParam(1, value=0.5), "^Pochhammer value must be rational, got 0.5$"),
    (lambda: ContentFunction.rational(["1/2"]), "^shift must be rational, got '1/2'$"),
    (lambda: partitions_of(-10**40), "^d must be >= 0, got a value of 41 digits$"),
    (lambda: hurwitz_value(2, 3, 1.5), "^profiles must be iterable, got 1.5$"),
    (lambda: hurwitz_weighted_sum(2, 3, [], 1.5), "^weight_pairs must be iterable, got 1.5$"),
    (lambda: hurwitz_weighted_sum(2, 3, [], [(1,)]), r"^a weight pair is \(k, c\), got \(1,\)$"),
    (lambda: oracle_count(1.5, 3), "^pres must be a SurfacePresentation, got 1.5$"),
    (lambda: gluing_identity_holds(1, 1, 3, (), None), "^profiles_b must be iterable, got None$"),
    (lambda: build_layout(1.5, "complex", (1,)), "^unknown shape 1.5 or matrix kind 'complex'$"),
    (lambda: build_layout("TL", "complex", 1.5), "^sigma must be iterable, got 1.5$"),
    (lambda: proposition_layout(["x"], 1), r"^unknown layout \['x'\]$"),
])
def test_each_argument_is_named_as_the_caller_passed_it(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


LONG = "9" * 100_000


def _p2_series_in(symbol):
    """The one-alphabet series whose only term is p_2 times the symbol."""
    series = ProfileSeries(1, 2, (symbol,))
    series.add(SeriesKey(2, (Partition((2,)),), (1,)), Fraction(1))
    return series


@pytest.mark.parametrize("call", [
    lambda: Partition(LONG),
    lambda: as_int("n", LONG),
    lambda: hypergeometric_series(2, 1, d_max=1, route=LONG),
    lambda: build_layout(LONG, "complex", (1,)),
    lambda: build_layout("TL", LONG, (1,)),
    lambda: proposition_layout(LONG, 1),
    lambda: _p2_series_in(LONG).evaluate([PowerAlphabet.p_infinity(2)]),
    lambda: SurfacePresentation(LONG),
])
def test_a_long_string_is_named_by_its_start_and_length(call):
    with pytest.raises(ValidationError) as exc:
        call()
    assert "'999999999999999999999999'... (100000 characters)" in str(exc.value)
    assert len(str(exc.value)) < 200


def test_the_table_and_expansion_rows_guard_the_library_functions():
    """The rows that only the CLI checked now stop the library calls, before a
    table or an expansion is built."""
    start = time.monotonic()
    for call in (lambda: character_table(9), lambda: CharacterTable(HUGE)):
        with pytest.raises(GuardError, match=r"^character table guard: d <= 8 \(got "):
            call()
    for call in (lambda: schur_poly((11,)), lambda: schur_poly((4,) * 100),
                 lambda: complete_homogeneous(11), lambda: complete_homogeneous(HUGE)):
        with pytest.raises(GuardError, match=r"^schur expansion guard: weight <= 10 \(got "):
            call()
    assert time.monotonic() - start < 1.0
    assert len(character_table(8).rows) == 22
    assert schur_poly((10,)) == complete_homogeneous(10)


def test_pochhammer_exponent_row_bounds_every_factor():
    most = LIMITS["pochhammer exponent"].most
    for exponent in (most, -most):
        assert PochhammerParam(exponent, symbol="a").exponent == exponent
        assert PochhammerParam(exponent, value=2).exponent == exponent
    start = time.monotonic()
    for exponent in (most + 1, -most - 1, 10**4, HUGE):
        with pytest.raises(GuardError, match=rf"^pochhammer exponent guard: \|exponent\| <= {most}"):
            PochhammerParam(exponent, symbol="a")
    assert time.monotonic() - start < 1.0
    # Every layout's own exponent is far inside the row.
    assert {proposition_layout(name, n).poch_exponent
            for name in ("prop1", "prop1_u", "prop3_u", "prop2_odd_u") for n in range(1, 9)
            } <= set(range(-most, most + 1))


@pytest.mark.parametrize("argv,row", [(["characters", "--d", "9"], "character table"),
                                      (["schur", "--partition", "11"], "schur expansion")])
def test_the_cli_reaches_the_library_guards(argv, row, capsys):
    assert main(argv) == 3
    assert f"guard violation: {row} guard" in capsys.readouterr().err
