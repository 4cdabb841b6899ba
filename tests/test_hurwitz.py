import hashlib
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitzkit import LIMITS, GuardError, ValidationError
from hurwitzkit.characters import character, hook_length_dimension
from hurwitzkit.hurwitz import (
    HurwitzQuery,
    full_cycle_identity_holds,
    gluing_identity_holds,
    hurwitz_down_identity_holds,
    hurwitz_number,
    hurwitz_value,
    hurwitz_weighted_sum,
)
from hurwitzkit.partitions import Partition, partitions_of, z_order


def test_projective_plane_values():
    assert hurwitz_value(1, 3) == Fraction(2, 3)
    assert hurwitz_value(1, 3, [(3,)]) == Fraction(1, 3)
    assert hurwitz_value(1, 3, [(2, 1)]) == 0
    # profile (1^3) is the unbranched case again
    assert hurwitz_value(1, 3, [(1, 1, 1)]) == Fraction(2, 3)


def test_sphere_degree_two():
    assert hurwitz_value(2, 2) == Fraction(1, 2)


def test_identity_profile_is_neutral():
    for d in range(1, 6):
        ident = Partition((1,) * d)
        for euler in (2, 1, 0, -1, -2):
            assert hurwitz_value(euler, d) == hurwitz_value(euler, d, [ident])


def test_query_validation():
    with pytest.raises(ValidationError):
        HurwitzQuery(2, 0, ())
    with pytest.raises(ValidationError):
        hurwitz_number(2, 3, [(2,)])
    with pytest.raises(ValidationError):
        hurwitz_number(2, 3, [], cutoff=0)


def test_cutoff_flag_and_effect():
    res = hurwitz_number(1, 3, [], cutoff=3)
    assert res.is_true_hurwitz
    res = hurwitz_number(1, 3, [], cutoff=1)
    assert not res.is_true_hurwitz
    assert res.value == Fraction(1, 6)  # only the single-row diagram survives
    assert hurwitz_number(1, 3, []).is_true_hurwitz
    # below the degree the cutoff value genuinely differs from the cover count
    from hurwitzkit.oracle import SurfacePresentation, oracle_hurwitz

    assert res.value != oracle_hurwitz(SurfacePresentation.rp2(), 3, [])


def test_euler_cover_annotation():
    res = hurwitz_number(1, 3, [(3,)])
    assert res.euler_cover == 1
    res = hurwitz_number(2, 5, [])
    assert res.euler_cover == 10
    for delta in partitions_of(4):
        assert hurwitz_number(1, 4, [delta]).euler_cover == delta.length()


def test_denominators_divide_factorial_power():
    from math import factorial

    for d in range(1, 6):
        for delta in partitions_of(d):
            value = hurwitz_value(1, d, [delta])
            assert (factorial(d) ** 2) % value.denominator == 0


# The colength sums are the weighted sums at c = 1: the pair (k, 1) adds the
# class sum of every colength-k class as one more branch point.
def test_colength_sum_reduces_to_plain():
    for d in (2, 3, 4):
        for euler in (2, 1):
            assert hurwitz_weighted_sum(euler, d, [], []) == hurwitz_value(euler, d)


def test_colength_sum_equals_sum_over_profiles():
    for d in (3, 4, 5):
        for k in range(1, d):
            total = sum(
                hurwitz_value(2, d, [delta])
                for delta in partitions_of(d)
                if delta.colength() == k
            )
            assert hurwitz_weighted_sum(2, d, [], [(k, 1)]) == total


def test_colength_sum_examples():
    assert hurwitz_weighted_sum(2, 2, [(2,)], [(1, 1)]) == Fraction(1, 2)
    assert hurwitz_weighted_sum(1, 3, [], [(2, 1)]) == Fraction(1, 3)
    assert hurwitz_weighted_sum(2, 3, [], [(3, 1)]) == 0  # no class of S_3 has colength 3


def test_weighted_sum_examples():
    assert hurwitz_weighted_sum(2, 2, [], [(1, 2)]) == 0


def test_gluing_identity():
    assert gluing_identity_holds(1, 1, 3)
    assert gluing_identity_holds(2, 0, 3, profiles_a=[(2, 1)])
    assert gluing_identity_holds(1, 0, 4, profiles_a=[(2, 1, 1)], profiles_b=[(4,)])
    assert gluing_identity_holds(1, 1, 1)


def test_hurwitz_down_identity():
    assert hurwitz_down_identity_holds(2, 3)
    assert hurwitz_down_identity_holds(1, 3)
    assert hurwitz_down_identity_holds(2, 4, [(2, 1, 1)])
    # reproduces the degree-3 unbranched projective count
    from hurwitzkit.characters import character_class_sum

    total = sum(
        hurwitz_value(2, 3, [delta]) * character_class_sum(delta)
        for delta in partitions_of(3)
    )
    assert total == Fraction(2, 3) == hurwitz_value(1, 3)


def test_full_cycle_identity():
    assert full_cycle_identity_holds(2, 1, handles=1)
    assert full_cycle_identity_holds(2, 3, handles=1)
    assert full_cycle_identity_holds(1, 4, [(2, 1, 1)], handles=1)
    # numeric spot check: both sides of the degree-3 example
    left = hurwitz_value(0, 3, [(3,)])
    right = 9 * hurwitz_value(2, 3, [(3,), (3,), (3,)])
    assert left == right


def test_character_formula_degree_guard():
    assert LIMITS["character formula"].most == 32
    HurwitzQuery(1, 32, ())
    with pytest.raises(GuardError, match="degree <= 32"):
        hurwitz_value(1, 33)


def _reference_character_sum(euler, degree, profiles, cutoff):
    """Reference: the character sum term by term in Fractions, with the
    hook-length dimension and the class size d!/z."""
    total = Fraction(0)
    for lam in partitions_of(degree):
        if cutoff is not None and lam.length() > cutoff:
            continue
        dim = hook_length_dimension(lam)
        term = Fraction(dim, factorial(degree)) ** euler
        for prof in profiles:
            term *= Fraction(factorial(degree), z_order(prof)) * character(lam, prof) / dim
        total += term
    return total


def test_character_sum_matches_a_term_by_term_reference(monkeypatch):
    """The column products of the character sum against the sum written term
    by term from character and irrep_dimension, with cutoffs, E < 0 and
    weighted pairs; the weight factor is never evaluated on a vanishing term."""
    from hurwitzkit import hurwitz
    from hurwitzkit.characters import irrep_dimension, _weighted_colength_sum

    calls = []

    def counted(lam, k, c):
        calls.append(lam)
        return _weighted_colength_sum(lam, k, c)

    monkeypatch.setattr(hurwitz, "_weighted_colength_sum", counted)
    cases = [
        (2, 6, [(3, 3)], None, ()),
        (-2, 6, [(2, 2, 1, 1), (3, 2, 1)], 3, ((1, 1),)),
        (0, 7, [(5, 2)], 2, ((2, 3), (1, -1))),
        (-1, 5, [(2, 1, 1, 1)] * 2, None, ((3, -2),)),
        (1, 8, [(4, 4), (2, 2, 2, 2)], 4, ((2, 1),)),
        (-3, 4, [], 1, ((1, 2),)),
    ]
    vanished = 0
    for euler, d, profiles, cutoff, pairs in cases:
        want, nonzero = Fraction(0), []
        for lam in partitions_of(d):
            if cutoff is not None and lam.length() > cutoff:
                continue
            dim = irrep_dimension(lam)
            term = Fraction(dim, factorial(d)) ** euler
            for prof in profiles:
                term *= Fraction(factorial(d), z_order(prof)) * character(lam, prof) / dim
            if not term:
                vanished += 1
                continue
            nonzero.append(lam)
            for k, c in pairs:
                term *= _weighted_colength_sum(lam, k, c)
            want += term
        calls.clear()
        assert hurwitz_weighted_sum(euler, d, profiles, pairs, cutoff) == want
        assert sorted(calls) == sorted(nonzero * len(pairs))
        if not pairs:
            assert hurwitz_value(euler, d, profiles, cutoff) == want
    assert vanished > 0


@st.composite
def _character_sum_queries(draw):
    euler = draw(st.integers(min_value=-3, max_value=3))
    degree = draw(st.integers(min_value=1, max_value=9))
    profiles = draw(st.lists(st.sampled_from(partitions_of(degree)), max_size=3))
    cutoff = draw(st.none() | st.integers(min_value=1, max_value=degree + 1))
    return euler, degree, profiles, cutoff


@settings(max_examples=60, deadline=None)
@given(_character_sum_queries())
def test_integer_kernel_matches_fraction_reference(case):
    value = hurwitz_value(*case)
    assert type(value) is Fraction
    assert value == _reference_character_sum(*case)


# sha256 of the repr of every value in the sweep below, pinned so that a change
# of the kernel cannot move an exact value silently.
GOLDEN_SWEEP_SHA256 = "cc04d8b8d804ffffdc3a288f641f08db515fa2c51ab621d6c996c5fe0a0c2086"


def test_exact_values_match_golden_fingerprint():
    digest = hashlib.sha256()
    for euler in range(-3, 4):
        for d in range(1, 9):
            for k in range(3):
                for profiles in combinations_with_replacement(partitions_of(d), k):
                    for cutoff in (None, 2):
                        value = hurwitz_value(euler, d, profiles, cutoff)
                        digest.update(repr(value).encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_SWEEP_SHA256
