from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitzkit import GuardError, ValidationError
from hurwitzkit.hurwitz import hurwitz_value
from hurwitzkit.oracle import (
    SurfacePresentation,
    class_elements,
    cycle_type,
    compose,
    inverse,
    oracle_count,
    oracle_count_naive,
    oracle_hurwitz,
    presentation_independence_check,
)
from hurwitzkit.partitions import partitions_of


def test_presentation_validation():
    with pytest.raises(ValidationError):
        SurfacePresentation("orientable", handles=-1)
    with pytest.raises(ValidationError):
        SurfacePresentation("nonorientable", crosscaps=0)
    assert SurfacePresentation.sphere().euler == 2
    assert SurfacePresentation.rp2().euler == 1
    assert SurfacePresentation.torus().euler == 0
    assert SurfacePresentation.klein_bottle().euler == 0
    assert SurfacePresentation.nonorientable(3).euler == -1


def test_permutation_helpers():
    p = (1, 2, 0)
    assert compose(p, inverse(p)) == (0, 1, 2)
    assert cycle_type(p) == (3,)
    assert cycle_type((0, 1, 2)) == (1, 1, 1)
    assert len(class_elements(4, (2, 1, 1))) == 6


def test_known_counts():
    assert oracle_hurwitz(SurfacePresentation.rp2(), 3) == Fraction(2, 3)
    assert oracle_count(SurfacePresentation.rp2(), 3) == 4
    assert oracle_hurwitz(SurfacePresentation.sphere(), 2, [(2,), (2,)]) == Fraction(1, 2)
    assert oracle_hurwitz(SurfacePresentation.sphere(), 1) == 1
    assert oracle_hurwitz(SurfacePresentation.rp2(), 2, [(2,)]) == 0


def test_guards():
    with pytest.raises(GuardError):
        oracle_count(SurfacePresentation.rp2(), 9, [])
    with pytest.raises(GuardError):
        oracle_count(SurfacePresentation.rp2(), 4, [(4,)] * 4)
    with pytest.raises(ValidationError):
        oracle_count(SurfacePresentation.rp2(), 3, [(2,)])
    for degree in (0, -3):
        with pytest.raises(ValidationError):
            oracle_count(SurfacePresentation.torus(), degree)
        with pytest.raises(ValidationError):
            oracle_count_naive(SurfacePresentation.torus(), degree)
    # 11! full cycles to enumerate: the guard fires on the class size alone.
    with pytest.raises(GuardError, match="naive oracle work"):
        oracle_count_naive(SurfacePresentation.sphere(), 12, [(12,), (12,)])


def test_convolution_oracle_matches_naive_enumeration():
    cases = [
        (SurfacePresentation.sphere(), 3, [(3,), (3,), (3,)]),
        (SurfacePresentation.sphere(), 4, [(2, 1, 1), (4,)]),
        (SurfacePresentation.rp2(), 3, [(2, 1)]),
        (SurfacePresentation.rp2(), 4, [(2, 2)]),
        (SurfacePresentation.torus(), 3, [(3,)]),
        (SurfacePresentation.klein_bottle(), 3, []),
        (SurfacePresentation.nonorientable(3), 3, [(3,)]),
        (SurfacePresentation.orientable(2), 3, []),
    ]
    for pres, d, profiles in cases:
        assert oracle_count(pres, d, profiles) == oracle_count_naive(pres, d, profiles)


def test_count_invariant_under_fixing_first_class_factor():
    """Fixing X_1 to a canonical representative and scaling by the class size
    reproduces the free count (conjugation invariance)."""
    d = 4
    profile = (2, 1, 1)
    reps = class_elements(d, profile)
    rep = reps[0]
    # rp2 with one branch point: count pairs (R, X) with R^2 X = e, X in class
    total_free = oracle_count(SurfacePresentation.rp2(), d, [profile])
    fixed = 0
    for r in permutations(range(d)):
        if compose(compose(r, r), rep) == tuple(range(d)):
            fixed += 1
    assert fixed * len(reps) == total_free


@pytest.mark.parametrize("euler", [0, -2])
def test_presentation_independence(euler):
    for d in (2, 3):
        assert presentation_independence_check(euler, d)
    for prof in partitions_of(3):
        if euler == 0:
            assert presentation_independence_check(euler, 3, [prof])


def test_presentation_independence_validation():
    with pytest.raises(ValidationError):
        presentation_independence_check(1, 3)
    with pytest.raises(ValidationError):
        presentation_independence_check(-1, 3)


def test_degree_six_within_guard():
    for prof in [(6,), (3, 2, 1), (2, 2, 1, 1)]:
        assert oracle_hurwitz(SurfacePresentation.rp2(), 6, [prof]) == hurwitz_value(
            1, 6, [prof]
        )


def test_oracle_matches_character_formula_spot():
    cases = [
        (2, SurfacePresentation.sphere(), 4, [(2, 1, 1), (2, 1, 1)]),
        (1, SurfacePresentation.rp2(), 4, [(3, 1)]),
        (0, SurfacePresentation.torus(), 3, [(2, 1)]),
        (0, SurfacePresentation.klein_bottle(), 4, [(4,)]),
        (-1, SurfacePresentation.nonorientable(3), 3, [(3,)]),
        (-2, SurfacePresentation.orientable(2), 3, []),
        (-2, SurfacePresentation.nonorientable(4), 3, []),
        (0, SurfacePresentation.torus(), 7, []),
        (0, SurfacePresentation.torus(), 7, [(7,)]),
        (0, SurfacePresentation.klein_bottle(), 7, [(2, 1, 1, 1, 1, 1)]),
    ]
    for euler, pres, d, profiles in cases:
        assert pres.euler == euler
        assert oracle_hurwitz(pres, d, profiles) == hurwitz_value(euler, d, profiles)


@st.composite
def _surface_queries(draw):
    euler = draw(st.integers(min_value=-2, max_value=2))
    presentations = []
    if euler % 2 == 0:
        presentations.append(SurfacePresentation.orientable((2 - euler) // 2))
    if euler <= 1:
        presentations.append(SurfacePresentation.nonorientable(2 - euler))
    degree = draw(st.integers(min_value=1, max_value=6))
    pool = partitions_of(degree)
    queries = []
    for pres in presentations:
        budget = 4 - pres.crosscaps - 2 * pres.handles
        profiles = draw(st.lists(st.sampled_from(pool), max_size=budget))
        queries.append((pres, profiles))
    return euler, degree, queries


@settings(max_examples=40, deadline=None)
@given(_surface_queries())
def test_oracle_count_equals_character_formula(case):
    euler, degree, queries = case
    for pres, profiles in queries:
        assert oracle_count(pres, degree, profiles) == factorial(degree) * hurwitz_value(
            euler, degree, profiles
        )
