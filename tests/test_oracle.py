from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitzkit import LIMITS, GuardError, ValidationError, oracle
from hurwitzkit._errors import guard, guard_output_size
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
from hurwitzkit.partitions import checked_profiles, cycle_class_size, partitions_of


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
    # (|E| + F) * digits(4!) = (1 + 2000) * 2 = 4 002
    with pytest.raises(GuardError, match="output size"):
        oracle_count(SurfacePresentation.rp2(), 4, [(4,)] * 2000)
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


class _Admitted(Exception):
    """Raised in place of the oracle's first table: the query got past every guard."""


def _presentations(euler):
    return ([SurfacePresentation.orientable((2 - euler) // 2)] if euler % 2 == 0 else []) + (
        [SurfacePresentation.nonorientable(2 - euler)] if euler <= 1 else [])


def test_oracle_guards_exactly_what_the_character_formula_guards(monkeypatch):
    """For 1 <= d <= 8 the oracle raises GuardError on the same (E, d, F) as
    hurwitz_value, on a grid across the output-size boundary in E and in F.
    Nothing large is counted: the first table the oracle reads stands for an
    answer, and a sphere with at most two profiles reads none, because its
    factors, padded by the identity, are read off without a convolution."""

    def admitted(*args):
        raise _Admitted

    monkeypatch.setattr(oracle, "_class_pairs", admitted)
    monkeypatch.setattr(oracle, "_square_counts", admitted)
    grid = Counter()
    for d in range(1, 9):
        most = LIMITS["output size"].most // len(str(factorial(d)))  # the largest |E| + F
        cases = [(euler, f) for euler in (2, 1, 0, -1, -2) for f in (0, 1, 2)]
        cases += [(euler, most - euler + extra) for euler in (2, 1, 0) for extra in (0, 1)]
        cases += [(f - most - extra, f) for f in (0, 1, 2) for extra in (0, 1)]
        for euler, f in cases:
            profiles = [(d,)] * f
            try:
                hurwitz_value(euler, d, profiles)
                want = _Admitted
            except GuardError:
                want = GuardError
            for pres in _presentations(euler):
                with pytest.raises((GuardError, _Admitted)) as raised:
                    oracle_count(pres, d, profiles)
                    raise _Admitted  # the sphere with at most two profiles reads no table
                assert raised.type is want, (pres, d, f)
                grid[want] += 1
    assert grid == {_Admitted: 238, GuardError: 66}


def test_square_counts_match_the_tally_over_the_group():
    """The cycle-type rule for R^2 against a pass over all R in S_d."""
    for d in range(9):
        hits = Counter(cycle_type(compose(r, r)) for r in permutations(range(d)))
        assert oracle._square_counts(d) == {t: n // cycle_class_size(t) for t, n in hits.items()}


def _class_pairs_over_the_group(d):
    """The old table, kept as a reference: for each class representative h_t,
    one pass over S_d tallying the type of h_t w by the type of w, laid out as
    _class_pairs lays it out, table[b][c] = {t: #{w in C_b : h_t w in C_c}}."""
    types = {p: cycle_type(p) for p in permutations(range(d))}
    reps = {t: p for p, t in types.items()}
    table = {b: {c: Counter() for c in reps} for b in reps}
    for t, h in reps.items():
        for w, b in types.items():
            table[b][cycle_type(compose(h, w))][t] += 1
    return table


def test_class_pairs_match_the_pass_over_the_group():
    """One enumeration per unordered class pair gives the table of a pass over
    S_d per representative, and |C_t| table[b][c][t], the number of x y z = 1
    in C_t x C_b x C_c, is symmetric in its three classes."""
    for d in range(1, 8):
        table = oracle._class_pairs(d)
        assert table == _class_pairs_over_the_group(d), d
        triples = {(t, b, c): cycle_class_size(t) * table[b][c].get(t, 0)
                   for t in table for b in table for c in table}
        for (t, b, c), n in triples.items():
            assert n == triples[b, c, t] == triples[b, t, c], (d, t, b, c)


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


def _oracle_count_in_presentation_order(pres, degree, profiles=()):
    """The old route, kept as a reference: the same checks and guards, then
    _convolve folded from the identity over every factor in presentation order
    (each handle, then each crosscap, then each profile), read at the identity."""
    profs = checked_profiles(degree, profiles)
    guard("oracle degree", degree)
    guard_output_size(pres.euler, degree, len(profs))
    identity = (1,) * degree
    dist = {identity: 1}
    for factor in ([oracle._commutator_counts(degree)] * pres.handles
                   + [oracle._square_counts(degree)] * pres.crosscaps
                   + [{p.parts: 1} for p in profs]):
        dist = oracle._convolve(dist, factor, degree)
    return dist.get(identity, 0)


def _outcome(count, pres, degree, profiles):
    try:
        return count(pres, degree, profiles)
    except GuardError as exc:
        return str(exc)


def test_reordered_factors_match_the_presentation_order():
    """Densest factor first, powers by squaring and the last factor read off at
    the identity give the count of the plain fold, GuardErrors included."""
    presentations = [SurfacePresentation.orientable(g) for g in range(4)] + [
        SurfacePresentation.nonorientable(q) for q in range(1, 7)]
    queries = [(pres, d, combo) for d in range(1, 7) for pres in presentations
               for f in range(4 if d < 6 else 3)
               for combo in combinations_with_replacement(partitions_of(d), f)]
    queries += [(SurfacePresentation.sphere(), 9, []), (SurfacePresentation.torus(), 9, [(9,)])]
    # the output-size edge (|E| + F <= 4000 at d <= 3) in E and in F
    queries += [(SurfacePresentation.nonorientable(q), 3, [(3,)] * f)
                for q, f in ((4002, 0), (4002, 1), (4003, 0), (1, 3999), (1, 4000))]
    queries += [(SurfacePresentation.orientable(g), 2, [(2,)] * f)
                for g, f in ((2000, 2), (2000, 3), (2001, 0), (2001, 1), (2002, 0))]
    assert len(queries) == 2892
    guarded = 0
    for pres, d, profiles in queries:
        want = _outcome(_oracle_count_in_presentation_order, pres, d, profiles)
        assert _outcome(oracle_count, pres, d, profiles) == want, (pres, d, profiles)
        guarded += isinstance(want, str)
    assert guarded == 8


def test_powers_match_closed_forms():
    """At d = 2 every square and every commutator is the identity, so q crosscaps
    count 2^q and g handles 4^g, for exponents with several set bits up to the
    output-size edge; deep surfaces at d = 4 and 5 match the character formula."""
    for k in (1, 2, 3, 6, 7, 11, 1365, 2001):
        assert oracle_count(SurfacePresentation.nonorientable(k), 2) == 2**k
        assert oracle_count(SurfacePresentation.orientable(k), 2) == 4**k
    assert oracle_count(SurfacePresentation.nonorientable(4002), 2) == 2**4002
    for d in (4, 5):
        transposition = (2,) + (1,) * (d - 2)
        for pres in (SurfacePresentation.nonorientable(401), SurfacePresentation.orientable(200)):
            for profiles in ([], [transposition], [transposition] * 2):
                assert oracle_count(pres, d, profiles) == factorial(d) * hurwitz_value(
                    pres.euler, d, profiles)


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
        profiles = draw(st.lists(st.sampled_from(pool), max_size=3))
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
