import hashlib
from fractions import Fraction
from collections import Counter
from itertools import permutations
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hurwitzkit import GuardError, ValidationError
from hurwitzkit.genfun import (
    ContentFunction,
    LAYOUT_NAMES,
    PochhammerParam,
    ProfileSeries,
    SeriesKey,
    build_layout,
    fold_alphabet,
    hyp_tau_series,
    hypergeometric_series,
    proposition_layout,
    single_branch_point_series,
    unbranched_cover_coefficients,
    _lambda_weight,
)
from hurwitzkit.hurwitz import hurwitz_value, hurwitz_weighted_sum
from hurwitzkit.matrixmc import _RELATIONS
from hurwitzkit.partitions import Partition, partitions_of
from hurwitzkit.symfunc import PowerAlphabet, content_product, pochhammer_lambda, schur_poly


def test_series_key_validation():
    series = ProfileSeries(2, 3)
    with pytest.raises(ValidationError):
        series.add(SeriesKey(2, (Partition((2,)),)), Fraction(1))
    with pytest.raises(ValidationError):
        series.add(SeriesKey(2, (Partition((2,)), Partition((3,)))), Fraction(1))


def test_hypergeometric_degree_one():
    series = hypergeometric_series(2, 2, d_max=2)
    assert series.coefficient(0, [(), ()]) == 1
    assert series.coefficient(1, [(1,), (1,)]) == 1


def test_coefficients_are_weighted_hurwitz_sums():
    """Every key of the expanded series equals the character-sum value."""
    for euler, k, exps in [(2, 2, (2,)), (1, 1, (1, 1)), (2, 3, ()), (0, 2, (-1,)),
                           (2, 1, (1, -1))]:
        params = tuple(PochhammerParam(e, symbol=f"a{j}") for j, e in enumerate(exps))
        series = hypergeometric_series(euler, k, params, d_max=4, series_trunc=4)
        assert len(series.terms) > 1
        for key, val in series.items():
            d = key.degree
            if d == 0:
                assert val == 1
                continue
            pairs = []
            skip = False
            for e, expo in zip(exps, key.aux):
                kk = d * e - expo
                if kk >= 1:
                    pairs.append((kk, e))
                elif kk != 0:
                    skip = True
            assert not skip
            want = hurwitz_weighted_sum(euler, d, [p.parts for p in key.profiles], pairs)
            assert val == want, key


def test_missing_keys_are_genuinely_zero():
    series = hypergeometric_series(1, 1, (PochhammerParam(1, symbol="a"),), d_max=3,
                                   series_trunc=3)
    for d in range(1, 4):
        for delta in partitions_of(d):
            for kk in range(0, 3):
                got = series.coefficient(d, [delta], (d - kk,))
                pairs = [(kk, 1)] if kk else []
                want = hurwitz_weighted_sum(1, d, [delta.parts], pairs)
                assert got == want


@pytest.mark.parametrize(
    "euler,k,exps",
    [(2, 2, ()), (1, 1, (1,)), (2, 2, (2,)), (2, 1, (-1,)), (0, 2, (1, -1)), (2, 3, (-2,))],
)
def test_schur_and_pochhammer_routes_identical(euler, k, exps):
    params = tuple(PochhammerParam(e, symbol=f"a{j}") for j, e in enumerate(exps))
    left = hypergeometric_series(euler, k, params, d_max=5, series_trunc=3, route="schur")
    right = hypergeometric_series(euler, k, params, d_max=5, series_trunc=3,
                                  route="pochhammer")
    assert left == right


@settings(max_examples=100, deadline=None)
@given(euler=st.integers(-2, 2), k=st.integers(1, 2),
       exps=st.lists(st.sampled_from([-1, 1, 2]), max_size=1),
       symbolic=st.booleans(), d_max=st.integers(1, 4),
       cutoff=st.none() | st.integers(1, 3))
def test_schur_and_pochhammer_routes_agree(euler, k, exps, symbolic, d_max, cutoff):
    params = tuple(PochhammerParam(e, symbol="a") if symbolic else
                   PochhammerParam(e, value=Fraction(7, 2)) for e in exps)
    left, right = (hypergeometric_series(euler, k, params, cutoff=cutoff, d_max=d_max,
                                         route=route)
                   for route in ("schur", "pochhammer"))
    assert left == right


def test_numeric_pochhammer_matches_symbolic_specialization():
    n_val = Fraction(3)
    numeric = hypergeometric_series(2, 1, (PochhammerParam(1, value=n_val),), d_max=3)
    sym = hypergeometric_series(2, 1, (PochhammerParam(1, symbol="a"),), d_max=3,
                                series_trunc=3)
    for key, val in numeric.items():
        total = sum(
            v * n_val ** k.aux[0]
            for k, v in sym.items()
            if k.degree == key.degree and k.profiles == key.profiles
        )
        assert val == total


def test_fold_alphabet_lemma():
    """Specializing one alphabet to the all-equal values equals moving it into a
    first-power parameter."""
    for euler, k in [(2, 2), (1, 1), (2, 3)]:
        base = hypergeometric_series(euler, k, d_max=3)
        folded = fold_alphabet(base, 0, "a")
        direct = hypergeometric_series(
            euler, k - 1, (PochhammerParam(1, symbol="a"),), d_max=3, series_trunc=3
        )
        assert folded == direct


def test_fold_two_alphabets_successively():
    base = hypergeometric_series(2, 3, d_max=3)
    folded = fold_alphabet(fold_alphabet(base, 0, "a"), 0, "b")
    direct = hypergeometric_series(
        2, 1,
        (PochhammerParam(1, symbol="a"), PochhammerParam(1, symbol="b")),
        d_max=3, series_trunc=3,
    )
    assert folded == direct


def test_fold_all_alphabets_gives_pure_weights():
    base = hypergeometric_series(2, 1, d_max=3)
    folded = fold_alphabet(base, 0, "a")
    assert folded.alphabet_count == 0
    # evaluating the folded series at any a equals the base series on the
    # all-equal alphabet with that value
    for a in (Fraction(1), Fraction(2, 3)):
        alpha = PowerAlphabet.constant(a, 3)
        assert base.evaluate([alpha]) == folded.evaluate([], symbols={"a": a})


def test_tau_tl_series_degree_one():
    series = hyp_tau_series("TL", ContentFunction.one(), 0, 2)
    assert series.coefficient(1, [(1,), (1,)]) == 1
    # coefficient of (p_A, p*_B) is the sphere count with the two profiles
    for d in (1, 2):
        for da in partitions_of(d):
            for db in partitions_of(d):
                assert series.coefficient(d, [da, db]) == hurwitz_value(2, d, [da, db])


def _truncated_product_expansion(variables, d_max):
    """Expand prod_i (1-x_i)^-1 prod_{i<j} (1-x_i x_j)^-1 to total degree d_max.

    Monomials are exponent tuples; pure counting, independent of Schur data.
    """
    n = len(variables)
    factors = []
    for i in range(n):
        mono = tuple(int(k == i) for k in range(n))
        factors.append(mono)
    for i in range(n):
        for j in range(i + 1, n):
            mono = tuple(int(k == i) + int(k == j) for k in range(n))
            factors.append(mono)
    series = {tuple([0] * n): Fraction(1)}
    for mono in factors:
        step = sum(mono)
        geom = {}
        reps = 0
        acc = tuple([0] * n)
        while reps * step <= d_max:
            geom[acc] = Fraction(1)
            acc = tuple(a + m for a, m in zip(acc, mono))
            reps += 1
            if step == 0:
                break
        new = {}
        for ka, va in series.items():
            for kb, vb in geom.items():
                key = tuple(a + b for a, b in zip(ka, kb))
                if sum(key) <= d_max:
                    new[key] = new.get(key, Fraction(0)) + va * vb
        series = new
    totals = {}
    for key, val in series.items():
        deg = sum(key)
        term = val
        for x, e in zip(variables, key):
            term *= x**e
        totals[deg] = totals.get(deg, Fraction(0)) + term
    return totals


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_tau_bkp_matches_product_formula(nvars):
    xs = [Fraction(1, 3), Fraction(1, 5), Fraction(-1, 7)][:nvars]
    d_max = 5
    alpha = PowerAlphabet.explicit(
        {m: sum(x**m for x in xs) for m in range(1, d_max + 1)}
    )
    series = hyp_tau_series("BKP", ContentFunction.one(), 0, d_max, cutoff=nvars)
    got = series.evaluate([alpha], by_degree=True)
    want = _truncated_product_expansion(xs, d_max)
    for d in range(d_max + 1):
        assert got.get(d, Fraction(0)) == want.get(d, Fraction(0))


def test_tau_bkp_power_sum_exponential_form():
    """As a power-sum series (no cutoff), the one-alphabet Schur sum equals
    exp(sum p_m^2/2m + sum_odd p_m/m)."""
    from hurwitzkit.hirota import bkp_tau_poly
    from hurwitzkit.symfunc import PowerSumPoly, exp_truncated

    d_max = 4
    tau = bkp_tau_poly(ContentFunction.one(), 0, None, d_max)
    arg = PowerSumPoly.zero()
    for m in range(1, d_max + 1):
        if 2 * m <= d_max:
            arg = arg + (PowerSumPoly.variable(m) * PowerSumPoly.variable(m)).scale(
                Fraction(1, 2 * m)
            )
        if m % 2 == 1:
            arg = arg + PowerSumPoly.variable(m).scale(Fraction(1, m))
    assert tau == exp_truncated(arg, d_max)


def test_hyp_tau_series_with_linear_weight():
    """Content product of r(x) = x at offset N inserts the rising-factorial
    weights; cross-checked against the alphabet-folded hypergeometric series."""
    n_val = 3
    series = hyp_tau_series("TL", ContentFunction.rational([0]), n_val, 3)
    direct = hypergeometric_series(2, 2, (PochhammerParam(1, value=Fraction(n_val)),),
                                   d_max=3)
    assert series == direct


def test_hyp_tau_rational_weight_matches_pochhammer_signature():
    a, b = Fraction(7, 2), Fraction(9, 4)
    r = ContentFunction.rational([a], [b])
    n_val = 0
    series = hyp_tau_series("TL", r, n_val, 3)
    direct = hypergeometric_series(
        2, 2, (PochhammerParam(1, value=a), PochhammerParam(-1, value=b)), d_max=3
    )
    assert series == direct


def test_content_function_forms():
    r = ContentFunction.rational([Fraction(1, 2)])
    assert r(2) == Fraction(5, 2)
    sq = ContentFunction.power(r, 2)
    assert sq(2) == Fraction(25, 4)
    tab = ContentFunction.tabulated({0: Fraction(3)})
    assert tab(0) == 3
    with pytest.raises(ValidationError):
        tab(1)
    pole = ContentFunction.rational([], [Fraction(-2)])
    with pytest.raises(ValidationError):
        pole(2)
    assert content_product(ContentFunction.one(), 5, Partition((3, 2))) == 1


def test_single_branch_point_series():
    series = single_branch_point_series(6)
    assert series.coefficient(3, [(3,)], (3, 1)) == Fraction(1, 3)
    assert series.coefficient(3, [(1, 1, 1)], (3, 3)) == Fraction(2, 3)
    assert series.coefficient(2, [(2,)], (2, 1)) == 0
    assert series.coefficient(4, [(2, 2)], (4, 2)) == Fraction(1, 4)
    for d in range(1, 7):
        for prof in partitions_of(d):
            assert series.coefficient(d, [prof], (d, prof.length())) == hurwitz_value(
                1, d, [prof]
            )


def test_single_branch_connected_factors():
    """The exponent's two families: (m,m) from sphere covers with weight 1/2m,
    odd (2m-1) from projective covers with weight 1/(2m-1)."""
    series = single_branch_point_series(6)
    # connected sphere cover 1/(2m) plus two disconnected projective covers
    assert series.coefficient(6, [(3, 3)], (6, 2)) == Fraction(1, 6) + Fraction(1, 18)
    assert series.coefficient(5, [(5,)], (5, 1)) == Fraction(1, 5)
    assert series.coefficient(3, [(3,)], (3, 1)) == Fraction(1, 3)


def test_unbranched_coefficients():
    coeffs = unbranched_cover_coefficients(12)
    assert coeffs[0] == 1
    assert coeffs[1] == 1
    assert coeffs[2] == 1
    assert coeffs[3] == Fraction(2, 3)
    assert coeffs[4] == Fraction(5, 12)
    with pytest.raises(GuardError):
        unbranched_cover_coefficients(13)


def test_layout_registry_shapes():
    lay = proposition_layout("prop1", 2)
    assert lay.euler == 2 and lay.branch_points == 4
    assert lay.signature == "F^{2,4;0}"
    lay = proposition_layout("prop2", 2)
    assert lay.euler == 2 and lay.branch_points == 3
    assert lay.signature == "F^{2,3;1}((N);1)"
    lay = proposition_layout("prop1_u", 3)
    assert lay.signature == "F^{2,5;1}((N);-3)"
    lay = proposition_layout("prop2_u", 3)
    assert lay.signature == "F^{2,4;1}((N);-2)"
    lay = proposition_layout("int3", 4, t=2)
    assert lay.euler == 2 and lay.slots == ("p", "p*", "C1", "C2", "C3", "C4")
    lay = proposition_layout("int3", 4, t=4)
    assert lay.euler == 0 and lay.slots == ("p", "p*", "C1*C3", "C2*C4")
    lay = proposition_layout("int4", 3, t=3)
    assert lay.euler == 0 and lay.slots == ("p", "p*", "C1*C3*C2")
    lay = proposition_layout("int5", 2, t=2)
    assert lay.euler == 0 and lay.slots == ("p", "C1*C2")
    lay = proposition_layout("int6", 3, t=3)
    assert lay.euler == 0 and lay.slots == ("p", "C1*C3", "C2")
    lay = proposition_layout("prop1_odd", 2)
    assert lay.euler == 1 and lay.branch_points == 3
    lay = proposition_layout("prop2_odd", 2)
    assert lay.euler == 1 and lay.branch_points == 2
    assert lay.poch_exponent == 1
    lay = proposition_layout("odd3", 2, t=2)
    assert lay.euler == 1 and lay.slots == ("p", "C1", "C2")
    lay = proposition_layout("int5_odd_u", 2)
    assert lay.euler == -1 and lay.slots == ("C1*C2",)
    lay = proposition_layout("int6_odd_u", 3)
    assert lay.euler == -1 and lay.slots == ("C1*C3", "C2")


def test_layout_words_glue_into_vertices():
    """The words of a layout and what gluing them leaves: int4 at t = 3 sends
    Z2^dag Z3^dag Z1^dag to the second polygon and glues C1 C3 C2 into one
    vertex; prop2 leaves an empty vertex, a Pochhammer factor; chekhov's
    constant closes its word and stays a vertex of its own.  The lemma
    relations are layouts of one matrix with the constant C0: a paired one
    keeps C0 and C1 apart, a split one joins them."""
    lay = proposition_layout("int4", 3, t=3)
    assert lay.factors == (
        ("p", ((1, 1), (1, 0), (2, 1), (2, 0), (3, 1), (3, 0))),
        ("p*", ((2, -1), (3, -1), (1, -1))),
    )
    assert lay.vertices == ((1, 3, 2),) and lay.pair_applications == 2
    lay = proposition_layout("prop2", 2)
    assert lay.factors == (("p", ((1, 1), (1, 0), (2, 1), (2, 0), (2, -1), (1, -1))),)
    assert lay.vertices == ((1,), (2,)) and lay.poch_exponent == 1
    assert lay.slots == ("p", "C1", "C2")
    lay = proposition_layout("chekhov", 2)
    assert lay.vertices == ((0,), (1,), (2,)) and lay.poch_exponent == 0
    assert lay.slots == ("p", "Aprod", "C1", "C2")
    lay = proposition_layout("prop1_odd_u", 2)
    assert [alphabet for alphabet, _ in lay.factors] == [None, "p"]
    assert lay.integrand_degree == 3 and lay.poch_exponent == -2
    for relation, lay in _RELATIONS.items():
        unitary = relation.startswith("sAU")
        assert lay.matrix_kind == ("unitary" if unitary else "complex") and lay.n == 1
        assert lay.poch_exponent == (-1 if unitary else 0)
        if relation in ("sAUBU-1", "sAZBZ+"):
            assert lay.factors == ((None, ((1, 1), (1, 0), (1, -1), (0, 0))),)
            assert lay.vertices == ((0,), (1,)) and lay.euler == 1
        else:
            assert lay.factors == ((None, ((1, 1), (1, 0))), (None, ((1, -1), (0, 0))))
            assert lay.vertices == ((0, 1),) and lay.euler == 0


def _wick_vertices(words):
    """Independent oracle of genfun._glue, sharing no code with it: Wick's
    theorem at degree one.  Each letter is a matrix with a row and a column
    index slot; within a word the column of a letter is the row of the next,
    cyclically (the trace), and E[Z_ab conj(Z_cd)] = delta_ac delta_bd joins
    the row of Z_i to the column of Z_i^dag and the column of Z_i to the row
    of Z_i^dag.  A
    union-find over the slots leaves classes that each join a C letter's
    column to the row of the C letter that follows it on its vertex, or that
    carry no C: the empty vertices.  Returns the vertices as C-index words,
    each from its smallest index, sorted, and the number of empty ones."""
    parent = {}

    def find(slot):
        while parent.setdefault(slot, slot) != slot:
            slot = parent[slot]
        return slot

    def join(x, y):
        parent[find(x)] = find(y)

    where = {letter: (w, j) for w, word in enumerate(words) for j, letter in enumerate(word)}
    for w, word in enumerate(words):
        for j in range(len(word)):
            join(("col", w, j), ("row", w, (j + 1) % len(word)))
    for (i, power), (w, j) in where.items():
        if power == 1:
            dag = where[i, -1]
            join(("row", w, j), ("col", *dag))
            join(("col", w, j), ("row", *dag))
    cs = {(w, j): i for (i, power), (w, j) in where.items() if power == 0}
    follows = {find(("row", *c)): c for c in cs}
    vertices, seen = [], set()
    for start in cs:
        cycle, c = [], start
        while c not in seen:
            seen.add(c)
            cycle.append(cs[c])
            c = follows[find(("col", *c))]
        if cycle:
            k = cycle.index(min(cycle))
            vertices.append(tuple(cycle[k:] + cycle[:k]))
    classes = {find(slot) for slot in list(parent)}
    return tuple(sorted(vertices)), len(classes) - len(cs)


def _assert_glued_as_wick_says(layout):
    """The layout's vertices, with orientation, its empty vertices and E are
    the Wick contraction's."""
    vertices, empty = _wick_vertices([word for _, word in layout.factors])
    assert layout.vertices == vertices, layout
    unitary = layout.n if layout.matrix_kind == "unitary" else 0
    assert layout.poch_exponent == empty - unitary, layout
    tl = sum(1 for alphabet, _ in layout.factors if alphabet)
    assert layout.euler == tl - layout.n + len(vertices) + empty, layout


def _every_dagger_order(shape, n, constant=None):
    """(sigma, layout) for Z1 C1 ... Zn Cn glued against the daggers in
    every order sigma, on one polygon after the forward word or on a second
    one, each layout checked against the Wick contraction."""
    for sigma in permutations(range(1, n + 1)):
        layout = build_layout(shape, "complex", sigma, constant)
        _assert_glued_as_wick_says(layout)
        yield sigma, layout


def test_wick_oracle_on_a_hand_contraction():
    """E tr(Z1 C1 Z2 C2 Z2^dag Z1^dag) = N tr(C1) tr(C2): C1 and C2 each close a
    loop, and the indices between Z2^dag and Z1^dag a third, empty one;
    E tr(Z1 C1 C2) tr(Z1^dag C3) = tr(C1 C2 C3)."""
    words = [((1, 1), (1, 0), (2, 1), (2, 0), (2, -1), (1, -1))]
    assert _wick_vertices(words) == (((1,), (2,)), 1)
    assert _wick_vertices([((1, 1), (1, 0), (2, 0)), ((1, -1), (3, 0))]) == (((1, 2, 3),), 0)


def test_gluing_matches_the_wick_oracle_with_a_constant():
    """Every order at n <= 5 of every shape with a constant closing the
    daggers' word, every named layout, and the lemma relations."""
    for shape in ("TL", "TL|TL", "BKP", "BKP|TL", "BKP|BKP"):
        for n in range(1, 6):
            assert sum(1 for _ in _every_dagger_order(shape, n, "C0")) == factorial(n)
    for name in LAYOUT_NAMES:
        for n in range(1, 9):
            for t in range(1, n + 1):
                try:
                    _assert_glued_as_wick_says(proposition_layout(name, n, t))
                except ValidationError:
                    pass  # t of the wrong parity for this layout
    for layout in _RELATIONS.values():
        _assert_glued_as_wick_says(layout)


def _assert_within_surface_bounds(shape, sigma, layout):
    """The paper's claim for one order of the daggers: E <= 2 and F <= n + 2;
    F = n + 2 only for TL|TL at E = 2; TL reaches E = 2 exactly at plain
    reversal; E is odd exactly when one factor is BKP."""
    n = len(sigma)
    euler, f = layout.euler, layout.branch_points
    assert euler <= 2 and f <= n + 2, (shape, sigma)
    assert f < n + 2 or (shape == "TL|TL" and euler == 2), (shape, sigma)
    assert (euler % 2 == 1) == ("BKP" in shape), (shape, sigma)
    if shape == "TL":
        assert (euler == 2) == (sigma == tuple(range(n, 0, -1))), sigma


def test_every_dagger_order_obeys_the_surface_bounds():
    """Every order of the daggers, not only the named layouts, at n <= 6."""
    for shape in ("TL", "TL|TL", "BKP", "BKP|TL"):
        for n in range(1, 7):
            for sigma, layout in _every_dagger_order(shape, n):
                _assert_within_surface_bounds(shape, sigma, layout)
    counts = Counter((lay.euler, lay.branch_points) for _, lay in _every_dagger_order("TL|TL", 7))
    assert counts == {(2, 9): 7, (0, 7): 490, (-2, 5): 3283, (-4, 3): 1260}


@settings(max_examples=200, deadline=None)
@given(shape=st.sampled_from(("TL", "TL|TL", "BKP", "BKP|TL")),
       sigma=st.sampled_from((7, 8)).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_sampled_dagger_orders_at_n_7_and_8(shape, sigma):
    """A sample of the 45 360 orders at n = 7 and 8 that the exhaustive test
    does not reach, each glued as the Wick contraction says and within the
    surface bounds."""
    sigma = tuple(sigma)
    layout = build_layout(shape, "complex", sigma)
    _assert_glued_as_wick_says(layout)
    _assert_within_surface_bounds(shape, sigma, layout)


def test_layout_and_series_size_guards():
    proposition_layout("prop1", 8)
    for n in (9, 10**6):
        with pytest.raises(GuardError, match="n <= 8"):
            proposition_layout("prop1", n)
    # prop1 at n = 8 has 10 slots: 9 825 700 profile keys to d_max = 4
    with pytest.raises(GuardError, match="profile keys"):
        hypergeometric_series(2, 10, d_max=4)
    with pytest.raises(GuardError, match="profile keys"):
        hypergeometric_series(2, 10**6, d_max=2)


def test_every_layout_builds_a_series():
    from hurwitzkit._errors import ValidationError as VErr

    built = 0
    for name in LAYOUT_NAMES:
        for n in (1, 2, 3):
            for t in (None, 1, 2, 3):
                try:
                    lay = proposition_layout(name, n, t=t)
                except VErr:
                    continue
                series = lay.series(N=2, d_max=2)
                assert series.coefficient(0, [()] * lay.branch_points) == 1
                assert any(k.degree == 2 for k in series.terms)
                built += 1
                break  # one t per (name, n) is enough
    assert built >= 40


def test_layout_degree_bookkeeping():
    """Euler characteristic equals the integrand degree minus twice the number
    of degree-dropping pair integrations, for every enumerated layout."""
    checked = 0
    for name in LAYOUT_NAMES:
        for n in (1, 2, 3, 4, 5):
            for t in (None, 1, 2, 3, 4, 5):
                try:
                    lay = proposition_layout(name, n, t=t)
                except ValidationError:
                    continue
                assert lay.euler == lay.integrand_degree - 2 * lay.pair_applications
                checked += 1
    assert checked > 60


def test_layout_series_values():
    lay = proposition_layout("prop1", 1)
    series = lay.series(N=4, d_max=2)
    assert series.coefficient(1, [(1,), (1,), (1,)]) == 1
    lay = proposition_layout("prop2", 1)
    series = lay.series(N=4, d_max=1)
    assert series.coefficient(1, [(1,), (1,)]) == 4  # the matrix-size factor
    lay = proposition_layout("prop2_u", 1)
    series = lay.series(N=4, d_max=1)
    assert series.coefficient(1, [(1,), (1,)]) == 1


@pytest.mark.parametrize(
    "name,n,t,size",
    [("prop1_u", 2, None, 2), ("prop2", 1, None, 3), ("int5", 2, 2, 3),
     ("odd3_u", 2, None, 2), ("prop2_odd", 2, None, 2)],
)
def test_layout_coefficients_match_direct_character_sums(name, n, t, size):
    """Independent route: every series key must equal
    sum over lam (len <= N) of (dim/d!)^E * ((N)_lam)^rho * prod phi_lam(Delta_i)."""

    from hurwitzkit.characters import irrep_dimension, normalized_character

    lay = proposition_layout(name, n, t=t)
    series = lay.series(N=size, d_max=3)
    assert len(series.terms) > 1
    for key, val in series.items():
        d = key.degree
        if d == 0:
            assert val == 1
            continue
        want = Fraction(0)
        for lam in partitions_of(d):
            if lam.length() > size:
                continue
            term = Fraction(irrep_dimension(lam), factorial(d)) ** lay.euler
            term *= Fraction(pochhammer_lambda(size, lam)) ** lay.poch_exponent
            for prof in key.profiles:
                term *= normalized_character(lam, prof)
            want += term
        assert val == want, key


def test_layout_identity_matrices_fold_to_rising_factorials():
    """With every fixed matrix equal to the identity, the two-tau layout's
    degree-d totals carry ((N)_lam)^n weights."""

    from hurwitzkit.characters import irrep_dimension
    from hurwitzkit.symfunc import eval_schur

    size, n = 3, 2
    lay = proposition_layout("prop1", n)
    series = lay.series(N=size, d_max=2)
    ident = PowerAlphabet.constant(Fraction(size), 2)
    hot = PowerAlphabet.p_infinity(2)
    got = series.evaluate([ident, ident, hot, hot], by_degree=True)
    for d in (1, 2):
        want = sum(
            Fraction(pochhammer_lambda(size, lam)) ** n
            * eval_schur(lam, PowerAlphabet.p_infinity(d)) ** 2
            for lam in partitions_of(d)
            if lam.length() <= size
        )
        assert got[d] == want
    # degree-1 coefficient with one matrix is the matrix size itself
    lay1 = proposition_layout("prop1", 1)
    got1 = lay1.series(N=size, d_max=1).evaluate([ident, hot, hot], by_degree=True)
    assert got1[1] == size


def test_layout_series_cutoff():
    """The length cutoff drops diagram terms (not profile keys): at N=1 only the
    single-row diagram contributes, so the key ((1,1),...) keeps the lam=(2)
    piece c_{(2),(1,1)}^3 / s_(2)(p(1)) = (1/2)^3 / 1."""
    lay = proposition_layout("prop1_u", 1)
    series1 = lay.series(N=1, d_max=2)
    assert series1.coefficient(2, [(1, 1), (1, 1), (1, 1)]) == Fraction(1, 8)
    series2 = lay.series(N=2, d_max=2)
    assert series2.coefficient(2, [(1, 1), (1, 1), (1, 1)]) != Fraction(1, 8)


def test_guards():
    with pytest.raises(GuardError):
        hypergeometric_series(2, 1, d_max=9)
    with pytest.raises(GuardError):
        single_branch_point_series(9)
    with pytest.raises(ValidationError):
        proposition_layout("nope", 2)
    with pytest.raises(ValidationError):
        proposition_layout("int3", 3, t=3)
    with pytest.raises(ValidationError):
        proposition_layout("int5_odd_u", 3)
    for shape, kind, sigma in (("TL|TL|TL", "complex", (1,)), ("GUE", "complex", (1,)),
                               ("TL", "real", (1,)), ("TL", "complex", ()),
                               ("TL", "complex", (1, 1)), ("TL", "complex", (2, 3)),
                               ("TL", "complex", (1, "2")), ("TL", "complex", (True,))):
        with pytest.raises(ValidationError):
            build_layout(shape, kind, sigma)
    with pytest.raises(GuardError, match="n <= 8"):
        build_layout("TL", "complex", range(1, 10))


def _rational_alphabets(count: int, d_max: int) -> list[PowerAlphabet]:
    return [PowerAlphabet.explicit({m: Fraction((-1) ** (j * m) * (j % 3 + m), 2)
                                    for m in range(1, d_max + 1)})
            for j in range(count)]


def test_layout_value_is_the_series_evaluated():
    """value(N, d, alphabets) sums s_lam at the slot alphabets per partition;
    it must equal the profile series evaluated there, exactly, for every
    named layout and valid t at n <= 5, d <= 3 and N <= 3.  Both depend on
    the layout only through (E, F, Pochhammer exponent), so the series of
    each such triple is built once."""
    evaluated = {}
    checked = 0
    for name in LAYOUT_NAMES:
        for n in range(1, 6):
            for t in (None, *range(1, n + 1)):
                try:
                    lay = proposition_layout(name, n, t=t)
                except ValidationError:
                    continue
                if t is not None and lay.t != t:
                    continue  # the same layout as t = None
                alphabets = _rational_alphabets(len(lay.slots), 3)
                for size in (1, 2, 3):
                    key = (lay.euler, len(lay.slots), lay.poch_exponent, size)
                    if key not in evaluated:
                        evaluated[key] = lay.series(N=size, d_max=3).evaluate(
                            alphabets, by_degree=True)
                    by_degree = evaluated[key]
                    for d in range(4):
                        want = sum(by_degree.get(k, 0) for k in range(d + 1))
                        got = lay.value(size, d, alphabets)
                        assert isinstance(got, Fraction) and got == want, (name, n, t, size, d)
                checked += 1
    assert checked >= 80


def test_layout_value_rejects_a_wrong_alphabet_count():
    lay = proposition_layout("prop1", 2)
    with pytest.raises(ValidationError, match="alphabet count"):
        lay.value(2, 2, _rational_alphabets(3, 2))


@pytest.mark.parametrize(
    "call",
    [
        lambda: hypergeometric_series(2, 1, d_max=-1),
        lambda: hypergeometric_series(2, 1, cutoff=0),
        lambda: hyp_tau_series("TL", ContentFunction.one(), 0, -1),
        lambda: hyp_tau_series("BKP", ContentFunction.one(), 0, 3, cutoff=-2),
        lambda: single_branch_point_series(-2),
        lambda: unbranched_cover_coefficients(-1),
        lambda: proposition_layout("prop1", 1).series(N=0, d_max=2),
        lambda: proposition_layout("prop1", 1).series(N=2, d_max=-1),
        lambda: proposition_layout("prop2", 1).value(0, 2, _rational_alphabets(2, 2)),
        lambda: proposition_layout("prop2", 1).value(2, -1, _rational_alphabets(2, 2)),
    ],
)
def test_negative_degree_and_nonpositive_cutoff_are_rejected(call):
    with pytest.raises(ValidationError, match=r"must be >= [01]"):
        call()


def test_degree_zero_is_the_constant_term():
    assert proposition_layout("prop1", 1).series(N=1, d_max=0).terms == {
        SeriesKey(0, (Partition(),) * 3): 1}
    assert proposition_layout("prop1", 1).value(1, 0, _rational_alphabets(3, 1)) == 1
    assert unbranched_cover_coefficients(0) == [1]


def _per_term_reference(alphabet_count, aux_names, d_max, lam_terms):
    """The series summed one Fraction term at a time through ProfileSeries.add:
    lam_terms(d) lists each lam's (weight, {Delta.parts: c}, symbolic factors),
    and every choice of profiles (outer) and exponents (inner) is one term."""
    series = ProfileSeries(alphabet_count, d_max, aux_names)
    series.add(SeriesKey(0, (Partition(),) * alphabet_count, (0,) * len(aux_names)), Fraction(1))
    for d in range(1, d_max + 1):
        for weight, prof_coeff, sym_series in lam_terms(d):
            terms = [((), (), weight)]
            for _ in range(alphabet_count):
                terms = [(profs + (Partition(parts),), aux, acc * c) for profs, aux, acc in terms
                         for parts, c in prof_coeff.items()]
            for factor in sym_series:
                terms = [(profs, aux + (e,), acc * c) for profs, aux, acc in terms
                         for e, c in factor.items()]
            for profs, aux, acc in terms:
                series.add(SeriesKey(d, profs, aux), acc)
    return series


def _same_terms_in_order(got, want):
    assert all(type(v) is Fraction for v in got.terms.values())
    assert list(got.terms.items()) == list(want.terms.items())


_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@settings(max_examples=80, deadline=None)
@given(euler=st.integers(-2, 2), k=st.integers(0, 3), route=st.sampled_from(["schur", "pochhammer"]),
       params=st.lists(st.tuples(st.sampled_from([-2, -1, 1, 2]), st.none() | _rationals),
                       max_size=2),
       cutoff=st.sampled_from([None, 1, 2]), d_max=st.integers(0, 3),
       trunc=st.sampled_from([None, 1, 2]))
def test_series_expansion_matches_per_term_fraction_sums(euler, k, route, params, cutoff, d_max,
                                                         trunc):
    # s_lam(p(a)) vanishes at an integer a, which a negative exponent cannot invert.
    assume(all(a is None or e > 0 or a.denominator > 1 for e, a in params))
    params = tuple(PochhammerParam(e, symbol=f"a{j}") if a is None else PochhammerParam(e, value=a)
                   for j, (e, a) in enumerate(params))
    got = hypergeometric_series(euler, k, params, cutoff=cutoff, d_max=d_max, route=route,
                                series_trunc=trunc)
    t = d_max if trunc is None else trunc

    def lam_terms(d):
        out = (_lambda_weight(lam, euler, k, params, route, t) for lam in partitions_of(d)
               if cutoff is None or lam.length() <= cutoff)
        return [term for term in out if term[0]]

    names = tuple(p.symbol for p in params if p.symbol is not None)
    _same_terms_in_order(got, _per_term_reference(k, names, d_max, lam_terms))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["TL", "BKP"]), shifts=st.lists(_rationals, max_size=2),
       poles=st.lists(st.integers(-5, 5).map(lambda m: Fraction(2 * m + 1, 2)), max_size=1),
       n=st.integers(-2, 2), cutoff=st.sampled_from([None, 1, 2]), d_max=st.integers(0, 4))
def test_tau_expansion_matches_per_term_fraction_sums(kind, shifts, poles, n, cutoff, d_max):
    r = ContentFunction.rational(shifts, poles)
    got = hyp_tau_series(kind, r, n, d_max, cutoff)

    def lam_terms(d):
        out = ((content_product(r, n, lam), schur_poly(lam).coeffs, ()) for lam in partitions_of(d)
               if cutoff is None or lam.length() <= cutoff)
        return [term for term in out if term[0]]

    _same_terms_in_order(got, _per_term_reference(2 if kind == "TL" else 1, (), d_max, lam_terms))


# sha256 of every term (degree, profiles, aux, type and value) of the sweep
# below, in insertion order; recorded with the per-term Fraction expansion.
SERIES_SWEEP_SHA256 = "215b578f4fd066dc5aeabd03ad61f329f1dc8bed09689b7fa1e8e4309aa8a198"


def test_series_sweep_matches_golden_fingerprint():
    a, b = PochhammerParam(-1, symbol="a"), PochhammerParam(2, symbol="b")
    layouts = [("prop1", 1, None), ("prop1", 3, None), ("prop2_odd", 2, None), ("int4", 3, 1),
               ("int4", 3, 3), ("odd3_u", 2, None)]

    def both_routes(layout, N):
        """layout.series(N, 3), then the same series by the "pochhammer" route."""
        params = (PochhammerParam(layout.poch_exponent, value=N),) if layout.poch_exponent else ()
        return [layout.series(N, 3), hypergeometric_series(
            layout.euler, len(layout.slots), params, cutoff=N, d_max=3, route="pochhammer")]

    sweep = [series for name, n, t in layouts for N in (1, 2)
             for series in both_routes(proposition_layout(name, n, t), N)]
    sweep += [hypergeometric_series(e, k, params, cutoff=cutoff, d_max=3, series_trunc=2,
                                    route=route)
              for e in (2, -1) for k in (0, 2) for params in ((), (a,), (a, b),
                                                              (PochhammerParam(1, value=Fraction(5, 3)),))
              for cutoff in (None, 2) for route in ("schur", "pochhammer")]
    sweep += [hyp_tau_series(kind, r, n, 4, cutoff) for kind in ("TL", "BKP")
              for r in (ContentFunction.rational([Fraction(1, 2)]),
                        ContentFunction.rational([3], [Fraction(-7, 2)]))
              for n in (0, -2) for cutoff in (None, 2)]
    digest = hashlib.sha256()
    for series in sweep:
        for key, value in series.terms.items():
            digest.update(f"{key.degree}|{[p.parts for p in key.profiles]}|{key.aux}|"
                          f"{type(value).__name__}|{value}\n".encode())
    assert digest.hexdigest() == SERIES_SWEEP_SHA256


def test_non_rational_values_are_rejected():
    with pytest.raises(ValidationError):
        PochhammerParam(1, value=0.5)
    with pytest.raises(ValidationError):
        PochhammerParam(-1, value=2.0)
    floats = ContentFunction.tabulated({x: x + 0.5 for x in range(-6, 7)})
    with pytest.raises(ValidationError):
        hyp_tau_series("TL", floats, 0, 3)
    with pytest.raises(ValidationError):
        hyp_tau_series("BKP", ContentFunction.power(ContentFunction.tabulated({0: 2}), -1), 0, 1)
