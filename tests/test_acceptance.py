"""Acceptance suite: one test per criterion, exact tolerances pinned.

Every test prints one [PASS] line on success (run with -s or -v to see them);
a failed assertion is the corresponding [FAIL].
"""
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

from hurwitzkit.characters import (
    character_class_sum,
    character_table,
    normalized_character,
)
from hurwitzkit.genfun import (
    ContentFunction,
    PochhammerParam,
    cauchy_littlewood_check,
    hypergeometric_series,
    proposition_layout,
    unbranched_cover_coefficients,
)
from hurwitzkit.hirota import hirota_bilinear_check
from hurwitzkit.hurwitz import (
    gluing_identity_holds,
    hurwitz_value,
    hurwitz_weighted_sum,
)
from hurwitzkit.matrixmc import LEMMA_RELATIONS, mc_proposition_check, mc_schur_moment
from hurwitzkit.oracle import (
    SurfacePresentation,
    oracle_hurwitz,
    presentation_independence_check,
)
from hurwitzkit.partitions import Partition, cycle_class_size, partitions_of
from hurwitzkit.symfunc import (
    PowerAlphabet,
    eval_schur,
    pochhammer_lambda,
)
from oracles import (
    full_cycle_identity_holds,
    full_cycle_normalized_character,
    hook_character_poly_check,
    hurwitz_down_identity_holds,
    qt_pochhammer_lambda,
)


def test_criterion_1_exact_reference_values():
    start = time.monotonic()
    assert hurwitz_value(1, 3, []) == Fraction(2, 3)
    assert hurwitz_value(1, 3, [(3,)]) == Fraction(1, 3)
    assert hurwitz_value(1, 3, [(2, 1)]) == 0
    # the identity profile reproduces the unbranched count (not zero)
    assert hurwitz_value(1, 3, [(1, 1, 1)]) == Fraction(2, 3)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 1: exact degree-3 projective values ({elapsed:.3f}s)")


def _presentations(euler):
    out = []
    if euler % 2 == 0 and euler <= 2:
        out.append(SurfacePresentation.orientable((2 - euler) // 2))
    if euler <= 1:
        out.append(SurfacePresentation.nonorientable(2 - euler))
    return out


def test_criterion_2_oracle_equivalence():
    start = time.monotonic()
    compared = 0
    for d in range(1, 8):
        pool = partitions_of(d)
        for euler in (2, 1, 0, -1, -2):
            for pres in _presentations(euler):
                for f_count in range(4):
                    for combo in combinations_with_replacement(pool, f_count):
                        assert oracle_hurwitz(pres, d, combo) == hurwitz_value(
                            euler, d, combo
                        ), (euler, d, combo, pres)
                        compared += 1
            if euler in (0, -2):
                for f_count in range(4):
                    for combo in combinations_with_replacement(pool, f_count):
                        assert presentation_independence_check(euler, d, combo)
    # Past E = -2 and F = 3: one fixed profile list per query.
    for d in range(2, 8):
        pool = partitions_of(d)
        for euler in range(-1, -7, -1):
            for f_count in (5, 10):
                combo = [pool[(i - euler) % len(pool)] for i in range(f_count)]
                if sum(d - p.length() for p in combo) % 2:  # an odd product counts no cover
                    odd = (d - combo[-1].length()) % 2
                    combo[-1] = Partition((1,) * d if odd else (2,) + (1,) * (d - 2))
                for pres in _presentations(euler):
                    assert oracle_hurwitz(pres, d, combo) == hurwitz_value(euler, d, combo), (
                        euler, d, combo, pres)
                    compared += 1
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(f"\n[PASS] criterion 2: oracle equals character formula on "
          f"{compared} admissible queries ({elapsed:.1f}s)")


def test_criterion_3_unbranched_generator():
    coeffs = unbranched_cover_coefficients(10)
    for d in range(1, 11):
        assert coeffs[d] == hurwitz_value(1, d, []), d
    print("\n[PASS] criterion 3: exp(c^2/2 + c) coefficients equal the character "
          "sums through degree 10")


def test_criterion_4_pochhammer_specializations():
    rng = random.Random(41)

    def rand_frac():
        return Fraction(rng.randint(-12, 12), rng.randint(1, 9))

    a_values = [rand_frac() for _ in range(5)]
    checked = 0
    for d in range(0, 9):
        for lam in partitions_of(d):
            den = eval_schur(lam, PowerAlphabet.p_infinity(max(d, 1)))
            for a in a_values:
                num = eval_schur(lam, PowerAlphabet.constant(a, max(d, 1)))
                assert num == pochhammer_lambda(a, lam) * den
                checked += 1
    qt_pairs = []
    while len(qt_pairs) < 3:
        q, t = rand_frac(), rand_frac()
        if t not in (0, 1, -1) and q != 0:
            qt_pairs.append((q, t))
    for q, t in qt_pairs:
        for d in range(1, 9):
            for lam in partitions_of(d):
                num = eval_schur(lam, PowerAlphabet.qt(q, t, d))
                den = eval_schur(lam, PowerAlphabet.qt(0, t, d))
                assert num == qt_pochhammer_lambda(q, t, lam) * den
                checked += 1
    print(f"\n[PASS] criterion 4: Pochhammer specializations exact on {checked} cases")


def test_criterion_5_character_internal_consistency():
    for d in range(0, 9):
        table = character_table(d)
        assert table.check_row_orthogonality(), d
        assert table.check_column_orthogonality(), d
    for d in range(1, 10):
        for lam in partitions_of(d):
            assert full_cycle_normalized_character(lam) == normalized_character(
                lam, Partition((d,))
            )
    for d in range(1, 8):
        tally = {}
        for perm in permutations(range(d)):
            sq = tuple(perm[perm[i]] for i in range(d))
            seen = [False] * d
            lens = []
            for s in range(d):
                if seen[s]:
                    continue
                size, node = 0, s
                while not seen[node]:
                    seen[node] = True
                    node = sq[node]
                    size += 1
                lens.append(size)
            key = tuple(sorted(lens, reverse=True))
            tally[key] = tally.get(key, 0) + 1
        for delta in partitions_of(d):
            per_element = Fraction(tally.get(delta.parts, 0)) / cycle_class_size(delta)
            assert character_class_sum(delta) == per_element
    for d in range(1, 8):
        for delta in partitions_of(d):
            assert hook_character_poly_check(delta)
    print("\n[PASS] criterion 5: orthogonality (d<=8), full-cycle closed form "
          "(|lam|<=9), square-root counts (d<=7), hook polynomial (d<=7)")


def test_criterion_6_structural_identities():
    for d in range(1, 6):
        gamma = Partition([2] + [1] * (d - 2)) if d >= 2 else Partition((1,))
        for split in ((1, 1), (2, 0), (0, 1), (1, 0)):
            assert gluing_identity_holds(split[0], split[1], d)
            assert gluing_identity_holds(split[0], split[1], d, profiles_a=[gamma])
            assert gluing_identity_holds(
                split[0], split[1], d, profiles_a=[gamma], profiles_b=[Partition((d,))]
            )
        for euler in (2, 1):
            assert hurwitz_down_identity_holds(euler, d)
            assert hurwitz_down_identity_holds(euler, d, [gamma])
    for d in range(1, 7):
        gamma = Partition([2] + [1] * (d - 2)) if d >= 2 else Partition((1,))
        for euler in (2, 1):
            for handles in (1, 2):
                assert full_cycle_identity_holds(euler, d, handles=handles)
                assert full_cycle_identity_holds(euler, d, [gamma], handles=handles)
    print("\n[PASS] criterion 6: gluing, lower-Euler, and full-cycle trade "
          "identities exact (d<=5 / d<=6)")


def test_criterion_7_series_coherence():
    # coefficient extraction == weighted character sums, d <= 4, k <= 3, p <= 2
    checked = 0
    for euler in (2, 1):
        for k in (1, 2, 3):
            for exps in ((), (2,), (-1,), (1, 1)):
                params = tuple(
                    PochhammerParam(e, symbol=f"a{j}") for j, e in enumerate(exps)
                )
                series = hypergeometric_series(euler, k, params, d_max=4, series_trunc=3)
                for key, val in series.items():
                    d = key.degree
                    if d == 0:
                        assert val == 1
                        continue
                    pairs = []
                    for e, expo in zip(exps, key.aux):
                        kk = d * e - expo
                        assert kk >= 0
                        if kk >= 1:
                            pairs.append((kk, e))
                    want = hurwitz_weighted_sum(
                        euler, d, [p.parts for p in key.profiles], pairs
                    )
                    assert val == want, key
                    checked += 1
    # the two expansion routes agree exactly to degree 5
    for euler, k, exps in ((2, 2, (1,)), (1, 1, (-1,)), (2, 2, ()), (0, 1, (2,))):
        params = tuple(PochhammerParam(e, symbol=f"a{j}") for j, e in enumerate(exps))
        left = hypergeometric_series(euler, k, params, d_max=5, series_trunc=3)
        right = hypergeometric_series(
            euler, k, params, d_max=5, series_trunc=3, route="pochhammer"
        )
        assert left == right
    assert cauchy_littlewood_check(6)
    # layout signatures: the engine's claim must match the derived table and
    # satisfy the degree bookkeeping for every enumerated proposition
    expected = {
        ("prop1", 2, None): ("F^{2,4;0}", 2),
        ("prop2", 2, None): ("F^{2,3;1}((N);1)", 2),
        ("int3", 4, 2): ("F^{2,6;0}", 2),
        ("int3", 4, 4): ("F^{0,4;0}", 0),
        ("int4", 3, 1): ("F^{2,5;0}", 2),
        ("int4", 3, 3): ("F^{0,3;0}", 0),
        ("int5", 2, 2): ("F^{0,2;0}", 0),
        ("int5", 4, 4): ("F^{-2,2;0}", -2),
        ("int6", 3, 3): ("F^{0,3;0}", 0),
        ("chekhov", 2, None): ("F^{2,4;0}", 2),
        ("prop1_odd", 2, None): ("F^{1,3;0}", 1),
        ("prop2_odd", 2, None): ("F^{1,2;1}((N);1)", 1),
        ("odd3", 2, 2): ("F^{1,3;0}", 1),
        ("odd4", 3, 3): ("F^{-1,2;0}", -1),
        ("prop1_u", 2, None): ("F^{2,4;1}((N);-2)", 2),
        ("prop2_u", 2, None): ("F^{2,3;1}((N);-1)", 2),
        ("prop3_u", 2, None): ("F^{2,4;1}((N);-2)", 2),
        ("prop3_u", 3, None): ("F^{0,3;1}((N);-3)", 0),
        ("prop4_u", 2, None): ("F^{0,2;1}((N);-2)", 0),
        ("prop4_u", 3, None): ("F^{0,3;1}((N);-3)", 0),
        ("prop1_odd_u", 2, None): ("F^{1,3;1}((N);-2)", 1),
        ("prop2_odd_u", 2, None): ("F^{1,2;1}((N);-1)", 1),
        ("odd3_u", 2, None): ("F^{1,3;1}((N);-2)", 1),
        ("odd3_u", 3, None): ("F^{-1,2;1}((N);-3)", -1),
        ("int5_odd_u", 2, None): ("F^{-1,1;1}((N);-2)", -1),
        ("int6_odd_u", 3, None): ("F^{-1,2;1}((N);-3)", -1),
    }
    for (name, n, t), (signature, euler) in expected.items():
        lay = proposition_layout(name, n, t=t)
        assert lay.signature == signature, (name, n, t, lay.signature)
        assert lay.euler == euler
        assert lay.euler == lay.integrand_degree - 2 * lay.pair_applications
    print(f"\n[PASS] criterion 7: series extraction ({checked} keys), route "
          f"equality, Cauchy-Littlewood (deg 6), {len(expected)} layout signatures")


def test_criterion_8_hirota_property():
    for cutoff in (1, 2, 3):
        assert hirota_bilinear_check(ContentFunction.one(), cutoff, 4)
    shifted = ContentFunction.rational([Fraction(1, 2)])
    for cutoff in (1, 2, 3):
        assert hirota_bilinear_check(shifted, cutoff, 3)
    print("\n[PASS] criterion 8: elementary bilinear equations hold (r=1 at "
          "N=1..3, degree 4; r=x+1/2 at degree 3)")


def test_criterion_9_monte_carlo_gates():
    start = time.monotonic()
    lams = [lam for d in (1, 2, 3) for lam in partitions_of(d)]
    failures = []
    for relation in LEMMA_RELATIONS:
        for size in (2, 3, 4):
            for lam in lams:
                cmp = mc_schur_moment(
                    relation, lam, size, samples=100_000, seed=90_000 + size, workers=4
                )
                if not cmp.passed:
                    failures.append((relation, size, lam.parts, cmp.sigmas))
    assert not failures, failures
    for name, n, size in (
        ("prop1", 1, 3), ("prop1", 2, 2), ("prop2", 1, 3), ("prop2", 2, 2),
        ("prop1_u", 1, 3), ("prop1_u", 2, 2), ("prop2_u", 1, 4), ("prop2_u", 2, 3),
    ):
        cmp = mc_proposition_check(
            name, n, size, degree=2, samples=100_000, seed=70_000 + n, workers=4
        )
        assert cmp.passed, (name, n, size, cmp.sigmas)
    # One order-changed layout per family: it passes its own gate and rejects
    # the exact value of its sibling with the factors in plain reversed order.
    for name, n, t, size, sibling in (
        ("int4", 3, 3, 3, "prop1"), ("int5", 2, 2, 3, "prop2"),
        ("odd4", 3, 3, 3, "prop1_odd"), ("prop3_u", 3, None, 3, "prop1_u"),
        ("prop4_u", 2, None, 3, "prop2_u"), ("int6_odd_u", 3, None, 3, "prop2_odd_u"),
    ):
        cmp = mc_proposition_check(
            name, n, size, degree=2, samples=100_000, seed=70_000 + n, workers=4, t=t
        )
        assert cmp.passed, (name, n, t, size, cmp.sigmas)
        plain = mc_proposition_check(sibling, n, size, degree=2, samples=10_000, workers=4)
        assert abs(cmp.estimate.mean - plain.exact) > 5 * cmp.estimate.stderr, (name, sibling)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"\n[PASS] criterion 9: all Monte Carlo gates within 5 sigma at 1e5 "
          f"samples ({elapsed:.0f}s)")
