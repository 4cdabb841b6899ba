import hashlib
import time
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitzkit import GuardError, ValidationError, cache_stats, characters, clear_caches
from hurwitzkit.characters import (
    CharacterTable,
    character,
    character_class_sum,
    character_table,
    class_column,
    colength_sum,
    dimensions,
    full_cycle_normalized_character,
    hook_character_poly_check,
    hook_length_dimension,
    irrep_dimension,
    normalized_character,
    weighted_colength_sum,
)
from hurwitzkit.hurwitz import hurwitz_value
from hurwitzkit.partitions import Partition, partitions_of, z_order
from hurwitzkit.symfunc import schur_poly


def test_character_values():
    assert character((2, 1), (1, 1, 1)) == 2
    assert character((2, 1), (3,)) == -1
    for delta in partitions_of(3):
        assert character((3,), delta) == 1  # trivial representation
    with pytest.raises(ValidationError):
        character((2, 1), (2,))


def test_sign_representation():
    for d in range(1, 8):
        sign_lam = Partition((1,) * d)
        for delta in partitions_of(d):
            expected = (-1) ** delta.colength()
            assert character(sign_lam, delta) == expected


def test_dimensions_match_hook_lengths():
    assert irrep_dimension((5,)) == 1
    assert irrep_dimension((2, 1)) == 2
    assert irrep_dimension((2, 2)) == 2
    for d in range(25):  # 24 is the degree of exact-table and `hurwitz --degree 24`
        for lam in partitions_of(d):
            assert irrep_dimension(lam) == hook_length_dimension(lam)


def test_identity_class_matches_hook_lengths():
    for d in range(13):
        for lam in partitions_of(d):
            assert character(lam, (1,) * d) == hook_length_dimension(lam)


def test_dimension_tables_are_guarded_and_validated():
    assert dimensions(32)[-1] == 1 and len(dimensions(32)) == 8349
    with pytest.raises(GuardError):
        irrep_dimension((33,))
    with pytest.raises(ValidationError):
        dimensions(-1)


def test_dimensions_leave_the_character_cache_empty():
    """H(1, n) reads only the dimension row, so no character is evaluated."""
    clear_caches()
    for n in range(1, 25):
        hurwitz_value(1, n)
    stats = cache_stats()
    assert stats["characters._beta_char"] == 0
    assert stats["characters._dimension_table"] <= 25


def test_normalized_characters_are_integers():
    """The divisibility the integer character sum rests on: d!/dim lam and
    |C_delta| chi_lam(delta)/dim lam are integers."""
    for d in range(1, 11):
        for lam in partitions_of(d):
            dim = irrep_dimension(lam)
            assert factorial(d) % dim == 0
            for delta in partitions_of(d):
                exact = Fraction(factorial(d), z_order(delta)) * character(lam, delta) / dim
                assert exact.denominator == 1
                value = normalized_character(lam, delta)
                assert type(value) is int and value == exact


def test_identity_tail_keeps_the_character_cache_small():
    """Trailing fixed points close in one step instead of one entry per 1-strip."""
    clear_caches()
    hurwitz_value(0, 24, [(2,) + (1,) * 22] * 2)
    assert cache_stats()["characters._beta_char"] < 10_000


def test_class_column_lists_normalized_characters_in_partition_order():
    for d in range(9):
        lams = partitions_of(d)
        assert dimensions(d) == tuple(irrep_dimension(lam) for lam in lams)
        for delta in lams:
            column = class_column(delta)
            assert len(column) == len(lams)
            for lam, value in zip(lams, column):
                assert type(value) is int and value == normalized_character(lam, delta)


def test_class_columns_are_counted_and_cleared():
    clear_caches()
    hurwitz_value(0, 6, [(3, 2, 1), (2, 1, 1, 1, 1), (3, 2, 1)])
    stats = cache_stats()
    assert stats["characters.class_column"] == 2 and stats["characters._dimension_table"] == 7
    clear_caches()
    stats = cache_stats()
    assert stats["characters.class_column"] == 0 and stats["characters._dimension_table"] == 0


def test_dimension_matches_schur_leading_term():
    for d in range(8):
        for lam in partitions_of(d):
            lead = schur_poly(lam).coefficient((1,) * d)
            assert lead * factorial(d) == irrep_dimension(lam)


def test_normalized_character():
    for d in range(1, 8):
        for lam in partitions_of(d):
            assert normalized_character(lam, Partition((1,) * d)) == 1
    assert normalized_character((3,), (3,)) == 2
    assert normalized_character((2, 1), (2, 1)) == 0


def test_schur_coefficients_are_characters_over_centralizer():
    """Tie between the Jacobi-Trudi route and character data."""
    for d in range(1, 9):
        for lam in partitions_of(d):
            poly = schur_poly(lam)
            for delta in partitions_of(d):
                assert poly.coefficient(delta) == Fraction(
                    character(lam, delta), z_order(delta)
                )


def test_colength_sum():
    for d in range(1, 7):
        for lam in partitions_of(d):
            assert colength_sum(lam, 0) == 1
            assert colength_sum(lam, d) == 0
            assert colength_sum(lam, d + 3) == 0
            if d > 1:
                gamma = Partition([2] + [1] * (d - 2))
                assert colength_sum(lam, 1) == normalized_character(lam, gamma)
            assert colength_sum(lam, d - 1) == normalized_character(lam, Partition((d,)))
    assert colength_sum(Partition((2,)), 1) == 1
    assert colength_sum(Partition((2, 1)), 2) == -1


def test_cached_helpers_take_lists_tuples_and_partitions():
    for lam in ([3, 1], (3, 1), Partition([3, 1])):
        assert irrep_dimension(lam) == 3
        assert [colength_sum(lam, k) for k in range(4)] == [1, 2, -1, -2]


def test_weighted_colength_sum():
    for d in range(1, 7):
        for lam in partitions_of(d):
            for k in range(1, d + 2):
                assert weighted_colength_sum(lam, k, 1) == colength_sum(lam, k)
    lam = Partition((3, 1))
    c = Fraction(5, 2)
    assert weighted_colength_sum(lam, 1, c) == c * colength_sum(lam, 1)
    assert weighted_colength_sum(Partition((2,)), 2, 2) == 1


def test_weighted_colength_sum_is_power_series_coefficient():
    """Direct expansion of (1 + sum phi_j x^j)^c for integer c as the oracle."""
    for lam in [Partition((3, 1)), Partition((2, 2, 1)), Partition((4, 2))]:
        d = lam.weight()
        for c in (2, 3):
            coeffs = [Fraction(1)] + [colength_sum(lam, j) for j in range(1, d)]
            power = [Fraction(1)]
            for _ in range(c):
                new = [Fraction(0)] * (len(power) + d - 1)
                for i, a in enumerate(power):
                    for j, b in enumerate(coeffs):
                        new[i + j] += a * b
                power = new
            for k in range(1, d + 2):
                want = power[k] if k < len(power) else Fraction(0)
                assert weighted_colength_sum(lam, k, c) == want


def test_weighted_colength_sum_is_fast_and_exact_at_large_k():
    """At c = -1 the coefficients are those of 1 / phi, so phi times them
    vanishes past x^0: checked to k = 60, where one call takes well under a
    second.  Every value is a Fraction, also where each term vanishes."""
    lam = Partition((3, 2, 1))
    start = time.perf_counter()
    value = weighted_colength_sum(lam, 60, -1)
    assert time.perf_counter() - start < 1.0
    assert type(value) is Fraction
    phi = [Fraction(1)] + [colength_sum(lam, j) for j in range(1, lam.weight())]
    f = [Fraction(1)] + [weighted_colength_sum(lam, k, -1) for k in range(1, 61)]
    assert f[60] == value
    for k in range(1, 61):
        assert sum(p * f[k - j] for j, p in enumerate(phi[:k + 1])) == 0, k
    for lam, k, c in (((1,), 5, 2), ((), 3, Fraction(1, 3)), ((2, 1), 4, 0)):
        assert type(weighted_colength_sum(lam, k, c)) is Fraction


def _square_root_counts(d):
    counts = {}
    for perm in permutations(range(d)):
        square = tuple(perm[perm[i]] for i in range(d))
        seen = [False] * d
        lengths = []
        for s in range(d):
            if seen[s]:
                continue
            size, node = 0, s
            while not seen[node]:
                seen[node] = True
                node = square[node]
                size += 1
            lengths.append(size)
        key = tuple(sorted(lengths, reverse=True))
        counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.mark.parametrize("d", range(1, 8))
def test_character_class_sum_counts_square_roots(d):
    """Square roots of one fixed permutation of each type: the tally over all R
    of type(R^2) counts every class element, so divide by the class size."""
    from hurwitzkit.partitions import cycle_class_size

    by_type = _square_root_counts(d)
    for delta in partitions_of(d):
        total = by_type.get(delta.parts, 0)
        size = cycle_class_size(delta)
        assert total % size == 0
        assert character_class_sum(delta) == total // size


def test_character_class_sum_examples():
    assert character_class_sum((1, 1, 1)) == 4
    assert character_class_sum((1,)) == 1
    assert character_class_sum((2, 1)) == 0


def test_full_cycle_normalized_character():
    assert full_cycle_normalized_character((2, 2)) == 0
    assert full_cycle_normalized_character((3,)) == 2
    assert full_cycle_normalized_character((1, 1, 1)) == 2
    for d in range(1, 10):
        for lam in partitions_of(d):
            assert full_cycle_normalized_character(lam) == normalized_character(
                lam, Partition((d,))
            )


def test_weighted_colength_sum_is_polynomial_of_degree_k():
    """The (k+1)-th forward difference in c of a degree-<=k polynomial vanishes."""
    from math import comb

    lam = Partition((3, 2, 1))
    for k in (1, 2, 3):
        values = [weighted_colength_sum(lam, k, c) for c in range(k + 2)]
        diff = sum((-1) ** i * comb(k + 1, i) * values[k + 1 - i] for i in range(k + 2))
        assert diff == 0
        # leading coefficient: the (1^k) term contributes phi_1^k / k!
        top = sum(
            (-1) ** i * comb(k, i) * weighted_colength_sum(lam, k, k - i)
            for i in range(k + 1)
        )
        assert top == colength_sum(lam, 1) ** k  # k! * leading coeff


def test_full_cycle_profile_restricts_to_hooks():
    """With a maximally ramified branch point only one-hook diagrams survive."""
    from math import factorial

    from hurwitzkit.hurwitz import hurwitz_value
    from hurwitzkit.partitions import frobenius

    for d in (3, 4, 5):
        for extra in (Partition((d,)), Partition([2] + [1] * (d - 2))):
            full = hurwitz_value(1, d, [Partition((d,)), extra])
            hooks_only = sum(
                Fraction(character(lam, Partition([1] * d)), factorial(d))
                * normalized_character(lam, Partition((d,)))
                * normalized_character(lam, extra)
                for lam in partitions_of(d)
                if frobenius(lam).diagonal == 1
            )
            assert full == hooks_only


@pytest.mark.parametrize("d", range(1, 8))
def test_hook_character_poly(d):
    for delta in partitions_of(d):
        assert hook_character_poly_check(delta)


def test_hook_character_poly_check_fails_on_a_wrong_hook_character(monkeypatch):
    """One hook character moved by 1 fails the check on every class of its
    degree, and on no class of another degree."""
    true_character = characters.character

    def perturbed(lam, delta):
        return true_character(lam, delta) + (lam == Partition((2, 1, 1)))

    monkeypatch.setattr(characters, "character", perturbed)
    for delta in partitions_of(4):
        assert not hook_character_poly_check(delta)
    for delta in partitions_of(3):
        assert hook_character_poly_check(delta)


@pytest.mark.parametrize("d", range(1, 9))
def test_orthogonality(d):
    table = character_table(d)
    assert table.check_row_orthogonality()
    assert table.check_column_orthogonality()


def test_a_flipped_sign_fails_both_orthogonality_checks():
    rows = character_table(5).rows
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            if not value:
                continue
            table = CharacterTable(5)
            table.rows = rows[:i] + (row[:j] + (-value,) + row[j + 1:],) + rows[i + 1:]
            assert not table.check_row_orthogonality()
            assert not table.check_column_orthogonality()


def test_chi_takes_lists_tuples_and_partitions():
    table = character_table(4)
    for lam, delta in (([3, 1], [2, 1, 1]), ((3, 1), (2, 1, 1)), (Partition([3, 1]), Partition([2, 1, 1]))):
        assert table.chi(lam, delta) == 1
        assert table.chi(delta, lam) == 0
        assert table.chi(lam, [1] * 4) == 3


def test_chi_rejects_labels_of_another_degree():
    table = character_table(3)
    for lam, delta in (((2, 1), (1, 1)), ((2, 2), (1, 1, 1)), ((3,), (4,)), ((), (3,))):
        with pytest.raises(ValidationError, match="weight mismatch"):
            table.chi(lam, delta)


_table_cells = st.integers(0, 8).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(0, len(partitions_of(d)) - 1),
                        st.integers(0, len(partitions_of(d)) - 1)))


@settings(max_examples=150, deadline=None)
@given(_table_cells)
def test_rows_are_orthonormal(cell):
    """sum_delta chi_lam(delta) chi_mu(delta) / z_delta = [lam == mu]."""
    d, i, j = cell
    classes = partitions_of(d)
    table = character_table(d)
    total = sum(Fraction(table.chi(classes[i], delta) * table.chi(classes[j], delta), z_order(delta))
                for delta in classes)
    assert total == (i == j)


@settings(max_examples=150, deadline=None)
@given(_table_cells)
def test_columns_are_orthogonal(cell):
    """sum_lam chi_lam(delta) chi_lam(gamma) = z_delta [delta == gamma]."""
    d, i, j = cell
    classes = partitions_of(d)
    table = character_table(d)
    total = sum(table.chi(lam, classes[i]) * table.chi(lam, classes[j]) for lam in classes)
    assert total == (z_order(classes[i]) if i == j else 0)


# sha256 of character_table(d).to_csv(), recorded with the Partition-keyed table.
TABLE_CSV_SHA256 = [
    "4eb3f847142b33b65a9759b681522b0170e08ce6b0b663f442c61e2822c632ee",
    "cee97140375a2c55c94816b02afc17b08b337ce3bfa398ad9acddd3d20b0df30",
    "2dc54c3709aa766c787c86ed13afddfcf141a5676025ccfdbd58e8832ba83663",
    "b1b0b9fbae75db7e252e0b1d63d261d072b30b0fabf252807071db411a85893b",
    "bde2956c5d5f397164bf8849dcc77309a2aece92d8a73f56ef222776522d92db",
    "ec0a86397c1cfe2f06e98ffe1a704922dba767dfea750bca3916ffe12fa846f2",
    "b82ca768f8bbb56472d79407eed4e1d6748e99469d9a10f80380a1c7ce3b157d",
    "28fe1a7930652b16e450a5f695a8c357eeed8ddb41278160c30926dc93e75837",
]


def test_table_csv_is_pinned():
    for d, digest in enumerate(TABLE_CSV_SHA256):
        assert hashlib.sha256(character_table(d).to_csv().encode()).hexdigest() == digest


def test_table_csv_shape():
    table = character_table(3)
    lines = table.to_csv().strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("lam\\delta")
