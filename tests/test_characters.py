from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from hurwitzkit import ValidationError, cache_stats, clear_caches
from hurwitzkit.characters import (
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
    for d in range(17):
        for lam in partitions_of(d):
            assert irrep_dimension(lam) == hook_length_dimension(lam)


def test_identity_class_follows_branching_rule():
    """chi_lam(1^d) is the sum of chi_{lam - box}(1^{d-1}) over removable corners."""
    for d in range(1, 13):
        for lam in partitions_of(d):
            parts = lam.parts
            below = 0
            for i, row in enumerate(parts):
                if i + 1 == len(parts) or parts[i + 1] < row:
                    smaller = tuple(p for p in parts[:i] + (row - 1,) + parts[i + 1:] if p)
                    below += character(smaller, (1,) * (d - 1))
            assert character(lam, (1,) * d) == below


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
    assert stats["characters.class_column"] == 2 and stats["characters.dimensions"] == 1
    clear_caches()
    stats = cache_stats()
    assert stats["characters.class_column"] == 0 and stats["characters.dimensions"] == 0


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


@pytest.mark.parametrize("d", range(1, 9))
def test_orthogonality(d):
    table = character_table(d)
    assert table.check_row_orthogonality()
    assert table.check_column_orthogonality()


def test_table_csv_shape():
    table = character_table(3)
    lines = table.to_csv().strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("lam\\delta")
