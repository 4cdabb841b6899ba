"""Irreducible characters of S_d, their normalizations, and aggregate class sums.

Characters are evaluated by the recursive border-strip rule, implemented on
beta-sets: removing a border strip of size t from the diagram is replacing a
first-column hook length b by b - t, with sign (-1)^{#entries jumped over}.
The recursion stops at the identity class, where the character is the
dimension, read from one table per degree built by the branching rule.
"""
from __future__ import annotations

import io
from fractions import Fraction
from functools import lru_cache
from math import factorial

from ._errors import ValidationError, guard
from .partitions import (
    Partition,
    as_partition,
    cycle_class_size,
    frobenius,
    partitions_of,
    _partition_tuples,
)


@lru_cache(maxsize=None)
def _dimension_table(d: int) -> dict[tuple[int, ...], int]:
    """{parts: dim lam} over the partitions of d, in partitions_of order, by the
    branching rule: dim lam is the sum of dim(lam - corner) over removable corners."""
    if d < 0:
        raise ValidationError("d must be >= 0")
    guard("character formula", d)
    if d == 0:
        return {(): 1}
    below = _dimension_table(d - 1)
    return {
        parts: sum(
            below[parts[:i] + (row - 1,) + parts[i + 1:] if row > 1 else parts[:i]]
            for i, row in enumerate(parts)
            if i + 1 == len(parts) or parts[i + 1] < row
        )
        for parts in _partition_tuples(d, d)
    }


@lru_cache(maxsize=None)
def _beta_char(beta: tuple[int, ...], delta: tuple[int, ...]) -> int:
    """Character value for the partition encoded by the (strictly decreasing)
    beta-set, on the weakly decreasing cycle type delta.

    Strips are removed largest first, so once the first remaining part is 1
    the rest is the identity class of S_m, m = len(delta), and the value is
    the dimension of the partition that beta encodes, read from its table.
    """
    if not delta or delta[0] == 1:
        n = len(beta)
        parts = tuple(b + i + 1 - n for i, b in enumerate(beta) if b + i >= n)
        return _dimension_table(len(delta))[parts]
    t, rest = delta[0], delta[1:]
    members = set(beta)
    total = 0
    for b in beta:
        target = b - t
        if target < 0 or target in members:
            continue
        crossings = sum(1 for c in beta if target < c < b)
        new_beta = tuple(sorted(members - {b} | {target}, reverse=True))
        term = _beta_char(new_beta, rest)
        total += -term if crossings % 2 else term
    return total


def character(lam, delta) -> int:
    """Integer character value chi_lam(delta); weights must agree."""
    lam = as_partition(lam)
    delta = as_partition(delta)
    if lam.weight() != delta.weight():
        raise ValidationError(
            f"weight mismatch: |lam|={lam.weight()} vs |delta|={delta.weight()}"
        )
    n = lam.length()
    beta = tuple(lam.parts[i] + (n - 1 - i) for i in range(n))
    return _beta_char(beta, delta.parts)


def irrep_dimension(lam) -> int:
    """dim lam = character at the identity class, read from the table of |lam|."""
    lam = as_partition(lam)
    return _dimension_table(lam.weight())[lam.parts]


def hook_length_dimension(lam) -> int:
    """dim lam by the hook-length product; independent oracle for irrep_dimension."""
    lam = as_partition(lam)
    d = lam.weight()
    if d == 0:
        return 1
    conj = [sum(1 for p in lam.parts if p >= j) for j in range(1, lam.parts[0] + 1)]
    hooks = 1
    for i, row in enumerate(lam.parts, start=1):
        for j in range(1, row + 1):
            hooks *= row - j + conj[j - 1] - i + 1
    return factorial(d) // hooks


def normalized_character(lam, delta) -> int:
    """|C_delta| * chi_lam(delta) / dim lam, always an integer (it is the
    eigenvalue of the class sum of delta on the irreducible lam)."""
    lam = as_partition(lam)
    return cycle_class_size(delta) * character(lam, delta) // irrep_dimension(lam)


def dimensions(d: int) -> tuple[int, ...]:
    """irrep_dimension of every lam in partitions_of(d) order."""
    return tuple(_dimension_table(d).values())


@lru_cache(maxsize=None)
def class_column(delta) -> tuple[int, ...]:
    """normalized_character(lam, delta) of every lam in partitions_of(|delta|) order."""
    d, size = sum(delta), cycle_class_size(delta)
    lams = partitions_of(d)
    return tuple(size * character(lam, delta) // dim for lam, dim in zip(lams, dimensions(d)))


def colength_sum(lam, k: int) -> Fraction:
    """Sum of normalized characters over all classes of colength k.

    Zero when no class of that colength exists (k >= |lam|, except the empty
    diagram at k = 0); this extension keeps the weighted sums below total.
    """
    lam = as_partition(lam)
    d = lam.weight()
    if k < 0:
        raise ValidationError("colength must be >= 0")
    if d == 0:
        return Fraction(1) if k == 0 else Fraction(0)
    if k >= d:
        return Fraction(0)
    return Fraction(
        sum(normalized_character(lam, delta) for delta in partitions_of(d) if delta.colength() == k)
    )


def weighted_colength_sum(lam, k: int, c):
    """Coefficient f_k of x^k in phi(x)^c, phi = 1 + sum_{j>0} colength_sum(lam, j) x^j.

    By J.C.P. Miller's power recurrence, read off phi (phi^c)' = c phi' phi^c:
    f_0 = 1 and f_m = (1/m) sum_j ((c + 1) j - m) phi_j f_{m-j}, over the
    j < |lam| where phi_j can be nonzero.  At c = 1 this reduces to
    colength_sum(lam, k).  The symbolic Pochhammer series of genfun raise by
    repeated products (`_series_pow`) instead; the series tests compare the
    two, so each is the other's independent check.
    """
    lam = as_partition(lam)
    if k < 1:
        raise ValidationError("k must be >= 1")
    phi = [colength_sum(lam, j) for j in range(1, lam.weight())]
    f = [Fraction(1)]
    for m in range(1, k + 1):
        terms = (((c + 1) * j - m) * p * f[m - j] for j, p in enumerate(phi[:m], start=1))
        f.append(sum(terms, Fraction(0)) / m)
    return f[k]


def character_class_sum(delta) -> int:
    """Sum of chi_lam(delta) over all lam of the same weight.

    Counts square roots in S_d of any permutation with cycle type delta.
    """
    delta = as_partition(delta)
    return sum(character(lam, delta) for lam in partitions_of(delta.weight()))


def full_cycle_normalized_character(lam) -> Fraction:
    """Closed form for the normalized character on the single full cycle:
    vanishes off one-hook diagrams, else (-1)^{len+1} (d!/dim) / d."""
    lam = as_partition(lam)
    d = lam.weight()
    if d == 0:
        raise ValidationError("full cycle needs weight >= 1")
    if frobenius(lam).diagonal != 1:
        return Fraction(0)
    sign = -1 if lam.length() % 2 == 0 else 1
    return Fraction(sign * factorial(d), irrep_dimension(lam) * d)


def hook_character_poly_check(delta) -> bool:
    """Check that prod_i (1 - q^{d_i}) / (1 - q) has coefficient of (-q)^r equal
    to the character of the hook (d-r, 1^r) on delta, for 0 <= r <= d-1."""
    delta = as_partition(delta)
    d = delta.weight()
    guard("hook check", d)
    if d == 0:
        return True
    # numerator poly coefficients of prod (1 - q^{d_i})
    poly = [0] * (d + 1)
    poly[0] = 1
    for part in delta.parts:
        new = [0] * (d + 1)
        for i, coeff in enumerate(poly):
            if not coeff:
                continue
            new[i] += coeff
            if i + part <= d:
                new[i + part] -= coeff
        poly = new
    # divide by (1 - q): running prefix sums
    quot = []
    acc = 0
    for i in range(d):
        acc += poly[i]
        quot.append(acc)
    for r in range(d):
        hook = Partition([d - r] + [1] * r)
        expected = character(hook, delta)
        got = quot[r] if r % 2 == 0 else -quot[r]
        if got != expected:
            return False
    return True


class CharacterTable:
    """Full integer character table of S_d: one tuple of chi_lam(delta) over
    the column labels per row label lam."""

    def __init__(self, d: int):
        if d < 0:
            raise ValidationError("d must be >= 0")
        self.d = d
        self.row_labels = self.column_labels = partitions_of(d)
        self.class_sizes = tuple(map(cycle_class_size, self.column_labels))
        self.rows = tuple(
            tuple(character(lam, delta) for delta in self.column_labels) for lam in self.row_labels
        )

    def chi(self, lam, delta) -> int:
        lam, delta = as_partition(lam), as_partition(delta)
        if lam.weight() != self.d or delta.weight() != self.d:
            raise ValidationError(f"weight mismatch: |lam|={lam.weight()} and "
                                  f"|delta|={delta.weight()} in the table of S_{self.d}")
        labels = self.row_labels
        return self.rows[labels.index(lam)][labels.index(delta)]

    def check_row_orthogonality(self) -> bool:
        fact = factorial(self.d)
        return all(
            sum(size * x * y for size, x, y in zip(self.class_sizes, a, b)) == (fact if i == j else 0)
            for i, a in enumerate(self.rows)
            for j, b in enumerate(self.rows)
        )

    def check_column_orthogonality(self) -> bool:
        fact = factorial(self.d)
        columns = tuple(zip(*self.rows))
        return all(
            sum(x * y for x, y in zip(a, b)) == (fact // size if i == j else 0)
            for i, (a, size) in enumerate(zip(columns, self.class_sizes))
            for j, b in enumerate(columns)
        )

    def to_csv(self) -> str:
        import csv

        out = io.StringIO()
        writer = csv.writer(out)
        label = lambda part: ",".join(str(p) for p in part.parts) or "-"
        writer.writerow(["lam\\delta"] + [label(delta) for delta in self.column_labels])
        for lam, row in zip(self.row_labels, self.rows):
            writer.writerow([label(lam), *row])
        return out.getvalue()


def character_table(d: int) -> CharacterTable:
    return CharacterTable(d)
