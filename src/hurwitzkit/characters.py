"""Irreducible characters of S_d, their normalizations, and aggregate class sums.

Characters are computed per class column: one memo per cycle type delta holds
chi_lam(delta) for every lam of weight |delta|.  The column of delta is one
border-strip step from the column of delta minus its largest part t (the
Murnaghan-Nakayama rule): each lam sums, over the border strips of size t it
has, the remainder's value with sign (-1)^{rows the strip jumps}.  The
recursion ends at the empty class.  Dimensions are the column of the
identity class (1^d): its chain of d steps with t = 1 takes one box off a
corner at each step, which is the branching rule.
The colength class sums need no character: the sum over the classes of
colength k is e_k of the contents of lam (`colength_sums`).
"""
from __future__ import annotations

import io
from fractions import Fraction
from functools import lru_cache
from math import factorial

from ._errors import ValidationError, as_int, as_rational, guard, shown
from .partitions import (
    Partition,
    as_partition,
    conjugate,
    cycle_class_size,
    partitions_of,
)


@lru_cache(maxsize=None)
def _column(delta: tuple[int, ...]) -> dict[Partition, int]:
    """{lam: chi_lam(delta)} over partitions_of(|delta|), in that order.

    A strip of size t = delta[0] whose top row is i stays in row i when
    part = lam_i - t is at least lam_{i+1} (or i is the last row), and
    exists if part >= 0; its remainder has part in row i, and a part of 0
    leaves the diagram.  Otherwise it ends in the first row j > i where
    part = lam_i - t + (j - i) reaches lam_{j+1}, and exists unless part is
    negative there or equals lam_j; its remainder keeps rows i+1..j one box
    shorter, moved up one row, with part in row j, and rows of one box then
    leave the diagram with part = 0.
    """
    d = sum(delta)
    guard("character formula", d)
    if not delta:
        return {Partition(): 1}
    t, below = delta[0], _column(delta[1:])
    column = {}
    for lam in partitions_of(d):
        last, value = len(lam) - 1, 0
        for i, row in enumerate(lam):
            part = row - t
            if i == last or part >= lam[i + 1]:  # the strip stays in row i
                if part >= 0:
                    value += below[lam[:i] + (part,) + lam[i + 1:] if part else lam[:i]]
                continue
            part, j = part + 1, i + 1
            while j < last and part < lam[j + 1]:
                part, j = part + 1, j + 1
            if part < 0 or part == lam[j]:
                continue
            rest = below[lam[:i] + tuple(x - 1 for x in lam[i + 1:j + 1] if x > 1)
                         + ((part,) if part else ()) + lam[j + 1:]]
            value += -rest if (j - i) % 2 else rest
        column[lam] = value
    return column


def character(lam, delta) -> int:
    """Integer character value chi_lam(delta), read from the column of delta;
    weights must agree."""
    lam = as_partition(lam)
    delta = as_partition(delta)
    if lam.weight() != delta.weight():
        raise ValidationError(f"weight mismatch: |lam|={shown(lam.weight())} "
                              f"vs |delta|={shown(delta.weight())}")
    return _column(delta)[lam]


def irrep_dimension(lam) -> int:
    """dim lam = chi_lam(1^|lam|), read from the identity class's column."""
    lam = as_partition(lam)
    return _column((1,) * lam.weight())[lam]


def hook_length_dimension(lam) -> int:
    """dim lam by the hook-length product; independent oracle for irrep_dimension."""
    lam = as_partition(lam)
    d = lam.weight()
    if d == 0:
        return 1
    conj = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam, start=1):
        for j in range(1, row + 1):
            hooks *= row - j + conj[j - 1] - i + 1
    return factorial(d) // hooks


def normalized_character(lam, delta) -> int:
    """|C_delta| * chi_lam(delta) / dim lam, always an integer (it is the
    eigenvalue of the class sum of delta on the irreducible lam)."""
    lam = as_partition(lam)
    return cycle_class_size(delta) * character(lam, delta) // irrep_dimension(lam)


@lru_cache(maxsize=None)
def class_column(delta) -> tuple[int, ...]:
    """normalized_character(lam, delta) of every lam in partitions_of(|delta|) order."""
    size, dims = cycle_class_size(delta), _column((1,) * sum(delta)).values()
    return tuple(size * chi // dim for chi, dim in zip(_column(delta).values(), dims))


def colength_sums(lam) -> tuple[int, ...]:
    """e_0 ... e_|lam| of the contents j - i of lam, the coefficients of
    prod_cells (1 + content x): e_k is the sum of the normalized characters of
    lam over the classes of colength k, as that class sum is e_k of the
    Jucys-Murphy elements, which act on lam by its contents (Jucys 1974)."""
    e = [1]
    for c in as_partition(lam).contents():
        e = [a + c * b for a, b in zip(e + [0], [0] + e)]
    return tuple(e)


def _weighted_colength_sum(lam, k: int, c):
    """Coefficient f_k of x^k in phi(x)^c, phi(x) = prod_cells (1 + content x).

    By J.C.P. Miller's power recurrence, read off phi (phi^c)' = c phi' phi^c:
    f_0 = 1 and f_m = (1/m) sum_j ((c + 1) j - m) phi_j f_{m-j}, over the
    j < |lam| where phi_j can be nonzero.  At c = 1 this reduces to
    colength_sums(lam)[k].  The symbolic Pochhammer series of genfun raise by
    repeated products (`_series_pow`) instead; the series tests compare the
    two, so each is the other's independent check.
    """
    k, c = as_int("k", k, 1), as_rational("c", c)
    phi = colength_sums(lam)[1:-1]
    f = [Fraction(1)]
    for m in range(1, k + 1):
        terms = (((c + 1) * j - m) * p * f[m - j] for j, p in enumerate(phi[:m], start=1))
        f.append(sum(terms, Fraction(0)) / m)
    return f[k]


def character_class_sum(delta) -> int:
    """Sum of chi_lam(delta) over all lam of the same weight.

    Counts square roots in S_d of any permutation with cycle type delta.
    """
    return sum(_column(as_partition(delta)).values())


def full_cycle_normalized_character(lam) -> Fraction:
    """Closed form for the normalized character on the single full cycle:
    vanishes off one-hook diagrams, else (-1)^{len+1} (d!/dim) / d."""
    lam = as_partition(lam)
    d = lam.weight()
    if d == 0:
        raise ValidationError("full cycle needs weight >= 1")
    if len(lam) > 1 and lam[1] > 1:  # not a hook
        return Fraction(0)
    sign = -1 if lam.length() % 2 == 0 else 1
    return Fraction(sign * factorial(d), irrep_dimension(lam) * d)


def hook_character_poly_check(delta) -> bool:
    """Check that prod_i (1 - q^{d_i}) / (1 - q) has coefficient of (-q)^r equal
    to the character of the hook (d-r, 1^r) on delta, for 0 <= r <= d-1."""
    delta = as_partition(delta)
    d = delta.weight()
    guard("character formula", d)
    if d == 0:
        return True
    # numerator poly coefficients of prod (1 - q^{d_i})
    poly = [0] * (d + 1)
    poly[0] = 1
    for part in delta:
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
        self.d = d = as_int("d", d, 0)
        guard("character table", d)
        self.row_labels = self.column_labels = partitions_of(d)
        self.class_sizes = tuple(map(cycle_class_size, self.column_labels))
        self.rows = tuple(zip(*(_column(delta).values() for delta in self.column_labels)))

    def chi(self, lam, delta) -> int:
        lam, delta = as_partition(lam), as_partition(delta)
        if lam.weight() != self.d or delta.weight() != self.d:
            raise ValidationError(f"weight mismatch: |lam|={shown(lam.weight())} and "
                                  f"|delta|={shown(delta.weight())} in the table of S_{self.d}")
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
        label = lambda part: ",".join(map(str, part)) or "-"
        writer.writerow(["lam\\delta"] + [label(delta) for delta in self.column_labels])
        for lam, row in zip(self.row_labels, self.rows):
            writer.writerow([label(lam), *row])
        return out.getvalue()


def character_table(d: int) -> CharacterTable:
    return CharacterTable(d)
