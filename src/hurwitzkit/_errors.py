"""Exception taxonomy shared by the engines and the CLI, and the one table of
hard guards that every exponential-cost path checks its input against."""
from __future__ import annotations

from fractions import Fraction
from math import factorial, log10
from operator import index
from typing import NamedTuple


class ValidationError(ValueError):
    """Malformed input: bad partition data, mismatched weights, bad flags."""


class GuardError(ValueError):
    """Input is well-formed but exceeds a hard combinatorial-explosion guard."""


class Limit(NamedTuple):
    quantity: str  # what is bounded, as the errors and the README print it
    most: int
    least: int | None = None

    def __str__(self) -> str:
        bound = f"{self.quantity} <= {self.most}"
        return bound if self.least is None else f"{self.least} <= {bound}"


LIMITS = {
    # Each class column holds p(d) <= 8 349 characters, one strip step from the column of its class
    # minus the largest part, down to the empty class. The slowest cold columns found, (1^32) (the
    # dimensions) and (2^16), each with its chain, take 0.14-0.17 s; a single value pays for its
    # class's whole chain too: cold, `character((4^8), (2^16))` and `hook_character_poly_check((2^16))`
    # take 0.13-0.18 s. The cost grows with the distinct classes and their suffixes: `hurwitz --euler 0
    # --degree 32` with the profiles (2^16), (3^10, 1^2) and (4^8) takes 0.7-0.8 s at 42 MB, 100 random
    # classes of 32 take 4.9-5.1 s (475 columns), and the slowest admitted call found, 111 classes
    # with small parts (the most the output-size row admits at d = 32, E = 0), 9.0-10.5 s at 195 MB
    # (the last 111 of partitions_of(32), 627 columns, or a greedy pick of 770 columns) (2 cores).
    "character formula": Limit("degree", 32),
    # One rule for both exact engines (guard_output_size): each of the p(d) <= 8 349 character-sum
    # terms is at most (d!)^(|E| + F), an oracle count at most (d!)^(2 - E + F) (4 010 digits at
    # d <= 8), so every value prints under Python's 4 300-digit limit. Slowest admitted oracle calls
    # found, cold: `oracle --surface crosscaps:802 --degree 8` and `genus:401 --degree 8`, 0.6-0.9 s
    # each, 0.40-0.50 s of it the class table and 0.02 s the convolutions (2 cores).
    "output size": Limit("(|E| + F) * digits(d!)", 4000),
    "identity check": Limit("degree", 7),
    "character table": Limit("d", 8),
    "schur expansion": Limit("weight", 10),
    # `schur --at-constant a` prints products of at most 10 factors a + c (|c| <= 9) over
    # hook lengths (<= 10!), so at most 4 010 digits each at this bound.
    "schur constant": Limit("digits of numerator and denominator", 400),
    "series degree": Limit("d_max", 8),
    # The order in 1/a: series_trunc, and the k of a weighted sum's pairs added up. Each nonzero
    # term runs Miller's recurrence to x^k: the slowest admitted call found with a c of 4 digits,
    # `hurwitz_weighted_sum(0, 32, [], [(12, 9973/9967)])`, takes 6.3-7.0 s at 38 MB (c = -1/2:
    # 5.5-6.8 s; k = 16: 9.1-9.5 s); `series_trunc=12` at d_max 8, three alphabets and exponent -2,
    # 1.4 s (2 cores).
    "weight order": Limit("order k", 12),
    # A symbolic Pochhammer factor takes |exponent| products of series to x^series_trunc, a numeric
    # one a power of that many times its digits; layout exponents lie in -8..1. The slowest admitted
    # call found, `hypergeometric_series(2, 3, (PochhammerParam(64, symbol="a"),), d_max=8,
    # series_trunc=12)` (99 707 keys), takes 2.2-3.4 s at 71 MB (0.9-1.2 s at one alphabet); past
    # the bound, 128 takes 3.8 s at three alphabets, 256 5.9 s at one, and a numeric exponent of
    # 1 000 0.9 s at d_max 8 (cold, 2 cores).
    "pochhammer exponent": Limit("|exponent|", 64),
    # A k-alphabet series has sum_{d <= d_max} p(d)^k profile keys; the 80 441 of `genfun
    # --layout prop1 --n 5 --dmax 4` take 5.7-7.0 s (0.8 s series, the rest JSON), 73 MB (2 cores).
    "series profile keys": Limit("profile keys", 100_000),
    "unbranched generator": Limit("d_max", 12),
    "layout matrices": Limit("n", 8),
    "bilinear check": Limit("d_max", 6),
    # g(n) is a product of O(n^2) content values: n = +-16 at d_max 6, cutoff 3 and r = 1
    # takes 0.05-0.10 s, cold (2 cores).
    "bilinear offset": Limit("|n|", 16),
    # Content values x + a get longer with the digits of a: the check at cutoff 3,
    # d_max 6 and n = 16, -16 takes 0.08-0.11 s at a = 1/2, 0.09-0.15 s at 9973/9967
    # and, past the limit, 0.11-0.19 s at 99991/99989 and 0.24-0.30 s at
    # 987654321/123456787; the slowest admitted call, `hirota --r=9973/9967 --N 8
    # --dmax 6 --n=16,-16`, takes 0.13-0.22 s of check, cold (2 cores).
    "content shift": Limit("digits of numerator and denominator", 4),
    "oracle degree": Limit("degree", 8),
    "naive oracle work": Limit("enumerated tuples", 2_000_000),
    # Also the depth of a deep MC trace table: matrixmc._batched_traces splits
    # X^m into halves from {X, X^2}, so m <= 4, and a larger value fails there.
    "mc weight": Limit("|lam|", 4),
    "mc moment size": Limit("N", 6),
    "mc proposition size": Limit("N", 5),
    "mc proposition degree": Limit("degree", 3),
    # The slowest admitted MC call, `mc --proposition prop3_u --n 8 --N 5 --degree 3 --samples
    # 1000000`, takes 21.0-23.2 s at a peak RSS of 1.7 GB (2 cores).
    "mc samples": Limit("samples", 10**6, least=10**4),
    "mc workers": Limit("workers", 64),
}


def guard(name: str, value: int) -> None:
    """Raise GuardError unless value lies within the limit LIMITS[name]."""
    limit = LIMITS[name]
    if value > limit.most or (limit.least is not None and value < limit.least):
        raise GuardError(f"{name} guard: {limit} (got {shown(value)})")


def as_int(name: str, value, least: int | None = None) -> int:
    """operator.index(value), as for Partition parts, if it is at least `least`; else a
    ValidationError naming the argument (a float, a string or a Fraction is no integer)."""
    try:
        value = index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {shown(value)}") from None
    if least is not None and value < least:
        raise ValidationError(f"{name} must be >= {least}, got {shown(value)}")
    return value


def as_rational(name: str, value):
    """value if it is an int or a Fraction, else a ValidationError naming the argument."""
    if not isinstance(value, (int, Fraction)):
        raise ValidationError(f"{name} must be rational, got {shown(value)}")
    return value


def as_tuple(name: str, value, item) -> tuple:
    """tuple(map(item, value)) if value is iterable, else a ValidationError naming the argument."""
    try:
        entries = iter(value)
    except TypeError:
        raise ValidationError(f"{name} must be iterable, got {shown(value)}") from None
    return tuple(map(item, entries))


def shown(value) -> str:
    """A value as every message names it: an int of 30 digits or more by its digit count
    (str() refuses past 4 300), a str of more than 24 characters by its first 24 and its
    length, a Fraction as num/den and a tuple part by part alike, else repr."""
    if isinstance(value, str) and len(value) > 24:
        return f"{value[:24]!r}... ({len(value)} characters)"
    if isinstance(value, int) and abs(value) >= 10**30:
        return f"a value of {digits(value)} digits"
    if isinstance(value, Fraction):
        return f"{shown(value.numerator)}/{shown(value.denominator)}"
    if isinstance(value, tuple):
        return f"({', '.join(map(shown, value))}{',' * (len(value) == 1)})"
    return repr(value)


def digits(n: int) -> int:
    """Decimal digits of |n|, counted without str(), which refuses past 4 300 digits."""
    count = int(log10(abs(n) or 1)) + 1  # float rounding: off by at most one
    return count - (0 < abs(n) < 10 ** (count - 1)) + (abs(n) >= 10**count)


def guard_output_size(euler: int, degree: int, branch_points: int) -> None:
    """The "output size" row for an exact count of degree-d covers of a base of Euler
    characteristic euler with this many branch points."""
    guard("output size", (abs(euler) + branch_points) * digits(factorial(degree)))
