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


# Each row's slowest admitted call, with its time and peak memory, is in tests/cost_table.py.
LIMITS = {
    # Each class column holds p(d) <= 8 349 characters, one strip step from the column of its
    # class minus the largest part, down to the empty class: the cost grows with the distinct
    # classes asked for and their suffixes.
    "character formula": Limit("degree", 32),
    # The largest degree any engine reads; p(32) = 8 349.
    "partitions": Limit("d", 32),
    # One rule for the exact counts and the series coefficients (guard_output_size): each of the
    # p(d) <= 8 349 character-sum terms is at most (d!)^(|E| + F), an oracle count at most
    # (d!)^(2 - E + F) (4 010 digits at d <= 8), so every value prints under Python's 4 300-digit
    # limit.
    "output size": Limit("(|E| + F) * digits(d!)", 4000),
    "identity check": Limit("degree", 7),
    "character table": Limit("d", 8),
    "schur expansion": Limit("weight", 10),
    # `schur --at-constant a` prints products of at most 10 factors a + c (|c| <= 9) over
    # hook lengths (<= 10!), so at most 4 010 digits each at this bound.
    "schur constant": Limit("digits of numerator and denominator", 400),
    "series degree": Limit("d_max", 8),
    # The order in 1/a: series_trunc, and the k of a weighted sum's pairs added up. Each nonzero
    # term runs Miller's recurrence to x^k.
    "weight order": Limit("order k", 12),
    # A symbolic Pochhammer factor takes |exponent| products of series to x^series_trunc, a numeric
    # one a power of that many times its digits; layout exponents lie in -8..1.
    "pochhammer exponent": Limit("|exponent|", 64),
    # A k-alphabet series has sum_{d <= d_max} p(d)^k profile keys.
    "series profile keys": Limit("profile keys", 100_000),
    "unbranched generator": Limit("d_max", 12),
    "layout matrices": Limit("n", 8),
    "bilinear check": Limit("d_max", 6),
    # g(n) is a product of O(n^2) content values.
    "bilinear offset": Limit("|n|", 16),
    # Content values x + a get longer with the digits of a.
    "content shift": Limit("digits of numerator and denominator", 4),
    "oracle degree": Limit("degree", 8),
    # Also the depth of a deep MC trace table: matrixmc._batched_traces splits
    # X^m into halves from {X, X^2}, so m <= 4, and a larger value fails there.
    "mc weight": Limit("|lam|", 4),
    "mc moment size": Limit("N", 6),
    "mc proposition size": Limit("N", 5),
    "mc proposition degree": Limit("degree", 3),
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
