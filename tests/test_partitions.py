import json
from math import factorial

import numpy as np
import pytest

from hurwitzkit import ValidationError
from hurwitzkit.partitions import (
    Partition,
    _class_size,
    conjugate,
    cycle_class_size,
    euler_char_cover,
    partitions_of,
    z_order,
)
from hurwitzkit.symfunc import schur_poly

PARTITION_COUNTS = {0: 1, 1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22, 9: 30}


def test_partition_validation():
    with pytest.raises(ValidationError):
        Partition((1, 2))
    with pytest.raises(ValidationError):
        Partition((2, 0))
    assert Partition().weight() == 0
    assert Partition().length() == 0


@pytest.mark.parametrize(
    "parts, error, message",
    [
        ((0,), ValidationError, "partition parts must be >= 1: (0,)"),
        ((2, -1), ValidationError, "partition parts must be >= 1: (2, -1)"),
        ((1, 2), ValidationError, "partition parts must be weakly decreasing: (1, 2)"),
        ((3, 1, 2), ValidationError, "partition parts must be weakly decreasing: (3, 1, 2)"),
        (("a",), ValidationError, "a partition is an iterable of integers, got ('a',)"),
    ],
)
def test_partition_validation_errors(parts, error, message):
    with pytest.raises(ValueError) as caught:
        Partition(parts)
    assert type(caught.value) is error and str(caught.value) == message


def test_partition_value_semantics():
    a = Partition((3, 1))
    b = Partition([3, 1])
    assert a == b and hash(a) == hash(b)
    assert a == (3, 1)
    assert {a: 1}[b] == 1
    with pytest.raises(AttributeError):
        a.parts = (1,)


def test_partition_is_a_validated_tuple():
    """A Partition equals, hashes and keys dicts and caches like its tuple;
    .parts is a plain tuple, JSON writes a list, no attribute can be set, and
    the empty Partition is false."""
    lam = Partition((3, 1))
    assert isinstance(lam, tuple) and lam == (3, 1) and hash(lam) == hash((3, 1))
    assert {(3, 1): "x"}[lam] == "x" and {lam: "y"}[(3, 1)] == "y"
    first = schur_poly(Partition((4, 2, 1)))
    entries = schur_poly.cache_info().currsize
    assert schur_poly((4, 2, 1)) is first and schur_poly.cache_info().currsize == entries
    assert type(lam.parts) is tuple and lam.parts == (3, 1)
    assert json.dumps(Partition((3, 1))) == "[3, 1]"
    for name in ("parts", "weight", "other"):
        with pytest.raises(AttributeError):
            setattr(lam, name, (1,))
    assert not Partition() and Partition((1,))
    assert Partition(np.array([2, 1], dtype=np.int64)) == (2, 1)
    assert repr(Partition((2, 1))) == "Partition(2, 1)" and repr(Partition()) == "Partition()"


def test_cycle_class_size_is_cached_on_the_value_passed():
    _class_size.cache_clear()
    assert cycle_class_size((2, 1)) == cycle_class_size(Partition((2, 1))) == 3
    assert _class_size.cache_info().currsize == 1
    assert cycle_class_size([2, 1]) == 3 and _class_size.cache_info().currsize == 1
    with pytest.raises(ValidationError):
        cycle_class_size((1, 2))
    with pytest.raises(ValidationError):
        cycle_class_size((2.5, 1.5))
    assert _class_size.cache_info().currsize == 1


def test_partitions_of_small():
    assert [p.parts for p in partitions_of(0)] == [()]
    assert [p.parts for p in partitions_of(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert len(partitions_of(8)) == 22


@pytest.mark.parametrize("d,count", sorted(PARTITION_COUNTS.items()))
def test_partition_counts(d, count):
    parts = partitions_of(d)
    assert len(parts) == count
    assert len(set(parts)) == count
    assert all(p.weight() == d for p in parts)


def test_reverse_lex_order():
    for d in range(1, 9):
        seq = [p.parts for p in partitions_of(d)]
        assert seq == sorted(seq, reverse=True)
        assert seq[0] == (d,) and seq[-1] == (1,) * d


def test_conjugate():
    assert conjugate(()).parts == ()
    assert conjugate((2, 1)).parts == (2, 1)
    assert conjugate((3, 1)).parts == (2, 1, 1)
    for d in range(13):
        for lam in partitions_of(d):
            assert conjugate(conjugate(lam)) == lam
            if lam.parts:
                assert lam.parts[0] == conjugate(lam).length()


def test_cycle_class_size():
    assert cycle_class_size((1, 1, 1)) == 1
    assert cycle_class_size((2, 1)) == 3
    assert cycle_class_size((3,)) == 2
    for d in range(1, 10):
        assert sum(cycle_class_size(p) for p in partitions_of(d)) == factorial(d)
        for p in partitions_of(d):
            assert cycle_class_size(p) * z_order(p) == factorial(d)


def test_euler_char_cover():
    assert euler_char_cover(2, [(2,), (2,)]) == 2
    assert euler_char_cover(1, [(3,)]) == 1
    assert euler_char_cover(2, [], degree=5) == 10
    with pytest.raises(ValidationError):
        euler_char_cover(2, [(2,), (3,)])
    with pytest.raises(ValidationError):
        euler_char_cover(2, [])


def test_partition_json_round_trip():
    lam = Partition((3, 1, 1))
    assert lam.to_json() == [3, 1, 1]
    assert Partition().to_json() == []
