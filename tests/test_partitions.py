"""Partition-level statistics against worked examples and invariants."""

from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corelattice import partitions as P
from corelattice.abacus import charges_from_core, core_beads, core_from_charges
from corelattice.simplex import SimplexSpec, enumerate_cores
from reference import conjugate, hook_lengths, hook_multiset


def partitions_of(n):
    """Yield all partitions of ``n`` as weakly decreasing tuples: the reference enumerator.

    Ascending-composition generator (accelAsc), reversed on output.
    """
    if n == 0:
        yield ()
        return
    a = [0] * (n + 1)
    k = 1
    a[1] = n
    while k != 0:
        x = a[k - 1] + 1
        y = a[k] - 1
        k -= 1
        while x <= y:
            a[k] = x
            y -= x
            k += 1
        a[k] = x + y
        yield tuple(a[k::-1])


def descending_partitions(max_size=24):
    return st.lists(st.integers(1, 9), max_size=6).map(lambda xs: tuple(sorted(xs, reverse=True)))


def test_hook_lengths_worked_example():
    assert hook_multiset((3, 2, 2, 1)) == (1, 1, 1, 2, 3, 4, 4, 6)
    assert hook_lengths(()) == []
    cells = hook_lengths((1,))
    assert len(cells) == 1 and cells[0].hook == 1 and cells[0].arm == cells[0].leg == 0


def test_hook_cell_consistency():
    for cell in hook_lengths((5, 3, 3, 1)):
        assert cell.hook == cell.arm + cell.leg + 1


def test_is_core_examples():
    p = (3, 2, 2, 1)
    for a in (1, 2, 3, 4, 6):
        assert not P.is_core(p, a)
    for a in (5, 7, 8, 9, 30):
        assert P.is_core(p, a)
    assert P.is_core((), 1) and P.is_core((), 7)


def test_hook_core_equivalence_exhaustive():
    # no hook equal to a  <=>  no hook equal to any multiple of a
    for n in range(31):
        for p in partitions_of(n):
            hooks = set(hook_multiset(p))
            for a in range(2, 9):
                no_a = a not in hooks
                no_multiple = not any(h % a == 0 for h in hooks)
                assert no_a == no_multiple, (p, a)


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((2, 2)) == (2, 2)


@settings(max_examples=200, deadline=None)
@given(descending_partitions())
def test_conjugate_involution_preserves_hooks(p):
    q = conjugate(p)
    assert conjugate(q) == p
    assert sum(q) == sum(p)
    assert hook_multiset(q) == hook_multiset(p)


def test_skew_length_worked_example():
    assert P.skew_length((9, 7, 5, 3, 2, 2, 1, 1), 3, 11) == 9
    assert P.skew_length((), 3, 11) == 0 and len(()) == 0


def test_skew_length_largest_34_core():
    # brute force all five (3,4)-cores and take the largest
    cores = P.brute_force_simultaneous_cores(3, 4, (9 - 1) * (16 - 1) // 24)
    assert len(cores) == 5
    largest = max(cores, key=sum)
    assert largest == (3, 1, 1)
    assert len(largest) == 3 == (3 - 1) * (4 - 1) // 2
    assert P.skew_length(largest, 3, 4) == 3


def test_brute_force_matches_the_partition_filter():
    # the row-by-row search finds exactly the filtered partitions, once each, coprime or not
    for a in range(2, 10):
        for b in range(a + 1, 10):
            filtered = [
                p for n in range(21) for p in partitions_of(n) if P.is_core(p, a) and P.is_core(p, b)
            ]
            for max_size in range(21):
                found = P.brute_force_simultaneous_cores(a, b, max_size)
                assert len(found) == len(set(found)), (a, b, max_size)
                assert set(found) == {p for p in filtered if sum(p) <= max_size}, (a, b, max_size)
    assert P.brute_force_simultaneous_cores(3, 4, -1) == []


def test_skew_length_requires_core():
    with pytest.raises(ValueError):
        P.skew_length((3, 2, 2, 1), 3, 4)  # not a 3-core
    with pytest.raises(ValueError):
        P.skew_length((1,), 2, 4)  # not coprime


def skew_length_of_levels(levels, a, b):
    """Skew length of the (a,b)-core with beta-set ``levels``, scanning the a-rows top down: the reference route.

    The a-rows are the beads ``m`` with ``m + a`` empty; the row at ``m``
    adds the empty levels in ``[m - b + 1, m)`` above the tail.
    """
    beads = P._bead_mask(levels)
    if beads >> a & ~beads or beads >> b & ~beads:
        raise ValueError("skew length is only defined for (a,b)-cores")
    a_rows = beads & ~(beads >> a)
    total = 0
    while a_rows:
        top = a_rows.bit_length() - 1
        a_rows ^= 1 << top
        lo = max(top - b + 1, 0)
        total += top - lo - (beads & ((1 << top) - (1 << lo))).bit_count()
    return total


def test_skew_length_of_levels_requires_an_ab_core():
    for skew in (skew_length_of_levels, lambda levels, a, b: P.skew_length_of_beads(P._bead_mask(levels), a, b)):
        assert skew([], 3, 4) == 0
        assert skew([8, 5, 2, -1, -3, -4, -6, -7], 3, 11) == 9  # (9, 7, 5, 3, 2, 2, 1, 1)
        with pytest.raises(ValueError):
            skew([1], 3, 2)  # (2,) is a 3-core but not a 2-core
        with pytest.raises(ValueError):
            skew([1], 2, 3)  # the same partition fails the a-core test
        with pytest.raises(ValueError):
            skew([2, 0, -1, -3], 3, 4)  # (3, 2, 2, 1): not a 3-core


def test_skew_length_of_beads_rejects_an_a_core_that_is_not_a_b_core():
    # the bitset and runner tops of an a-core, as the enumeration passes them: the b-core test still runs
    rejected = 0
    for a in range(2, 6):
        for n in range(13):
            for p in partitions_of(n):
                if not P.is_core(p, a):
                    continue
                beads, rows = core_beads(a, charges_from_core(p, a))
                for b in range(1, 8):
                    if gcd(a, b) != 1 or P.is_core(p, b):
                        continue
                    with pytest.raises(ValueError, match="only defined for"):
                        P.skew_length_of_beads(beads, a, b, rows)
                    rejected += 1
    assert rejected > 100


def test_skew_length_bounded_on_enumerated_cores():
    for a in range(2, 7):
        for b in range(a + 1, 14):
            if gcd(a, b) != 1:
                continue
            bound = (a - 1) * (b - 1) // 2
            for c in enumerate_cores(SimplexSpec(a, b)):
                p = core_from_charges(a, c)
                assert 0 <= P.skew_length(p, a, b) <= bound


def test_partitions_of_counts():
    counts = [sum(1 for _ in partitions_of(n)) for n in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert all(p == tuple(sorted(p, reverse=True)) for p in partitions_of(9))
    assert Counter(map(sum, partitions_of(8))) == {8: 22}
