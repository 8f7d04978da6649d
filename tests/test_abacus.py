"""Signed abacus bijection, quadratic size form, and coordinate shifts."""

import tracemalloc
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corelattice import abacus as A
from corelattice import partitions as P
from corelattice.partitions import is_core
from corelattice.simplex import SimplexSpec, iter_cores
from reference import hook_multiset, shifted_x, size_from_x, unshift, zero_charges
from test_partitions import partitions_of, skew_length_of_levels
from test_simplex import skew_length_by_hooks


def charge_vectors(a, radius):
    for head in product(range(-radius, radius + 1), repeat=a - 1):
        tail = -sum(head)
        if abs(tail) <= radius:
            yield (*head, tail)


def test_charge_vector_validation():
    # the library entry points that take charges from a caller check them
    for entry in (A.core_from_charges, A.shift):
        with pytest.raises(ValueError, match="charges must sum to 0, got \\(1, 0, 0\\)"):
            entry(3, (1, 0, 0))
        with pytest.raises(ValueError, match="a must be >= 2"):
            entry(1, (0,))
        with pytest.raises(ValueError, match="expected 3 charges, got 2"):
            entry(3, (1, -1))
        with pytest.raises(ValueError, match="expected 2 charges, got 3"):
            entry(2, (1, -1, 0))


def filled_levels(a, c):
    """The beta-set of the a-core with charges ``c``, descending, one level at a time: the reference route.

    Runner ``i`` is filled from level ``-a*c_i - i - 1`` downwards.  Every
    level below the lowest empty one is filled, so the beads listed are the
    ones above it; at charge zero there are exactly as many of them as the
    core has parts (asserted).
    """
    tops = [-a * ci - i - 1 for i, ci in enumerate(c)]
    lowest_empty = min(tops) + a
    levels = []
    for m in tops:
        levels.extend(range(m, lowest_empty, -a))
    levels.sort(reverse=True)
    if len(levels) + lowest_empty != 0:
        raise AssertionError("abacus bookkeeping is inconsistent")
    return levels


def check_core_beads(a, c, b=None):
    """``core_beads(a, c)`` against routes that share no code with it; the partition it gives."""
    beads, rows = A.core_beads(a, c)
    parts = P.parts_of_beads(beads)
    levels = filled_levels(a, c)
    assert parts == [m + k for k, m in enumerate(levels, start=1)], (a, c)
    assert beads == P._bead_mask(P.beta_set(parts)) == P._bead_mask(levels), (a, c)
    assert A.charges_from_core(tuple(parts), a) == tuple(c), (a, c)
    # the runner tops are the beads with no bead a above them
    assert sorted(rows) == [m + len(levels) for m in levels if m + a not in levels][::-1], (a, c)
    if b is not None:
        sl = P.skew_length_of_beads(beads, a, b, rows)
        assert sl == P.skew_length_of_beads(beads, a, b) == skew_length_of_levels(levels, a, b), (a, b, c)
        assert sl == skew_length_by_hooks(parts, a, b), (a, b, c)
    return parts


def test_core_beads_match_the_reference_routes_on_every_small_core():
    # every core of every coprime a <= 7, b <= 13: b = 1, b < a and the empty core included
    seen_empty = seen_b_below_a = False
    for a in range(2, 8):
        for b in range(1, 14):
            if gcd(a, b) != 1:
                continue
            for _, c in iter_cores(SimplexSpec(a, b)):
                parts = check_core_beads(a, c, b)
                seen_empty |= parts == []
                seen_b_below_a |= b < a and parts != []
    assert seen_empty and seen_b_below_a


def test_core_beads_match_the_reference_routes_on_a_charge_box():
    for a in range(2, 6):
        for c in charge_vectors(a, 3):
            check_core_beads(a, c)


def test_the_comb_table_grows_linearly(monkeypatch):
    # 10,000 beads on runner 0; a table of every shorter comb held about 2a * k^2 bits, 50 MB here
    monkeypatch.setattr(A, "_COMBS", {})
    tracemalloc.start()
    try:
        beads, _ = A.core_beads(2, (-5000, 5000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert beads.bit_count() == 10_000
    for c in charge_vectors(2, 3):  # short combs cut from the long one
        check_core_beads(2, c)


def test_filled_levels_are_a_descending_beta_set():
    for a in range(2, 6):
        for c in charge_vectors(a, 2):
            levels = filled_levels(a, c)
            assert levels == sorted(set(levels), reverse=True)
            for m in levels:
                i = (-m - 1) % a
                assert m <= -a * c[i] - i - 1  # runner i is filled from -a*c_i - i - 1 down
            assert A.core_from_charges(a, c) == tuple(m + k for k, m in enumerate(levels, start=1))
    assert filled_levels(3, (0, 3, -3)) == [6, 3, 0, -1, -3, -4, -6, -7]
    assert A.core_beads(3, (0, 3, -3)) == (P._bead_mask([6, 3, 0, -1, -3, -4, -6, -7]), [7, 14])


def test_filled_levels_bookkeeping_rejects_nonzero_charge():
    with pytest.raises(AssertionError, match="bookkeeping"):
        A.core_beads(2, (1, 0))
    for c in ((0, 1), (1, 0, 0), (0, 0, -1), (2, -1, 0, 0)):
        with pytest.raises(AssertionError, match="bookkeeping"):
            A.core_beads(len(c), c)
        with pytest.raises(AssertionError, match="bookkeeping"):
            filled_levels(len(c), c)


def test_core_from_charges_worked_example():
    assert A.core_from_charges(3, (0, 3, -3)) == (7, 5, 3, 3, 2, 2, 1, 1)
    assert A.core_from_charges(5, zero_charges(5)) == ()
    assert A.core_from_charges(2, (1, -1)) == (1,)
    assert A.core_from_charges(2, [-1, 1]) == (2, 1)


def test_charges_from_core_inverse_examples():
    assert A.charges_from_core((7, 5, 3, 3, 2, 2, 1, 1), 3) == (0, 3, -3)
    assert A.charges_from_core((), 4) == zero_charges(4)
    assert A.charges_from_core((1,), 2) == (1, -1)
    with pytest.raises(ValueError):
        A.charges_from_core((3, 2, 2, 1), 3)


def core_counts(a, n_max):
    """The number of a-cores of each size up to ``n_max``: the coefficients of prod_k (1 - q^(ak))^a / (1 - q^k)."""
    series = [1] + [0] * n_max
    for k in range(1, n_max + 1):
        for n in range(k, n_max + 1):  # divide by 1 - q^k
            series[n] += series[n - k]
    for k in range(a, n_max + 1, a):
        for _ in range(a):
            for n in range(n_max, k - 1, -1):  # multiply by 1 - q^k
                series[n] -= series[n - k]
    return series


def test_charges_from_core_round_trips_the_cores_to_size_30_and_rejects_non_cores_to_size_20():
    found = {a: [0] * 31 for a in range(2, 6)}
    for n in range(31):
        for p in partitions_of(n):
            for a, counts in found.items():
                if is_core(p, a):
                    c = A.charges_from_core(p, a)
                    assert A.core_from_charges(a, c) == p and A.size_of_charges(a, c) == n
                    counts[n] += 1
                elif n <= 20:
                    with pytest.raises(ValueError, match=f"is not a {a}-core"):
                        A.charges_from_core(p, a)
    assert found == {a: core_counts(a, 30) for a in found}


def test_size_of_charges_examples():
    assert A.size_of_charges(3, (0, 3, -3)) == 24
    assert A.size_of_charges(6, zero_charges(6)) == 0
    assert A.size_of_charges(2, (-1, 1)) == 3


def test_bijection_and_size_small_radius():
    for a in range(2, 5):
        for c in charge_vectors(a, 3):
            p = A.core_from_charges(a, c)
            assert is_core(p, a)
            assert A.charges_from_core(p, a) == c
            assert A.size_of_charges(a, c) == sum(p)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 7), st.data())
def test_bijection_random(a, data):
    head = data.draw(st.lists(st.integers(-6, 6), min_size=a - 1, max_size=a - 1))
    c = (*head, -sum(head))
    p = A.core_from_charges(a, c)
    assert A.charges_from_core(p, a) == c
    assert A.size_of_charges(a, c) == sum(p)


def test_cores_have_no_multiple_hooks():
    p = A.core_from_charges(4, (2, -1, 0, -1))
    hooks = hook_multiset(p)
    assert all(h % 4 for h in hooks)


def test_shift_examples():
    tx = A.shift(3, zero_charges(3))
    assert tx == (-2, 0, 2)
    assert shifted_x(tx) == (Fraction(-1, 3), Fraction(0), Fraction(1, 3))
    tx2 = A.shift(3, (0, 3, -3))
    assert shifted_x(tx2) == (Fraction(-1, 3), Fraction(3), Fraction(-8, 3))
    assert sum(shifted_x(tx2)) == 0


def test_shift_round_trip_and_lattice_structure():
    for a in range(2, 7):
        for c in charge_vectors(a, 2):
            tx = A.shift(a, c)
            assert unshift(tx) == c
            xs = shifted_x(tx)
            for i in range(a):
                for j in range(a):
                    frac = (xs[i] - xs[j]) % 1
                    assert frac == Fraction(i - j, a) % 1


def test_unshift_rejects_off_lattice_points():
    with pytest.raises(ValueError):
        unshift((-1, 0, 1))


def test_size_in_shifted_coordinates():
    # constant term: (a/2) sum s_i^2 == (a^2 - 1)/24 exactly
    for a in range(2, 51):
        s = [Fraction(i, a) - Fraction(a - 1, 2 * a) for i in range(a)]
        assert Fraction(a, 2) * sum(v * v for v in s) == Fraction(a * a - 1, 24)
    for a in range(2, 6):
        for c in charge_vectors(a, 2):
            assert size_from_x(A.shift(a, c)) == A.size_of_charges(a, c)
