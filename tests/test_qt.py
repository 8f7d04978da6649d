"""(q,t)-polynomials, lattice statistics, and the identity checkers."""

import random
from math import gcd

import pytest

from corelattice import partitions as P
from corelattice import qt
from corelattice.abacus import charges_from_core, core_from_charges, shift
from corelattice.perms import maj, siz
from corelattice.polys import LaurentPoly
from corelattice.simplex import SimplexSpec
from reference import enumerate_cores


def test_length_from_x_examples():
    assert qt.length_from_x(qt.origin_point(3)) == 0
    assert qt.length_from_x(shift(3, charges_from_core((7, 5, 3, 3, 2, 2, 1, 1), 3))) == 8
    far = tuple(9 * t for t in qt.origin_point(4))
    assert qt.length_from_x(far) == (4 - 1) * (9 - 1) // 2


def test_skew_length_from_x_examples():
    s34 = SimplexSpec(3, 4)
    assert qt.skew_length_from_x(s34, qt.origin_point(3)) == 0
    assert qt.skew_length_from_x(SimplexSpec(3, 11), shift(3, charges_from_core((9, 7, 5, 3, 2, 2, 1, 1), 3))) == 9
    largest = shift(3, charges_from_core((3, 1, 1), 3))
    assert qt.skew_length_from_x(s34, largest) == 3


def test_cat_qt_examples():
    assert qt.cat_qt(SimplexSpec(3, 4)) == LaurentPoly(
        {(3, 0): 1, (2, 1): 1, (1, 2): 1, (1, 1): 1, (0, 3): 1}
    )
    assert qt.cat_qt(SimplexSpec(2, 3)) == LaurentPoly({(1, 0): 1, (0, 1): 1})
    assert qt.cat_qt(SimplexSpec(4, 1)) == LaurentPoly.monomial((0, 0))


def _cat_qt_from_shifted_points(spec):
    """cat_qt by the shifted-coordinate route: each core's shifted coordinates and the floor formulas."""
    half = (spec.a - 1) * (spec.b - 1) // 2
    out = {}
    for c in enumerate_cores(spec):
        tx = shift(spec.a, c)
        key = (qt.length_from_x(tx), half - qt.skew_length_from_x(spec, tx))
        out[key] = out.get(key, 0) + 1
    return LaurentPoly(out)


def test_cat_qt_equals_the_shifted_point_route():
    pairs = [(a, b) for a in range(2, 7) for b in range(1, 20)] + [(7, b) for b in range(1, 13)]
    for a, b in pairs:
        if gcd(a, b) == 1:
            spec = SimplexSpec(a, b)
            assert qt.cat_qt(spec) == _cat_qt_from_shifted_points(spec), (a, b)


def test_cat_qt_total_and_max_statistics():
    for a, b in ((3, 4), (3, 5), (4, 5), (2, 9), (5, 6)):
        spec = SimplexSpec(a, b)
        poly = qt.cat_qt(spec)
        assert poly.total() == len(enumerate_cores(spec))
        assert all(v > 0 for _, v in poly.items())
        lengths = []
        skews = []
        for c in enumerate_cores(spec):
            tx = shift(a, c)
            lengths.append(qt.length_from_x(tx))
            skews.append(qt.skew_length_from_x(spec, tx))
        assert max(lengths) == max(skews) == (a - 1) * (b - 1) // 2


def test_symmetry_and_specialization():
    assert qt.check_symmetry(qt.cat_qt(SimplexSpec(3, 4)))
    assert qt.check_specialization(SimplexSpec(3, 4), qt.cat_qt(SimplexSpec(3, 4)))
    for b in range(3, 16, 2):
        assert qt.check_symmetry(qt.cat_qt(SimplexSpec(2, b)))
        assert qt.check_specialization(SimplexSpec(2, b), qt.cat_qt(SimplexSpec(2, b)))
    assert qt.check_symmetry(qt.cat_qt(SimplexSpec(5, 1)))
    assert qt.check_specialization(SimplexSpec(5, 1), qt.cat_qt(SimplexSpec(5, 1)))
    # the specialization is read off the polynomial it is given, so a wrong one must fail
    assert not qt.check_specialization(SimplexSpec(3, 4), qt.cat_qt(SimplexSpec(3, 5)))


def test_statistics_match_partition_oracles():
    for a in range(2, 5):
        for b in range(a + 1, 11):
            if gcd(a, b) != 1:
                continue
            spec = SimplexSpec(a, b)
            for c in enumerate_cores(spec):
                p = core_from_charges(a, c)
                tx = shift(a, c)
                assert qt.length_from_x(tx) == len(p)
                assert qt.skew_length_from_x(spec, tx) == P.skew_length(p, a, b)


def test_skew_length_is_coordinate_permutation_invariant():
    rng = random.Random(11)
    spec = SimplexSpec(4, 9)
    for c in rng.sample(enumerate_cores(spec), 25):
        tx = shift(4, c)
        value = qt.skew_length_from_x(spec, tx)
        for _ in range(4):
            perm = rng.sample(range(4), 4)
            shuffled = tuple(tx[i] for i in perm)
            assert qt.skew_length_from_x(spec, shuffled) == value


def test_qt3_identity():
    for b in (4, 5, 7, 8, 10, 11, 13, 14, 16, 17, 19, 20):
        assert qt.check_qt3_identity(b), b
    with pytest.raises(ValueError):
        qt.check_qt3_identity(6)
    with pytest.raises(ValueError):
        qt.check_qt3_identity(2)


def test_delta_table_examples():
    # near the origin, generator 1 moves (length, coskew) by (+1, -2) at a=3
    spec = SimplexSpec(3, 10)
    s = qt.origin_point(3)
    moved = tuple(t + w for t, w in zip(s, qt.generator_tx(3, 1)))
    assert qt.length_from_x(moved) - qt.length_from_x(s) == 1
    assert qt.skew_length_from_x(spec, moved) - qt.skew_length_from_x(spec, s) == 2
    # near the far vertex, subtracting generator 1 moves them by (-1, +1)
    far = tuple(10 * t for t in s)
    back = tuple(t - w for t, w in zip(far, qt.generator_tx(3, 1)))
    assert qt.length_from_x(back) - qt.length_from_x(far) == -1
    assert qt.skew_length_from_x(spec, back) - qt.skew_length_from_x(spec, far) == -1
    # a=4 near the origin, generator 2: (+2, -4)
    spec4 = SimplexSpec(4, 13)
    s4 = qt.origin_point(4)
    moved4 = tuple(t + w for t, w in zip(s4, qt.generator_tx(4, 2)))
    assert qt.length_from_x(moved4) - qt.length_from_x(s4) == 2
    assert qt.skew_length_from_x(spec4, moved4) - qt.skew_length_from_x(spec4, s4) == 4


def test_delta_table_check():
    assert qt.delta_table_check(3, 10)
    assert qt.delta_table_check(4, 13)
    assert qt.delta_table_check(2, 5)
    assert qt.delta_table_check(5, 12)
    with pytest.raises(ValueError):
        qt.delta_table_check(3, 5)


def test_orbifold_minimal_vectors():
    labels2 = qt.orbifold_minimal_vectors(2)
    assert len(labels2) == 1
    ((sigma, tx),) = labels2
    assert sigma == (1,)
    assert qt.length_from_x(tx) == 0

    labels3 = dict(qt.orbifold_minimal_vectors(3))
    assert set(labels3) == {(1, 2), (2, 1)}
    spec = SimplexSpec(3, 10)
    assert qt.length_from_x(labels3[(2, 1)]) == 1 == maj((2, 1))
    assert qt.skew_length_from_x(spec, labels3[(2, 1)]) == 1 == siz((2, 1))

    for a in range(2, 7):
        labels = qt.orbifold_minimal_vectors(a)
        assert len(labels) == len({sigma for sigma, _ in labels})
        for _, tx in labels:
            assert sum(tx) == 0
            # strictly dominant, and minimal: subtracting any generator leaves the chamber
            assert all(tx[i] < tx[i + 1] for i in range(a - 1))
            for i in range(1, a):
                down = tuple(t - w for t, w in zip(tx, qt.generator_tx(a, i)))
                assert any(down[j] > down[j + 1] for j in range(a - 1))


def test_check_sizmaj1():
    for a in range(2, 7):
        assert qt.check_sizmaj1(a), a
