"""Exact Laurent polynomial arithmetic."""

import doctest
from fractions import Fraction

import pytest

from corelattice import polys
from corelattice.polys import LaurentPoly


def test_module_doctests():
    result = doctest.testmod(polys)
    assert result.attempted > 0 and result.failed == 0


def test_canonical_form_drops_zeros():
    p = LaurentPoly({0: 1, 3: 0, -2: 5})
    assert p.items() == [(-2, 5), (0, 1)]
    assert (p - p).is_zero
    assert LaurentPoly() == LaurentPoly({5: 0})


def test_arithmetic_and_evaluation():
    q = LaurentPoly.monomial(1)
    p = (LaurentPoly.one() + q) * (LaurentPoly.one() + q) * (LaurentPoly.one() + q)
    assert p == LaurentPoly({0: 1, 1: 3, 2: 3, 3: 1})
    assert p(1) == 8
    assert p(Fraction(1, 2)) == Fraction(27, 8)
    lp = LaurentPoly.monomial(-2, 4)
    assert lp(2) == 1
    assert (3 * q) == LaurentPoly({1: 3})


def test_subs_power_and_serialization():
    p = LaurentPoly({0: 1, 1: 2, 3: -1})
    assert p.map_exponents(lambda e: 3 * e) == LaurentPoly({0: 1, 3: 2, 9: -1})  # q -> q^3
    assert p.to_rows() == [[0, "1"], [1, "2"], [3, "-1"]]
    assert str(LaurentPoly({0: 1, 2: 1})) == "1 + q^2"


def test_bivariate_arithmetic():
    q = LaurentPoly.monomial((1, 0))
    t = LaurentPoly.monomial((0, 1))
    p = q * q + q * t + t * t
    assert p.total() == 3
    assert p.swapped() == p
    asym = q * q + t
    assert asym.swapped() != asym
    assert (p - p).is_zero
    inv = LaurentPoly.monomial((-1, 1))
    assert inv * q == t
    assert p.coefficient((1, 1)) == 1 and p.coefficient((1, 0)) == 0
    assert p - q * (q + t) == t * t
    assert (p + q * t) - q * (2 * t + q) == t * t
    assert str(p - 2 * q * t) == "t^2 - qt + q^2"


def test_bivariate_serialization_and_transform():
    p = LaurentPoly({(0, 0): 1, (2, -1): 3})
    assert p.to_rows() == [[0, 0, "1"], [2, -1, "3"]]
    mapped = p.map_exponents(lambda ef: (ef[1], ef[0]))
    assert mapped == p.swapped()
    with pytest.raises(ValueError):
        LaurentPoly({(0, 0): 1, (1, 0): 1}).map_exponents(lambda ef: (0, 0))
