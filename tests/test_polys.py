"""Exact Laurent polynomial arithmetic."""

import doctest
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corelattice import polys
from corelattice.polys import LaurentPoly

laurent_polys = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5).map(LaurentPoly)


def test_module_doctests():
    result = doctest.testmod(polys)
    assert result.attempted > 0 and result.failed == 0


def test_canonical_form_drops_zeros():
    p = LaurentPoly({0: 1, 3: 0, -2: 5})
    assert p.items() == [(-2, 5), (0, 1)]
    assert (p - p).is_zero
    assert LaurentPoly.zero() == LaurentPoly({5: 0})


def test_arithmetic_and_evaluation():
    q = LaurentPoly.monomial(1)
    p = (LaurentPoly.one() + q) * (LaurentPoly.one() + q) * (LaurentPoly.one() + q)
    assert p == LaurentPoly({0: 1, 1: 3, 2: 3, 3: 1})
    assert p(1) == 8
    assert p(Fraction(1, 2)) == Fraction(27, 8)
    lp = LaurentPoly.monomial(-2, 4)
    assert lp(2) == 1
    assert (3 * q) == LaurentPoly({1: 3})


@settings(max_examples=300, deadline=None)
@given(laurent_polys, st.lists(st.tuples(laurent_polys, st.integers(1, 4)), max_size=4), st.integers(-8, 8))
def test_sub_shifted_matches_the_operator_route(p, terms, e):
    total = LaurentPoly.zero()
    for x, n in terms:
        for _ in range(n):
            total = total + x
    expected = p - LaurentPoly.monomial(e) * total
    got = p.sub_shifted(terms, e)
    assert got == expected
    assert 0 not in got._c.values()
    # one pair with multiplier n subtracts what n copies of the polynomial do
    assert got == p.sub_shifted([(x, 1) for x, n in terms for _ in range(n)], e)
    # subtracting a shifted copy of the whole difference cancels everything
    assert got.sub_shifted([(got, 1)], 0).is_zero
    assert (LaurentPoly.monomial(e) * p * 3).sub_shifted([(p, 3)], e).is_zero


def test_sub_shifted_cancels_to_zero_and_leaves_its_inputs():
    p = LaurentPoly({0: 1, 1: 2, 2: 1})
    parts = [(LaurentPoly({-3: 1, -2: 1}), 1), (LaurentPoly({-2: 1, -1: 1}), 1)]
    assert p.sub_shifted(parts, 3).is_zero
    assert p.sub_shifted(parts[:1], 3) == LaurentPoly({1: 1, 2: 1})
    assert p.sub_shifted([(LaurentPoly({0: 1, 1: 1}), 2)], 0) == LaurentPoly({0: -1, 2: 1})
    assert p.sub_shifted([(LaurentPoly.monomial(-1), 2)], 2) == LaurentPoly({0: 1, 2: 1})
    assert p == LaurentPoly({0: 1, 1: 2, 2: 1}) and p.sub_shifted([], 5) == p


def test_subs_power_and_serialization():
    p = LaurentPoly({0: 1, 1: 2, 3: -1})
    assert p.subs_power(3) == LaurentPoly({0: 1, 3: 2, 9: -1})
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
    assert p.sub_shifted([(q, 1), (t, 1)], (1, 0)) == t * t
    assert (p + q * t).sub_shifted([(t, 2), (q, 1)], (1, 0)) == t * t
    assert str(p - 2 * q * t) == "t^2 - qt + q^2"


def test_bivariate_serialization_and_transform():
    p = LaurentPoly({(0, 0): 1, (2, -1): 3})
    assert p.to_rows() == [[0, 0, "1"], [2, -1, "3"]]
    mapped = p.map_exponents(lambda ef: (ef[1], ef[0]))
    assert mapped == p.swapped()
    with pytest.raises(ValueError):
        LaurentPoly({(0, 0): 1, (1, 0): 1}).map_exponents(lambda ef: (0, 0))
