"""Quasipolynomial fitting, lattice points of weighted simplices, and core polynomials."""

from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corelattice import ehrhart as E
from corelattice import simplex, suites
from corelattice.abacus import size_of_charges
from corelattice.errors import FitValidationError
from corelattice.simplex import SimplexSpec, enumerate_cores


def test_lagrange_coefficients():
    coeffs = E.lagrange_coefficients([(0, 1), (1, 2), (2, 5)])  # x^2 + 1
    assert E.poly_eval(coeffs, 0) == 1
    assert E.poly_eval(coeffs, 1) == 2
    assert E.poly_eval(coeffs, 2) == 5
    assert coeffs == (Fraction(1), Fraction(0), Fraction(1))
    with pytest.raises(ValueError):
        E.lagrange_coefficients([(0, 1), (0, 2)])


def lagrange_by_basis_polynomials(points):
    """Reference route: sum the Lagrange basis polynomials, each rebuilt from scratch (O(n^3))."""
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    n = len(pts)
    if len({x for x, _ in pts}) != n:
        raise ValueError("interpolation nodes must be distinct")
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(pts):
        # basis polynomial prod_{j != i} (x - x_j) / (x_i - x_j)
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(pts):
            if j == i:
                continue
            basis = [Fraction(0), *basis]
            for k in range(len(basis) - 1):
                basis[k] -= xj * basis[k + 1]
            denom *= xi - xj
        scale = yi / denom
        for k, c in enumerate(basis):
            coeffs[k] += scale * c
    return tuple(coeffs)


fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@settings(deadline=None)
@given(st.lists(st.tuples(fractions, fractions), max_size=9, unique_by=lambda p: p[0]))
def test_lagrange_coefficients_match_the_basis_polynomials(points):
    coeffs = E.lagrange_coefficients(points)
    assert coeffs == lagrange_by_basis_polynomials(points)
    assert all(E.poly_eval(coeffs, x) == y for x, y in points)


def test_core_fits_match_the_basis_polynomials(monkeypatch):
    newton = {a: E.fit_core_polynomials(a) for a in range(2, 13)}
    monkeypatch.setattr(E, "lagrange_coefficients", lagrange_by_basis_polynomials)
    assert {a: E.fit_core_polynomials(a) for a in range(2, 13)} == newton


def test_triangle_counts_and_quasipolynomial():
    tri = E.WeightedSimplex((2, 1))
    assert [tri.count(t) for t in range(1, 5)] == [2, 4, 6, 9]
    fit = E.fit_quasipolynomial({t: tri.count(t) for t in range(1, 9)}, 2, 2)
    assert fit[0] == (Fraction(1), Fraction(1), Fraction(1, 4))
    assert fit[1] == (Fraction(3, 4), Fraction(1), Fraction(1, 4))
    assert E.poly_eval(fit[10 % 2], 10) == (100 + 40 + 4) / 4


def test_fit_constant_series():
    fit = E.fit_quasipolynomial({t: 7 for t in range(1, 6)}, 1, 0)
    assert fit == ((Fraction(7),),) and E.poly_eval(fit[123 % 1], 123) == 7


def test_fitted_count_matches_catalan_formula_beyond_samples():
    from corelattice.simplex import rational_catalan

    f, _, _ = E.fit_core_polynomials(4)
    for b in (15, 19, 23):
        assert E.poly_eval(f, b) == rational_catalan(4, b)


def test_fit_validation_errors():
    tri = E.WeightedSimplex((2, 1))
    samples = {t: tri.count(t) for t in range(1, 9)}
    with pytest.raises(FitValidationError):
        E.fit_quasipolynomial(samples, 1, 2)  # wrong period
    with pytest.raises(ValueError):
        E.fit_quasipolynomial({1: 1, 2: 2}, 1, 2)  # too few samples


def test_standard_simplex_polynomial():
    for n in (2, 3):
        sim = E.WeightedSimplex((1,) * n)
        fit = E.fit_quasipolynomial({b: sim.count(b) for b in range(1, n + 4)}, 1, n)
        for b in range(1, 9):
            assert E.poly_eval(fit[b % 1], b) == comb(n + b, b)


@pytest.mark.parametrize("weights", [(), (0, 1), (1, -2)], ids=["empty", "zero", "negative"])
def test_weights_must_be_positive(weights):
    with pytest.raises(ValueError, match="weights must be positive integers"):
        E.WeightedSimplex(weights)


def box_lattice_points(weights, t, interior=False):
    """Integer points of ``tP`` (or of its interior) for ``P = {x >= 0, w . x <= 1}``: the reference route.

    Filters every point of the box ``0 <= x_i <= t // w_i`` through the
    inequalities, sharing no bound arithmetic with ``lattice_points``.
    """
    for point in product(*(range(t // w + 1) for w in weights)):
        height = sum(w * x for w, x in zip(weights, point))
        if (min(point) >= 1 and height < t) if interior else height <= t:
            yield point


RECIPROCITY_POLYTOPES = {
    "segment": E.WeightedSimplex((1,)),
    "triangle-2x+y<=1": E.WeightedSimplex((2, 1)),
    "simplex-dim2": E.WeightedSimplex((1, 1)),
    "simplex-dim3": E.WeightedSimplex((1, 1, 1)),
}
OTHER_WEIGHTS = [(3, 2), (1, 2, 3), (2, 5, 1)]


def test_reciprocity_cases_use_the_compared_polytopes():
    assert set(suites.RECIPROCITY_CASES) == {*RECIPROCITY_POLYTOPES, "segment-weight-x^2"}
    assert [p.weights for p in RECIPROCITY_POLYTOPES.values()] == [(1,), (2, 1), (1, 1), (1, 1, 1)]


@pytest.mark.parametrize(
    "weights",
    [*(p.weights for p in RECIPROCITY_POLYTOPES.values()), *OTHER_WEIGHTS],
    ids=[*RECIPROCITY_POLYTOPES, *("weights-" + ",".join(map(str, w)) for w in OTHER_WEIGHTS)],
)
@pytest.mark.parametrize("interior", [False, True], ids=["closed", "interior"])
def test_lattice_points_equal_the_box_filter(weights, interior):
    simplex = E.WeightedSimplex(weights)
    for t in range(1, 21):
        assert list(simplex.lattice_points(t, interior)) == list(box_lattice_points(weights, t, interior)), t


def test_lattice_points_are_drawn_lazily():
    points = E.WeightedSimplex((1, 1, 1)).lattice_points(10**9)
    assert [next(points) for _ in range(3)] == [(0, 0, 0), (0, 0, 1), (0, 0, 2)]
    with pytest.raises(ValueError, match="t must be >= 1"):
        E.WeightedSimplex((1,)).lattice_points(0)


def test_interior_counts():
    seg = E.WeightedSimplex((1,))
    assert [seg.count(t, interior=True) for t in range(1, 5)] == [0, 1, 2, 3]
    tri = E.WeightedSimplex((2, 1))
    assert tri.count(2, interior=True) == 0
    assert tri.count(4, interior=True) == 1  # only (1, 1) satisfies 2x + y < 4 strictly


def test_reciprocity_checks():
    assert E.reciprocity_check(E.WeightedSimplex((1,)), 12)
    assert E.reciprocity_check(E.WeightedSimplex((2, 1)), 16, period=2)
    assert E.reciprocity_check(E.WeightedSimplex((1, 1)), 14)
    assert E.reciprocity_check(E.WeightedSimplex((1,)), 16, weight={(2,): 1})
    assert E.reciprocity_check(E.WeightedSimplex((2, 1)), 20, period=2, weight={(1, 0): 1, (0, 1): 1})
    # period 3, where the constituent at -t (residue -t mod 3) is not the one at t
    assert E.reciprocity_check(E.WeightedSimplex((3, 1)), 24, period=3)
    with pytest.raises(ValueError):
        E.reciprocity_check(E.WeightedSimplex((1,)), 3)


def test_weighted_sums():
    seg = E.WeightedSimplex((1,))
    # sum of squares over [0, t] and its interior
    assert seg.weighted_sum(4, {(2,): 1}) == 1 + 4 + 9 + 16
    assert seg.weighted_sum(4, {(2,): 1}, interior=True) == 1 + 4 + 9
    assert seg.weighted_sum(3, {(1,): 1}, negate=True) == -(1 + 2 + 3)


def test_core_series():
    assert E.core_series(3, 1, 4) == {1: (1, 0), 4: (5, 10), 7: (12, 66), 10: (22, 231)}
    assert E.core_series(2, 1, 4) == {1: (1, 0), 3: (2, 1), 5: (3, 4), 7: (4, 10)}
    with pytest.raises(ValueError):
        E.core_series(4, 2, 3)
    with pytest.raises(ValueError, match="a must be >= 2"):
        E.core_series(0, 1, 3)
    with pytest.raises(ValueError, match="a must be >= 2"):
        E.fit_core_polynomials(0)


def _convolve(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def test_fit_core_polynomials_equal_the_fit_of_the_enumeration(monkeypatch):
    expected = {}
    for a in range(2, 6):
        counts, sums, averages = {}, {}, {}
        for b in E._fit_values(a):
            cores = enumerate_cores(SimplexSpec(a, b))
            counts[b] = len(cores)
            sums[b] = sum(size_of_charges(a, c) for c in cores)
            averages[b] = Fraction(sums[b], counts[b])
        f = E.fit_quasipolynomial(counts, 1, a - 1)[0]
        g = E.fit_quasipolynomial(sums, 1, a + 1)[0]
        p = E.fit_quasipolynomial(averages, 1, 2)[0]
        assert _convolve(f, p) == list(g), a  # F*P = G, coefficient by coefficient
        expected[a] = (f, g, p)

    def no_walk(*args, **kwargs):
        raise AssertionError("the fit must not enumerate cores")

    monkeypatch.setattr(simplex, "iter_cores", no_walk)
    for a, fit in expected.items():
        assert E.fit_core_polynomials(a) == fit, a


def test_root_structure_rejects_a_wrong_fit():
    a = 4
    f, g, p = E.fit_core_polynomials(a)
    assert E.root_structure_ok(a, f, g, p)
    for i in range(len(p)):
        wrong_p = tuple(c + (k == i) for k, c in enumerate(p))
        assert not E.root_structure_ok(a, f, g, wrong_p), i
    # F + 1 and G + 1 do not vanish at -1
    assert not E.root_structure_ok(a, (f[0] + 1, *f[1:]), g, p)
    assert not E.root_structure_ok(a, f, (g[0] + 1, *g[1:]), p)
    # G times (b + 1)(b + 2)(b + 3) keeps the roots at -1 ... -(a-1) but breaks the reflection
    wrong_g = tuple(_convolve(g, (Fraction(6), Fraction(11), Fraction(6), Fraction(1))))
    assert all(E.poly_eval(wrong_g, -r) == 0 for r in range(1, a))
    assert not E.root_structure_ok(a, f, wrong_g, p)


def test_fit_core_polynomials():
    f, g, p = E.fit_core_polynomials(3)
    # counts: (b+1)(b+2)/6; average: (b+4)*2*(b-1)/24
    assert f == (Fraction(1, 3), Fraction(1, 2), Fraction(1, 6))
    assert p == (Fraction(-1, 3), Fraction(1, 4), Fraction(1, 12))
    assert len(g) == 5 and g[-1]
    f2, g2, p2 = E.fit_core_polynomials(2)
    assert p2 == (Fraction(-1, 8), Fraction(1, 12), Fraction(1, 24))  # (b+3)(b-1)/24


def test_check_root_structure():
    for a in (*range(2, 6), 10, 16, 30):
        assert E.check_root_structure(a), a
