"""Exact quasipolynomial fitting, lattice points of weighted simplices, and
the count/size polynomials of the core simplices.

Fitting is Lagrange interpolation over the rationals with held-out
validation: per residue class the first ``degree + 1`` samples determine a
candidate and every remaining sample must match it exactly, so a wrong
degree or period hypothesis surfaces as :class:`FitValidationError` rather
than a silently bad fit.

The fitted polynomials are the one dense exception to the package's sparse
:class:`~corelattice.polys.LaurentPoly`: :func:`poly_eval`,
:func:`lagrange_coefficients` and :class:`Quasipolynomial` work on
coefficient tuples of ``Fraction``, which interpolation needs, while
``LaurentPoly`` holds ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd

from .errors import CapExceededError, FitValidationError, int_text
from .simplex import DEFAULT_CAP, SimplexSpec, core_moments

Coeffs = tuple[Fraction, ...]


def poly_eval(coeffs: Coeffs, x) -> Fraction:
    """Evaluate a coefficient list (low to high) at ``x``, exactly."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def lagrange_coefficients(points) -> Coeffs:
    """Coefficients of the unique interpolating polynomial through ``points``, in O(n^2) operations.

    Newton's divided differences give ``d_0 + (x - x_0)(d_1 + (x - x_1)(d_2 + ...))``, expanded by Horner's rule.
    """
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    n = len(pts)
    xs = [x for x, _ in pts]
    if len(set(xs)) != n:
        raise ValueError("interpolation nodes must be distinct")
    d = [y for _, y in pts]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            d[i] = (d[i] - d[i - 1]) / (xs[i] - xs[i - j])
    coeffs: list[Fraction] = []
    for xi, di in zip(reversed(xs), reversed(d)):
        # coeffs <- coeffs * (x - xi) + di
        coeffs = [Fraction(0), *coeffs]
        for k in range(len(coeffs) - 1):
            coeffs[k] -= xi * coeffs[k + 1]
        coeffs[0] += di
    return tuple(coeffs)


@dataclass(frozen=True)
class Quasipolynomial:
    """One exact-rational polynomial per residue class of a fixed period."""

    period: int
    constituents: tuple[Coeffs, ...]

    def __post_init__(self):
        if self.period < 1 or len(self.constituents) != self.period:
            raise ValueError("need one constituent per residue class")
        object.__setattr__(
            self,
            "constituents",
            tuple(tuple(Fraction(c) for c in cs) for cs in self.constituents),
        )

    def evaluate(self, t: int) -> Fraction:
        return poly_eval(self.constituents[t % self.period], t)


def fit_quasipolynomial(samples, period: int, degree: int) -> Quasipolynomial:
    """Fit one degree-``degree`` polynomial per residue class and validate.

    ``samples`` maps integer arguments to exact values.  Every residue class
    mod ``period`` needs at least ``degree + 2`` samples: ``degree + 1`` fix
    the candidate, the rest are held out and must match exactly.
    """
    if period < 1 or degree < 0:
        raise ValueError("need period >= 1 and degree >= 0")
    by_class: dict[int, list[tuple[int, Fraction]]] = {r: [] for r in range(period)}
    for t, v in samples.items():
        by_class[t % period].append((t, Fraction(v)))
    constituents = []
    for r in range(period):
        pts = sorted(by_class[r])
        if len(pts) < degree + 2:
            raise ValueError(
                f"residue class {r} has {len(pts)} samples; need at least {degree + 2}"
            )
        coeffs = lagrange_coefficients(pts[: degree + 1])
        for t, v in pts[degree + 1 :]:
            got = poly_eval(coeffs, t)
            if got != v:
                raise FitValidationError(
                    f"held-out sample at t={t} gives {v}, fit predicts {got}"
                )
        constituents.append(coeffs)
    return Quasipolynomial(period, tuple(constituents))


class WeightedSimplex:
    """The simplex ``{x : x >= 0, w . x <= 1}`` for positive integer weights ``w``.

    Its dilate ``tP`` is ``x_i >= 0, w . x <= t``, and the interior of ``tP``
    is ``x_i >= 1, w . x <= t - 1``.

    >>> halved_right_triangle().count(4)
    9
    """

    __slots__ = ("weights",)

    def __init__(self, weights):
        weights = tuple(weights)
        if not weights or min(weights) < 1:
            raise ValueError(f"weights must be positive integers, got {weights}")
        self.weights = weights

    def lattice_points(self, t: int, interior: bool = False):
        """Integer points of ``tP`` (or of its interior), lazily in lexicographic order."""
        if t < 1:
            raise ValueError("t must be >= 1")
        low = 1 if interior else 0
        return _points(self.weights, low, t - low)

    def count(self, t: int, interior: bool = False) -> int:
        return sum(1 for _ in self.lattice_points(t, interior))

    def weighted_sum(self, t: int, weight, interior: bool = False, negate: bool = False) -> Fraction:
        """Sum a polynomial weight over the (interior) points of ``tP``.

        ``weight`` maps exponent tuples to coefficients; ``negate`` sums the
        weight at ``-x`` instead (the reflected polytope).
        """
        total = Fraction(0)
        for point in self.lattice_points(t, interior):
            p = tuple(-x for x in point) if negate else point
            for exps, coeff in weight.items():
                term = Fraction(coeff)
                for x, e in zip(p, exps):
                    term *= Fraction(x) ** e
                total += term
        return total


def _points(weights: tuple[int, ...], low: int, room: int):
    """The points ``x_i >= low`` with ``w . x <= room``, in lexicographic order."""
    w, *rest = weights
    for x in range(low, room // w + 1):
        if rest:
            for tail in _points(rest, low, room - w * x):
                yield (x, *tail)
        else:
            yield (x,)


def unit_segment() -> WeightedSimplex:
    """The segment [0, 1]."""
    return WeightedSimplex((1,))


def halved_right_triangle() -> WeightedSimplex:
    """``x, y >= 0, 2x + y <= 1`` (period-2 count quasipolynomial)."""
    return WeightedSimplex((2, 1))


def standard_simplex(n: int) -> WeightedSimplex:
    """``x_i >= 0, sum x_i <= 1`` in dimension n."""
    return WeightedSimplex((1,) * n)


def reciprocity_check(
    polytope: WeightedSimplex,
    t_max: int,
    period: int = 1,
    weight=None,
) -> bool:
    """Fit the (weighted) count at positive scales; compare at negated scales.

    The fitted function evaluated at ``-t`` must equal ``(-1)^dim`` times the
    interior sum at scale ``t`` of the weight at ``-x`` (the plain interior
    count when no weight is given), for ``t = 1 .. t_max // 2``.
    """
    n = len(polytope.weights)
    wdeg = max((sum(e) for e in weight), default=0) if weight else 0
    degree = n + wdeg
    if t_max < 2 * (degree + 2) * period:
        raise ValueError("t_max too small to fit and cross-check the count")
    if weight:
        samples = {t: polytope.weighted_sum(t, weight) for t in range(1, t_max + 1)}
    else:
        samples = {t: Fraction(polytope.count(t)) for t in range(1, t_max + 1)}
    fit = fit_quasipolynomial(samples, period, degree)
    sign = -1 if n % 2 else 1
    for t in range(1, t_max // 2 + 1):
        if weight:
            inside = polytope.weighted_sum(t, weight, interior=True, negate=True)
        else:
            inside = Fraction(polytope.count(t, interior=True))
        if fit.evaluate(-t) != sign * inside:
            return False
    return True


def core_series(a: int, residue: int, num_samples: int, cap: int = DEFAULT_CAP) -> dict[int, tuple[int, int]]:
    """Core count and size sum at each of the first ``num_samples`` values of b in a residue class.

    >>> core_series(3, 1, 3)
    {1: (1, 0), 4: (5, 10), 7: (12, 66)}
    >>> core_series(3, 1, 10**11)
    Traceback (most recent call last):
    ...
    corelattice.errors.CapExceededError: the moment recursion at a=3 takes 10004654 steps up to b=5476, over the cap of 10000000
    """
    return _moment_series(a, _residue_values(a, residue, num_samples), cap)


def _moment_series(a: int, bs, cap: int) -> dict[int, tuple[int, int]]:
    """``core_moments`` at each b of ``bs``, once the recursion's (a-1)(b+1) steps per b, summed, are within ``cap``.

    The steps are counted as each b is drawn, so a lazy ``bs`` past the cap is never drawn whole.
    """
    steps = 0
    checked = []
    for b in bs:
        steps += (a - 1) * (b + 1)
        if steps > cap:
            raise CapExceededError(
                f"the moment recursion at a={int_text(a)} takes {int_text(steps)} steps up to b={int_text(b)}, over the cap of {cap}"
            )
        checked.append(b)
    return {b: core_moments(SimplexSpec(a, b)) for b in checked}


def _residue_values(a: int, residue: int, num_samples: int) -> range:
    if a < 2:
        raise ValueError("a must be >= 2")
    if gcd(a, residue) != 1:
        raise ValueError("residue must be coprime to a")
    first = residue % a or a
    return range(first, first + a * num_samples, a)


HELD_OUT_SAMPLES = 3  # samples beyond the a + 2 that determine G; each must match the fit


def _fit_values(a: int):
    """The b values that :func:`fit_core_polynomials` samples: the first a + 5 coprime to ``a``, drawn lazily."""
    if a < 2:
        raise ValueError("a must be >= 2")
    coprime = (b for b in count(1) if gcd(a, b) == 1)
    return (b for _, b in zip(range((a + 1) + 1 + HELD_OUT_SAMPLES), coprime))  # not islice, whose stop is a C long


def fit_steps(a: int) -> int:
    """The moment-recursion steps of :func:`fit_core_polynomials` at ``a``, as :func:`_moment_series` counts them."""
    return sum((a - 1) * (b + 1) for b in _fit_values(a))


def fit_core_polynomials(a: int, cap: int = DEFAULT_CAP) -> tuple[Coeffs, Coeffs, Coeffs]:
    """Fit the count polynomial F, size-sum polynomial G, and average P = G/F.

    Samples run over b coprime to ``a`` across all residue classes; fitting
    them as single polynomials (period 1) validates that the classes share
    one polynomial.  F has degree a-1 and G degree a+1; P is fitted as a
    quadratic to the averages G(b)/F(b), which exist since F(b) = Cat(a,b)
    >= 1.  The fit of P is validated at the a + 2 samples beyond its first
    three, so F*P and G agree at all a + 5 sampled b; both have degree at
    most a + 1, so F*P = G as polynomials.  Each sample comes from
    :func:`~corelattice.simplex.core_moments`, so no core is enumerated;
    ``cap`` bounds the recursion's steps, as :func:`_moment_series` counts them.

    >>> fit_core_polynomials(2)[2]  # (b+3)(b-1)/24
    (Fraction(-1, 8), Fraction(1, 12), Fraction(1, 24))
    """
    series = _moment_series(a, _fit_values(a), cap)
    f = fit_quasipolynomial({b: n for b, (n, _) in series.items()}, 1, a - 1).constituents[0]
    g = fit_quasipolynomial({b: total for b, (_, total) in series.items()}, 1, a + 1).constituents[0]
    p = fit_quasipolynomial({b: Fraction(total, n) for b, (n, total) in series.items()}, 1, 2).constituents[0]
    return f, g, p


def check_root_structure(a: int, cap: int = DEFAULT_CAP) -> bool:
    """Roots and special values of the fitted count and size-sum polynomials.

    Checks: F and G vanish at -1, ..., -(a-1); P = G/F is the quadratic
    ``(a+b+1)(a-1)(b-1)/24``; and G satisfies the reflection
    ``G(-a-b) = (-1)^(a-1) G(b)``.  The quadratic gives P(1) = 0,
    P(-a-1) = 0 and ``P(0) = -(a^2-1)/24`` as consequences.
    """
    return root_structure_ok(a, *fit_core_polynomials(a, cap=cap))


def root_structure_ok(a: int, f: Coeffs, g: Coeffs, p: Coeffs) -> bool:
    """The checks of :func:`check_root_structure` on an existing fit ``(F, G, P)``."""
    for r in range(1, a):
        if poly_eval(f, -r) != 0 or poly_eval(g, -r) != 0:
            return False
    expected = (
        Fraction(-(a * a - 1), 24),
        Fraction(a * (a - 1), 24),
        Fraction(a - 1, 24),
    )
    if p != expected:
        return False
    sign = 1 if (a - 1) % 2 == 0 else -1
    return all(poly_eval(g, -a - t) == sign * poly_eval(g, t) for t in range(0, a + 3))
