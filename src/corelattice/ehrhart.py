"""Exact quasipolynomial fitting, desk-scale lattice-point counting, and
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
from functools import cached_property
from itertools import combinations, product
from math import ceil, floor, gcd
from operator import mul

from .errors import CapExceededError, FitValidationError
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


def _row_reduce(m: list[list[Fraction]], ncols: int) -> list[int]:
    """Gauss-Jordan elimination of ``m`` in place on its first ``ncols`` columns; returns the pivot columns."""
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][col]
        m[r] = [v / pv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [v - f * w for v, w in zip(m[i], m[r])]
        pivots.append(col)
    return pivots


def _kernel_vector(rows: list[list[Fraction]], n: int) -> list[Fraction]:
    """A nonzero kernel vector of an under-determined system (< n rows)."""
    m = [row[:] for row in rows]
    pivots = _row_reduce(m, n)
    free = next(col for col in range(n) if col not in pivots)
    vec = [Fraction(0)] * n
    vec[free] = Fraction(1)
    for row, col in zip(m, pivots):
        vec[col] = -row[free]
    return vec


def _solve_square(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve a square system exactly; None when singular."""
    n = len(rows)
    m = [row[:] + [b] for row, b in zip(rows, rhs)]
    if len(_row_reduce(m, n)) < n:
        return None
    return [row[n] for row in m]


@dataclass(frozen=True)
class RationalPolytope:
    """A bounded rational polytope ``{x : A x <= rhs}`` with integer data.

    Scaling by a positive integer ``t`` scales the right-hand sides.  Counts
    run the first ``dim - 1`` coordinates over the box spanned by the
    vertices (solved once per polytope) and read the range of the last
    coordinate off the inequalities, so only the points inside are visited,
    which is the right tool at desk scale.
    """

    dim: int
    inequalities: tuple[tuple[tuple[int, ...], int], ...]

    @classmethod
    def from_inequalities(cls, dim: int, inequalities) -> "RationalPolytope":
        rows = tuple((tuple(coeffs), rhs) for coeffs, rhs in inequalities)
        if any(len(coeffs) != dim for coeffs, _ in rows):
            raise ValueError("inequality arity does not match the dimension")
        poly = cls(dim, rows)
        if not poly._is_bounded():
            raise ValueError("polytope is unbounded")
        poly._box  # solve the vertices once; fails fast on empty input
        return poly

    def _is_bounded(self) -> bool:
        """True iff the recession cone ``{d : A d <= 0}`` is trivial.

        Any nonzero recession direction can be scaled onto an extreme ray,
        which is tight on some ``dim - 1`` rows; checking the kernel vector
        of every such subset (both signs) is therefore exhaustive.
        """
        matrix = [[Fraction(c) for c in coeffs] for coeffs, _ in self.inequalities]
        for subset in combinations(matrix, self.dim - 1):
            d = _kernel_vector(list(subset), self.dim)
            for cand in (d, [-v for v in d]):
                if all(sum(c * x for c, x in zip(row, cand)) <= 0 for row in matrix):
                    return False
        return True

    def vertices(self) -> list[tuple[Fraction, ...]]:
        """All vertices, by solving the square subsystems of tight constraints."""
        verts: set[tuple[Fraction, ...]] = set()
        for subset in combinations(self.inequalities, self.dim):
            sol = _solve_square(
                [[Fraction(c) for c in coeffs] for coeffs, _ in subset],
                [Fraction(r) for _, r in subset],
            )
            if sol is None:
                continue
            if all(
                sum(c * x for c, x in zip(coeffs, sol)) <= rhs
                for coeffs, rhs in self.inequalities
            ):
                verts.add(tuple(sol))
        if not verts:
            raise ValueError("polytope has no vertices (empty or unbounded input)")
        return sorted(verts)

    @cached_property
    def _box(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The least and greatest value of each coordinate over the vertices."""
        return tuple((min(col), max(col)) for col in zip(*self.vertices()))

    def lattice_points(self, t: int, interior: bool = False):
        """Integer points of ``tP`` (or of its interior), in lexicographic order.

        For each prefix of the first ``dim - 1`` coordinates in the box of
        ``tP``, row ``A_i`` bounds the last coordinate x by
        ``A_i,last * x <= t * rhs_i - A_i,head . prefix`` (minus 1 for the
        interior): a floor division for a positive coefficient, a ceiling
        division for a negative one, and for a zero one a test of the prefix.
        """
        if t < 1:
            raise ValueError("t must be >= 1")
        *head, last = (range(ceil(lo * t), floor(hi * t) + 1) for lo, hi in self._box)
        strict = 1 if interior else 0
        rows = [(coeffs[:-1], coeffs[-1], t * rhs - strict) for coeffs, rhs in self.inequalities]
        for prefix in product(*head):
            lo, hi = last.start, last.stop - 1
            for coeffs, c, bound in rows:
                room = bound - sum(map(mul, coeffs, prefix))
                if c > 0:
                    hi = min(hi, room // c)
                elif c < 0:
                    lo = max(lo, -(room // -c))
                elif room < 0:
                    break
            else:
                for x in range(lo, hi + 1):
                    yield (*prefix, x)

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


def unit_segment() -> RationalPolytope:
    """The segment [0, 1]."""
    return RationalPolytope.from_inequalities(1, [((-1,), 0), ((1,), 1)])


def halved_right_triangle() -> RationalPolytope:
    """``x, y >= 0, 2x + y <= 1`` (period-2 count quasipolynomial)."""
    return RationalPolytope.from_inequalities(
        2, [((-1, 0), 0), ((0, -1), 0), ((2, 1), 1)]
    )


def standard_simplex(n: int) -> RationalPolytope:
    """``x_i >= 0, sum x_i <= 1`` in dimension n."""
    rows = [tuple(-(i == j) for j in range(n)) for i in range(n)]
    return RationalPolytope.from_inequalities(
        n, [*((row, 0) for row in rows), ((1,) * n, 1)]
    )


def reciprocity_check(
    polytope: RationalPolytope,
    t_max: int,
    period: int = 1,
    weight=None,
) -> bool:
    """Fit the (weighted) count at positive scales; compare at negated scales.

    The fitted function evaluated at ``-t`` must equal ``(-1)^dim`` times the
    interior sum at scale ``t`` of the weight at ``-x`` (the plain interior
    count when no weight is given), for ``t = 1 .. t_max // 2``.
    """
    n = polytope.dim
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
    """``core_moments`` at each b of ``bs``, once the recursion's (a-1)(b+1) steps per b, summed, are within ``cap``."""
    steps = 0
    for b in bs:
        steps += (a - 1) * (b + 1)
        if steps > cap:
            raise CapExceededError(f"the moment recursion at a={a} takes {steps} steps up to b={b}, over the cap of {cap}")
    return {b: core_moments(SimplexSpec(a, b)) for b in bs}


def _residue_values(a: int, residue: int, num_samples: int) -> range:
    if a < 2:
        raise ValueError("a must be >= 2")
    if gcd(a, residue) != 1:
        raise ValueError("residue must be coprime to a")
    first = residue % a or a
    return range(first, first + a * num_samples, a)


def _coprime_values(a: int, count: int) -> list[int]:
    if a < 2:
        raise ValueError("a must be >= 2")
    out = []
    b = 1
    while len(out) < count:
        if gcd(a, b) == 1:
            out.append(b)
        b += 1
    return out


HELD_OUT_SAMPLES = 3  # samples beyond the a + 2 that determine G; each must match the fit


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
    series = _moment_series(a, _coprime_values(a, (a + 1) + 1 + HELD_OUT_SAMPLES), cap)
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
