"""Exact quasipolynomial fitting, desk-scale lattice-point counting, and
the count/size polynomials of the core simplices.

Fitting is Lagrange interpolation over the rationals with held-out
validation: per residue class the first ``degree + 1`` samples determine a
candidate and every remaining sample must match it exactly, so a wrong
degree or period hypothesis surfaces as :class:`FitValidationError` rather
than a silently bad fit.

The fitted polynomials are the one dense exception to the package's sparse
:class:`~corelattice.polys.LaurentPoly`: :func:`poly_eval`,
:func:`poly_divexact`, :func:`lagrange_coefficients` and
:class:`Quasipolynomial` work on coefficient tuples of ``Fraction``, which
interpolation needs, while ``LaurentPoly`` holds ints and its ``divexact``
tests integer divisibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import ceil, floor, gcd
from operator import mul

from .errors import FitValidationError
from .simplex import DEFAULT_CAP, SimplexSpec, core_moments

Coeffs = tuple[Fraction, ...]


def poly_eval(coeffs: Coeffs, x) -> Fraction:
    """Evaluate a coefficient list (low to high) at ``x``, exactly."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_degree(coeffs: Coeffs) -> int:
    """Degree with the convention that the zero polynomial has degree -1."""
    deg = -1
    for i, c in enumerate(coeffs):
        if c:
            deg = i
    return deg


def poly_divexact(num: Coeffs, den: Coeffs) -> Coeffs:
    """Exact division of rational-coefficient polynomials."""
    dn, dd = poly_degree(num), poly_degree(den)
    if dd < 0:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(num[: dn + 1])
    if dn < dd:
        if any(rem):
            raise ArithmeticError("exact division failed")
        return (Fraction(0),)
    quot = [Fraction(0)] * (dn - dd + 1)
    for e in range(dn - dd, -1, -1):
        t = rem[e + dd] / den[dd]
        quot[e] = t
        for j in range(dd + 1):
            rem[e + j] -= t * den[j]
    if any(rem):
        raise ArithmeticError("exact division failed (nonzero remainder)")
    return tuple(quot)


def lagrange_coefficients(points) -> Coeffs:
    """Coefficients of the unique interpolating polynomial through ``points``."""
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

    @property
    def degree(self) -> int:
        return max(poly_degree(cs) for cs in self.constituents)

    def evaluate(self, t: int) -> Fraction:
        return poly_eval(self.constituents[t % self.period], t)

    def to_json_dict(self) -> dict:
        return {
            "period": self.period,
            "constituents": [[str(c) for c in cs] for cs in self.constituents],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Quasipolynomial":
        return cls(
            int(data["period"]),
            tuple(tuple(Fraction(c) for c in cs) for cs in data["constituents"]),
        )


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
        rows = []
        for coeffs, rhs in inequalities:
            fr = [Fraction(c) for c in coeffs] + [Fraction(rhs)]
            if len(fr) != dim + 1:
                raise ValueError("inequality arity does not match the dimension")
            mult = 1
            for f in fr:
                mult = mult * f.denominator // gcd(mult, f.denominator)
            rows.append((tuple(int(f * mult) for f in fr[:-1]), int(fr[-1] * mult)))
        poly = cls(dim, tuple(rows))
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
    """Core count and size sum at each of the first ``num_samples`` values of b in a residue class."""
    return {b: core_moments(SimplexSpec(a, b), cap) for b in _residue_values(a, residue, num_samples)}


def _residue_values(a: int, residue: int, num_samples: int) -> list[int]:
    if a < 2:
        raise ValueError("a must be >= 2")
    if gcd(a, residue) != 1:
        raise ValueError("residue must be coprime to a")
    first = residue % a or a
    return [first + a * j for j in range(num_samples)]


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


def fit_core_polynomials(a: int, validation: int = 3, cap: int = DEFAULT_CAP) -> tuple[Coeffs, Coeffs, Coeffs]:
    """Fit the count polynomial F, size-sum polynomial G, and average P = G/F.

    Samples run over b coprime to ``a`` across all residue classes; fitting
    them as single polynomials (period 1) validates that the classes share
    one polynomial.  F has degree a-1, G degree a+1, and exact division
    yields the degree-2 average polynomial.  Each sample comes from
    :func:`~corelattice.simplex.core_moments`, so no core is enumerated;
    ``cap`` still bounds Cat(a,b) at every sampled b.
    """
    series = {b: core_moments(SimplexSpec(a, b), cap) for b in _coprime_values(a, (a + 1) + 1 + validation)}
    f = fit_quasipolynomial({b: n for b, (n, _) in series.items()}, 1, a - 1).constituents[0]
    g = fit_quasipolynomial({b: total for b, (_, total) in series.items()}, 1, a + 1).constituents[0]
    p = poly_divexact(g, f)
    return f, g, p


def check_root_structure(a: int, cap: int = DEFAULT_CAP) -> bool:
    """Roots and special values of the fitted count and size-sum polynomials.

    Checks: F and G vanish at -1, ..., -(a-1); P = G/F is the quadratic
    ``(a+b+1)(a-1)(b-1)/24`` (so P(1) = 0, P(-a-1) = 0, and
    ``P(0) = -(a^2-1)/24``); and G satisfies the reflection
    ``G(-a-b) = (-1)^(a-1) G(b)``.
    """
    return root_structure_ok(a, *fit_core_polynomials(a, cap=cap))


def root_structure_ok(a: int, f: Coeffs, g: Coeffs, p: Coeffs) -> bool:
    """The checks of :func:`check_root_structure` on an existing fit ``(F, G, P)``."""
    for r in range(1, a):
        if poly_eval(f, -r) != 0 or poly_eval(g, -r) != 0:
            return False
    if poly_degree(p) != 2:
        return False
    if poly_eval(p, 1) != 0 or poly_eval(p, -a - 1) != 0:
        return False
    if poly_eval(p, 0) != Fraction(-(a * a - 1), 24):
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
