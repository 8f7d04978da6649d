"""(q,t)-rational Catalan polynomials from lattice statistics.

Length and skew length are computed directly in shifted coordinates:

* ``length(x) = -(a-1)/2 + a * max x_i``;
* ``skew(x) = sum_{i,j} floor0(x_i - x_j) - floor0(x_i - x_j - b/a)`` over
  ordered pairs, where ``floor0 = max(0, floor)``.

Both run on the 2a-scaled integer representation, so there is no floating
point anywhere.  The bivariate polynomial pairs ``q^length t^coskew``.

The module also carries the identity checkers built on these statistics:
the a = 3 rational-function form (verified after clearing denominators),
the near-vertex difference table, and the orbifold-coset minimal vectors
whose statistics realize the maj and siz permutation statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as _permutations
from math import gcd

from .abacus import ShiftedPoint, shift
from .perms import des_set, maj, siz
from .polys import LaurentPoly
from .qpoly import cat_q
from .simplex import DEFAULT_CAP, SimplexSpec, enumerate_cores


def length_from_x(sp: ShiftedPoint) -> int:
    """Number of parts of the corresponding core: ``-(a-1)/2 + a max x_i``."""
    a = sp.a
    num = max(sp.tx) - (a - 1)
    if num % 2:
        raise ValueError("point has the wrong fractional structure for a length")
    return num // 2


def skew_length_from_x(spec: SimplexSpec, sp: ShiftedPoint) -> int:
    """Skew length of a point of the core simplex, via the floor formula."""
    a, b = spec.a, spec.b
    tx = sp.tx
    scale = 2 * a
    total = 0
    for i in range(a):
        ti = tx[i]
        for j in range(a):
            if i == j:
                continue
            d = ti - tx[j]
            total += max(0, d // scale) - max(0, (d - 2 * b) // scale)
    return total


def co_skew_length_from_x(spec: SimplexSpec, sp: ShiftedPoint) -> int:
    return (spec.a - 1) * (spec.b - 1) // 2 - skew_length_from_x(spec, sp)


def cat_qt(spec: SimplexSpec, cap: int = DEFAULT_CAP) -> LaurentPoly:
    """``sum q^length t^coskew`` over all (a,b)-cores."""
    out: dict[tuple[int, int], int] = {}
    half = (spec.a - 1) * (spec.b - 1) // 2
    for cv in enumerate_cores(spec, cap):
        sp = shift(cv)
        key = (length_from_x(sp), half - skew_length_from_x(spec, sp))
        out[key] = out.get(key, 0) + 1
    return LaurentPoly(out)


def check_symmetry(poly: LaurentPoly) -> bool:
    """Is ``poly = cat_qt(spec)`` symmetric under exchanging q and t?"""
    return poly == poly.swapped()


def check_specialization(spec: SimplexSpec, poly: LaurentPoly) -> bool:
    """Does ``sum q^(length + skew)`` over cores equal ``cat_q(a, b)``?

    The sum is read off ``poly = cat_qt(spec)``: skew is
    ``(a-1)(b-1)/2 - coskew``, so ``q^e t^f`` becomes
    ``q^(e + (a-1)(b-1)/2 - f)``.  The other side, :func:`cat_q`, walks no
    simplex.
    """
    half = (spec.a - 1) * (spec.b - 1) // 2
    out: dict[int, int] = {}
    for (e, f), coeff in poly.items():
        out[e + half - f] = out.get(e + half - f, 0) + coeff
    return LaurentPoly(out) == cat_q(spec.a, spec.b)


def _qt(qexp: int, texp: int, coeff: int = 1) -> LaurentPoly:
    return LaurentPoly.monomial((qexp, texp), coeff)


def check_qt3_identity(b: int, cap: int = DEFAULT_CAP) -> bool:
    """Closed rational form of the (3,b) polynomial, checked exactly.

    With ``b = 3k+1+delta`` (delta in {0,1}) the claim is

        ``cat_qt = t^(3k+d) / ((1-q/t)(1-q/t^2))
                 + q^k t^k (q + t + q^d t^d) / ((1-t^2/q)(1-q^2/t))
                 + q^(3k+d) / ((1-t/q)(1-t/q^2))``

    which is compared after putting everything over the product of all six
    denominator factors, as an identity of Laurent polynomials.
    """
    if b < 4 or gcd(b, 3) != 1:
        raise ValueError("need b >= 4 coprime to 3")
    k, delta = ((b - 1) // 3, 0) if b % 3 == 1 else ((b - 2) // 3, 1)
    one = _qt(0, 0)
    f1 = one - _qt(1, -1)   # 1 - q/t
    f2 = one - _qt(1, -2)   # 1 - q/t^2
    f3 = one - _qt(-1, 2)   # 1 - t^2/q
    f4 = one - _qt(2, -1)   # 1 - q^2/t
    f5 = one - _qt(-1, 1)   # 1 - t/q
    f6 = one - _qt(-2, 1)   # 1 - t/q^2
    lhs = cat_qt(SimplexSpec(3, b), cap) * (f1 * f2 * f3 * f4 * f5 * f6)
    term1 = _qt(0, 3 * k + delta) * (f3 * f4 * f5 * f6)
    term2 = _qt(k, k) * (_qt(1, 0) + _qt(0, 1) + _qt(delta, delta)) * (f1 * f2 * f5 * f6)
    term3 = _qt(3 * k + delta, 0) * (f1 * f2 * f3 * f4)
    return lhs == term1 + term2 + term3


def origin_point(a: int) -> ShiftedPoint:
    """The shifted point of the empty core."""
    return ShiftedPoint(a, tuple(2 * i - (a - 1) for i in range(a)))


def generator_tx(a: int, i: int) -> tuple[int, ...]:
    """2a-scaled coordinates of the i-th rotated-lattice generator.

    The generator has ``i`` entries ``i/a - 1`` followed by ``a - i``
    entries ``i/a``; the generators span the rays of the dominant chamber.
    """
    if not 1 <= i <= a - 1:
        raise ValueError("need 1 <= i <= a-1")
    return tuple(2 * i - 2 * a if j < i else 2 * i for j in range(a))


def delta_table_check(a: int, b: int) -> bool:
    """Verify the statistic differences along generators near both vertices.

    Near the origin vertex, adding generator i changes length by ``+i`` and
    co-skew-length by ``-i(a-i)``; near the far vertex ``b*s``, subtracting
    generator i changes length by ``-i`` and co-skew-length by ``+1``.
    """
    if b <= 2 * a:
        raise ValueError("need b > 2a so both vertex neighborhoods have room")
    spec = SimplexSpec(a, b)
    s = origin_point(a)
    far = ShiftedPoint(a, tuple(b * t for t in s.tx))
    for i in range(1, a):
        v = generator_tx(a, i)
        near0 = ShiftedPoint(a, tuple(t + w for t, w in zip(s.tx, v)))
        if length_from_x(near0) - length_from_x(s) != i:
            return False
        if skew_length_from_x(spec, near0) - skew_length_from_x(spec, s) != i * (a - i):
            return False
        nearinf = ShiftedPoint(a, tuple(t - w for t, w in zip(far.tx, v)))
        if length_from_x(nearinf) - length_from_x(far) != -i:
            return False
        if skew_length_from_x(spec, nearinf) - skew_length_from_x(spec, far) != -1:
            return False
    return True


@dataclass(frozen=True)
class OrbifoldCosetLabel:
    """A coset of the rotated lattice in the dominant chamber, with its minimal point."""

    sigma: tuple[int, ...]
    point: ShiftedPoint


def orbifold_minimal_vectors(a: int) -> list[OrbifoldCosetLabel]:
    """Minimal dominant representatives of the ``(a-1)!`` orbifold cosets.

    For a permutation ``sigma`` of ``1..a-1`` (extended by ``sigma_a = a``),
    the walk ``w_j = sigma_j / a + (descents of sigma before j)`` is strictly
    increasing with steps below 1; recentering to sum zero gives the minimal
    vector of the coset labeled by ``sigma``.
    """
    if a < 2:
        raise ValueError("a must be >= 2")
    out = []
    for sigma in _permutations(range(1, a)):
        ds = des_set(sigma)
        w_scaled = []  # a * w_j for j = 1..a
        run = 0
        for j, val in enumerate((*sigma, a), start=1):
            if j - 1 in ds:
                run += 1
            w_scaled.append(val + a * run)
        total2 = 2 * sum(w_scaled)
        if total2 % a:
            raise AssertionError("recentering must stay in the 2a-scaled lattice")
        shift_all = total2 // a
        tx = tuple(2 * w - shift_all for w in w_scaled)
        out.append(OrbifoldCosetLabel(sigma, ShiftedPoint(a, tx)))
    return out


def check_sizmaj1(a: int) -> bool:
    """Minimal-vector statistics match maj and siz of the labeling permutation.

    Skew length is evaluated with b large enough that every hook the formula
    sees is below b, which is the near-origin regime the minimal vectors
    live in.
    """
    big_b = a * a + 1  # coprime to a and beyond every coordinate gap
    spec = SimplexSpec(a, big_b)
    for label in orbifold_minimal_vectors(a):
        if length_from_x(label.point) != maj(label.sigma):
            return False
        if skew_length_from_x(spec, label.point) != siz(label.sigma):
            return False
    return True
