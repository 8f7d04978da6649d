"""(q,t)-rational Catalan polynomials from lattice statistics.

:func:`cat_qt` pairs ``q^length t^coskew`` over the (a,b)-cores.  It walks
:func:`~corelattice.simplex.iter_cores` and scores each core from its
beta-set bitset (:func:`~corelattice.abacus.core_beads`), as the
``enumerate`` records do: the length is the number of beads, and the
co-skew length is ``(a-1)(b-1)/2`` minus
:func:`~corelattice.partitions.skew_length_of_beads`.

>>> cat_qt(SimplexSpec(3, 4)).to_rows()
[[0, 3, '1'], [1, 1, '1'], [1, 2, '1'], [2, 1, '1'], [3, 0, '1']]

The same statistics are also computed directly in shifted coordinates, as
the independent route that the checks compare against:

* ``length(x) = -(a-1)/2 + a * max x_i``;
* ``skew(x) = sum_{i,j} floor0(x_i - x_j) - floor0(x_i - x_j - b/a)`` over
  ordered pairs, where ``floor0 = max(0, floor)``.

Both run on the 2a-scaled integer representation, so there is no floating
point anywhere.

The module also carries the identity checkers built on these statistics:
the a = 3 rational-function form (verified after clearing denominators),
the near-vertex difference table, and the orbifold-coset minimal vectors
whose statistics realize the maj and siz permutation statistics.
"""

from __future__ import annotations

from itertools import permutations
from math import gcd

from .abacus import core_beads
from .partitions import skew_length_of_beads
from .perms import des_set, maj, siz
from .polys import LaurentPoly
from .qpoly import cat_q
from .simplex import DEFAULT_CAP, SimplexSpec, iter_cores


def length_from_x(tx) -> int:
    """Number of parts of the core with 2a-scaled shifted coordinates ``tx``: ``-(a-1)/2 + a max x_i``."""
    num = max(tx) - (len(tx) - 1)
    if num % 2:
        raise ValueError("point has the wrong fractional structure for a length")
    return num // 2


def skew_length_from_x(spec: SimplexSpec, tx) -> int:
    """Skew length of a point of the core simplex, given as 2a-scaled shifted coordinates, via the floor formula."""
    a, b = spec.a, spec.b
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


def cat_qt(spec: SimplexSpec, cap: int = DEFAULT_CAP) -> LaurentPoly:
    """``sum q^length t^coskew`` over all (a,b)-cores, each scored from its beta-set bitset."""
    a, b = spec.a, spec.b
    half = (a - 1) * (b - 1) // 2
    out: dict[tuple[int, int], int] = {}
    for _, c in iter_cores(spec, cap):
        beads, rows = core_beads(a, c)
        key = (beads.bit_count(), half - skew_length_of_beads(beads, a, b, rows))
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


def origin_point(a: int) -> tuple[int, ...]:
    """The 2a-scaled shifted coordinates of the empty core."""
    return tuple(2 * i - (a - 1) for i in range(a))


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
    far = tuple(b * t for t in s)
    for i in range(1, a):
        v = generator_tx(a, i)
        near0 = tuple(t + w for t, w in zip(s, v))
        if length_from_x(near0) - length_from_x(s) != i:
            return False
        if skew_length_from_x(spec, near0) - skew_length_from_x(spec, s) != i * (a - i):
            return False
        nearinf = tuple(t - w for t, w in zip(far, v))
        if length_from_x(nearinf) - length_from_x(far) != -i:
            return False
        if skew_length_from_x(spec, nearinf) - skew_length_from_x(spec, far) != -1:
            return False
    return True


def orbifold_minimal_vectors(a: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Minimal dominant representatives of the ``(a-1)!`` orbifold cosets, as ``(sigma, tx)`` pairs.

    For a permutation ``sigma`` of ``1..a-1`` (extended by ``sigma_a = a``),
    the walk ``w_j = sigma_j / a + (descents of sigma before j)`` is strictly
    increasing with steps below 1; recentering to sum zero gives the minimal
    vector of the coset labeled by ``sigma``, in 2a-scaled shifted
    coordinates ``tx``.
    """
    if a < 2:
        raise ValueError("a must be >= 2")
    out = []
    for sigma in permutations(range(1, a)):
        ds = des_set(sigma)
        w_scaled = []  # a * w_j for j = 1..a
        run = 0
        for j, val in enumerate((*sigma, a), start=1):
            if j - 1 in ds:
                run += 1
            w_scaled.append(val + a * run)
        shift_all = 2 * sum(w_scaled) // a  # exact: the values sum to a(a+1)/2 + a * (sum of the runs)
        tx = tuple(2 * w - shift_all for w in w_scaled)
        if sum(tx):
            raise AssertionError(f"the minimal vector of {sigma} is not recentered to sum 0")
        out.append((sigma, tx))
    return out


def check_sizmaj1(a: int) -> bool:
    """Minimal-vector statistics match maj and siz of the labeling permutation.

    Skew length is evaluated with b large enough that every hook the formula
    sees is below b, which is the near-origin regime the minimal vectors
    live in.
    """
    big_b = a * a + 1  # coprime to a and beyond every coordinate gap
    spec = SimplexSpec(a, big_b)
    for sigma, tx in orbifold_minimal_vectors(a):
        if length_from_x(tx) != maj(sigma):
            return False
        if skew_length_from_x(spec, tx) != siz(sigma):
            return False
    return True
