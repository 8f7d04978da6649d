"""Permutation statistics and the left-decreasing factorization code.

Permutations are tuples in one-line notation over ``1..n``.  Composition is
``(s * t)(i) = s(t(i))``; a valid sequence ``c`` (``0 <= c_k < k``) codes
``LD(c) = C_n^{c_n} ... C_2^{c_2}``, new cycles multiplying on the left, the
order that makes its weight bookkeeping work.  The brute force over S_n walks
the tree of these codes (:func:`_ld_tree`), so no permutation is re-encoded.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import combinations, starmap
from itertools import permutations as _permutations  # perfbench's tracer wraps this name to count permutations
from math import factorial
from operator import gt, mul

from .errors import CapExceededError
from .polys import LaurentPoly

DISTRIBUTION_CAP = 9


def des_set(sigma) -> frozenset[int]:
    """Descent positions: i in 1..n-1 with sigma(i) > sigma(i+1)."""
    return frozenset(i for i in range(1, len(sigma)) if sigma[i - 1] > sigma[i])


def maj(sigma) -> int:
    """Major index: sum of the descent positions."""
    return sum(des_set(sigma))


def inv(sigma) -> int:
    return sum(starmap(gt, combinations(sigma, 2)))


def siz(sigma) -> int:
    """Quadratic descent statistic ``sum_{i in DES} (n+1-i)*i - inv``."""
    n = len(sigma)
    return sum((n + 1 - i) * i for i in des_set(sigma)) - inv(sigma)


def _maj_siz_sqin(sigma) -> tuple[int, int, int]:
    """``maj``, ``siz`` and ``sqin`` from one list of descents and one inversion count."""
    n = len(sigma)
    d = [k for k in range(1, n) if sigma[k - 1] > sigma[k]]
    m, squares, i = sum(d), sum(map(mul, d, d)), inv(sigma)
    return m, (n + 1) * m - squares - i, i + squares


def _cycle_power_left(sigma, k: int, r: int) -> tuple[int, ...]:
    """``C_k^r * sigma``, where ``C_k`` is the decreasing cycle (k, k-1, ..., 1).

    ``C_k`` sends 1 -> k and j -> j-1 for 2 <= j <= k, so ``C_k^r`` sends a
    value ``v <= k`` to ``((v - 1 - r) mod k) + 1`` and fixes the rest.
    """
    return tuple((v - 1 - r) % k + 1 if v <= k else v for v in sigma)


def _ld_tree(n: int):
    """Yield ``(LD(c), c, sum c_k, sum (n+1-k) c_k)`` for every valid sequence ``c``, depth first.

    The node at depth k holds ``tau_k = C_k^{c_k} tau_{k-1}``, one :func:`_cycle_power_left`
    (``c_k = 0`` reuses the parent's tuple), and the running weights; the leaves are ``tau_n``.
    Each node asserts ``tau_k(k) = k - c_k``, true as ``tau_{k-1}`` fixes every point >= k.  So
    two codes that last differ at k have ``tau_k`` that differ at k, and the one left factor
    ``C_n^{c_n} ... C_{k+1}^{c_{k+1}}`` keeps their leaves apart: the n! leaves are S_n, once each.
    """

    def grow(k, tau, code, w_maj, w_siz):
        step = n + 1 - k
        for c in range(k):
            sigma = _cycle_power_left(tau, k, c) if c else tau
            if sigma[k - 1] != k - c:
                raise AssertionError(f"C_{k}^{c} did not send {k} to {k - c}")
            if k == n:
                yield sigma, (*code, c), w_maj + c, w_siz + step * c
            else:
                yield from grow(k + 1, sigma, (*code, c), w_maj + c, w_siz + step * c)

    yield from grow(1, tuple(range(1, n + 1)), (), 0, 0) if n else [((), (), 0, 0)]


def require_within_cap(n: int) -> None:
    """Refuse a brute force over S_n beyond ``n = DISTRIBUTION_CAP`` (exit 3 on the command line)."""
    if n > DISTRIBUTION_CAP:
        raise CapExceededError(f"n={n} exceeds the brute-force cap of {DISTRIBUTION_CAP}")


def require_walk_within(n: int, cap: int) -> None:
    """Refuse S_n above the brute-force ceiling or with n! over ``cap`` (which never lifts the ceiling)."""
    require_within_cap(n)
    if n >= 0 and factorial(n) > cap:
        raise CapExceededError(f"n={n} has {factorial(n)} permutations, over the cap of {cap}")


def check_ld_weights(n: int) -> bool:
    """Check maj(LD(c)) = sum c_k and siz(LD(c)) = sum (n+1-k) c_k on every valid sequence c, down the code tree."""
    require_within_cap(n)
    return _joint_distributions(n)[2]


@cache
def _joint_distributions(n: int) -> tuple[LaurentPoly, LaurentPoly, bool]:
    """``sum q^siz t^maj`` and ``sum q^sqin t^maj`` over S_n, and the LD weights, in one walk of the code tree."""
    siz_maj: Counter = Counter()
    sqin_maj: Counter = Counter()
    weights_hold = True
    for sigma, _, w_maj, w_siz in _ld_tree(n):
        maj_, siz_, sqin_ = _maj_siz_sqin(sigma)
        siz_maj[siz_, maj_] += 1
        sqin_maj[sqin_, maj_] += 1
        if maj_ != w_maj or siz_ != w_siz:
            weights_hold = False
    return LaurentPoly(siz_maj), LaurentPoly(sqin_maj), weights_hold


def distribution(n: int) -> LaurentPoly:
    """Joint distribution ``sum q^siz t^maj`` over S_n, by brute force."""
    if n < 0:
        raise ValueError("n must be >= 0")
    require_within_cap(n)
    return _joint_distributions(n)[0]


def _q_int_product(n: int, qexp) -> LaurentPoly:
    """``prod_{k=1..n} [k]_x`` with ``x = q^qexp(k) t``."""
    out = LaurentPoly.monomial((0, 0))
    for k in range(1, n + 1):
        out = out * LaurentPoly({(qexp(k) * j, j): 1 for j in range(k)})
    return out


def sizmaj_product(n: int) -> LaurentPoly:
    """``prod_{k=1..n} [k]_{q^(n+1-k) t}``."""
    return _q_int_product(n, lambda k: n + 1 - k)


def check_sizmaj2(n: int) -> bool:
    """Brute-force distribution against the product formula."""
    return distribution(n) == sizmaj_product(n)


def check_sqin_relation(n: int) -> bool:
    """The sqin/maj product formula, and its substitution into the siz/maj one.

    ``sum q^sqin t^maj = prod [k]_{t q^k}``, and replacing ``q -> 1/q``,
    ``t -> t q^(n+1)`` turns it into the siz/maj identity (monomials map by
    ``(e, f) -> ((n+1) f - e, f)``).
    """
    require_within_cap(n)
    sqin_poly = _joint_distributions(n)[1]
    if sqin_poly != _q_int_product(n, lambda k: k):
        return False
    substituted = sqin_poly.map_exponents(lambda ef: ((n + 1) * ef[1] - ef[0], ef[1]))
    return substituted == distribution(n)
