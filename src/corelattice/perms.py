"""Permutation statistics and the left-decreasing factorization code.

Permutations are tuples in one-line notation over ``1..n``.  Composition is
``(s * t)(i) = s(t(i))``; with this convention the left-decreasing code
below multiplies new cycles on the left, which is the order that makes its
weight bookkeeping work (the exhaustive checks pin this down).
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import combinations, product, starmap
from itertools import permutations as _permutations
from operator import gt

from .errors import CapExceededError
from .polys import LaurentPoly

DISTRIBUTION_CAP = 9


def check_permutation(sigma) -> tuple[int, ...]:
    p = tuple(sigma)
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"not a permutation of 1..n: {p}")
    return p


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


def sqin(sigma) -> int:
    """Companion statistic ``inv + sum_{i in DES} i^2``."""
    return inv(sigma) + sum(i * i for i in des_set(sigma))


def _maj_siz_sqin(sigma) -> tuple[int, int, int]:
    """``maj``, ``siz`` and ``sqin`` from one descent set and one inversion count."""
    n = len(sigma)
    d = des_set(sigma)
    i = inv(sigma)
    return sum(d), sum((n + 1 - k) * k for k in d) - i, i + sum(k * k for k in d)


def check_valid_sequence(code) -> tuple[int, ...]:
    """A valid sequence has entries ``0 <= code[i-1] < i`` (so the first is 0)."""
    c = tuple(code)
    for i, v in enumerate(c, start=1):
        if not 0 <= v < i:
            raise ValueError(f"entry {v} at index {i} out of range [0, {i})")
    return c


def valid_sequences(n: int):
    """All n! valid sequences of length n, lexicographically."""
    return product(*(range(i) for i in range(1, n + 1)))


def _cycle_power_left(sigma, k: int, r: int) -> tuple[int, ...]:
    """``C_k^r * sigma``, where ``C_k`` is the decreasing cycle (k, k-1, ..., 1).

    ``C_k`` sends 1 -> k and j -> j-1 for 2 <= j <= k, so ``C_k^r`` sends a
    value ``v <= k`` to ``((v - 1 - r) mod k) + 1`` and fixes the rest.
    """
    return tuple((v - 1 - r) % k + 1 if v <= k else v for v in sigma)


def ld_decode(code) -> tuple[int, ...]:
    """Left-decreasing factorization: code -> product of decreasing-cycle powers."""
    c = check_valid_sequence(code)
    n = len(c)
    sigma = tuple(range(1, n + 1))
    for k in range(2, n + 1):
        if c[k - 1]:
            sigma = _cycle_power_left(sigma, k, c[k - 1])
    return sigma


def ld_encode(sigma) -> tuple[int, ...]:
    """Inverse of :func:`ld_decode`: peel cycle powers off the left."""
    sigma = check_permutation(sigma)
    n = len(sigma)
    code = [0] * n
    for k in range(n, 1, -1):
        a_k = k - sigma[k - 1]
        code[k - 1] = a_k
        # strip the factor by applying C_k^{-a_k} on the left
        if a_k:
            sigma = _cycle_power_left(sigma, k, -a_k)
    if sigma != tuple(range(1, n + 1)):
        raise AssertionError("factorization code did not reduce to the identity")
    return tuple(code)


def require_within_cap(n: int) -> None:
    """Refuse a brute force over S_n beyond ``n = DISTRIBUTION_CAP`` (exit 3 on the command line)."""
    if n > DISTRIBUTION_CAP:
        raise CapExceededError(f"n={n} exceeds the brute-force cap of {DISTRIBUTION_CAP}")


def check_ld_weights(n: int) -> bool:
    """Exhaustively check maj(LD(a)) = sum a_i and siz(LD(a)) = sum (n+1-i) a_i."""
    require_within_cap(n)
    for code in valid_sequences(n):
        maj_, siz_, _ = _maj_siz_sqin(ld_decode(code))
        if maj_ != sum(code):
            return False
        if siz_ != sum((n + 1 - i) * v for i, v in enumerate(code, start=1)):
            return False
    return True


@cache
def _joint_distributions(n: int) -> tuple[LaurentPoly, LaurentPoly]:
    """``sum q^siz t^maj`` and ``sum q^sqin t^maj`` over S_n, tallied in one pass."""
    siz_maj: Counter = Counter()
    sqin_maj: Counter = Counter()
    for sigma in _permutations(range(1, n + 1)):
        maj_, siz_, sqin_ = _maj_siz_sqin(sigma)
        siz_maj[siz_, maj_] += 1
        sqin_maj[sqin_, maj_] += 1
    return LaurentPoly(siz_maj), LaurentPoly(sqin_maj)


def distribution(n: int) -> LaurentPoly:
    """Joint distribution ``sum q^siz t^maj`` over S_n, by brute force."""
    if n < 0:
        raise ValueError("n must be >= 0")
    require_within_cap(n)
    return _joint_distributions(n)[0]


def _q_int2(k: int, qexp: int, texp: int) -> LaurentPoly:
    """``[k]_x`` with ``x = q^qexp t^texp``."""
    return LaurentPoly({(qexp * j, texp * j): 1 for j in range(k)})


def sizmaj_product(n: int) -> LaurentPoly:
    """``prod_{k=1..n} [k]_{q^(n+1-k) t}``."""
    out = LaurentPoly.monomial((0, 0))
    for k in range(1, n + 1):
        out = out * _q_int2(k, n + 1 - k, 1)
    return out


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
    prod = LaurentPoly.monomial((0, 0))
    for k in range(1, n + 1):
        prod = prod * _q_int2(k, k, 1)
    if sqin_poly != prod:
        return False
    substituted = sqin_poly.map_exponents(lambda ef: ((n + 1) * ef[1] - ef[0], ef[1]))
    return substituted == distribution(n)
