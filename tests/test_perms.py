"""Permutation statistics, factorization codes, and distribution identities."""

import random
from collections import Counter
from itertools import permutations
from math import factorial

import pytest

from corelattice import perms as PS
from corelattice.errors import CapExceededError
from corelattice.polys import LaurentPoly


def compose(s, t) -> tuple[int, ...]:
    """``(s * t)(i) = s(t(i))``."""
    return tuple(s[t[i] - 1] for i in range(len(t)))


def decreasing_cycle(k: int, n: int) -> tuple[int, ...]:
    """The cycle (k, k-1, ..., 1) as an element of S_n: 1 -> k, j -> j-1."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return (k, *range(1, k), *range(k + 1, n + 1))


def ld_decode_by_composition(code) -> tuple[int, ...]:
    """Reference route: multiply ``code[k-1]`` copies of the k-cycle on the left, one at a time."""
    n = len(code)
    sigma = tuple(range(1, n + 1))
    for k in range(2, n + 1):
        for _ in range(code[k - 1]):
            sigma = compose(decreasing_cycle(k, n), sigma)
    return sigma


def ld_encode_by_composition(sigma) -> tuple[int, ...]:
    """Reference route: peel ``C_k^(k - a_k)`` off the left, one cycle at a time."""
    n = len(sigma)
    code = [0] * n
    for k in range(n, 1, -1):
        a_k = k - sigma[k - 1]
        code[k - 1] = a_k
        for _ in range((k - a_k) % k):
            sigma = compose(decreasing_cycle(k, n), sigma)
    assert sigma == tuple(range(1, n + 1))
    return tuple(code)


def test_basic_statistics():
    assert PS.des_set((1, 2, 3)) == frozenset()
    assert PS.maj((1, 2, 3)) == 0 == PS.inv((1, 2, 3))
    assert PS.des_set((2, 1)) == {1}
    assert PS.maj((2, 1)) == 1 == PS.inv((2, 1))
    assert PS.des_set((3, 2, 1)) == {1, 2}
    assert PS.maj((3, 2, 1)) == 3 == PS.inv((3, 2, 1))


def test_siz_and_sqin():
    assert PS.siz((1, 2)) == 0 and PS.sqin((1, 2)) == 0
    assert PS.siz((2, 1)) == 2 * 1 - 1 == 1
    assert PS.siz((3, 2, 1)) == (3 * 1 + 2 * 2) - 3 == 4
    assert PS.sqin((2, 1)) == 1 + 1 == 2
    for n in range(1, 8):
        assert all(PS.siz(s) >= 0 for s in permutations(range(1, n + 1)))


def test_check_permutation():
    with pytest.raises(ValueError):
        PS.check_permutation((1, 3))
    with pytest.raises(ValueError):
        PS.check_permutation((0, 1))


def test_decreasing_cycle():
    assert decreasing_cycle(2, 2) == (2, 1)
    assert decreasing_cycle(3, 5) == (3, 1, 2, 4, 5)
    assert decreasing_cycle(1, 4) == (1, 2, 3, 4)


def test_ld_decode_examples():
    assert PS.ld_decode((0, 0, 0)) == (1, 2, 3)
    assert PS.ld_decode((0, 1)) == (2, 1)
    with pytest.raises(ValueError):
        PS.ld_decode((0, 2))


def test_ld_code_bijection_exhaustive():
    for n in range(1, 8):
        images = set()
        for code in PS.valid_sequences(n):
            sigma = PS.ld_decode(code)
            assert PS.ld_encode(sigma) == code
            images.add(sigma)
        assert len(images) == factorial(n)


def test_ld_code_matches_the_composition_route():
    for n in range(0, 8):
        for code in PS.valid_sequences(n):
            sigma = PS.ld_decode(code)
            assert sigma == ld_decode_by_composition(code)
            assert PS.ld_encode(sigma) == ld_encode_by_composition(sigma) == code


def test_check_ld_weights():
    for n in range(1, 8):
        assert PS.check_ld_weights(n), n


def test_ld_left_multiplication_step():
    # multiplying a prefix product by one more decreasing k-cycle raises
    # maj by exactly 1 and siz by exactly n + 1 - k
    rng = random.Random(42)
    for n in range(2, 8):
        for _ in range(40):
            code = [0] + [rng.randrange(i) for i in range(2, n + 1)]
            k = rng.randrange(2, n + 1)
            if code[k - 1] >= k - 1:
                continue
            prefix_code = tuple(code[:k]) + (0,) * (n - k)
            bumped = list(prefix_code)
            bumped[k - 1] += 1
            before = PS.ld_decode(prefix_code)
            after = PS.ld_decode(tuple(bumped))
            assert after == compose(decreasing_cycle(k, n), before)
            assert PS.maj(after) - PS.maj(before) == 1
            assert PS.siz(after) - PS.siz(before) == n + 1 - k


def test_distribution_examples():
    assert PS.distribution(1) == LaurentPoly.monomial((0, 0))
    assert PS.distribution(2) == LaurentPoly({(0, 0): 1, (1, 1): 1})
    assert PS.distribution(3) == LaurentPoly(
        {(0, 0): 1, (1, 1): 1, (2, 1): 1, (2, 2): 1, (3, 2): 1, (4, 3): 1}
    )
    assert PS.distribution(3) == PS.sizmaj_product(3)


def test_distribution_total_and_cap():
    for n in range(1, 7):
        assert PS.distribution(n).total() == factorial(n)
    with pytest.raises(CapExceededError):
        PS.distribution(10)


def test_joint_distributions_match_a_per_permutation_tally():
    for n in range(0, 7):
        perms = list(permutations(range(1, n + 1)))
        siz_maj = Counter((PS.siz(s), PS.maj(s)) for s in perms)
        sqin_maj = Counter((PS.sqin(s), PS.maj(s)) for s in perms)
        assert PS.distribution(n) == LaurentPoly(siz_maj)
        assert PS._joint_distributions(n) == (LaurentPoly(siz_maj), LaurentPoly(sqin_maj))


def test_check_sizmaj2_exhaustive():
    for n in range(1, 8):
        assert PS.check_sizmaj2(n), n


def test_check_sqin_relation_exhaustive():
    for n in range(1, 8):
        assert PS.check_sqin_relation(n), n


def test_valid_sequences_count_and_bounds():
    for n in range(1, 7):
        seqs = list(PS.valid_sequences(n))
        assert len(seqs) == factorial(n)
        assert all(0 <= v < i for s in seqs for i, v in enumerate(s, start=1))
