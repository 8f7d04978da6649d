"""Permutation statistics, factorization codes, and distribution identities."""

import random
from collections import Counter
from itertools import permutations, product
from math import factorial

import pytest

from corelattice import perms as PS
from corelattice.errors import CapExceededError
from corelattice.polys import LaurentPoly
from reference import sqin


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


def check_permutation(sigma) -> tuple[int, ...]:
    p = tuple(sigma)
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"not a permutation of 1..n: {p}")
    return p


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


def ld_decode(code) -> tuple[int, ...]:
    """Reference route: code -> product of decreasing-cycle powers, one power per nonzero entry."""
    c = check_valid_sequence(code)
    n = len(c)
    sigma = tuple(range(1, n + 1))
    for k in range(2, n + 1):
        if c[k - 1]:
            sigma = PS._cycle_power_left(sigma, k, c[k - 1])
    return sigma


def ld_encode(sigma) -> tuple[int, ...]:
    """Reference route, inverse of :func:`ld_decode`: peel cycle powers off the left."""
    sigma = check_permutation(sigma)
    n = len(sigma)
    code = [0] * n
    for k in range(n, 1, -1):
        a_k = k - sigma[k - 1]
        code[k - 1] = a_k
        # strip the factor by applying C_k^{-a_k} on the left
        if a_k:
            sigma = PS._cycle_power_left(sigma, k, -a_k)
    if sigma != tuple(range(1, n + 1)):
        raise AssertionError("factorization code did not reduce to the identity")
    return tuple(code)


def test_basic_statistics():
    assert PS.des_set((1, 2, 3)) == frozenset()
    assert PS.maj((1, 2, 3)) == 0 == PS.inv((1, 2, 3))
    assert PS.des_set((2, 1)) == {1}
    assert PS.maj((2, 1)) == 1 == PS.inv((2, 1))
    assert PS.des_set((3, 2, 1)) == {1, 2}
    assert PS.maj((3, 2, 1)) == 3 == PS.inv((3, 2, 1))


def test_siz_and_sqin():
    assert PS.siz((1, 2)) == 0 and sqin((1, 2)) == 0
    assert PS.siz((2, 1)) == 2 * 1 - 1 == 1
    assert PS.siz((3, 2, 1)) == (3 * 1 + 2 * 2) - 3 == 4
    assert sqin((2, 1)) == 1 + 1 == 2
    for n in range(1, 8):
        assert all(PS.siz(s) >= 0 for s in permutations(range(1, n + 1)))


def test_check_permutation():
    with pytest.raises(ValueError):
        check_permutation((1, 3))
    with pytest.raises(ValueError):
        check_permutation((0, 1))


def test_decreasing_cycle():
    assert decreasing_cycle(2, 2) == (2, 1)
    assert decreasing_cycle(3, 5) == (3, 1, 2, 4, 5)
    assert decreasing_cycle(1, 4) == (1, 2, 3, 4)


def test_ld_decode_examples():
    assert ld_decode((0, 0, 0)) == (1, 2, 3)
    assert ld_decode((0, 1)) == (2, 1)
    with pytest.raises(ValueError):
        ld_decode((0, 2))


def test_ld_code_bijection_exhaustive():
    for n in range(1, 8):
        images = set()
        for code in valid_sequences(n):
            sigma = ld_decode(code)
            assert ld_encode(sigma) == code
            images.add(sigma)
        assert len(images) == factorial(n)


def test_ld_code_matches_the_composition_route():
    for n in range(0, 8):
        for code in valid_sequences(n):
            sigma = ld_decode(code)
            assert sigma == ld_decode_by_composition(code)
            assert ld_encode(sigma) == ld_encode_by_composition(sigma) == code


def test_ld_tree_walks_each_code_to_its_permutation():
    for n in range(0, 8):
        leaves = list(PS._ld_tree(n))
        pairs = {(sigma, code) for sigma, code, _, _ in leaves}
        assert pairs == {(ld_decode(c), c) for c in valid_sequences(n)}
        assert len(leaves) == factorial(n)
        assert {sigma for sigma, _ in pairs} == set(permutations(range(1, n + 1)))
        for _, code, w_maj, w_siz in leaves:
            assert (w_maj, w_siz) == (sum(code), sum((n + 1 - k) * c for k, c in enumerate(code, start=1)))


def test_check_ld_weights():
    for n in range(1, 8):
        assert PS.check_ld_weights(n), n


def test_check_ld_weights_fails_on_a_wrong_code(monkeypatch):
    # the reversed permutation of a leaf is a permutation, but not LD of the leaf's code
    tree = PS._ld_tree
    monkeypatch.setattr(PS, "_ld_tree", lambda n: ((s[::-1], *rest) for s, *rest in tree(n)))
    PS._joint_distributions.cache_clear()
    try:
        assert not PS.check_ld_weights(4)
    finally:
        PS._joint_distributions.cache_clear()


def test_an_off_by_one_cycle_power_trips_the_node_assertion(monkeypatch):
    power = PS._cycle_power_left
    monkeypatch.setattr(PS, "_cycle_power_left", lambda sigma, k, r: power(sigma, k, r + 1))
    PS._joint_distributions.cache_clear()
    try:
        with pytest.raises(AssertionError, match="did not send"):
            PS.check_ld_weights(4)
    finally:
        PS._joint_distributions.cache_clear()


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
            before = ld_decode(prefix_code)
            after = ld_decode(tuple(bumped))
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
        sqin_maj = Counter((sqin(s), PS.maj(s)) for s in perms)
        assert PS.distribution(n) == LaurentPoly(siz_maj)
        assert PS._joint_distributions(n)[:2] == (LaurentPoly(siz_maj), LaurentPoly(sqin_maj))


def test_check_sizmaj2_exhaustive():
    for n in range(1, 8):
        assert PS.check_sizmaj2(n), n


def test_check_sqin_relation_exhaustive():
    for n in range(1, 8):
        assert PS.check_sqin_relation(n), n


def test_valid_sequences_count_and_bounds():
    for n in range(1, 7):
        seqs = list(valid_sequences(n))
        assert len(seqs) == factorial(n)
        assert all(0 <= v < i for s in seqs for i, v in enumerate(s, start=1))
