"""q-analogs, the q-rational Catalan polynomial, and coset decompositions."""

import tracemalloc
from collections import Counter
from itertools import combinations, combinations_with_replacement
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corelattice import qpoly as Q
from corelattice.polys import LaurentPoly
from corelattice.simplex import rational_catalan
from reference import assignments, divexact, q_factorial, shift_multiset, solve_class_at_largest_b

laurent_polys = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5).map(LaurentPoly)


def test_q_int_and_factorial():
    assert Q.q_int(3) == LaurentPoly({0: 1, 1: 1, 2: 1})
    assert Q.q_int(0).is_zero
    assert Q.q_int(4, power=2) == LaurentPoly({0: 1, 2: 1, 4: 1, 6: 1})
    assert q_factorial(3) == Q.q_int(2) * Q.q_int(3)
    with pytest.raises(ValueError):
        Q.q_int(-1)


def test_q_binomial_examples():
    assert Q.q_binomial(4, 0) == LaurentPoly.one()
    assert Q.q_binomial(4, 2) == LaurentPoly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
    with pytest.raises(ValueError):
        Q.q_binomial(3, 4)
    with pytest.raises(ValueError):
        Q.q_binomial(3, -1)
    for power in (0, -1):
        with pytest.raises(ValueError, match="needs m >= 1"):
            Q.q_binomial(3, 1, power)


def test_q_binomial_is_quotient_of_factorials():
    for n in range(9):
        for k in range(n + 1):
            expected = divexact(q_factorial(n), q_factorial(k) * q_factorial(n - k))
            assert Q.q_binomial(n, k) == expected


def test_q_binomial_counts_the_partitions_in_a_box():
    # a route that divides nothing: [n choose k]_q = sum over partitions in a k x (n-k) box of q^size
    for n in range(15):
        for k in range(n + 1):
            sizes = Counter(sum(parts) for parts in combinations_with_replacement(range(n - k + 1), k))
            for power in range(1, 5):
                expected = LaurentPoly({power * e: v for e, v in sizes.items()})
                assert Q.q_binomial(n, k, power) == expected, (n, k, power)


def test_a_corrupted_multiply_is_caught_by_the_multiply_back(monkeypatch):
    real = Q._times_one_minus
    monkeypatch.setattr(Q, "_times_one_minus", lambda c, m: [v + (j == 0) for j, v in enumerate(real(c, m))])
    with pytest.raises(ArithmeticError, match="nonzero remainder"):
        Q.q_binomial(6, 3)
    with pytest.raises(ArithmeticError, match="nonzero remainder"):
        Q.cat_q(3, 4)


def test_an_inexact_division_is_loud():
    with pytest.raises(ArithmeticError, match="nonzero remainder"):
        Q._over_one_minus([1, 0, 1], 1)  # 1 + q^2 over 1 - q
    assert Q._over_one_minus([1, 0, 0, -1], 3) == [1]


def test_q_binomial_peak_memory_stays_near_its_result():
    # the coefficient lists of [40003 choose 2]_q hold 80,001 entries; the result dict alone takes about 7.7 MB
    tracemalloc.start()
    try:
        Q.q_binomial(40003, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.data())
def test_q_binomial_symmetry_and_palindrome(n, data):
    k = data.draw(st.integers(0, n))
    p = Q.q_binomial(n, k)
    assert p == Q.q_binomial(n, n - k)
    assert p(1) == comb(n, k)
    deg = p.items()[-1][0]
    assert all(p.coefficient(e) == p.coefficient(deg - e) for e in range(deg + 1))


def test_cat_q_examples():
    assert Q.cat_q(3, 4) == LaurentPoly({0: 1, 2: 1, 3: 1, 4: 1, 6: 1})
    assert Q.cat_q(6, 1) == LaurentPoly.one()
    assert Q.cat_q(2, 3) == LaurentPoly({0: 1, 2: 1})
    with pytest.raises(ValueError):
        Q.cat_q(4, 6)


def test_cat_q_degree_positivity_count():
    for a in range(2, 7):
        for b in range(1, 19):
            if gcd(a, b) != 1:
                continue
            p = Q.cat_q(a, b)
            assert all(v > 0 for _, v in p.items())
            assert p.coefficient(0) == 1
            assert p.items()[-1][0] == (a - 1) * (b - 1)
            assert p(1) == rational_catalan(a, b)


def test_cat_q_equals_the_division_by_the_q_integer():
    # the reference route: [a+b choose a]_q divided by the dense [a+b]_q
    for a in range(1, 9):
        for b in range(1, 40):
            if gcd(a, b) == 1:
                assert Q.cat_q(a, b) == divexact(Q.q_binomial(a + b, a), Q.q_int(a + b)), (a, b)


def test_divexact():
    num = LaurentPoly({0: 1, 1: 2, 2: 1})
    den = LaurentPoly({0: 1, 1: 1})
    assert divexact(num, den) == den
    with pytest.raises(ArithmeticError, match="nonzero remainder"):
        divexact(LaurentPoly({0: 1, 2: 1}), den)
    with pytest.raises(ArithmeticError, match="leading coefficient"):
        divexact(LaurentPoly({0: 1, 1: 3}), LaurentPoly({0: 1, 1: 2}))
    shifted = LaurentPoly.monomial(-3) * num
    assert divexact(shifted, den) == LaurentPoly.monomial(-3) * den
    with pytest.raises(ZeroDivisionError):
        divexact(num, LaurentPoly())


@settings(max_examples=200, deadline=None)
@given(laurent_polys, laurent_polys)
def test_divexact_inverts_multiplication(p, d):
    if d.is_zero:
        return
    assert divexact(p * d, d) == p


def test_divexact_failure_is_loud():
    with pytest.raises(ArithmeticError):
        divexact(Q.q_int(5), Q.q_int(3))


def test_coset_identity_a3():
    for k in range(1, 7):
        assert Q.check_coset_identity_a3(k, 0)
        assert Q.check_coset_identity_a3(k, 1)
    with pytest.raises(ValueError):
        Q.check_coset_identity_a3(0, 0)
    with pytest.raises(ValueError):
        Q.check_coset_identity_a3(1, 2)


def test_coset_identity_a4():
    for k in range(1, 7):
        assert Q.check_coset_identity_a4(k)
    # the identity's size multiset is forced by the coset point counts
    sizes = sorted(off for _, off in Q._A4_TERMS)
    assert sizes == [-2] * 5 + [-1] * 10 + [0]


def test_unimodality_report():
    rep = Q.unimodality_report(Q.cat_q(3, 4), 3)
    assert [(r.residue, r.coefficients, r.unimodal) for r in rep] == [
        (0, (1, 1, 1), True),
        (1, (1,), True),
        (2, (1,), True),
    ]
    assert all(r.unimodal for r in Q.unimodality_report(LaurentPoly({0: 5}), 4))
    gap = LaurentPoly({0: 1, 6: 1})  # residue 0 mod 3 sees 1, 0, 1
    assert not Q.unimodality_report(gap, 3)[0].unimodal


def test_is_unimodal():
    assert Q.is_unimodal(())
    assert Q.is_unimodal((1, 2, 2, 1))
    assert Q.is_unimodal((3, 1))
    assert not Q.is_unimodal((1, 0, 1))
    assert not Q.is_unimodal((2, 1, 2))


def test_unimodality_sweep():
    for a in range(2, 6):
        for b in range(1, 31):
            if gcd(a, b) != 1:
                continue
            assert all(r.unimodal for r in Q.unimodality_report(Q.cat_q(a, b), a)), (a, b)


def test_coset_labels_census():
    assert Q.coset_labels(2, 1) == [(1, 0)]
    labels3 = Q.coset_labels(3, 1)
    assert len(labels3) == 3
    assert set(labels3) == {(1, 0, 0), (0, 2, 2), (2, 1, 1)}
    assert len(Q.coset_labels(4, 1)) == 16
    assert len(Q.coset_labels(5, 2)) == 125


def _filtered_coset_labels(a, b_residue):
    """Reference: every vector of ``[0, a)^a``, kept when its sum and weighted sum pass."""
    out = []

    def extend(prefix):
        if len(prefix) == a:
            if sum(prefix) % a == b_residue % a and sum(i * v for i, v in enumerate(prefix)) % a == 0:
                out.append(prefix)
            return
        for v in range(a):
            extend(prefix + (v,))

    extend(())
    return out


@pytest.mark.parametrize("a", range(2, 7))
def test_coset_labels_match_the_filtered_box(a):
    for r in range(a):
        assert Q.coset_labels(a, r) == _filtered_coset_labels(a, r), (a, r)


def test_search_age_function_a3():
    res = Q.search_age_function(3, [4, 7, 10])
    assert res.found and res.age_product_ok
    assert shift_multiset(res) == (0, 2, 4)
    # shift 0 goes with the large coset, 2 and 4 with the small ones
    assert assignments(res) == ((0, 3), (2, 2), (4, 2))


def test_search_age_function_a4():
    res = Q.search_age_function(4, [5, 9])
    assert res.found and res.age_product_ok
    assert shift_multiset(res) == (0, 2, 3, 4, 5, 6, 6, 7, 8, 9, 9, 10, 11, 12, 13, 15)
    by_size: dict[int, list[int]] = {}
    for s, m in assignments(res):
        by_size.setdefault(m, []).append(s)
    assert by_size == {
        2: [0],
        1: [2, 3, 4, 5, 6, 6, 7, 8, 9, 10],
        0: [9, 11, 12, 13, 15],
    }


def test_search_age_function_a2():
    res = Q.search_age_function(2, [3, 5, 7, 9, 11, 13, 15])
    assert res.found and res.age_product_ok
    assert shift_multiset(res) == (0,)
    # the single-coset identity: cat_q(2, b) is the q^2-count of one simplex
    for b in range(3, 16, 2):
        assert Q.cat_q(2, b) == Q.q_binomial((b - 1) // 2 + 1, 1, power=2)


def test_search_age_function_validation():
    with pytest.raises(ValueError):
        Q.search_age_function(3, [])
    with pytest.raises(ValueError):
        Q.search_age_function(3, [4, 6])
    with pytest.raises(ValueError):
        Q.search_age_function(3, [4, 5])  # mixed residue classes


def test_search_age_function_reports_thin_data():
    res = Q.search_age_function(4, [5])
    assert not res.found
    assert "empty" in res.reason


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 30), unique=True, max_size=4).flatmap(
        lambda sizes: st.tuples(
            st.just(sorted(sizes, reverse=True)),
            st.fixed_dictionaries({m: st.integers(0, 5) for m in sizes}),
            st.integers(0, 12),
        )
    )
)
def test_multisets_are_the_feasible_combinations_in_their_order(case):
    distinct, counts, batch = case
    expanded = [tuple(m for m, n in chosen for _ in range(n)) for chosen in Q._multisets(distinct, counts, batch)]
    feasible = [
        c for c in combinations_with_replacement(distinct, batch) if all(c.count(m) <= counts[m] for m in distinct)
    ]
    assert expanded == feasible
    assert all(n >= 1 for chosen in Q._multisets(distinct, counts, batch) for _, n in chosen)


# The nine b-lists the benchmark's algebra workload searches at a = 5.
ALGEBRA_B_LISTS = ("6,11,16", "7,12,17", "8,13,18", "9,14,19", "12,17", "14,19", "16,21", "11,16,21", "1,6,11,16")


def _b_list(text):
    return [int(b) for b in text.split(",")]


# Search nodes for a = 5, pinned as the smallest max_nodes with which the
# search still finds its solution: equal counts mean the search walks the
# same tree.  Driven at the largest b alone, the same lists took 4919, 64,
# 68, 128, 1114, 1122, 228, 164 and 60 nodes (7867 in all).
@pytest.mark.parametrize(
    "b_list, nodes",
    zip(ALGEBRA_B_LISTS, (81, 76, 78, 83, 141, 273, 201, 119, 75)),
)
def test_search_age_reports_nodes_used(b_list, nodes):
    res = Q.search_age_function(5, _b_list(b_list))
    assert res.status == "found" and res.found and res.age_product_ok
    assert res.nodes_used == nodes
    assert Q.search_age_function(5, _b_list(b_list), max_nodes=nodes).nodes_used == nodes


def test_search_age_reports_an_exhausted_budget():
    res = Q.search_age_function(5, [6, 11, 16], max_nodes=80)
    assert res.status == "budget_exhausted" and not res.found
    assert res.nodes_used == 80
    assert res.shifts is None and "work limit" in res.reason


def _one_class_b_lists(a):
    """Every list of 1 to 3 b values coprime to a, b <= 4a+1, in one residue class mod a."""
    bs = [b for b in range(1, 4 * a + 2) if gcd(a, b) == 1]
    for r in range(a):
        same = [b for b in bs if b % a == r]
        for k in (1, 2, 3):
            yield from combinations(same, k)


@pytest.mark.parametrize(
    "a, b_lists",
    [
        (3, list(_one_class_b_lists(3))),
        (4, list(_one_class_b_lists(4))),
        (5, [_b_list(text) for text in (*ALGEBRA_B_LISTS, "11,16")]),
    ],
    ids=["a=3", "a=4", "a=5"],
)
def test_search_age_matches_the_search_driven_at_the_largest_b(monkeypatch, a, b_lists):
    compared = 0
    for b_list in b_lists:
        res = Q.search_age_function(a, b_list)
        with monkeypatch.context() as m:
            m.setattr(Q, "_solve_class", solve_class_at_largest_b)
            ref = Q.search_age_function(a, b_list, max_nodes=20_000)
        if ref.status == "budget_exhausted":  # the reference's tree is far wider; none of these lists reaches this
            continue
        fields = ("status", "shifts", "simplex_sizes", "age_product_ok")
        assert [getattr(res, f) for f in fields] == [getattr(ref, f) for f in fields], b_list
        compared += 1
    assert compared, "the reference exhausted its budget on every list"


def test_search_age_status_without_a_solution():
    res = Q.search_age_function(4, [5])
    assert res.status == "no_solution" and res.nodes_used == 0


@pytest.mark.parametrize("a", [-1, 0, 1])
def test_search_age_function_rejects_small_a(a):
    with pytest.raises(ValueError, match="a must be >= 2"):
        Q.search_age_function(a, [3])
