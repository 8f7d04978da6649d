"""q-analogs, the q-rational Catalan polynomial, and coset decompositions."""

from collections import Counter
from itertools import combinations_with_replacement
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corelattice import qpoly as Q
from corelattice.polys import LaurentPoly
from corelattice.simplex import rational_catalan
from reference import assignments, q_factorial, shift_multiset


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
    assert Q.q_binomial(5, 2, power=3) == Q.q_binomial(5, 2).subs_power(3)
    with pytest.raises(ValueError):
        Q.q_binomial(3, 4)
    with pytest.raises(ValueError):
        Q.q_binomial(3, -1)


def test_q_binomial_is_quotient_of_factorials():
    for n in range(9):
        for k in range(n + 1):
            expected = q_factorial(n).divexact(q_factorial(k) * q_factorial(n - k))
            assert Q.q_binomial(n, k) == expected


def test_q_binomial_counts_the_partitions_in_a_box():
    # a route that divides nothing: [n choose k]_q = sum over partitions in a k x (n-k) box of q^size
    for n in range(13):
        for k in range(n + 1):
            sizes = Counter(sum(parts) for parts in combinations_with_replacement(range(n - k + 1), k))
            assert Q.q_binomial(n, k) == LaurentPoly(dict(sizes)), (n, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.data())
def test_q_binomial_symmetry_and_palindrome(n, data):
    k = data.draw(st.integers(0, n))
    p = Q.q_binomial(n, k)
    assert p == Q.q_binomial(n, n - k)
    assert p(1) == comb(n, k)
    deg = 0 if p.is_zero else p.max_exp()
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
            assert p.nonnegative()
            assert p.coefficient(0) == 1
            assert p.max_exp() == (a - 1) * (b - 1)
            assert p(1) == rational_catalan(a, b)


def test_cat_q_equals_the_division_by_the_q_integer():
    # the reference route: [a+b choose a]_q divided by the dense [a+b]_q
    for a in range(1, 9):
        for b in range(1, 40):
            if gcd(a, b) == 1:
                assert Q.cat_q(a, b) == Q.q_binomial(a + b, a).divexact(Q.q_int(a + b)), (a, b)


def test_divexact_failure_is_loud():
    with pytest.raises(ArithmeticError):
        Q.q_int(5).divexact(Q.q_int(3))


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


# Search nodes for a = 5, pinned as the smallest max_nodes with which the
# search still finds its solution (measured before the fused residual kernel):
# equal counts mean the search walks the same tree.
@pytest.mark.parametrize("b_list, nodes", [([6, 11, 16], 4919), ([7, 12, 17], 64), ([1, 6, 11, 16], 60)])
def test_search_age_reports_nodes_used(b_list, nodes):
    res = Q.search_age_function(5, b_list)
    assert res.status == "found" and res.found and res.age_product_ok
    assert res.nodes_used == nodes
    assert Q.search_age_function(5, b_list, max_nodes=nodes).nodes_used == nodes


def test_search_age_reports_an_exhausted_budget():
    res = Q.search_age_function(5, [6, 11, 16], max_nodes=4918)
    assert res.status == "budget_exhausted" and not res.found
    assert res.nodes_used == 4918
    assert res.shifts is None and "work limit" in res.reason


def test_search_age_status_without_a_solution():
    res = Q.search_age_function(4, [5])
    assert res.status == "no_solution" and res.nodes_used == 0


@pytest.mark.parametrize("a", [-1, 0, 1])
def test_search_age_function_rejects_small_a(a):
    with pytest.raises(ValueError, match="a must be >= 2"):
        Q.search_age_function(a, [3])
