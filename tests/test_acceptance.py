"""Acceptance suite: one test per acceptance criterion, with a printed verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL line
for every criterion as it completes.
"""

from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from corelattice import ehrhart, perms, qpoly, qt
from corelattice import partitions as P
from corelattice.abacus import charges_from_core, core_from_charges, shift, size_of_charges
from corelattice.polys import LaurentPoly
from corelattice.simplex import (
    SimplexSpec,
    armstrong_average,
    enumerate_cores,
    rational_catalan,
    self_conjugate_count,
)
from reference import conjugation_T, shift_multiset

A_MAX, B_MAX = 6, 20


def coprime_pairs(a_max=A_MAX, b_max=B_MAX):
    return [(a, b) for a in range(2, a_max + 1) for b in range(a + 1, b_max + 1) if gcd(a, b) == 1]


@pytest.fixture(scope="module")
def enumerated():
    """Charge tuples and sizes for every coprime pair in the acceptance range."""
    data = {}
    for a, b in coprime_pairs():
        cores = enumerate_cores(SimplexSpec(a, b))
        data[(a, b)] = [(c, size_of_charges(a, c)) for c in cores]
    return data


def report(number, name, ok):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_criterion_01_count(enumerated):
    ok = all(len(enumerated[(a, b)]) == rational_catalan(a, b) for a, b in coprime_pairs())
    report(1, "rational-catalan-count", ok)


def test_criterion_02_average_size(enumerated):
    ok = all(
        sum(s for _, s in enumerated[(a, b)]) == rational_catalan(a, b) * armstrong_average(a, b)
        for a, b in coprime_pairs()
    )
    ok = ok and sum(s for _, s in enumerated[(3, 4)]) == 10
    ok = ok and sum(s for _, s in enumerated[(2, 3)]) == 1
    report(2, "average-size-identity", ok)


def test_criterion_03_quadratic_size():
    ok = size_of_charges(3, (0, 3, -3)) == 24
    for a in range(2, A_MAX + 1):
        if not ok:
            break
        for head in product(range(-4, 5), repeat=a - 1):
            tail = -sum(head)
            if abs(tail) > 4:
                continue
            c = (*head, tail)
            core = core_from_charges(a, c)
            if size_of_charges(a, c) != sum(core) or charges_from_core(core, a) != c:
                ok = False
                break
    report(3, "quadratic-size-formula", ok)


def test_criterion_04_oracle_equivalence(enumerated):
    ok = True
    for a, b in coprime_pairs(4, 9):
        cores = enumerated[(a, b)]
        max_size = max(s for _, s in cores)
        enumerated_parts = {core_from_charges(a, c) for c, _ in cores}
        brute = set(P.brute_force_simultaneous_cores(a, b, max_size))
        if enumerated_parts != brute:
            ok = False
            break
    report(4, "brute-force-oracle-equivalence", ok)


def test_criterion_05_self_conjugate(enumerated):
    ok = True
    for a, b in coprime_pairs():
        fixed = [(c, s) for c, s in enumerated[(a, b)] if conjugation_T(c) == c]
        if len(fixed) != self_conjugate_count(a, b):
            ok = False
            break
        if Fraction(sum(s for _, s in fixed), len(fixed)) != armstrong_average(a, b):
            ok = False
            break
    report(5, "self-conjugate-count-and-average", ok)


def test_criterion_06_statistics_agreement(enumerated):
    ok = P.skew_length((9, 7, 5, 3, 2, 2, 1, 1), 3, 11) == 9
    for a, b in coprime_pairs(5, 13):
        if not ok:
            break
        spec = SimplexSpec(a, b)
        for c, _ in enumerated[(a, b)]:
            p = core_from_charges(a, c)
            tx = shift(a, c)
            if qt.length_from_x(tx) != len(p) or qt.skew_length_from_x(spec, tx) != P.skew_length(p, a, b):
                ok = False
                break
    report(6, "lattice-statistics-match-oracles", ok)


def test_criterion_07_q_identities(enumerated):
    ok = all(qpoly.check_coset_identity_a3(k, d) for k in range(1, 7) for d in (0, 1))
    ok = ok and all(qpoly.check_coset_identity_a4(k) for k in range(1, 5))
    for a, b in coprime_pairs():
        if not ok:
            break
        ok = qpoly.cat_q(a, b)(1) == len(enumerated[(a, b)])
    report(7, "q-catalan-identities", ok)


def test_criterion_08_qt_polynomials():
    ok = qt.cat_qt(SimplexSpec(3, 4)) == LaurentPoly(
        {(3, 0): 1, (2, 1): 1, (1, 2): 1, (1, 1): 1, (0, 3): 1}
    )
    for b in range(4, 14):
        if gcd(3, b) == 1:
            spec = SimplexSpec(3, b)
            poly = qt.cat_qt(spec)
            ok = ok and qt.check_symmetry(poly) and qt.check_specialization(spec, poly)
    polys = {(a, b): qt.cat_qt(SimplexSpec(a, b)) for a in (4, 5) for b in range(a + 1, 14) if gcd(a, b) == 1}
    conjectural = {
        (a, b): (qt.check_symmetry(poly), qt.check_specialization(SimplexSpec(a, b), poly))
        for (a, b), poly in polys.items()
    }
    print(f"  qt symmetry/specialization sweep at a=4,5 (reported): {sorted(conjectural.items())}")
    for b in range(4, 21):
        if gcd(3, b) == 1:
            ok = ok and qt.check_qt3_identity(b)
    report(8, "qt-catalan-and-rational-form", ok)


def test_criterion_09_permutation_suite():
    ok = all(perms.check_sizmaj2(n) for n in range(1, 8))
    ok = ok and all(perms.check_ld_weights(n) for n in range(1, 8))
    ok = ok and all(qt.check_sizmaj1(a) for a in range(2, 7))
    report(9, "permutation-statistics-suite", ok)


def test_criterion_10_ehrhart():
    tri = ehrhart.halved_right_triangle()
    fit = ehrhart.fit_quasipolynomial({t: tri.count(t) for t in range(1, 9)}, 2, 2)
    ok = fit.constituents[0] == (Fraction(1), Fraction(1), Fraction(1, 4))
    ok = ok and fit.constituents[1] == (Fraction(3, 4), Fraction(1), Fraction(1, 4))
    for a in range(2, 6):
        if not ok:
            break
        f, g, p = ehrhart.fit_core_polynomials(a)
        ok = all(ehrhart.poly_eval(f, -r) == 0 for r in range(1, a))
        ok = ok and ehrhart.poly_eval(p, 0) == Fraction(-(a * a - 1), 24)
        ok = ok and ehrhart.check_root_structure(a)
    ok = ok and ehrhart.reciprocity_check(ehrhart.unit_segment(), 12)
    ok = ok and ehrhart.reciprocity_check(tri, 16, period=2)
    ok = ok and ehrhart.reciprocity_check(ehrhart.standard_simplex(2), 14)
    ok = ok and ehrhart.reciprocity_check(ehrhart.standard_simplex(3), 20)
    ok = ok and ehrhart.reciprocity_check(ehrhart.unit_segment(), 16, weight={(2,): 1})
    report(10, "ehrhart-fits-and-reciprocity", ok)


def test_criterion_11_conjecture_exploration():
    violations = [
        (a, b, r.residue)
        for a in range(2, 6)
        for b in range(1, 31)
        if gcd(a, b) == 1
        for r in qpoly.unimodality_report(qpoly.cat_q(a, b), a)
        if not r.unimodal
    ]
    print(f"  unimodality sweep a<=5, b<=30: {len(violations)} violation(s) {violations}")
    res3 = qpoly.search_age_function(3, [4, 7, 10])
    res4 = qpoly.search_age_function(4, [5, 9])
    ok = not violations
    ok = ok and res3.found and res3.age_product_ok and shift_multiset(res3) == (0, 2, 4)
    ok = ok and res4.found and res4.age_product_ok
    ok = ok and shift_multiset(res4) == (0, 2, 3, 4, 5, 6, 6, 7, 8, 9, 9, 10, 11, 12, 13, 15)
    report(11, "conjecture-exploration", ok)
