"""Named verification suites driven by the command line.

Every check here is a thin wrapper over one library-level property; the
suite layer only chooses parameter ranges and renders verdicts.  Checks
tagged ``exploration`` report findings (conjecture sweeps) and never fail
a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, inf
from typing import Callable

from . import ehrhart, perms, qpoly, qt
from .abacus import ChargeVector, charges_from_core, core_from_charges, shift, size_quadratic
from .partitions import brute_force_simultaneous_cores, skew_length
from .simplex import (
    SimplexSpec,
    armstrong_average,
    conjugation_T,
    core_moments,
    enumerate_cores,
    rational_catalan,
    self_conjugate_count,
)


@dataclass(frozen=True)
class Check:
    name: str
    params: dict
    run: Callable[[], tuple[bool, object]]
    exploration: bool = False


def _plain(fn: Callable[[], bool]) -> Callable[[], tuple[bool, object]]:
    return lambda: (fn(), None)


def _coprime_pairs(a_max: int, b_max: int):
    for a in range(2, a_max + 1):
        for b in range(a + 1, b_max + 1):
            if gcd(a, b) == 1:
                yield a, b


def anderson_suite(a_max: int, b_max: int, cap: int) -> list[Check]:
    def make(a, b):
        return _plain(lambda: len(enumerate_cores(SimplexSpec(a, b), cap)) == rational_catalan(a, b))

    return [Check("anderson", {"a": a, "b": b}, make(a, b)) for a, b in _coprime_pairs(a_max, b_max)]


def armstrong_suite(a_max: int, b_max: int, cap: int) -> list[Check]:
    def make(a, b):
        def run():
            cores = enumerate_cores(SimplexSpec(a, b), cap)
            total = sum(size_quadratic(cv) for cv in cores)
            expected = rational_catalan(a, b) * armstrong_average(a, b)
            return total == expected, {"total": total}

        return run

    return [Check("armstrong", {"a": a, "b": b}, make(a, b)) for a, b in _coprime_pairs(a_max, b_max)]


def self_conjugate_suite(a_max: int, b_max: int, cap: int) -> list[Check]:
    def make(a, b):
        def run():
            fixed = [cv for cv in enumerate_cores(SimplexSpec(a, b), cap) if conjugation_T(cv) == cv]
            if len(fixed) != self_conjugate_count(a, b):
                return False, {"count": len(fixed)}
            total = sum(size_quadratic(cv) for cv in fixed)
            return Fraction(total, len(fixed)) == armstrong_average(a, b), {"count": len(fixed)}

        return run

    return [Check("self-conjugate", {"a": a, "b": b}, make(a, b)) for a, b in _coprime_pairs(a_max, b_max)]


def quadratic_suite(a_max: int, radius: int) -> list[Check]:
    def make(a):
        def run():
            for head in product(range(-radius, radius + 1), repeat=a - 1):
                tail = -sum(head)
                if abs(tail) > radius:
                    continue
                cv = ChargeVector(a, (*head, tail))
                core = core_from_charges(cv)
                if size_quadratic(cv) != sum(core) or charges_from_core(core, a) != cv:
                    return False, {"c": list(cv.c)}
            return True, None

        return run

    return [Check("quadratic", {"a": a, "radius": radius}, make(a)) for a in range(2, a_max + 1)]


def oracle_suite(a_max: int, b_max: int, cap: int) -> list[Check]:
    def make(a, b):
        def run():
            cores = enumerate_cores(SimplexSpec(a, b), cap)
            enumerated = {core_from_charges(cv) for cv in cores}
            max_size = max((size_quadratic(cv) for cv in cores), default=0)
            # to the largest core size (Olsson-Stanton), not max_size: a dropped core must still be found
            brute = set(brute_force_simultaneous_cores(a, b, (a * a - 1) * (b * b - 1) // 24))
            return enumerated == brute, {"count": len(enumerated), "max_size": max_size}

        return run

    return [Check("oracle", {"a": a, "b": b}, make(a, b)) for a, b in _coprime_pairs(a_max, b_max)]


MOMENTS_SCALE_A_MAX = 30  # the closed-form rows of `moments`; (30, 211) has Cat(a,b) near 6.9e35


def moments_suite(a_max: int, b_max: int, cap: int) -> list[Check]:
    """The moment recursion against the enumeration, then against Anderson's and Armstrong's closed forms."""

    def against_walk(a, b):
        def run():
            spec = SimplexSpec(a, b)
            cores = enumerate_cores(spec, cap)
            walked = (len(cores), sum(size_quadratic(cv) for cv in cores))
            return core_moments(spec, cap) == walked, {"count": walked[0], "total": walked[1]}

        return run

    def against_closed_forms(a, b):
        # the recursion costs O(a^2 b) whatever Cat(a,b) is, so the enumeration cap does not apply
        def run():
            count, total = core_moments(SimplexSpec(a, b), cap=inf)
            return count == rational_catalan(a, b) and Fraction(total, count) == armstrong_average(a, b), None

        return run

    checks = [Check("moments", {"a": a, "b": b}, against_walk(a, b)) for a, b in _coprime_pairs(a_max, b_max)]
    checks += [
        Check("moments-closed-form", {"a": a, "b": b}, against_closed_forms(a, b))
        for a in range(2, MOMENTS_SCALE_A_MAX + 1)
        for b in (a + 1, 2 * a + 1, 7 * a + 1)
    ]
    return checks


def statistics_suite(a_max: int, b_max: int, cap: int) -> list[Check]:
    def make(a, b):
        def run():
            spec = SimplexSpec(a, b)
            for cv in enumerate_cores(spec, cap):
                p = core_from_charges(cv)
                sp = shift(cv)
                if qt.length_from_x(sp) != len(p):
                    return False, {"partition": list(p)}
                if qt.skew_length_from_x(spec, sp) != skew_length(p, a, b):
                    return False, {"partition": list(p)}
            return True, None

        return run

    return [Check("statistics", {"a": a, "b": b}, make(a, b)) for a, b in _coprime_pairs(a_max, b_max)]


def qt3_suite(b_max: int, cap: int) -> list[Check]:
    return [
        Check("qt3", {"b": b}, _plain(lambda b=b: qt.check_qt3_identity(b, cap)))
        for b in range(4, b_max + 1)
        if gcd(b, 3) == 1
    ]


def qt_symmetry_suite(a_max: int, b_max: int, cap: int) -> list[Check]:
    checks = []
    for a, b in _coprime_pairs(min(a_max, 5), b_max):
        if a == 2:
            continue

        def run(a=a, b=b):
            spec = SimplexSpec(a, b)
            return qt.check_symmetry(spec, cap) and qt.check_specialization(spec, cap), None

        # proven for a = 3; a conjecture sweep beyond that
        checks.append(Check("qt-symmetry", {"a": a, "b": b}, run, exploration=a > 3))
    return checks


def sizmaj1_suite(a_max: int) -> list[Check]:
    return [Check("sizmaj1", {"a": a}, _plain(lambda a=a: qt.check_sizmaj1(a))) for a in range(2, a_max + 1)]


def sizmaj2_suite(n_max: int) -> list[Check]:
    return [
        Check("sizmaj2", {"n": n}, _plain(lambda n=n: perms.check_sizmaj2(n, cap=n_max)))
        for n in range(1, n_max + 1)
    ]


def ld_weights_suite(n_max: int) -> list[Check]:
    return [
        Check("ld-weights", {"n": n}, _plain(lambda n=n: perms.check_ld_weights(n)))
        for n in range(1, n_max + 1)
    ]


def sqin_suite(n_max: int) -> list[Check]:
    return [
        Check("sqin", {"n": n}, _plain(lambda n=n: perms.check_sqin_relation(n, cap=n_max)))
        for n in range(1, n_max + 1)
    ]


def coset_identities_suite(k_max: int) -> list[Check]:
    checks = [
        Check(
            "coset-identity-a3",
            {"k": k, "delta": d},
            _plain(lambda k=k, d=d: qpoly.check_coset_identity_a3(k, d)),
        )
        for k in range(1, k_max + 1)
        for d in (0, 1)
    ]
    checks += [
        Check("coset-identity-a4", {"k": k}, _plain(lambda k=k: qpoly.check_coset_identity_a4(k)))
        for k in range(1, k_max + 1)
    ]
    return checks


def delta_table_suite(a_max: int) -> list[Check]:
    checks = []
    for a in range(2, a_max + 1):
        b = 2 * a + 1
        while gcd(a, b) != 1 or b <= 2 * a:
            b += 1
        checks.append(Check("delta-table", {"a": a, "b": b}, _plain(lambda a=a, b=b: qt.delta_table_check(a, b))))
    return checks


def reciprocity_suite() -> list[Check]:
    cases = [
        ("segment", lambda: ehrhart.reciprocity_check(ehrhart.unit_segment(), 12)),
        ("triangle-2x+y<=1", lambda: ehrhart.reciprocity_check(ehrhart.halved_right_triangle(), 16, period=2)),
        ("simplex-dim2", lambda: ehrhart.reciprocity_check(ehrhart.standard_simplex(2), 14)),
        ("simplex-dim3", lambda: ehrhart.reciprocity_check(ehrhart.standard_simplex(3), 20)),
        ("segment-weight-x^2", lambda: ehrhart.reciprocity_check(ehrhart.unit_segment(), 16, weight={(2,): 1})),
    ]
    return [Check("reciprocity", {"polytope": name}, _plain(fn)) for name, fn in cases]


def root_structure_suite(a_max: int, cap: int) -> list[Check]:
    return [
        Check("root-structure", {"a": a}, _plain(lambda a=a: ehrhart.check_root_structure(a, cap)))
        for a in range(2, a_max + 1)
    ]


def unimodality_suite(a_max: int, b_max: int) -> list[Check]:
    def make(a, b):
        def run():
            report = qpoly.unimodality_report(qpoly.cat_q(a, b), a)
            bad = [r.residue for r in report if not r.unimodal]
            return not bad, {"violations": bad}

        return run

    return [
        Check("unimodality", {"a": a, "b": b}, make(a, b), exploration=True)
        for a in range(2, a_max + 1)
        for b in range(1, b_max + 1)
        if gcd(a, b) == 1
    ]


# suite name -> its checks, built from the bounds that were given (a bound left as None is absent) and "cap"
SUITES = {
    "anderson": lambda o: anderson_suite(o.get("a_max", 6), o.get("b_max", 20), o["cap"]),
    "armstrong": lambda o: armstrong_suite(o.get("a_max", 6), o.get("b_max", 20), o["cap"]),
    "self-conjugate": lambda o: self_conjugate_suite(o.get("a_max", 6), o.get("b_max", 20), o["cap"]),
    "quadratic": lambda o: quadratic_suite(o.get("a_max", 6), o.get("radius", 4)),
    "oracle": lambda o: oracle_suite(o.get("a_max", 4), o.get("b_max", 9), o["cap"]),
    "moments": lambda o: moments_suite(o.get("a_max", 5), o.get("b_max", 20), o["cap"]),
    "statistics": lambda o: statistics_suite(o.get("a_max", 5), o.get("b_max", 13), o["cap"]),
    "qt3": lambda o: qt3_suite(o.get("b_max", 20), o["cap"]),
    "qt-symmetry": lambda o: qt_symmetry_suite(o.get("a_max", 5), o.get("b_max", 13), o["cap"]),
    "sizmaj1": lambda o: sizmaj1_suite(o.get("a_max", 6)),
    "sizmaj2": lambda o: sizmaj2_suite(o.get("n_max", 7)),
    "ld-weights": lambda o: ld_weights_suite(o.get("n_max", 7)),
    "sqin": lambda o: sqin_suite(o.get("n_max", 7)),
    "coset-identities": lambda o: coset_identities_suite(o.get("k_max", 6)),
    "delta-table": lambda o: delta_table_suite(o.get("a_max", 5)),
    "reciprocity": lambda o: reciprocity_suite(),
    "root-structure": lambda o: root_structure_suite(o.get("a_max", 5), o["cap"]),
    "unimodality": lambda o: unimodality_suite(o.get("a_max", 5), o.get("b_max", 30)),
}
NOT_IN_ALL = ("moments", "oracle")  # kept out so that the output of `all` does not change
SUITE_NAMES = (*SUITES, "all")


def build_suite(name: str, *, a_max, b_max, n_max, k_max, radius, cap) -> list[Check]:
    """Instantiate a named suite; a bound left as ``None`` takes the suite's default, and 0 is honoured."""
    bounds = {"a_max": a_max, "b_max": b_max, "n_max": n_max, "k_max": k_max, "radius": radius}
    for key, value in bounds.items():
        if value is not None and value < 0:
            raise ValueError(f"--{key.replace('_', '-')} must be >= 0, got {value}")
    given = {key: value for key, value in bounds.items() if value is not None}
    given["cap"] = cap
    if name == "all":
        return [check for key in sorted(SUITES) if key not in NOT_IN_ALL for check in SUITES[key](given)]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))} or 'all'")
    return SUITES[name](given)
