"""Named verification suites driven by the command line.

Every check is a module-level function of its printed params (and ``cap``
where it enumerates) that returns ``(ok, detail)``, a thin wrapper over one
library-level property; a suite is one :data:`SUITES` entry that chooses
the parameter ranges and binds the function into :class:`Check`.  Checks
tagged ``exploration`` report findings (conjecture sweeps) and never fail
a run.  ``anderson``, ``armstrong`` and ``self-conjugate`` read one
:func:`~corelattice.simplex.core_fold` per (a,b), memoised for the one
:func:`build_suite` call that made them; ``moments`` reads its own.

Each suite declares the cost of one check as a unit (cores, brute-force
candidates, abacus beads, orbifold cosets, moment-recursion steps,
permutations, coefficients, skew-length terms) and a closed form in its
params; the fixed grids of ``reciprocity`` and ``moments-closed-form``
declare none.  :func:`build_suite` sums each unit over every check it
draws, ``all`` included, and refuses at the first sum past the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, product
from math import factorial, gcd
from typing import Callable

from . import ehrhart, perms, qpoly, qt
from .abacus import charges_from_core, core_beads, core_from_charges, shift, size_of_charges
from .errors import CapExceededError, int_text
from .partitions import brute_force_simultaneous_cores, parts_of_beads, skew_length
from .simplex import (
    SimplexSpec,
    armstrong_average,
    core_fold,
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


def _folded(folds: dict, a: int, b: int, cap: int) -> tuple[int, int, int, int]:
    """:func:`~corelattice.simplex.core_fold` of (a,b), walked once per suite build (``folds`` is its memo)."""
    if (a, b) not in folds:
        folds[a, b] = core_fold(SimplexSpec(a, b), cap)
    return folds[a, b]


def anderson(a: int, b: int, cap: int, folds: dict):
    count, _, _, _ = _folded(folds, a, b, cap)
    return count == rational_catalan(a, b), None


def armstrong(a: int, b: int, cap: int, folds: dict):
    _, total, _, _ = _folded(folds, a, b, cap)
    return total == rational_catalan(a, b) * armstrong_average(a, b), {"total": total}


def self_conjugate(a: int, b: int, cap: int, folds: dict):
    _, _, count, total = _folded(folds, a, b, cap)
    if count != self_conjugate_count(a, b):
        return False, {"count": count}
    return Fraction(total, count) == armstrong_average(a, b), {"count": count}


def quadratic(a: int, radius: int):
    """The abacus round trip and the size form on every charge tuple in the box ``|c_i| <= radius``."""
    for head in product(range(-radius, radius + 1), repeat=a - 1):
        tail = -sum(head)
        if abs(tail) > radius:
            continue
        c = (*head, tail)
        # the parts as a list, not core_from_charges's tuple: tens of thousands of tuples of up to 20 parts
        # fill the interpreter's tuple free lists, about 0.3 MB of the max RSS of `verify all`
        core = parts_of_beads(core_beads(a, c)[0])
        if size_of_charges(a, c) != sum(core) or charges_from_core(core, a) != c:
            return False, {"c": list(c)}
    return True, None


def _largest_size(a: int, b: int) -> int:
    """The size of the largest (a,b)-core (Olsson-Stanton)."""
    return (a * a - 1) * (b * b - 1) // 24


def oracle(a: int, b: int, cap: int):
    cores = enumerate_cores(SimplexSpec(a, b), cap)
    enumerated = {core_from_charges(a, c) for c in cores}
    max_size = max((size_of_charges(a, c) for c in cores), default=0)
    # to the largest core size, not max_size: a dropped core must still be found
    brute = set(brute_force_simultaneous_cores(a, b, _largest_size(a, b)))
    return enumerated == brute, {"count": len(enumerated), "max_size": max_size}


def moments(a: int, b: int, cap: int):
    """The moment recursion against the enumeration."""
    spec = SimplexSpec(a, b)
    walked = core_fold(spec, cap)[:2]
    return core_moments(spec) == walked, {"count": walked[0], "total": walked[1]}


def moments_closed_form(a: int, b: int):
    """The moment recursion against Anderson's and Armstrong's closed forms.

    The recursion costs O(a·b) whatever Cat(a,b) is, so the enumeration cap does not apply.
    """
    count, total = core_moments(SimplexSpec(a, b))
    return count == rational_catalan(a, b) and Fraction(total, count) == armstrong_average(a, b), None


def statistics(a: int, b: int, cap: int):
    spec = SimplexSpec(a, b)
    for c in enumerate_cores(spec, cap):
        p = core_from_charges(a, c)
        tx = shift(a, c)
        if qt.length_from_x(tx) != len(p) or qt.skew_length_from_x(spec, tx) != skew_length(p, a, b):
            return False, {"partition": list(p)}
    return True, None


def qt_symmetry(a: int, b: int, cap: int):
    spec = SimplexSpec(a, b)
    poly = qt.cat_qt(spec, cap)
    return qt.check_symmetry(poly) and qt.check_specialization(spec, poly), None


def unimodality(a: int, b: int):
    bad = [r.residue for r in qpoly.unimodality_report(qpoly.cat_q(a, b), a) if not r.unimodal]
    return not bad, {"violations": bad}


RECIPROCITY_CASES = {
    "segment": lambda: ehrhart.reciprocity_check(ehrhart.WeightedSimplex((1,)), 12),
    "triangle-2x+y<=1": lambda: ehrhart.reciprocity_check(ehrhart.WeightedSimplex((2, 1)), 16, period=2),
    "simplex-dim2": lambda: ehrhart.reciprocity_check(ehrhart.WeightedSimplex((1, 1)), 14),
    "simplex-dim3": lambda: ehrhart.reciprocity_check(ehrhart.WeightedSimplex((1, 1, 1)), 20),
    "segment-weight-x^2": lambda: ehrhart.reciprocity_check(ehrhart.WeightedSimplex((1,)), 16, weight={(2,): 1}),
}

MOMENTS_SCALE_A_MAX = 30  # the closed-form rows of `moments`; (30, 211) has Cat(a,b) near 6.9e35


def _checks(name: str, fn, params, *, cost=None, exploration=None, **bound):
    """Yield ``(check, cost)`` per param dict, drawn lazily; the check runs ``fn(**params, **bound)``.

    ``cost=(unit, f)`` is yielded as ``(unit, f(**params))``, the closed-form cost of the check, and as None
    for a fixed grid, which declares none; ``exploration(params)`` marks a sweep."""
    for p in params:
        check = Check(name, p, partial(fn, **p, **bound), bool(exploration and exploration(p)))
        yield check, cost and (cost[0], cost[1](**p))


def _coprime_pairs(o: dict, a_max: int, b_max: int, a_min: int = 2):
    """``{"a": a, "b": b}`` for coprime ``a_min <= a < b``, up to the bounds in ``o`` or these defaults."""
    for a in range(a_min, o.get("a_max", a_max) + 1):
        for b in range(a + 1, o.get("b_max", b_max) + 1):
            if gcd(a, b) == 1:
                yield {"a": a, "b": b}


def _ns(o: dict):
    """``{"n": n}`` for the permutation suites, up to ``n_max`` or its default."""
    return ({"n": n} for n in range(1, o.get("n_max", 7) + 1))


def _coefficients(a: int, b: int) -> int:
    """The coefficients of cat_q(a, b), which has degree (a-1)(b-1)."""
    return (a - 1) * (b - 1) + 1


def _permutations(n: int) -> int:
    """The n! permutations of S_n; above the brute-force ceiling, n is refused whatever the cap."""
    perms.require_within_cap(n)
    return factorial(n)


CORES = ("cores", lambda a, b: rational_catalan(a, b))  # looked up at each call, like the check functions below
PERMS = ("permutations", _permutations)


# suite name -> its checks, built from the bounds that were given (a bound left as None is absent), "cap" and "folds";
# the check functions are looked up when a suite is built, never stored here
SUITES = {
    "anderson": lambda o: _checks(
        "anderson", anderson, _coprime_pairs(o, 6, 20), cost=CORES, cap=o["cap"], folds=o["folds"]
    ),
    "armstrong": lambda o: _checks(
        "armstrong", armstrong, _coprime_pairs(o, 6, 20), cost=CORES, cap=o["cap"], folds=o["folds"]
    ),
    "self-conjugate": lambda o: _checks(
        "self-conjugate", self_conjugate, _coprime_pairs(o, 6, 20), cost=CORES, cap=o["cap"], folds=o["folds"]
    ),
    "quadratic": lambda o: _checks(
        "quadratic",
        quadratic,
        ({"a": a, "radius": o.get("radius", 4)} for a in range(2, o.get("a_max", 6) + 1)),
        # each charge tuple's abacus holds up to a(r+1) beads
        cost=("abacus beads", lambda a, radius: a * (radius + 1) * (2 * radius + 1) ** (a - 1)),
    ),
    "oracle": lambda o: _checks(
        "oracle",
        oracle,
        _coprime_pairs(o, 4, 9),
        cost=("brute-force candidates", lambda a, b: 1 + rational_catalan(a, b) * _largest_size(a, b)),
        cap=o["cap"],
    ),
    "moments": lambda o: chain(
        _checks("moments", moments, _coprime_pairs(o, 5, 20), cost=CORES, cap=o["cap"]),
        _checks(
            "moments-closed-form",
            moments_closed_form,
            ({"a": a, "b": b} for a in range(2, MOMENTS_SCALE_A_MAX + 1) for b in (a + 1, 2 * a + 1, 7 * a + 1)),
        ),
    ),
    "statistics": lambda o: _checks("statistics", statistics, _coprime_pairs(o, 5, 13), cost=CORES, cap=o["cap"]),
    "qt3": lambda o: _checks(
        "qt3",
        lambda b, cap: (qt.check_qt3_identity(b, cap), None),
        ({"b": b} for b in range(4, o.get("b_max", 20) + 1) if gcd(b, 3) == 1),
        cost=("cores", lambda b: rational_catalan(3, b)),
        cap=o["cap"],
    ),
    # proven for a = 3; a conjecture sweep beyond that
    "qt-symmetry": lambda o: _checks(
        "qt-symmetry", qt_symmetry, _coprime_pairs(o, 5, 13, 3), cost=CORES, cap=o["cap"],
        exploration=lambda p: p["a"] > 3,
    ),
    "sizmaj1": lambda o: _checks(
        "sizmaj1",
        lambda a: (qt.check_sizmaj1(a), None),
        ({"a": a} for a in range(2, o.get("a_max", 6) + 1)),
        cost=("orbifold cosets", lambda a: factorial(a - 1)),
    ),
    "sizmaj2": lambda o: _checks("sizmaj2", lambda n: (perms.check_sizmaj2(n), None), _ns(o), cost=PERMS),
    "ld-weights": lambda o: _checks("ld-weights", lambda n: (perms.check_ld_weights(n), None), _ns(o), cost=PERMS),
    "sqin": lambda o: _checks("sqin", lambda n: (perms.check_sqin_relation(n), None), _ns(o), cost=PERMS),
    "coset-identities": lambda o: chain(
        _checks(
            "coset-identity-a3",
            lambda k, delta: (qpoly.check_coset_identity_a3(k, delta), None),
            ({"k": k, "delta": d} for k in range(1, o.get("k_max", 6) + 1) for d in (0, 1)),
            cost=("coefficients", lambda k, delta: _coefficients(3, 3 * k + 1 + delta)),
        ),
        _checks(
            "coset-identity-a4",
            lambda k: (qpoly.check_coset_identity_a4(k), None),
            ({"k": k} for k in range(1, o.get("k_max", 6) + 1)),
            cost=("coefficients", lambda k: _coefficients(4, 4 * k + 1)),
        ),
    ),
    "delta-table": lambda o: _checks(
        "delta-table",
        lambda a, b: (qt.delta_table_check(a, b), None),
        ({"a": a, "b": 2 * a + 1} for a in range(2, o.get("a_max", 5) + 1)),
        cost=("skew-length terms", lambda a, b: 4 * a * (a - 1) ** 2),  # 4(a-1) skew lengths of a(a-1) terms each
    ),
    "reciprocity": lambda o: _checks(
        "reciprocity",
        lambda polytope: (RECIPROCITY_CASES[polytope](), None),
        ({"polytope": name} for name in RECIPROCITY_CASES),
    ),
    "root-structure": lambda o: _checks(
        "root-structure",
        lambda a, cap: (ehrhart.check_root_structure(a, cap), None),
        ({"a": a} for a in range(2, o.get("a_max", 5) + 1)),
        cost=("moment-recursion steps", ehrhart.fit_steps),
        cap=o["cap"],
    ),
    "unimodality": lambda o: _checks(
        "unimodality",
        unimodality,
        ({"a": a, "b": b} for a in range(2, o.get("a_max", 5) + 1)
         for b in range(1, o.get("b_max", 30) + 1) if gcd(a, b) == 1),
        cost=("coefficients", _coefficients),
        exploration=lambda p: True,
    ),
}
NOT_IN_ALL = ("moments", "oracle")  # kept out so that the output of `all` does not change


def build_suite(name: str, *, a_max, b_max, n_max, k_max, radius, cap) -> list[Check]:
    """Instantiate a named suite; a bound left as ``None`` takes the suite's default, and 0 is honoured."""
    bounds = {"a_max": a_max, "b_max": b_max, "n_max": n_max, "k_max": k_max, "radius": radius}
    for key, value in bounds.items():
        if value is not None and value < 0:
            raise ValueError(f"--{key.replace('_', '-')} must be >= 0, got {value}")
    given = {key: value for key, value in bounds.items() if value is not None}
    given["cap"] = cap
    given["folds"] = {}  # (a, b) -> core_fold, shared by anderson, armstrong and self-conjugate for this build only
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))} or 'all'")
    names = [key for key in sorted(SUITES) if key not in NOT_IN_ALL] if name == "all" else [name]
    checks, spent = [], {}
    for check, declared in chain.from_iterable(SUITES[key](given) for key in names):
        if declared is not None:
            unit, cost = declared
            spent[unit] = total = spent.get(unit, 0) + cost
            if total > cap:
                params = ", ".join(f"{key}={value}" for key, value in check.params.items())
                message = f"{check.name}({params}) brings the {unit} to {int_text(total)}, over the cap of {cap}"
                raise CapExceededError(message)
        checks.append(check)
    return checks
