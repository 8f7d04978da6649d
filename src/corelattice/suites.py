"""Named verification suites driven by the command line.

Every check is a module-level function of its printed params (and ``cap``
where it enumerates) that returns ``(ok, detail)``, a thin wrapper over one
library-level property; a suite is one :data:`SUITES` entry that chooses
the parameter ranges and binds the function into :class:`Check`.  Checks
tagged ``exploration`` report findings (conjecture sweeps) and never fail
a run.  ``anderson``, ``armstrong`` and ``self-conjugate`` read one
:func:`~corelattice.simplex.core_fold` per (a,b), memoised for the one
:func:`build_suite` call that made them; ``moments`` reads its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product, repeat
from math import gcd
from typing import Callable

from . import ehrhart, perms, qpoly, qt
from .abacus import charges_from_core, core_beads, core_from_charges, shift, size_of_charges
from .errors import CapExceededError, int_text
from .partitions import brute_force_simultaneous_cores, parts_of_beads, skew_length
from .simplex import (
    SimplexSpec,
    armstrong_average,
    capped_count,
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
    spec = SimplexSpec(a, b)
    capped_count(spec, cap)  # before the memo is read, so an exceeded cap raises where it would without one
    if (a, b) not in folds:
        folds[a, b] = core_fold(spec, cap)
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


def oracle(a: int, b: int, cap: int):
    cores = enumerate_cores(SimplexSpec(a, b), cap)
    enumerated = {core_from_charges(a, c) for c in cores}
    max_size = max((size_of_charges(a, c) for c in cores), default=0)
    # to the largest core size (Olsson-Stanton), not max_size: a dropped core must still be found
    brute = set(brute_force_simultaneous_cores(a, b, (a * a - 1) * (b * b - 1) // 24))
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
    "segment": lambda: ehrhart.reciprocity_check(ehrhart.unit_segment(), 12),
    "triangle-2x+y<=1": lambda: ehrhart.reciprocity_check(ehrhart.halved_right_triangle(), 16, period=2),
    "simplex-dim2": lambda: ehrhart.reciprocity_check(ehrhart.standard_simplex(2), 14),
    "simplex-dim3": lambda: ehrhart.reciprocity_check(ehrhart.standard_simplex(3), 20),
    "segment-weight-x^2": lambda: ehrhart.reciprocity_check(ehrhart.unit_segment(), 16, weight={(2,): 1}),
}

MOMENTS_SCALE_A_MAX = 30  # the closed-form rows of `moments`; (30, 211) has Cat(a,b) near 6.9e35


def _checks(name: str, fn, params, *, exploration=None, **bound) -> list[Check]:
    """One check per param dict, running ``fn(**params, **bound)``; ``exploration(params)`` marks a sweep."""
    return [Check(name, p, partial(fn, **p, **bound), bool(exploration and exploration(p))) for p in params]


def _coprime_pairs(o: dict, a_max: int, b_max: int):
    """``{"a": a, "b": b}`` for coprime ``2 <= a < b``, up to the bounds in ``o`` or these defaults."""
    for a in range(2, o.get("a_max", a_max) + 1):
        for b in range(a + 1, o.get("b_max", b_max) + 1):
            if gcd(a, b) == 1:
                yield {"a": a, "b": b}


def _require_walk_within(factors, cap: int, message: str) -> None:
    """Raise :class:`CapExceededError` with ``message`` once the running product of ``factors`` passes ``cap``."""
    size = 1
    for f in factors:
        size *= f
        if size > cap:
            raise CapExceededError(message)


def _quadratic_params(o: dict):
    """``{"a": a, "radius": r}`` for ``quadratic``, refused before any check runs when the a_max box passes the cap."""
    a_max, radius, cap = o.get("a_max", 6), o.get("radius", 4), o["cap"]
    side = 2 * radius + 1
    message = f"a={a_max} walks a box of {int_text(side)}^{a_max - 1} charge tuples, over the cap of {cap}"
    _require_walk_within(repeat(side, a_max - 1), cap, message)
    return ({"a": a, "radius": radius} for a in range(2, a_max + 1))


def _sizmaj1_params(o: dict):
    """``{"a": a}`` for ``sizmaj1``, refused before any check runs when the (a_max-1)! cosets at a_max pass the cap."""
    a_max, cap = o.get("a_max", 6), o["cap"]
    _require_walk_within(range(2, a_max), cap, f"a={a_max} has {a_max - 1}! orbifold cosets, over the cap of {cap}")
    return ({"a": a} for a in range(2, a_max + 1))


def _root_structure_params(o: dict):
    """``{"a": a}`` for ``root-structure``, refused before any check runs when the fits' recursion steps, summed, pass the cap."""
    a_max, cap = o.get("a_max", 5), o["cap"]
    steps, a = 0, 1
    while steps <= cap and a < a_max:  # stops at the first a past the cap, so a huge bound costs nothing
        a += 1
        steps += ehrhart.fit_steps(a)
    message = f"the fits up to a={a} take {int_text(steps)} moment-recursion steps, over the cap of {cap}"
    _require_walk_within((steps,), cap, message)
    return ({"a": a} for a in range(2, a_max + 1))


def _ns(o: dict):
    """``{"n": n}`` for the permutation brute force, refused above its ceiling or the cap before any check runs."""
    n_max = o.get("n_max", 7)
    perms.require_walk_within(n_max, o["cap"])
    return ({"n": n} for n in range(1, n_max + 1))


# suite name -> its checks, built from the bounds that were given (a bound left as None is absent), "cap" and "folds";
# the check functions are looked up when a suite is built, never stored here
SUITES = {
    "anderson": lambda o: _checks("anderson", anderson, _coprime_pairs(o, 6, 20), cap=o["cap"], folds=o["folds"]),
    "armstrong": lambda o: _checks("armstrong", armstrong, _coprime_pairs(o, 6, 20), cap=o["cap"], folds=o["folds"]),
    "self-conjugate": lambda o: _checks(
        "self-conjugate", self_conjugate, _coprime_pairs(o, 6, 20), cap=o["cap"], folds=o["folds"]
    ),
    "quadratic": lambda o: _checks("quadratic", quadratic, _quadratic_params(o)),
    "oracle": lambda o: _checks("oracle", oracle, _coprime_pairs(o, 4, 9), cap=o["cap"]),
    "moments": lambda o: (
        _checks("moments", moments, _coprime_pairs(o, 5, 20), cap=o["cap"])
        + _checks(
            "moments-closed-form",
            moments_closed_form,
            ({"a": a, "b": b} for a in range(2, MOMENTS_SCALE_A_MAX + 1) for b in (a + 1, 2 * a + 1, 7 * a + 1)),
        )
    ),
    "statistics": lambda o: _checks("statistics", statistics, _coprime_pairs(o, 5, 13), cap=o["cap"]),
    "qt3": lambda o: _checks(
        "qt3",
        lambda b, cap: (qt.check_qt3_identity(b, cap), None),
        ({"b": b} for b in range(4, o.get("b_max", 20) + 1) if gcd(b, 3) == 1),
        cap=o["cap"],
    ),
    # proven for a = 3; a conjecture sweep beyond that
    "qt-symmetry": lambda o: _checks(
        "qt-symmetry",
        qt_symmetry,
        (p for p in _coprime_pairs(o, 5, 13) if p["a"] > 2),
        exploration=lambda p: p["a"] > 3,
        cap=o["cap"],
    ),
    "sizmaj1": lambda o: _checks("sizmaj1", lambda a: (qt.check_sizmaj1(a), None), _sizmaj1_params(o)),
    "sizmaj2": lambda o: _checks("sizmaj2", lambda n: (perms.check_sizmaj2(n), None), _ns(o)),
    "ld-weights": lambda o: _checks("ld-weights", lambda n: (perms.check_ld_weights(n), None), _ns(o)),
    "sqin": lambda o: _checks("sqin", lambda n: (perms.check_sqin_relation(n), None), _ns(o)),
    "coset-identities": lambda o: (
        _checks(
            "coset-identity-a3",
            lambda k, delta: (qpoly.check_coset_identity_a3(k, delta), None),
            ({"k": k, "delta": d} for k in range(1, o.get("k_max", 6) + 1) for d in (0, 1)),
        )
        + _checks(
            "coset-identity-a4",
            lambda k: (qpoly.check_coset_identity_a4(k), None),
            ({"k": k} for k in range(1, o.get("k_max", 6) + 1)),
        )
    ),
    "delta-table": lambda o: _checks(
        "delta-table",
        lambda a, b: (qt.delta_table_check(a, b), None),
        ({"a": a, "b": 2 * a + 1} for a in range(2, o.get("a_max", 5) + 1)),
    ),
    "reciprocity": lambda o: _checks(
        "reciprocity",
        lambda polytope: (RECIPROCITY_CASES[polytope](), None),
        ({"polytope": name} for name in RECIPROCITY_CASES),
    ),
    "root-structure": lambda o: _checks(
        "root-structure",
        lambda a, cap: (ehrhart.check_root_structure(a, cap), None),
        _root_structure_params(o),
        cap=o["cap"],
    ),
    "unimodality": lambda o: _checks(
        "unimodality",
        unimodality,
        (
            {"a": a, "b": b}
            for a in range(2, o.get("a_max", 5) + 1)
            for b in range(1, o.get("b_max", 30) + 1)
            if gcd(a, b) == 1
        ),
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
    if name == "all":
        return [check for key in sorted(SUITES) if key not in NOT_IN_ALL for check in SUITES[key](given)]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))} or 'all'")
    return SUITES[name](given)
