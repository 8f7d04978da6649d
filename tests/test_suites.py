"""Verification suites: what a check catches when the enumeration goes wrong."""

import dataclasses
from collections import Counter

import pytest

from corelattice import cli, perms, simplex, suites
from corelattice.abacus import size_of_charges
from corelattice.errors import CapExceededError
from corelattice.simplex import DEFAULT_CAP


def build(name, **given):
    bounds = dict(a_max=None, b_max=None, n_max=None, k_max=None, radius=None, cap=DEFAULT_CAP)
    return suites.build_suite(name, **{**bounds, **given})


def test_a_check_stays_a_dataclass():
    # perfbench/tracer.py wraps each check's run with dataclasses.replace; a named tuple would break the traced runs
    (check,) = build("oracle", a_max=2, b_max=3)
    assert dataclasses.is_dataclass(suites.Check) and dataclasses.replace(check, name="x").run() == check.run()


def test_oracle_catches_a_dropped_largest_core(monkeypatch):
    (check,) = [c for c in build("oracle", a_max=4, b_max=7) if c.params == {"a": 4, "b": 7}]
    assert check.run() == (True, {"count": 30, "max_size": 30})
    real = suites.enumerate_cores

    def without_largest(spec, cap):
        cores = real(spec, cap)
        largest = max(cores, key=lambda c: size_of_charges(spec.a, c))
        return [c for c in cores if c != largest]

    monkeypatch.setattr(suites, "enumerate_cores", without_largest)
    ok, detail = check.run()
    assert not ok
    assert detail["count"] == 29


def test_moments_catches_a_dropped_largest_core(monkeypatch):
    checks = build("moments", a_max=4, b_max=7)
    (check,) = [c for c in checks if c.name == "moments" and c.params == {"a": 4, "b": 7}]
    assert check.run() == (True, {"count": 30, "total": 270})
    real = simplex.iter_cores

    def without_largest(spec, cap=DEFAULT_CAP):
        cores = list(real(spec, cap))
        largest = max(cores, key=lambda zc: size_of_charges(spec.a, zc[1]))
        return iter([zc for zc in cores if zc != largest])

    monkeypatch.setattr(simplex, "iter_cores", without_largest)
    assert check.run() == (False, {"count": 29, "total": 240})


FOLD_SUITES = ("anderson", "armstrong", "self-conjugate")


@pytest.mark.parametrize("name", FOLD_SUITES)
def test_fold_suites_catch_a_dropped_largest_core(monkeypatch, name):
    def check_4_7():
        (check,) = [c for c in build(name, a_max=4, b_max=7) if c.params == {"a": 4, "b": 7}]
        return check

    assert check_4_7().run()[0]
    real = simplex.iter_cores

    def without_largest(spec, cap=DEFAULT_CAP):
        cores = list(real(spec, cap))
        largest = max(cores, key=lambda zc: size_of_charges(spec.a, zc[1]))
        return iter([zc for zc in cores if zc != largest])

    monkeypatch.setattr(simplex, "iter_cores", without_largest)
    # a fresh build walks again, so the fault is seen
    ok, detail = check_4_7().run()
    assert not ok
    assert detail == {"anderson": None, "armstrong": {"total": 240}, "self-conjugate": {"count": 9}}[name]


def test_fold_suites_walk_each_pair_once_per_build(monkeypatch):
    walks = Counter()
    real = simplex.iter_cores

    def counted(spec, cap=DEFAULT_CAP):
        walks[spec.a, spec.b] += 1
        return real(spec, cap)

    monkeypatch.setattr(simplex, "iter_cores", counted)
    checks = [c for c in build("all") if c.name in FOLD_SUITES]
    assert all(c.run()[0] for c in checks)
    pairs = {(c.params["a"], c.params["b"]) for c in checks}
    assert len(pairs) == 46 and len(checks) == 3 * 46  # coprime 2 <= a < b, a <= 6, b <= 20
    assert walks == Counter(dict.fromkeys(pairs, 1))
    # the memo lives for one build only: the next one walks again
    assert all(c.run()[0] for c in build("anderson", a_max=3, b_max=5))
    assert walks[3, 4] == walks[3, 5] == 2


@pytest.mark.parametrize("fn", [suites.anderson, suites.armstrong, suites.self_conjugate])
def test_fold_suites_check_the_cap_before_the_memo(fn):
    folds = {(3, 4): (5, 10, 3, 6)}
    assert fn(3, 4, cap=5, folds=folds)[0]
    with pytest.raises(CapExceededError, match="Cat\\(3,4\\) = 5 exceeds the cap of 4"):
        fn(3, 4, cap=4, folds=folds)


def test_moments_closed_form_rows_pass_beyond_the_cap():
    rows = [c for c in build("moments", a_max=0, b_max=0) if c.params["a"] <= 12]
    assert {c.name for c in rows} == {"moments-closed-form"}
    assert {(12, 85)} <= {(c.params["a"], c.params["b"]) for c in rows}
    assert all(c.run() == (True, None) for c in rows)


def test_suite_names_come_from_the_registry():
    assert cli.SUITE_NAMES == (*suites.SUITES, "all")
    names = {c.name for c in build("all")}
    assert not names & {"moments", "moments-closed-form", "oracle"}
    assert {"anderson", "root-structure", "coset-identity-a3"} <= names


@pytest.mark.parametrize("name", ["sizmaj2", "ld-weights", "sqin"])
def test_n_max_above_the_brute_force_ceiling_is_refused_before_any_check(monkeypatch, name):
    def walked(*args):
        raise AssertionError("no permutation may be visited")

    monkeypatch.setattr(perms, "_permutations", walked)
    monkeypatch.setattr(perms, "_ld_tree", walked)
    cap = perms.DISTRIBUTION_CAP
    with pytest.raises(CapExceededError, match=f"n={cap + 1} exceeds the brute-force cap of {cap}"):
        build(name, n_max=cap + 1)
    with pytest.raises(CapExceededError, match=f"n={cap + 1} exceeds the brute-force cap of {cap}"):
        perms.check_ld_weights(cap + 1)
    assert [c.params["n"] for c in build(name, n_max=cap)] == list(range(1, cap + 1))


@pytest.mark.parametrize("name", ["sizmaj2", "ld-weights", "sqin"])
def test_n_max_whose_permutations_exceed_the_cap_is_refused_before_any_check(monkeypatch, name):
    def walked(*args):
        raise AssertionError("no permutation may be visited")

    monkeypatch.setattr(perms, "_ld_tree", walked)
    with pytest.raises(CapExceededError, match="n=8 has 40320 permutations, over the cap of 40319"):
        build(name, n_max=8, cap=40319)
    assert len(build(name, n_max=8, cap=40320)) == 8
    # a cap above 10! never lifts the ceiling of 9
    with pytest.raises(CapExceededError, match="n=10 exceeds the brute-force cap of 9"):
        build(name, n_max=10, cap=10**12)
