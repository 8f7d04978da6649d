"""Verification suites: what a check catches when the enumeration goes wrong."""

import dataclasses
import re
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
def test_fold_suites_check_the_cap_before_the_memo(monkeypatch, fn):
    # the build sums Cat(2,3) + Cat(3,4) = 2 + 5 = 7 cores before any walk fills the memo
    walks = Counter()
    real = simplex.iter_cores

    def counted(spec, cap=DEFAULT_CAP):
        walks[spec.a, spec.b] += 1
        return real(spec, cap)

    monkeypatch.setattr(simplex, "iter_cores", counted)
    name = fn.__name__.replace("_", "-")
    with pytest.raises(CapExceededError, match=re.escape(f"{name}(a=3, b=4) brings the cores to 7, over the cap of 6")):
        build(name, a_max=3, b_max=4, cap=6)
    assert not walks
    assert all(c.run()[0] for c in build(name, a_max=3, b_max=4, cap=7))
    assert walks == Counter({(2, 3): 1, (3, 4): 1})


def test_all_sums_each_unit_across_its_suites():
    # at the default bounds each fold suite declares 22,911 cores, and the suites of `all` 73,007 together
    with pytest.raises(CapExceededError, match=re.escape("anderson(a=6, b=19) brings the cores to 22911,")):
        build("anderson", cap=22910)
    for name in ("anderson", "armstrong", "self-conjugate", "statistics", "qt3", "qt-symmetry"):
        assert len(build(name, cap=73006)) == len(build(name))
    # quadratic's 1,951,380 abacus beads would pass a cap of 73,006 first; at radius 1 they are 4,008
    message = "statistics(a=5, b=13) brings the cores to 73007, over the cap of 73006"
    with pytest.raises(CapExceededError, match=re.escape(message)):
        build("all", radius=1, cap=73006)
    assert len(build("all", radius=1, cap=73007)) == len(build("all")) == 330
    message = "quadratic(a=6, radius=4) brings the abacus beads to 1951380, over the cap of 1951379"
    with pytest.raises(CapExceededError, match=re.escape(message)):
        build("all", cap=1951379)
    assert len(build("all", cap=1951380)) == 330


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
    # the suite walks 1! + ... + 8! = 46233 permutations up to n = 8
    message = f"{name}(n=8) brings the permutations to 46233, over the cap of 46232"
    with pytest.raises(CapExceededError, match=re.escape(message)):
        build(name, n_max=8, cap=46232)
    assert len(build(name, n_max=8, cap=46233)) == 8
    # a cap above 10! never lifts the ceiling of 9
    with pytest.raises(CapExceededError, match="n=10 exceeds the brute-force cap of 9"):
        build(name, n_max=10, cap=10**12)
