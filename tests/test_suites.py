"""Verification suites: what a check catches when the enumeration goes wrong."""

from corelattice import suites
from corelattice.abacus import size_quadratic
from corelattice.simplex import DEFAULT_CAP


def test_oracle_catches_a_dropped_largest_core(monkeypatch):
    (check,) = [c for c in suites.oracle_suite(4, 7, DEFAULT_CAP) if c.params == {"a": 4, "b": 7}]
    assert check.run() == (True, {"count": 30, "max_size": 30})
    real = suites.enumerate_cores

    def without_largest(spec, cap):
        cores = real(spec, cap)
        largest = max(cores, key=size_quadratic)
        return [cv for cv in cores if cv != largest]

    monkeypatch.setattr(suites, "enumerate_cores", without_largest)
    ok, detail = check.run()
    assert not ok
    assert detail["count"] == 29


def test_moments_catches_a_dropped_largest_core(monkeypatch):
    checks = suites.moments_suite(4, 7, DEFAULT_CAP)
    (check,) = [c for c in checks if c.name == "moments" and c.params == {"a": 4, "b": 7}]
    assert check.run() == (True, {"count": 30, "total": 270})
    real = suites.enumerate_cores

    def without_largest(spec, cap):
        cores = real(spec, cap)
        largest = max(cores, key=size_quadratic)
        return [cv for cv in cores if cv != largest]

    monkeypatch.setattr(suites, "enumerate_cores", without_largest)
    assert check.run() == (False, {"count": 29, "total": 240})


def test_moments_closed_form_rows_pass_beyond_the_cap():
    rows = [c for c in suites.moments_suite(0, 0, DEFAULT_CAP) if c.params["a"] <= 12]
    assert {c.name for c in rows} == {"moments-closed-form"}
    assert {(12, 85)} <= {(c.params["a"], c.params["b"]) for c in rows}
    assert all(c.run() == (True, None) for c in rows)


def test_suite_names_come_from_the_registry():
    assert suites.SUITE_NAMES == (*suites.SUITES, "all")
    bounds = dict(a_max=None, b_max=None, n_max=None, k_max=None, radius=None, cap=DEFAULT_CAP)
    names = {c.name for c in suites.build_suite("all", **bounds)}
    assert not names & {"moments", "moments-closed-form", "oracle"}
    assert {"anderson", "root-structure", "coset-identity-a3"} <= names
