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
