"""Simultaneous (a,b)-core partitions as lattice points, in exact arithmetic.

The package enumerates simultaneous cores through the signed abacus, checks
their size and boundary statistics against partition-level definitions,
builds the associated q- and (q,t)-rational Catalan polynomials, and fits
the count/size quasipolynomials that explain the classical enumeration
formulas.  Everything runs over exact integers and rationals.

A name below loads its home module on first use, so ``import corelattice``
loads no submodule and each command imports only what it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the module that defines it
_HOMES = {
    "ChargeVector": "abacus", "ShiftedPoint": "abacus", "charges_from_core": "abacus",
    "core_from_charges": "abacus", "shift": "abacus", "size_quadratic": "abacus",
    "CapExceededError": "errors", "FitValidationError": "errors",
    "is_core": "partitions", "skew_length": "partitions",
    "LaurentPoly": "polys",
    "cat_q": "qpoly", "q_binomial": "qpoly", "q_int": "qpoly", "search_age_function": "qpoly",
    "unimodality_report": "qpoly",
    "cat_qt": "qt", "length_from_x": "qt", "skew_length_from_x": "qt",
    "RepVector": "simplex", "SimplexSpec": "simplex", "armstrong_average": "simplex", "enumerate_cores": "simplex",
    "rational_catalan": "simplex",
}

__all__ = [*sorted(_HOMES), "__version__"]


def __getattr__(name):
    # not cached in the package globals: a caller always sees the home module's current binding
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
