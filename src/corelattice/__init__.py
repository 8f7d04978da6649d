"""Simultaneous (a,b)-core partitions as lattice points, in exact arithmetic.

The package enumerates simultaneous cores through the signed abacus, checks
their size and boundary statistics against partition-level definitions,
builds the associated q- and (q,t)-rational Catalan polynomials, and fits
the count/size quasipolynomials that explain the classical enumeration
formulas.  Everything runs over exact integers and rationals.
"""

from .abacus import (
    ChargeVector,
    ShiftedPoint,
    charges_from_core,
    core_from_charges,
    shift,
    size_quadratic,
    unshift,
    zero_charges,
)
from .errors import CapExceededError, FitValidationError
from .partitions import (
    Cell,
    MayaState,
    conjugate,
    from_maya,
    hook_lengths,
    is_core,
    skew_length,
    to_maya,
)
from .polys import LaurentPoly
from .qpoly import cat_q, q_binomial, q_factorial, q_int, search_age_function, unimodality_report
from .qt import cat_qt, length_from_x, skew_length_from_x
from .simplex import (
    RepVector,
    SimplexSpec,
    armstrong_average,
    contains,
    enumerate_cores,
    enumerate_self_conjugate,
    rational_catalan,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "Cell",
    "ChargeVector",
    "FitValidationError",
    "LaurentPoly",
    "MayaState",
    "RepVector",
    "ShiftedPoint",
    "SimplexSpec",
    "armstrong_average",
    "cat_q",
    "cat_qt",
    "charges_from_core",
    "conjugate",
    "contains",
    "core_from_charges",
    "enumerate_cores",
    "enumerate_self_conjugate",
    "from_maya",
    "hook_lengths",
    "is_core",
    "length_from_x",
    "q_binomial",
    "q_factorial",
    "q_int",
    "rational_catalan",
    "search_age_function",
    "shift",
    "size_quadratic",
    "skew_length",
    "skew_length_from_x",
    "to_maya",
    "unimodality_report",
    "unshift",
    "zero_charges",
    "__version__",
]
