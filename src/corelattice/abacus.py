"""The signed abacus: a-cores as points of the charge lattice.

An a-core corresponds to a runner assignment of the Maya diagram: the level
``m + 1/2`` sits on runner ``(-m - 1) mod a``, and the partition is an
a-core exactly when every runner is right-justified.  The charge ``c_i`` of
runner ``i`` determines the filled levels ``{k*a - i - 1 : k <= -c_i}`` (in
the integer encoding of :mod:`corelattice.partitions`), and the charges sum
to zero.  :func:`core_beads` builds the core's beta-set from its charges as
the bitset that :mod:`corelattice.partitions` shares, one comb of beads per
runner, and every statistic of an enumerated core is read from that bitset.

Two coordinate systems are used throughout:

* charge coordinates ``c`` (integers summing to 0);
* shifted coordinates ``x_i = c_i + i/a - (a-1)/(2a)``, stored exactly as
  the integers ``2a * x_i`` so that the simplex inequalities, the size
  formula, and the floor formulas for statistics all run in pure integer
  arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .partitions import Parts, _bead_mask, beta_set, parts_of_beads


@dataclass(frozen=True)
class ChargeVector:
    """A point of the charge lattice: ``a`` runner charges summing to zero."""

    a: int
    c: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(int(v) for v in self.c))
        if self.a < 2:
            raise ValueError("a must be >= 2")
        if len(self.c) != self.a:
            raise ValueError(f"expected {self.a} charges, got {len(self.c)}")
        if sum(self.c) != 0:
            raise ValueError(f"charges must sum to 0, got {self.c}")


@dataclass(frozen=True)
class ShiftedPoint:
    """A point in shifted coordinates, stored as the integers ``2a * x_i``.

    Only ``sum(x) == 0`` is enforced: besides charge-lattice points the
    statistics formulas are also evaluated on rotated-lattice points, whose
    coordinates carry other fractional parts.
    """

    a: int
    tx: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "tx", tuple(int(v) for v in self.tx))
        if self.a < 2:
            raise ValueError("a must be >= 2")
        if len(self.tx) != self.a:
            raise ValueError(f"expected {self.a} coordinates, got {len(self.tx)}")
        if sum(self.tx) != 0:
            raise ValueError("shifted coordinates must sum to 0")


def shift(cv: ChargeVector) -> ShiftedPoint:
    """Shifted coordinates ``x_i = c_i + i/a - (a-1)/(2a)`` of a charge vector."""
    a = cv.a
    return ShiftedPoint(a, tuple(2 * a * ci + 2 * i - (a - 1) for i, ci in enumerate(cv.c)))


# a -> the combs (2^(a*k) - 1) / (2^a - 1), k bits spaced a apart, for k below the list's length.  Built
# on first use and replaced whole when a longer one is needed, never mutated, so every caller reads a full table.
_COMBS: dict[int, list[int]] = {}


def core_beads(a: int, c) -> tuple[int, list[int]]:
    """The beta-set of the a-core with charges ``c`` as a bitset, and the bits of its a-rows.

    Runner ``i`` is filled from level ``t_i = -a*c_i - i - 1`` downwards.
    Every level below the lowest empty one, ``min(t) + a``, is filled, so the
    beads are the levels above it, on runner ``i`` a run of ``k`` of them
    ``a`` apart: one comb ``(2^(a*k) - 1) / (2^a - 1)``, shifted so that the
    lowest empty level is bit 0.  At charge zero there are exactly as many
    beads as the core has parts (asserted: the popcount is minus the lowest
    empty level), so the bitset is :func:`~corelattice.partitions._bead_mask`
    of the beta-set.  The top bead of each runner has an empty level ``a``
    above it, so the runner tops are the a-rows.
    """
    tops = [-a * ci - i - 1 for i, ci in enumerate(c)]
    below = min(tops)  # a under the lowest empty level
    combs = _COMBS.get(a, ())
    beads = 0
    rows = []
    for t in tops:
        k, lo = divmod(t - below, a)
        if k:
            if k >= len(combs):
                combs = _COMBS[a] = [((1 << a * j) - 1) // ((1 << a) - 1) for j in range(2 * k)]
            beads |= combs[k] << lo
            rows.append(t - below - a)
    if beads.bit_count() != -(below + a):
        raise AssertionError("abacus bookkeeping is inconsistent")
    return beads, rows


def core_from_charges(cv: ChargeVector) -> Parts:
    """The a-core of a charge vector, by direct abacus simulation (:func:`core_beads`)."""
    return tuple(parts_of_beads(core_beads(cv.a, cv.c)[0]))


def charges_from_core(parts: Parts, a: int) -> ChargeVector:
    """Runner charges of an a-core, as bead counts; raises ``ValueError`` if not an a-core.

    Below level ``-n`` (``n`` parts) the core and the vacuum are both filled,
    so the charge of runner ``i`` is the vacuum's beads on it among the
    levels ``-1 ... -n`` less the core's beads on it above ``-n``.

    >>> charges_from_core((3, 1, 1), 3)
    ChargeVector(a=3, c=(-1, 0, 1))
    >>> core_from_charges(_)
    (3, 1, 1)
    """
    if a < 2:
        raise ValueError("a must be >= 2")
    levels = beta_set(parts)
    beads = _bead_mask(levels)
    if beads >> a & ~beads:  # a hook of length a, as in is_core
        raise ValueError(f"partition {parts} is not a {a}-core")
    c = [len(range(i, len(parts), a)) for i in range(a)]  # level m = -j - 1 lies on runner j mod a
    for m in levels:
        c[(-m - 1) % a] -= 1
    return ChargeVector(a, tuple(c))


def size_quadratic(cv: ChargeVector) -> int:
    """Size of the core as the quadratic form ``(a/2) sum c_i^2 + sum i*c_i``."""
    return size_of_charges(cv.a, cv.c)


def size_of_charges(a: int, c) -> int:
    """:func:`size_quadratic` of the plain charges ``c``, with no :class:`ChargeVector` built."""
    num = a * sum(map(mul, c, c)) + 2 * sum(map(mul, range(a), c))
    if num % 2:
        raise AssertionError("quadratic form must be integral")
    return num // 2
