"""The signed abacus: a-cores as points of the charge lattice.

An a-core corresponds to a runner assignment of the Maya diagram: the level
``m + 1/2`` sits on runner ``(-m - 1) mod a``, and the partition is an
a-core exactly when every runner is right-justified.  The charge ``c_i`` of
runner ``i`` determines the filled levels ``{k*a - i - 1 : k <= -c_i}`` (in
the integer encoding of :mod:`corelattice.partitions`), and the charges sum
to zero.  :func:`core_beads` builds the core's beta-set from its charges as
the bitset that :mod:`corelattice.partitions` shares, one comb of beads per
runner, and every statistic of an enumerated core is read from that bitset,
the package's one form of a beta-set.  :func:`charges_from_core` counts the
charges back from the parts.

Two coordinate systems are used throughout, both as plain int tuples:

* charge coordinates ``c`` (``a`` integers summing to 0);
* shifted coordinates ``x_i = c_i + i/a - (a-1)/(2a)``, stored exactly as
  the integers ``2a * x_i`` so that the simplex inequalities, the size
  formula, and the floor formulas for statistics all run in pure integer
  arithmetic.

:func:`core_from_charges` and :func:`shift` take charges from a caller and
check them; the enumeration kernel has already asserted its charges' sum.
"""

from __future__ import annotations

from operator import mul

from .partitions import Parts, is_core, parts_of_beads


def _require_charges(a: int, c) -> None:
    """Raise ``ValueError`` unless ``c`` is ``a >= 2`` runner charges summing to zero."""
    if a < 2:
        raise ValueError("a must be >= 2")
    if len(c) != a:
        raise ValueError(f"expected {a} charges, got {len(c)}")
    if sum(c) != 0:
        raise ValueError(f"charges must sum to 0, got {tuple(c)}")


def shift(a: int, c) -> tuple[int, ...]:
    """Shifted coordinates ``x_i = c_i + i/a - (a-1)/(2a)`` of the charges ``c``, as the integers ``2a * x_i``."""
    _require_charges(a, c)
    return tuple(2 * a * ci + 2 * i - (a - 1) for i, ci in enumerate(c))


# a -> (span, the comb (2^span - 1) / (2^a - 1) of span/a bits spaced a apart).  Shifted down by span - (a*k + lo)
# it is its top k bits, the lowest at bit lo < a.  Built on first use; replaced whole, doubled, when it is too short.
_COMBS: dict[int, tuple[int, int]] = {}


def core_beads(a: int, c) -> tuple[int, list[int]]:
    """The beta-set of the a-core with charges ``c`` as a bitset, and the bits of its a-rows.

    Runner ``i`` is filled from level ``t_i = -a*c_i - i - 1`` downwards.
    Every level below the lowest empty one, ``min(t) + a``, is filled, so the
    beads are the levels above it, on runner ``i`` a run of ``k`` of them
    ``a`` apart: one comb ``(2^(a*k) - 1) / (2^a - 1)``, shifted so that the
    lowest empty level is bit 0.  At charge zero there are exactly as many
    beads as the core has parts (asserted: the popcount is minus the lowest
    empty level), so the bitset is :func:`~corelattice.partitions.beads_of_parts`
    of its parts.  The top bead of each runner has an empty level ``a``
    above it, so the runner tops are the a-rows.
    """
    tops = [-a * ci - i - 1 for i, ci in enumerate(c)]
    below = min(tops)  # a under the lowest empty level
    span, comb = _COMBS.get(a, (0, 0))
    beads = 0
    rows = []
    for t in tops:
        d = t - below  # a*k + lo: k beads on this runner, the lowest at bit lo
        if d >= a:
            if d > span:
                span = 2 * (d - d % a)
                comb = ((1 << span) - 1) // ((1 << a) - 1)
                _COMBS[a] = span, comb
            beads |= comb >> span - d
            rows.append(d - a)
    if beads.bit_count() != -(below + a):
        raise AssertionError("abacus bookkeeping is inconsistent")
    return beads, rows


def core_from_charges(a: int, c) -> Parts:
    """The a-core with charges ``c``, by direct abacus simulation (:func:`core_beads`)."""
    _require_charges(a, c)
    return tuple(parts_of_beads(core_beads(a, c)[0]))


def charges_from_core(parts: Parts, a: int) -> tuple[int, ...]:
    """Runner charges of an a-core, as bead counts; raises ``ValueError`` if not an a-core.

    Below level ``-n`` (``n`` parts) the core and the vacuum are both filled,
    so the charge of runner ``i`` is the vacuum's beads on it among the
    levels ``-1 ... -n`` less the core's beads on it above ``-n``.  The part
    ``v`` in 0-based row ``k`` pairs the vacuum level ``-k-1``, on runner
    ``k mod a``, with the core's level ``v-k-1``, on runner ``(k-v) mod a``.

    >>> charges_from_core((3, 1, 1), 3)
    (-1, 0, 1)
    >>> core_from_charges(3, _)
    (3, 1, 1)
    """
    if a < 2:
        raise ValueError("a must be >= 2")
    if not is_core(parts, a):
        raise ValueError(f"partition {parts} is not a {a}-core")
    c = [0] * a
    for k, v in enumerate(parts):
        c[k % a] += 1
        c[(k - v) % a] -= 1
    return tuple(c)


def size_of_charges(a: int, c) -> int:
    """Size of the a-core with charges ``c``, as the quadratic form ``(a/2) sum c_i^2 + sum i*c_i``."""
    num = a * sum(map(mul, c, c)) + 2 * sum(map(mul, range(a), c))
    if num % 2:
        raise AssertionError("quadratic form must be integral")
    return num // 2
