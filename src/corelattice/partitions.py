"""Integer partitions, beta-sets, core tests and core statistics.

Partitions are plain tuples of weakly decreasing positive integers
(``(3, 2, 2, 1)``); the empty partition is ``()``.  Everything here is the
partition-level ground truth that the lattice machinery in the rest of the
package is checked against, so the implementations favor directness over
cleverness.

The Maya diagram of a partition is encoded through its set of filled
energy levels.  We index the level ``m + 1/2`` by the integer ``m``; for a
partition ``p`` of length ``L`` at charge ``c`` the filled levels are
``{p[i] - (i+1) - c}`` together with every ``m <= -L-1-c``.

At charge 0 the levels above that tail form the beta-set: one level per
part, all above the empty level ``-L``, the k-th largest being
``p[k-1] - k``.  Its one form in the package is an int bitset, bit ``m + L``
for each level ``m`` (bit 0 is the empty level ``-L``), which
:func:`beads_of_parts` builds from the parts.
:func:`corelattice.abacus.core_beads` builds an enumerated core's bitset
straight from its charges; :func:`parts_of_beads` reads its parts, and
:func:`skew_length_of_beads` runs the a-core and b-core tests and counts
the skew length on it.  :func:`is_core` and :func:`skew_length` take the
bitset of their ``parts``.

First-row lemma: deleting the first row of a partition leaves every other
cell's arm and leg unchanged, so the hooks of the shorter partition are a
sub-multiset of the original hooks, and the rest of a t-core is a t-core.
The brute-force oracle grows cores one row at a time on this basis.
"""

from __future__ import annotations

from itertools import accumulate
from math import gcd

Parts = tuple[int, ...]


def beads_of_parts(parts: Parts) -> int:
    """The beta-set of ``parts`` as a bitset: bit ``p_k - k + n`` for the k-th of its ``n`` parts.

    Bit 0 is the empty level ``-n``; the filled tail below it has no bits,
    so ``beads >> t & ~beads`` is the set of empty levels lying ``t`` under
    a bead: the hooks of length ``t``.

    >>> bin(beads_of_parts((3, 1, 1)))
    '0b100110'
    """
    top = len(parts) - 1
    beads = 0
    for k, v in enumerate(parts):
        beads |= 1 << (v + top - k)
    return beads


def parts_of_beads(beads: int) -> list[int]:
    """The parts of the beta-set bitset ``beads`` (:func:`beads_of_parts`), largest first.

    The part of a bead is the number of empty levels below it, down to the
    empty bit 0, so the parts are the suffix sums of the runs of zeros that
    follow each ``1`` of ``bin(beads)``.  A list, as the enumeration records
    hold it: a tuple per core fills CPython's tuple free lists, which raised
    the peak RSS of ``enumerate 7 24`` from 17.7 to 21.4 MB.

    >>> parts_of_beads(beads_of_parts((3, 1, 1)))
    [3, 1, 1]
    """
    parts = list(accumulate(map(len, bin(beads).split("1")[:0:-1])))
    parts.reverse()
    return parts


def is_core(parts: Parts, a: int) -> bool:
    """True iff no cell has hook length exactly ``a``.

    A hook of length ``a`` exists iff some filled level ``m`` has ``m - a``
    empty, so it suffices to check ``m - a`` for the finitely many filled
    levels above the tail.
    """
    if a < 1:
        raise ValueError("a must be >= 1")
    beads = beads_of_parts(parts)
    return not beads >> a & ~beads


def skew_length(parts: Parts, a: int, b: int) -> int:
    """Number of cells lying in an a-row and having hook length below ``b``.

    Defined for simultaneous (a,b)-cores with coprime a and b; raises
    ``ValueError`` otherwise.

    >>> skew_length((9, 7, 5, 3, 2, 2, 1, 1), 3, 11)
    9
    """
    if gcd(a, b) != 1:
        raise ValueError("a and b must be coprime")
    return skew_length_of_beads(beads_of_parts(parts), a, b)


def skew_length_of_beads(beads: int, a: int, b: int, rows=None) -> int:
    """:func:`skew_length` of the (a,b)-core whose beta-set bitset is ``beads``.

    Raises ``ValueError`` unless the bitset is an a-core and a b-core.  The
    a-rows are the rows of the top bead in each class mod a, the beads ``m``
    with ``m + a`` empty (in an a-core the longest row of a class is unique:
    ``a+1`` consecutive equal parts would force a hook of length ``a``).
    ``rows`` lists their bits, as :func:`~corelattice.abacus.core_beads`
    reads them off the runner tops; when it is not given, the bitset is
    scanned for them.  The cells of the row at bit ``m`` are the empty bits
    below ``m``, with hook ``m - bit``, so the row adds the empty bits in
    ``[m - b + 1, m)`` down to bit 0.
    """
    if beads >> a & ~beads or beads >> b & ~beads:
        raise ValueError("skew length is only defined for (a,b)-cores")
    if rows is None:
        rows = [m for m, bit in enumerate(bin(beads & ~(beads >> a))[:1:-1]) if bit == "1"]
    total = 0
    for top in rows:
        lo = top - b + 1 if top >= b else 0
        total += top - lo - (beads & ((1 << top) - (1 << lo))).bit_count()
    return total


def brute_force_simultaneous_cores(a: int, b: int, max_size: int) -> list[Parts]:
    """All (a,b)-cores of size at most ``max_size``, by exhaustive search, in no set order.

    Deliberately independent of the abacus machinery; this is the oracle the
    simplex enumeration is tested against.  By the first-row lemma these cores
    form a tree rooted at ``()``: the children of ``mu`` are ``(k, *mu)`` for
    ``mu[0] <= k <= max_size - |mu|``.  The search tests every candidate whole
    with :func:`is_core` and expands only the cores, so it tests at most
    ``1 + (#cores) * max_size`` candidates.
    """
    found = []
    stack = [()] if max_size >= 0 else []
    while stack:
        mu = stack.pop()
        if is_core(mu, a) and is_core(mu, b):
            found.append(mu)
            stack.extend((k, *mu) for k in range(mu[0] if mu else 1, max_size - sum(mu) + 1))
    return found
