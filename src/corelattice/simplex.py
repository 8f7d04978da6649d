"""The simplex of simultaneous (a,b)-cores inside the charge lattice.

For coprime ``a`` and ``b`` the b-cores among a-cores are the lattice
points satisfying ``c_{i+b} - c_i <= (b+i) div a`` (cyclic indices), a
rational simplex.  The change of variables

    ``z_i = x_{ib+k} - x_{(i+1)b+k} + b/a``,   ``2k = -(b+1) (mod a)``

identifies it with the nonnegative integer vectors summing to ``b`` whose
weighted sum ``sum i*z_i`` vanishes mod ``a`` (b-dimensional cyclic-group
representations with trivial determinant).  Enumeration walks the points of
that standard simplex with trivial determinant and maps each back, which
keeps the loops trivially bounded.  :func:`iter_cores` streams the walk, and
no command keeps a list of the cores.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from math import comb, gcd
from operator import add, itemgetter, sub

from . import partitions
from .abacus import core_beads, size_of_charges
from .errors import DEFAULT_CAP, CapExceededError


class SimplexSpec(namedtuple("SimplexSpec", "a b")):
    """Parameters (a, b) of a core simplex; a >= 2, b >= 1, gcd(a, b) = 1.

    A named tuple, validated when it is built: it compares and hashes as the
    pair ``(a, b)``, and its fields cannot be assigned.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int):
        if a < 2:
            raise ValueError("a must be >= 2")
        if b < 1:
            raise ValueError("b must be >= 1")
        if gcd(a, b) != 1:
            raise ValueError(f"a={a} and b={b} must be coprime")
        return super().__new__(cls, a, b)


def rational_catalan(a: int, b: int) -> int:
    """``binom(a+b, a) / (a+b)`` (an integer for coprime a, b)."""
    if gcd(a, b) != 1:
        raise ValueError(f"a={a} and b={b} must be coprime")
    n = comb(a + b, a)
    if n % (a + b):
        raise AssertionError("the rational Catalan number must be integral")
    return n // (a + b)


def _z_offset(a: int, b: int) -> int:
    """The index shift k with 2k = -(b+1) mod a."""
    if (b + 1) % 2 == 0:
        return (-(b + 1) // 2) % a
    return (-(b + 1) * pow(2, -1, a)) % a


def to_z(spec: SimplexSpec, tx) -> tuple[int, ...]:
    """Representation coordinates z of a point of the core simplex, from its shifted coordinates ``tx``.

    ``tx`` is the 2a-scaled tuple of :func:`~corelattice.abacus.shift`.  The
    result is nonnegative and sums to b, with trivial determinant:
    ``sum i*z_i = 0`` (mod a).  Raises ``ValueError`` when ``tx`` does not
    have a coordinates, or the point is off the charge lattice, outside the
    simplex or of nontrivial determinant.
    """
    a, b = spec.a, spec.b
    if len(tx) != a:
        raise ValueError(f"expected {a} coordinates, got {len(tx)}")
    k = _z_offset(a, b)
    z = []
    for i in range(a):
        num = tx[(i * b + k) % a] - tx[((i + 1) * b + k) % a] + 2 * b
        if num % (2 * a):
            raise ValueError("point does not lie on the charge lattice")
        v = num // (2 * a)
        if v < 0:
            raise ValueError("point lies outside the core simplex")
        z.append(v)
    if sum(i * v for i, v in enumerate(z)) % a:
        raise ValueError(f"determinant condition fails for {tuple(z)}")
    return tuple(z)


def capped_count(spec: SimplexSpec, cap: int) -> int:
    """Cat(a,b), once it is known not to exceed ``cap`` (else :class:`CapExceededError`).

    C(n+i, i), n = max(a,b), grows one exact factor at a time up to C(a+b, min(a,b)) = (a+b)·Cat(a,b),
    so the first past ``cap·(a+b)`` refuses without building Cat(a,b), which takes half a minute at
    a = 10^6.  Under the cap the count is :func:`rational_catalan`'s, the closed form the walk is checked against.
    """
    a, b = spec.a, spec.b
    binom = 1
    for i in range(1, min(a, b) + 1):
        binom = binom * (max(a, b) + i) // i
        if binom > cap * (a + b):
            raise CapExceededError(f"Cat({a},{b}) exceeds the cap of {cap}")
    return rational_catalan(a, b)


def _walk_constants(a: int, b: int) -> tuple[list[int], list[int]]:
    """The runner ``step[j]`` at step j of the cycle k, k+b, ... and the constant ``lift[j]`` of its charge.

    With P_j = z_0 + ... + z_{j-1} and w = sum(i z_i), the reference inverse
    of :func:`to_z` (``from_z`` in tests/reference.py) sets
    tx[step[j]] = (a-1)b - 2w + 2bj - 2a P_j, and its ``unshift`` divides
    tx[step[j]] - 2 step[j] + a - 1 = lift[j] - 2w - 2a P_j by 2a.  Once
    w = 0 (mod a) that numerator is lift[j] (mod 2a), so the lattice test is
    made here, once per (a,b), instead of once per core.
    """
    k = _z_offset(a, b)
    step = [(j * b + k) % a for j in range(a + 1)]
    lift = [(a - 1) * (b + 1) + 2 * b * j - 2 * step[j] for j in range(a)]
    if any(n % (2 * a) for n in lift):
        raise AssertionError(f"the z-walk of ({a},{b}) does not map to the charge lattice")
    return step, lift


def iter_cores(spec: SimplexSpec, cap: int = DEFAULT_CAP):
    """Yield every (a,b)-core as a ``(z, charges)`` pair of tuples, lexicographically by z.

    Once ``z_0 .. z_{a-3}`` are chosen, the determinant condition fixes
    ``z_{a-2}`` mod ``a`` (``z_{a-1}`` takes the rest of ``b``), so the walk
    steps ``z_{a-2}`` by ``a`` from that residue and never visits a rejected
    vector.  Each point is mapped to charges in plain integers, as the
    reference routes ``from_z`` and ``unshift`` (tests/reference.py) would, and
    mapped back through :func:`to_z`'s formula as a check.

    Raises :class:`CapExceededError` up front when the count exceeds ``cap``;
    the closed-form count is asserted once the stream is exhausted.
    """
    a, b = spec.a, spec.b
    count = capped_count(spec, cap)
    head = a - 2
    step, lift = _walk_constants(a, b)
    lift = [v // (2 * a) for v in lift]  # exact, as _walk_constants asserts
    to_runners = itemgetter(*(step.index(i) for i in range(a)))
    along_walk = itemgetter(*step)  # a + 1 charges: the cycle closes on its first runner
    # to_z on shift(charges) is z_j = c[step j] - c[step j+1] + (2(step j - step j+1) + 2b)/2a:
    # the shift's constant -(a-1) cancels in the differences, and the rest is one offset per step
    offsets = [2 * (step[j] - step[j + 1]) + 2 * b for j in range(a)]
    if any(v % (2 * a) for v in offsets):
        raise AssertionError(f"the to_z offsets of ({a},{b}) are not multiples of 2a")
    offsets = [v // (2 * a) for v in offsets]
    found = 0
    # The prefixes z_0 .. z_{head-1} with sum <= b are the bar positions of
    # stars and bars, in the same lexicographic order: P_j = bars[j-1] - (j-1).
    for bars in combinations(range(b + head), head):
        sums = [0, *map(sub, bars, range(head))]
        rest = b - sums[head]
        # sum(i z_i) over the prefix: z_i is counted in P_{i+1} .. P_head, head - i times
        weight = head * sums[head] - sum(sums)
        first = (weight + (a - 1) * rest) % a
        if first > rest:
            continue
        prefix = tuple(map(sub, sums[1:], sums))
        for zh in range(first, rest + 1, a):
            z = (*prefix, zh, rest - zh)
            w = weight + head * zh + (a - 1) * (rest - zh)
            if w % a:
                raise AssertionError(f"determinant condition fails for {z}")
            w //= a  # the charge at step j is lift[j] - w/a - P_j, with lift scaled down by 2a
            charges = to_runners([q - w - p for q, p in zip(lift, (*sums, sums[head] + zh))])
            if sum(charges):
                raise AssertionError(f"charges must sum to 0, got {charges}")
            walked = along_walk(charges)
            if tuple(map(add, map(sub, walked, walked[1:]), offsets)) != z:
                raise AssertionError(f"z recomputed from the charges disagrees with {z}")
            found += 1
            yield z, charges
    if found != count:
        raise AssertionError("enumeration disagrees with the closed-form count")


def core_moments(spec: SimplexSpec) -> tuple[int, int]:
    """The number of (a,b)-cores and the sum of their sizes, without visiting a core.

    In the walk of :func:`iter_cores` the charge on the runner at step j is
    ``n_j / 2a`` with ``n_j = κ_j + 2S - 2a P_j``, where P_j = z_0 + ... + z_{j-1},
    S = P_1 + ... + P_{a-1} and κ_j = lift[j] - 2(a-1)b.  The quadratic form
    ``(a/2) sum c_i^2 + sum i c_i`` then reads

        8a size = sum_j f_j(P_j) + (4K + 4a(a-1)) S - 4a S^2,
        f_j(P) = (κ_j - 2aP)^2 - 8a step_j P + 4 step_j κ_j,   K = sum_j κ_j.

    The cores are the paths 0 = P_0 <= P_1 <= ... <= P_{a-1} <= b with
    S = -b (mod a), but the sum can run over every path, that is every
    composition z of b into a parts, and divide by a.  For any composition,
    the offsets of the reference inverse of :func:`to_z` (``from_z`` in
    tests/reference.py) satisfy ``o_{j+1} = o_j + 2b - 2a z_j`` and
    ``o_a = 0``, and the right side above is ``8a`` times
    ``-(a^2-1)/24 + (a/2) sum x_i^2`` (``size_from_x`` there), which is
    symmetric in the coordinates.  Rotating z to ``(z_1, ..., z_{a-1}, z_0)``
    gives ``tx'[jb+k] = tx[(j+1)b+k]``, a permutation of the coordinates, so
    the value is constant on rotation orbits.  A rotation moves
    ``sum i z_i`` by -b (mod a), and gcd(a,b) = 1, so each orbit has exactly
    a members and exactly one core.

    A dynamic program over j = 1 .. a-1 on the states P_j carries four
    moments per state: the count, the sum of F_j = f_0(0) + ... + f_j(P_j),
    of S_j = P_1 + ... + P_j and of S_j^2.  A running sum over
    P_{j-1} <= P_j makes each step O(b), so the run is O(a b) integer
    operations however large Cat(a,b) is.

    Asserts that the paths number a·Cat(a,b) and that 8a^2 divides the size numerator.
    """
    a, b = spec.a, spec.b
    catalan = rational_catalan(a, b)
    step, lift = _walk_constants(a, b)
    kappa = [v - 2 * (a - 1) * b for v in lift]
    two_a = 2 * a
    # count[p], fsum[p], ssum[p], sqsum[p]: the paths with P_j = p
    count = [1] + [0] * b
    fsum = [kappa[0] * kappa[0] + 4 * step[0] * kappa[0]] + [0] * b
    ssum = [0] * (b + 1)
    sqsum = [0] * (b + 1)
    for j in range(1, a):
        kj, sj = kappa[j], step[j]
        n = f = s = q = 0
        # in place: the running sums read index p before it is overwritten
        for p in range(b + 1):
            n += count[p]
            f += fsum[p]
            s += ssum[p]
            q += sqsum[p]
            fp = (kj - two_a * p) ** 2 - 4 * two_a * sj * p + 4 * sj * kj
            count[p] = n
            fsum[p] = f + n * fp
            ssum[p] = s + n * p
            sqsum[p] = q + 2 * p * s + n * p * p
    n, f, s, q = sum(count), sum(fsum), sum(ssum), sum(sqsum)
    if n != a * catalan:
        raise AssertionError(f"moment recursion counts {n} paths at ({a},{b}), not a·Cat = {a * catalan}")
    numerator = f + (4 * sum(kappa) + 4 * a * (a - 1)) * s - 4 * a * q
    if numerator % (8 * a * a):
        raise AssertionError(f"moment recursion: 8a^2 does not divide the size numerator at ({a},{b})")
    return catalan, numerator // (8 * a * a)


def is_self_conjugate(c) -> bool:
    """True iff the charges ``c`` are fixed by the charge-lattice conjugation, ``c_i == -c_{-1-i}``: a self-conjugate core."""
    return all(v == -c[-1 - i] for i, v in enumerate(c))


def core_fold(spec: SimplexSpec, cap: int = DEFAULT_CAP) -> tuple[int, int, int, int]:
    """``(count, size_sum, self_conjugate_count, self_conjugate_size_sum)`` of the (a,b)-cores, in one walk.

    The walk is :func:`iter_cores`, with every check it makes; the sizes are
    the quadratic form on its plain charge tuples, so no object is built per core.
    """
    a = spec.a
    count = total = sc_count = sc_total = 0
    for _, c in iter_cores(spec, cap):
        size = size_of_charges(a, c)
        count += 1
        total += size
        if is_self_conjugate(c):
            sc_count += 1
            sc_total += size
    return count, total, sc_count, sc_total


def self_conjugate_count(a: int, b: int) -> int:
    """Closed form ``binom(floor(a/2) + floor(b/2), floor(a/2))``."""
    return comb(a // 2 + b // 2, a // 2)


def armstrong_ratio(a: int, b: int) -> tuple[int, int]:
    """Closed form ``(a+b+1)(a-1)(b-1)/24`` for the average core size, as the unreduced pair (numerator, 24)."""
    return (a + b + 1) * (a - 1) * (b - 1), 24


def armstrong_average(a: int, b: int):
    """:func:`armstrong_ratio` as a ``Fraction``."""
    from fractions import Fraction  # here, not at import: ``enumerate`` prints the ratio without loading it

    return Fraction(*armstrong_ratio(a, b))


CORE_FIELDS = ("charges", "z", "partition", "size", "length", "skew_length", "co_skew_length")


def core_record(spec: SimplexSpec, charges, z) -> tuple:
    """The per-core record exposed by the CLI: the values of :data:`CORE_FIELDS`, exact and JSON-serializable.

    ``charges`` and ``z`` are the core's tuples, as :func:`iter_cores` yields
    them.  The partition, its length, size and skew length all come from one
    beta-set bitset (:func:`~corelattice.abacus.core_beads`); the size is
    checked against the quadratic form ``(a/2) sum c_i^2 + sum i*c_i``.
    """
    a, b = spec.a, spec.b
    beads, rows = core_beads(a, charges)
    parts = partitions.parts_of_beads(beads)
    size = sum(parts)
    if size_of_charges(a, charges) != size:
        raise AssertionError("the quadratic form must equal the core size")
    sl = partitions.skew_length_of_beads(beads, a, b, rows)
    return list(charges), list(z), parts, size, len(parts), sl, (a - 1) * (b - 1) // 2 - sl
