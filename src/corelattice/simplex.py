"""The simplex of simultaneous (a,b)-cores inside the charge lattice.

For coprime ``a`` and ``b`` the b-cores among a-cores are the lattice
points satisfying ``c_{i+b} - c_i <= (b+i) div a`` (cyclic indices), a
rational simplex.  The change of variables

    ``z_i = x_{ib+k} - x_{(i+1)b+k} + b/a``,   ``2k = -(b+1) (mod a)``

identifies it with the nonnegative integer vectors summing to ``b`` whose
weighted sum ``sum i*z_i`` vanishes mod ``a`` (b-dimensional cyclic-group
representations with trivial determinant).  Enumeration walks the points of
that standard simplex with trivial determinant and maps each back, which
keeps the loops trivially bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from operator import add, mul, sub

from . import partitions
from .abacus import ChargeVector, ShiftedPoint, filled_levels, size_of_charges
from .errors import CapExceededError

DEFAULT_CAP = 10_000_000


@dataclass(frozen=True)
class SimplexSpec:
    """Parameters (a, b) of a core simplex; a >= 2, b >= 1, gcd(a, b) = 1."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 2:
            raise ValueError("a must be >= 2")
        if self.b < 1:
            raise ValueError("b must be >= 1")
        if gcd(self.a, self.b) != 1:
            raise ValueError(f"a={self.a} and b={self.b} must be coprime")


@dataclass(frozen=True)
class RepVector:
    """Multiplicities of a trivial-determinant representation: z >= 0, sum i*z_i = 0 mod a."""

    z: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(int(v) for v in self.z))
        a = len(self.z)
        if a < 2:
            raise ValueError("need at least two coordinates")
        if any(v < 0 for v in self.z):
            raise ValueError(f"multiplicities must be nonnegative, got {self.z}")
        if sum(i * v for i, v in enumerate(self.z)) % a:
            raise ValueError(f"determinant condition fails for {self.z}")

    @property
    def a(self) -> int:
        return len(self.z)

    @property
    def b(self) -> int:
        return sum(self.z)


def rational_catalan(a: int, b: int) -> int:
    """``binom(a+b, a) / (a+b)`` (an integer for coprime a, b)."""
    if gcd(a, b) != 1:
        raise ValueError(f"a={a} and b={b} must be coprime")
    n = comb(a + b, a)
    if n % (a + b):
        raise AssertionError("the rational Catalan number must be integral")
    return n // (a + b)


def contains(spec: SimplexSpec, cv: ChargeVector) -> bool:
    """Membership test via the cyclic charge inequalities."""
    a, b = spec.a, spec.b
    if cv.a != a:
        raise ValueError("charge vector has a different modulus")
    c = cv.c
    return all(c[(i + b) % a] - c[i] <= (b + i) // a for i in range(a))


def _z_offset(a: int, b: int) -> int:
    """The index shift k with 2k = -(b+1) mod a."""
    if (b + 1) % 2 == 0:
        return (-(b + 1) // 2) % a
    return (-(b + 1) * pow(2, -1, a)) % a


def to_z(spec: SimplexSpec, sp: ShiftedPoint) -> RepVector:
    """Representation coordinates of a point of the core simplex.

    Raises ``ValueError`` when the point is off the charge lattice or
    outside the simplex.
    """
    a, b = spec.a, spec.b
    k = _z_offset(a, b)
    tx = sp.tx
    z = []
    for i in range(a):
        num = tx[(i * b + k) % a] - tx[((i + 1) * b + k) % a] + 2 * b
        if num % (2 * a):
            raise ValueError("point does not lie on the charge lattice")
        v = num // (2 * a)
        if v < 0:
            raise ValueError("point lies outside the core simplex")
        z.append(v)
    return RepVector(tuple(z))


def from_z(spec: SimplexSpec, rv: RepVector) -> ShiftedPoint:
    """Inverse of :func:`to_z`."""
    a, b = spec.a, spec.b
    if rv.a != a or rv.b != b:
        raise ValueError("representation vector does not match the simplex")
    # sum(offsets) = 2a*sum(i*z_i) - a(a-1)b is a multiple of a for every z: test z itself
    if sum(i * v for i, v in enumerate(rv.z)) % a:
        raise ValueError("representation vector is not on the trivial-determinant lattice")
    k = _z_offset(a, b)
    # walk tx along the index cycle k, k+b, k+2b, ...
    offsets = [0]
    for zi in rv.z[:-1]:
        offsets.append(offsets[-1] + 2 * b - 2 * a * zi)
    t0 = -sum(offsets) // a
    tx = [0] * a
    for j, off in enumerate(offsets):
        tx[(j * b + k) % a] = t0 + off
    return ShiftedPoint(a, tuple(tx))


def capped_count(spec: SimplexSpec, cap: int) -> int:
    """Cat(a,b), once it is known not to exceed ``cap`` (else :class:`CapExceededError`)."""
    count = rational_catalan(spec.a, spec.b)
    if count > cap:
        raise CapExceededError(f"Cat({spec.a},{spec.b}) = {count} exceeds the cap of {cap}")
    return count


def _walk_constants(a: int, b: int) -> tuple[list[int], list[int]]:
    """The runner ``step[j]`` at step j of the cycle k, k+b, ... and the constant ``lift[j]`` of its charge.

    With P_j = z_0 + ... + z_{j-1} and w = sum(i z_i), :func:`from_z` sets
    tx[step[j]] = (a-1)b - 2w + 2bj - 2a P_j, and unshift divides
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
    vector.  Each point is mapped to charges in plain integers, as
    :func:`from_z` followed by :func:`~corelattice.abacus.unshift` would, and
    mapped back through :func:`to_z`'s formula as a check.

    Raises :class:`CapExceededError` up front when the count exceeds ``cap``;
    the closed-form count is asserted once the stream is exhausted.
    """
    a, b = spec.a, spec.b
    count = capped_count(spec, cap)
    head = a - 2
    two_a = 2 * a
    step, lift = _walk_constants(a, b)
    runner_step = [step.index(i) for i in range(a)]
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
            nums = [lift[j] - 2 * w - two_a * p for j, p in enumerate((*sums, sums[head] + zh))]
            charges = tuple(nums[j] // two_a for j in runner_step)
            if sum(charges):
                raise AssertionError(f"charges must sum to 0, got {charges}")
            # to_z on shift(charges): the shift's constant -(a-1) cancels in the differences
            tx = [two_a * c + 2 * i for i, c in enumerate(charges)]
            if any(tx[step[j]] - tx[step[j + 1]] + 2 * b != two_a * z[j] for j in range(a)):
                raise AssertionError(f"z recomputed from tx disagrees with {z}")
            found += 1
            yield z, charges
    if found != count:
        raise AssertionError("enumeration disagrees with the closed-form count")


def core_moments(spec: SimplexSpec, cap: int = DEFAULT_CAP) -> tuple[int, int]:
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
    :func:`from_z`'s offsets satisfy ``o_{j+1} = o_j + 2b - 2a z_j`` and
    ``o_a = 0``, and the right side above is ``8a`` times
    ``-(a^2-1)/24 + (a/2) sum x_i^2`` (``abacus.size_from_x``), which is
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

    Raises :class:`CapExceededError` when Cat(a,b) exceeds ``cap``, as
    :func:`iter_cores` does; asserts that the paths number a·Cat(a,b) and
    that 8a^2 divides the size numerator.
    """
    a, b = spec.a, spec.b
    catalan = capped_count(spec, cap)
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


def enumerate_cores(spec: SimplexSpec, cap: int = DEFAULT_CAP) -> list[ChargeVector]:
    """All (a,b)-cores as charge vectors, ordered lexicographically by z.

    Raises :class:`CapExceededError` when the count exceeds ``cap``.
    """
    return [ChargeVector(spec.a, c) for _, c in iter_cores(spec, cap)]


def conjugation_T(cv: ChargeVector) -> ChargeVector:
    """Charge-lattice conjugation ``T(c)_i = -c_{-1-i}`` (transposes the core)."""
    a = cv.a
    return ChargeVector(a, tuple(-cv.c[(-1 - i) % a] for i in range(a)))


def is_self_conjugate(c) -> bool:
    """True iff the charges ``c`` are fixed by :func:`conjugation_T`, ``c_i == -c_{-1-i}``: a self-conjugate core."""
    return all(v == -c[-1 - i] for i, v in enumerate(c))


def enumerate_self_conjugate(spec: SimplexSpec, cap: int = DEFAULT_CAP) -> list[ChargeVector]:
    """The T-fixed subset of :func:`enumerate_cores`."""
    return [cv for cv in enumerate_cores(spec, cap) if is_self_conjugate(cv.c)]


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


def armstrong_average(a: int, b: int) -> Fraction:
    """Closed form ``(a+b+1)(a-1)(b-1)/24`` for the average core size."""
    return Fraction((a + b + 1) * (a - 1) * (b - 1), 24)


def core_record(spec: SimplexSpec, charges, z) -> dict:
    """The per-core record exposed by the CLI (exact, JSON-serializable).

    ``charges`` and ``z`` are the core's tuples, as :func:`iter_cores` yields
    them.  The partition, its length, size and skew length all come from one
    list of filled abacus levels; the size is checked against the quadratic
    form ``(a/2) sum c_i^2 + sum i*c_i``.
    """
    a, b = spec.a, spec.b
    levels = filled_levels(a, charges)
    parts = list(map(add, levels, range(1, len(levels) + 1)))
    size = sum(parts)
    if a * sum(map(mul, charges, charges)) + 2 * sum(map(mul, range(a), charges)) != 2 * size:
        raise AssertionError("quadratic form must be integral and equal the core size")
    sl = partitions.skew_length_of_levels(levels, a, b)
    return {
        "charges": list(charges),
        "z": list(z),
        "partition": parts,
        "size": size,
        "length": len(parts),
        "skew_length": sl,
        "co_skew_length": (a - 1) * (b - 1) // 2 - sl,
    }
