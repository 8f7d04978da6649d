"""Reference routes that only the tests call.

The commands never run these, so they live here rather than in ``src/``:
each is a direct, unoptimised definition that the package's kernels are
checked against.  The name does not match ``test_*.py``, so pytest collects
no tests from it; ``pytest --doctest-modules tests/reference.py`` runs its
docstring examples.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from fractions import Fraction

from corelattice.perms import des_set, inv
from corelattice.polys import LaurentPoly
from corelattice.errors import CapExceededError
from corelattice.qpoly import AgeSearchResult, _multisets, q_int
from corelattice.simplex import SimplexSpec, _z_offset

Parts = tuple[int, ...]


def beta_set(parts: Parts) -> frozenset[int]:
    """Filled energy levels above the consecutive tail: ``{p[i] - (i+1)}``."""
    return frozenset(v - i for i, v in enumerate(parts, start=1))


def _bead_mask(levels: Collection[int]) -> int:
    """A beta-set of ``n`` levels as the bitset with bit ``m + n`` for each level ``m``.

    Bit 0 is the empty level ``-n``; the filled tail below it has no bits,
    so ``beads >> t & ~beads`` is the set of empty levels lying ``t`` under
    a bead: the hooks of length ``t``.
    """
    n = len(levels)
    beads = 0
    for m in levels:
        beads |= 1 << (m + n)
    return beads


def conjugate(parts: Parts) -> Parts:
    """Transpose of the Young diagram.

    >>> conjugate((3, 1))
    (2, 1, 1)
    """
    if not parts:
        return ()
    cols = [0] * parts[0]
    for v in parts:
        for j in range(v):
            cols[j] += 1
    return tuple(cols)


@dataclass(frozen=True)
class Cell:
    """A box of a Young diagram with its arm, leg and hook statistics.

    ``row`` and ``col`` are 0-based; ``hook == arm + leg + 1``.  The arm
    counts cells to the right in the same row and the leg cells below in
    the same column (rows-of-boxes model; the arm/leg/hook multisets do not
    depend on how the diagram is drawn).
    """

    row: int
    col: int
    arm: int
    leg: int
    hook: int


def hook_lengths(parts: Parts) -> list[Cell]:
    """All cells of the diagram with hook statistics filled in."""
    conj = conjugate(parts)
    cells = []
    for r, v in enumerate(parts):
        for c in range(v):
            arm = v - c - 1
            leg = conj[c] - r - 1
            cells.append(Cell(r, c, arm, leg, arm + leg + 1))
    return cells


def hook_multiset(parts: Parts) -> tuple[int, ...]:
    """Sorted multiset of hook lengths."""
    return tuple(sorted(cell.hook for cell in hook_lengths(parts)))


def zero_charges(a: int) -> tuple[int, ...]:
    """The origin of the lattice (the empty partition)."""
    return (0,) * a


def shifted_x(tx) -> tuple[Fraction, ...]:
    """The 2a-scaled shifted coordinates ``tx`` as exact rationals."""
    return tuple(Fraction(v, 2 * len(tx)) for v in tx)


def unshift(tx) -> tuple[int, ...]:
    """Inverse of ``abacus.shift``; raises if the point is off the charge lattice."""
    a = len(tx)
    charges = []
    for i, t in enumerate(tx):
        num = t - 2 * i + (a - 1)
        if num % (2 * a):
            raise ValueError("point does not lie on the shifted charge lattice")
        charges.append(num // (2 * a))
    return tuple(charges)


def size_from_x(tx) -> Fraction:
    """The size form in shifted coordinates: ``-(a^2-1)/24 + (a/2) sum x_i^2``."""
    a = len(tx)
    return Fraction(-(a * a - 1), 24) + Fraction(sum(t * t for t in tx), 8 * a)


def contains(spec: SimplexSpec, c) -> bool:
    """Membership test of the charges ``c`` via the cyclic charge inequalities."""
    a, b = spec.a, spec.b
    if len(c) != a:
        raise ValueError("charge vector has a different modulus")
    return all(c[(i + b) % a] - c[i] <= (b + i) // a for i in range(a))


def from_z(spec: SimplexSpec, z) -> tuple[int, ...]:
    """Inverse of ``simplex.to_z``: the 2a-scaled shifted coordinates of the multiplicities ``z``."""
    a, b = spec.a, spec.b
    if len(z) != a or sum(z) != b:
        raise ValueError("representation vector does not match the simplex")
    if min(z) < 0:
        raise ValueError(f"multiplicities must be nonnegative, got {tuple(z)}")
    # sum(offsets) = 2a*sum(i*z_i) - a(a-1)b is a multiple of a for every z: test z itself
    if sum(i * v for i, v in enumerate(z)) % a:
        raise ValueError("representation vector is not on the trivial-determinant lattice")
    k = _z_offset(a, b)
    # walk tx along the index cycle k, k+b, k+2b, ...
    offsets = [0]
    for zi in z[:-1]:
        offsets.append(offsets[-1] + 2 * b - 2 * a * zi)
    t0 = -sum(offsets) // a
    tx = [0] * a
    for j, off in enumerate(offsets):
        tx[(j * b + k) % a] = t0 + off
    return tuple(tx)


def conjugation_T(c) -> tuple[int, ...]:
    """Charge-lattice conjugation ``T(c)_i = -c_{-1-i}`` (transposes the core)."""
    a = len(c)
    return tuple(-c[(-1 - i) % a] for i in range(a))


def q_factorial(n: int, power: int = 1) -> LaurentPoly:
    """``[n]_q!``, in the variable ``q^power``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = LaurentPoly.one()
    for k in range(2, n + 1):
        out = out * q_int(k, power)
    return out


def shift_multiset(res: AgeSearchResult) -> tuple[int, ...]:
    """The found shifts, sorted."""
    return tuple(sorted(res.shifts.values())) if res.shifts else ()


def assignments(res: AgeSearchResult) -> tuple[tuple[int, int], ...]:
    """Sorted (shift, simplex size at the largest b) pairs."""
    if not res.shifts:
        return ()
    return tuple(sorted((s, res.simplex_sizes[lab]) for lab, s in res.shifts.items()))


def solve_class_at_largest_b(counts: dict[int, int], targets: dict[int, LaurentPoly],
                             polys, bs, budget: list[int]) -> list[tuple[int, int]] | None:
    """``qpoly._solve_class`` driven at the largest b alone, where every unassigned coset is nonempty.

    There each unassigned coset has a unit constant term, so the residual's
    coefficient at its minimal exponent is the number of cosets taking that
    shift, and only their sizes are branched on.  Cosets still empty at the
    smaller b are placed too, so the tree is wider than the package's.
    """
    if all(v == 0 for v in counts.values()):
        return [] if all(t.is_zero for t in targets.values()) else None
    budget[0] -= 1
    if budget[0] < 0:
        raise CapExceededError("age search exceeded its work limit (inconclusive)")
    ref = targets[bs[-1]]
    if ref.is_zero:
        return None
    e = ref.min_exp()
    if e < 0:
        return None
    batch = ref.coefficient(e)
    distinct = sorted((m for m, n in counts.items() if n), reverse=True)
    for chosen in _multisets(distinct, counts, batch):
        trial = {}
        for b in bs:
            residual = targets[b].sub_shifted([(polys[(m, b)], n) for m, n in chosen], e)
            if not residual.nonnegative():
                break
            trial[b] = residual
        else:
            for m, n in chosen:
                counts[m] -= n
            rest = solve_class_at_largest_b(counts, trial, polys, bs, budget)
            for m, n in chosen:
                counts[m] += n
            if rest is not None:
                return [(m, e) for m, n in chosen for _ in range(n)] + rest
    return None


def sqin(sigma) -> int:
    """Companion statistic ``inv + sum_{i in DES} i^2``."""
    return inv(sigma) + sum(i * i for i in des_set(sigma))
