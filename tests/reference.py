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
from corelattice.errors import DEFAULT_CAP, CapExceededError
from corelattice.qpoly import AgeSearchResult, ResidueUnimodality, _multisets, is_unimodal
from corelattice.simplex import SimplexSpec, _z_offset, iter_cores

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


def enumerate_cores(spec: SimplexSpec, cap: int = DEFAULT_CAP) -> list[tuple[int, ...]]:
    """All (a,b)-cores as charge tuples, ordered lexicographically by z: the walk of ``iter_cores`` as a list.

    Raises ``CapExceededError`` when the count exceeds ``cap``.
    """
    return [c for _, c in iter_cores(spec, cap)]


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


def q_int(n: int, power: int = 1) -> LaurentPoly:
    """``[n]_q = 1 + q + ... + q^(n-1)``, in the variable ``q^power``.

    >>> print(q_int(3, 2))
    1 + q^2 + q^4
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return LaurentPoly({power * j: 1 for j in range(n)})


def q_factorial(n: int, power: int = 1) -> LaurentPoly:
    """``[n]_q!``, in the variable ``q^power``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = LaurentPoly({0: 1})
    for k in range(2, n + 1):
        out = out * q_int(k, power)
    return out


def divexact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact division by long division on the sparse type; raises ``ArithmeticError`` on a nonzero remainder.

    One descending sweep over the quotient's exponent range,
    ``max(num) - max(den)`` down to ``min(num) - min(den)``; the quotient is
    then multiplied back by ``den``, so any remainder is caught.

    >>> print(divexact(LaurentPoly({0: 1, 1: 2, 2: 1}), LaurentPoly({0: 1, 1: 1})))
    1 + q
    """
    if den.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero:
        return LaurentPoly()
    rem = dict(num.items())
    terms = den.items()
    dmax, dlead = terms[-1]
    quot: dict[int, int] = {}
    for e in range(max(rem) - dmax, min(rem) - terms[0][0] - 1, -1):
        v = rem.get(e + dmax)
        if not v:
            continue
        if v % dlead:
            raise ArithmeticError("exact division failed (leading coefficient)")
        t = quot[e] = v // dlead
        for de, dv in terms:
            rem[e + de] = rem.get(e + de, 0) - t * dv
    q = LaurentPoly(quot)
    if q * den != num:
        raise ArithmeticError("exact division failed (nonzero remainder)")
    return q


def unimodality_report_sparse(poly: LaurentPoly, a: int) -> list[ResidueUnimodality]:
    """``qpoly.unimodality_report`` on the sparse type: each class's exponents gathered, then read one at a time.

    The subsequence runs over exponents ``r, r+a, r+2a, ...`` from the first
    to the last nonzero coefficient in the class.
    """
    coefficients = dict(poly.items())
    classes = [[] for _ in range(a)]
    for e in sorted(coefficients):
        classes[e % a].append(e)
    out = []
    for r, exps in enumerate(classes):
        coeffs = tuple(coefficients.get(e, 0) for e in range(exps[0], exps[-1] + 1, a)) if exps else ()
        out.append(ResidueUnimodality(r, coeffs, is_unimodal(coeffs)))
    return out


def shift_multiset(res: AgeSearchResult) -> tuple[int, ...]:
    """The found shifts, sorted."""
    return tuple(sorted(res.shifts.values())) if res.shifts else ()


def assignments(res: AgeSearchResult) -> tuple[tuple[int, int], ...]:
    """Sorted (shift, simplex size at the largest b) pairs."""
    if not res.shifts:
        return ()
    return tuple(sorted((s, res.simplex_sizes[lab]) for lab, s in res.shifts.items()))


def solve_class_at_largest_b(counts: dict[int, int], targets: dict[int, list[int]],
                             dense, bs, budget: list[int]) -> list[tuple[int, int]] | None:
    """``qpoly._solve_class`` driven at the largest b alone, where every unassigned coset is nonempty.

    It takes the package's coefficient lists and turns them into
    ``LaurentPoly`` here, so the residuals come from the sparse type's own
    ``-`` and ``*``, not from the list kernel it is compared with.
    """
    polys = {key: LaurentPoly(dict(enumerate(c))) for key, c in dense.items()}
    return _solve_sparse(counts, {b: LaurentPoly(dict(enumerate(t))) for b, t in targets.items()}, polys, bs, budget)


def _solve_sparse(counts, targets, polys, bs, budget):
    """The recursion of :func:`solve_class_at_largest_b`, on ``LaurentPoly``.

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
    e, batch = ref.items()[0]
    if e < 0:
        return None
    distinct = sorted((m for m, n in counts.items() if n), reverse=True)
    for chosen in _multisets(distinct, counts, batch):
        trial = {}
        for b in bs:
            removed = sum((n * polys[(m, b)] for m, n in chosen), LaurentPoly())
            residual = targets[b] - LaurentPoly.monomial(e) * removed
            if any(v < 0 for _, v in residual.items()):
                break
            trial[b] = residual
        else:
            for m, n in chosen:
                counts[m] -= n
            rest = _solve_sparse(counts, trial, polys, bs, budget)
            for m, n in chosen:
                counts[m] += n
            if rest is not None:
                return [(m, e) for m, n in chosen for _ in range(n)] + rest
    return None


def sqin(sigma) -> int:
    """Companion statistic ``inv + sum_{i in DES} i^2``."""
    return inv(sigma) + sum(i * i for i in des_set(sigma))
