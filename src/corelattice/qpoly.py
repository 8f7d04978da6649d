"""q-analogs and the q-rational Catalan polynomial, with coset tooling.

``cat_q(a, b)`` is ``[a+b choose a]_q / [a+b]_q``.  It and the q-binomials
are built on coefficient lists, each exact division multiplied back, so any
slip raises instead of corrupting coefficients.  No q-binomial is kept
between calls: a cache would grow with every ``verify`` check past what the
cap bounds, so a function that needs a binomial twice builds it once.

The coset machinery investigates a conjectural positive decomposition:
inside the charge lattice sits the sublattice of vectors congruent to a
constant mod ``a`` (index ``a^(a-2)``), each of whose cosets meets the core
simplex in the lattice points of a scaled standard simplex.  The search in
:func:`search_age_function` asks for one b-independent shift per coset
making

    ``cat_q(a, b) = sum_cosets q^shift * [m + a-1 choose a-1]_{q^a}``

hold across a list of b values, where ``m`` is the per-coset simplex size.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import accumulate, product
from math import comb, gcd
from operator import add, sub

from .abacus import shift
from .errors import DEFAULT_CAP, CapExceededError
from .polys import LaurentPoly
from .simplex import SimplexSpec, enumerate_cores, to_z


def q_int(n: int, power: int = 1) -> LaurentPoly:
    """``[n]_q = 1 + q + ... + q^(n-1)``, in the variable ``q^power``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return LaurentPoly({power * j: 1 for j in range(n)})


def _poly(c: list[int], power: int = 1) -> LaurentPoly:
    """The polynomial ``sum c[e] q^(power*e)`` of a coefficient list."""
    return LaurentPoly(dict(zip(range(0, power * len(c), power), c)))


def _times_one_minus(c: list[int], m: int) -> list[int]:
    """``c * (1 - q^m)``, on coefficient lists."""
    pad = [0] * m
    return list(map(sub, c + pad, pad + c))


def _over_one_minus(c: list[int], i: int) -> list[int]:
    """``c / (1 - q^i)``: running sums along the classes mod i, multiplied back; a remainder raises ArithmeticError."""
    quot = [0] * (len(c) - i)
    for r in range(i):
        quot[r::i] = accumulate(c[r : len(quot) : i])
    if _times_one_minus(quot, i) != c:
        raise ArithmeticError("exact division failed (nonzero remainder)")
    return quot


def _binomial_coefficients(n: int, k: int) -> list[int]:
    """The coefficients of ``[n choose k]_q``, ``0 <= k <= n``, from ``q^0`` up."""
    # [n,k] = prod_{i=1..k} (1 - q^(n-k+i)) / (1 - q^i); after step i the
    # product is [n-k+i choose i], so every division is exact
    k = min(k, n - k)
    c = [1]
    for i in range(1, k + 1):
        c = _over_one_minus(_times_one_minus(c, n - k + i), i)
    return c


def _cat_q_coefficients(a: int, b: int) -> list[int]:
    """The coefficients of :func:`cat_q`, from ``q^0`` up."""
    n = a + b
    return _over_one_minus(_times_one_minus(_binomial_coefficients(n, a), 1), n)


def _spread(terms, power: int) -> list[int]:
    """The coefficients of ``sum q^shift * p(q^power)`` over the ``(shift, coefficients of p)`` pairs, in one list.

    An empty list (zero) sets no length, so the result ends on a positive coefficient when the other lists do.
    """
    out = [0] * max((s + power * (len(c) - 1) + 1 for s, c in terms if c), default=0)
    for s, c in terms:
        window = slice(s, s + power * len(c), power)
        out[window] = map(add, out[window], c)
    return out


def q_binomial(n: int, k: int, power: int = 1) -> LaurentPoly:
    """Gaussian binomial ``[n choose k]_q``, in the variable ``q^power``.

    Built by ``k`` multiplications by ``1 - q^m`` and exact divisions by ``1 - q^i``, each multiplied back.

    >>> print(q_binomial(4, 2))
    1 + q + 2*q^2 + q^3 + q^4
    """
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    if power < 1:
        raise ValueError("power substitution needs m >= 1")
    return _poly(_binomial_coefficients(n, k), power)


def cat_q(a: int, b: int) -> LaurentPoly:
    """The q-rational Catalan polynomial ``[a+b choose a]_q / [a+b]_q``.

    Computed as ``([a+b choose a]_q (1 - q)) / (1 - q^(a+b))``: the same
    quotient, since ``[n]_q (1 - q) = 1 - q^n``, but the exact division on
    coefficient lists is one running sum per residue class, multiplied back.
    """
    if gcd(a, b) != 1:
        raise ValueError("a and b must be coprime")
    return _poly(_cat_q_coefficients(a, b))


def check_coset_identity_a3(k: int, delta: int) -> bool:
    """Three-term decomposition of ``cat_q(3, 3k+1+delta)``, delta in {0, 1}."""
    if k < 1 or delta not in (0, 1):
        raise ValueError("need k >= 1 and delta in {0, 1}")
    big = _binomial_coefficients(k + 2, 2)
    small = _binomial_coefficients(k + 1, 2)
    return _spread(((0, big), (2, big if delta else small), (4, small)), 3) == _cat_q_coefficients(3, 3 * k + 1 + delta)


# Sixteen (shift, simplex-size offset) pairs for the a = 4, b = 4k+1 identity:
# cat_q(4, 4k+1) = sum q^shift [k + off + 3 choose 3]_{q^4}.  The multiset of
# sizes is 1 x (k), 10 x (k-1), 5 x (k-2), as forced by counting coset
# points, and the shift assignment is pinned by the exact expansion across
# several k (see the test suite and the age-function search).
_A4_TERMS = (
    (0, 0),
    (2, -1), (3, -1), (4, -1), (5, -1), (6, -1), (6, -1), (7, -1), (8, -1), (9, -1), (10, -1),
    (9, -2), (11, -2), (12, -2), (13, -2), (15, -2),
)


def check_coset_identity_a4(k: int) -> bool:
    """Sixteen-term decomposition of ``cat_q(4, 4k+1)``."""
    if k < 1:
        raise ValueError("need k >= 1")
    # the three distinct binomials, one per size offset that is not below 0
    binomials = {off: _binomial_coefficients(k + off + 3, 3) for off in (0, -1, -2) if k + off >= 0}
    rhs = _spread([(s, binomials[off]) for s, off in _A4_TERMS if off in binomials], 4)
    return rhs == _cat_q_coefficients(4, 4 * k + 1)


def is_unimodal(seq) -> bool:
    """Weakly increases to a peak, then weakly decreases."""
    values = list(seq)
    i = 0
    while i + 1 < len(values) and values[i] <= values[i + 1]:
        i += 1
    while i + 1 < len(values) and values[i] >= values[i + 1]:
        i += 1
    return i + 1 >= len(values)


class ResidueUnimodality(namedtuple("ResidueUnimodality", "residue coefficients unimodal")):
    """One residue class of :func:`unimodality_report`: its coefficient subsequence and verdict."""

    __slots__ = ()


def unimodality_report(poly: LaurentPoly, a: int) -> list[ResidueUnimodality]:
    """Per residue class mod ``a``: the coefficient subsequence and its verdict.

    The subsequence runs over exponents ``r, r+a, r+2a, ...`` from the first
    to the last nonzero coefficient in the class, so interior zero gaps
    count against unimodality but leading and trailing zeros do not.
    """
    if a < 1:
        raise ValueError("a must be >= 1")
    classes = [[] for _ in range(a)]
    for e, _ in poly.items():  # sorted once, so each class lists its exponents in ascending order
        classes[e % a].append(e)
    out = []
    for r, exps in enumerate(classes):
        coeffs = tuple(poly.coefficient(e) for e in range(exps[0], exps[-1] + 1, a)) if exps else ()
        out.append(ResidueUnimodality(r, coeffs, is_unimodal(coeffs)))
    return out


def coset_label(spec: SimplexSpec, c) -> tuple[int, ...]:
    """Label of the index-``a^(a-2)`` coset containing the core with charges ``c``: ``z mod a``.

    In charge coordinates two cores share a coset exactly when their charge
    residues differ by a constant vector mod ``a``, but that description
    moves around as ``b`` varies; the representation-side residues are the
    stable labels (their entry sum is ``b mod a``, so labels are comparable
    within one residue class of ``b``).
    """
    a = spec.a
    return tuple(v % a for v in to_z(spec, shift(a, c)))


class AgeSearchResult(
    namedtuple("AgeSearchResult", "a b_list status nodes_used shifts simplex_sizes age_product_ok reason", defaults=(None,))
):
    """Outcome of the shift search; a failure is a result, not an exception.

    ``status`` is ``found``, ``no_solution`` (the search finished without one,
    or the sampled b leave a coset empty) or ``budget_exhausted`` (cut off
    after ``max_nodes`` nodes: inconclusive).  ``nodes_used`` counts the
    search nodes expanded.

    Cosets of equal simplex size contribute identical polynomials at every
    sampled b, so shifts are only determined up to permutation within each
    equal-size group; ``shifts`` records one valid assignment.

    The fields are ``a``, ``b_list``, ``status``, ``nodes_used``, ``shifts``
    and ``simplex_sizes`` (coset label -> shift, and -> size at the largest
    b), ``age_product_ok`` and ``reason`` (``None`` when found).
    """

    __slots__ = ()

    @property
    def found(self) -> bool:
        return self.status == "found"


def coset_labels(a: int, b_residue: int) -> list[tuple[int, ...]]:
    """All ``a^(a-2)`` coset labels for b in the class ``b_residue`` mod a, lexicographically.

    A label is a vector in ``[0, a)^a`` with entry sum ``b_residue`` and
    ``sum i*z_i = 0`` mod a.  Each head ``z_0 .. z_{a-3}`` has exactly one
    completion: with s and w the head's sum and weighted sum,
    ``z_{a-1} = -w - (a-2)(r-s)`` and ``z_{a-2} = r - s - z_{a-1}`` (mod a).
    """
    r = b_residue % a
    out = []
    for head in product(range(a), repeat=a - 2):
        s = sum(head)
        w = sum(i * v for i, v in enumerate(head))
        last = (-w - (a - 2) * (r - s)) % a
        out.append((*head, (r - s - last) % a, last))
    return out


def _classify_cosets(a: int, b: int, cap: int) -> dict[tuple[int, ...], int]:
    """Verify the coset census on real cores and return label -> simplex size.

    The size ``m = (b - sum(label)) / a`` follows from the label alone; the
    enumeration pass checks that each core lands in a valid label and that
    each nonempty coset holds exactly ``binom(m + a-1, a-1)`` cores.
    """
    if any(a**k > cap for k in range(a - 1)):  # a^(a-2) > cap, without building a^(a-2) for a huge a
        raise CapExceededError(f"the coset census at a={a} builds {a}^{a - 2} labels, over the cap of {cap}")
    spec = SimplexSpec(a, b)
    seen: dict[tuple[int, ...], int] = {}
    for c in enumerate_cores(spec, cap):
        lab = coset_label(spec, c)
        seen[lab] = seen.get(lab, 0) + 1
    sizes: dict[tuple[int, ...], int] = {}
    for lab in coset_labels(a, b % a):
        m = (b - sum(lab)) // a
        sizes[lab] = m
        expected = comb(m + a - 1, a - 1) if m >= 0 else 0
        if seen.pop(lab, 0) != expected:
            raise AssertionError(f"coset {lab} does not hold a size-{m} simplex at b={b}")
    if seen:
        raise AssertionError(f"cores found in unexpected cosets: {sorted(seen)}")
    return sizes


def _multisets(sizes, counts: dict[int, int], batch: int):
    """The multisets of ``batch`` items from ``sizes`` that take at most ``counts[m]`` of each m.

    Each is a tuple of ``(size, multiplicity)`` pairs, multiplicity >= 1, in
    the order of ``sizes``.  They come in the order in which
    ``combinations_with_replacement(sizes, batch)`` lists their expansions:
    most copies of the first size first, then of the second, and so on.
    """
    if not sizes:
        if not batch:
            yield ()
        return
    m, rest = sizes[0], sizes[1:]
    room = sum(counts[s] for s in rest)
    for n in range(min(batch, counts[m]), max(batch - room, 0) - 1, -1):
        for tail in _multisets(rest, counts, batch - n):
            yield ((m, n), *tail) if n else tail


def _minus_shifted(c: list[int], terms, e: int) -> list[int] | None:
    """``c - q^e * sum(n * t)`` over the ``(t, n)`` pairs of ``terms``, or None where a coefficient goes negative.

    Each term is one window update at offset ``e``.  A term that runs past the
    end of ``c`` would leave a negative coefficient there; an empty term (a
    coset with no points) subtracts nothing.
    """
    out = c[:]
    for t, n in terms:
        end = e + len(t)
        if t and end > len(out):
            return None
        out[e:end] = [v - n * w for v, w in zip(out[e:end], t)]
    return out if min(out, default=0) >= 0 else None


def _solve_class(counts: dict[int, int], targets: dict[int, list[int]],
                 dense, bs, budget: list[int]) -> list[tuple[int, int]] | None:
    """Greedy-forced backtracking for one exponent class, on coefficient lists.

    ``counts`` maps simplex size to how many cosets of that size this class
    must absorb; ``targets[b]`` is the class's residual at b and
    ``dense[(m, b)]`` the binomial of a size-m coset there, both indexed by
    the exponent of ``q^a``.  Each step is driven at the smallest sampled b
    where an unassigned coset is nonempty.  There each such coset has a unit
    constant term, the empty ones contribute nothing and no contribution is
    negative, so the residual's coefficient at its minimal exponent is the
    exact number of nonempty cosets taking that shift: the only branching
    is over their sizes, and the search stays complete.  (The residual at a
    smaller b is nonnegative with total 0, as the apportionment fixed each
    class's total, so it is zero.)  A coset first nonempty at b has size 0
    there, so when the b step by a it is read off without branching.  Only
    the multisets that ``counts`` allows are drawn (:func:`_multisets`),
    each size subtracted once, times its multiplicity.  All cosets of one
    size become nonempty at the same b and are placed while it drives, by
    ascending shift, as the search driven at the largest b placed them.
    """
    if all(v == 0 for v in counts.values()):
        return None if any(map(any, targets.values())) else []
    budget[0] -= 1
    if budget[0] < 0:
        raise CapExceededError("age search exceeded its work limit (inconclusive)")
    for b in bs:
        visible = sorted((m for m, n in counts.items() if n and dense[(m, b)]), reverse=True)
        if visible:
            break
    ref = targets[b]
    e = next((i for i, v in enumerate(ref) if v), None)
    if e is None:
        return None
    for chosen in _multisets(visible, counts, ref[e]):
        trial = {}
        for b in bs:
            residual = _minus_shifted(targets[b], [(dense[(m, b)], n) for m, n in chosen], e)
            if residual is None:
                break
            trial[b] = residual
        else:
            for m, n in chosen:
                counts[m] -= n
            rest = _solve_class(counts, trial, dense, bs, budget)
            for m, n in chosen:
                counts[m] += n
            if rest is not None:
                return [(m, e) for m, n in chosen for _ in range(n)] + rest
    return None


def search_age_function(a: int, b_list, cap: int = DEFAULT_CAP, max_nodes: int = 500_000) -> AgeSearchResult:
    """Solve for b-independent coset shifts; failure is reported, not raised.

    All ``b`` must be coprime to ``a`` and share one residue class mod ``a``
    (the identity is compared within a residue class, where the per-coset
    simplex sizes move in lockstep with ``b``).

    A coset with shift ``s`` only ever touches exponents ``s mod a``, so the
    search splits the target by exponent class: first apportion the coset
    sizes among the classes (the value at q = 1 of every class and every b
    pins the multiplicities), then solve each class separately
    (:func:`_solve_class`): at the smallest sampled b where an unassigned
    coset is nonempty, the minimal residual exponent and its coefficient
    force the next shift and how many cosets take it.
    """
    if a < 2:
        raise ValueError("a must be >= 2")
    bs = tuple(sorted(set(int(b) for b in b_list)))
    if not bs:
        raise ValueError("b_list must be nonempty")
    if any(gcd(a, b) != 1 for b in bs):
        raise ValueError("every b must be coprime to a")
    if len({b % a for b in bs}) > 1:
        raise ValueError("all b must lie in one residue class mod a")
    b_ref = bs[-1]

    for b in bs:
        sizes_ref = _classify_cosets(a, b, cap)  # census sanity on real cores; the last is b_ref's
    if any(m < 0 for m in sizes_ref.values()):
        missing = sum(1 for m in sizes_ref.values() if m < 0)
        return AgeSearchResult(a, bs, "no_solution", 0, None, None, None,
                               f"{missing} coset(s) empty at every sampled b; raise b_list")

    # interchangeable cosets: same size profile across all b
    groups: dict[int, list[tuple[int, ...]]] = {}
    for lab in sorted(sizes_ref):
        groups.setdefault(sizes_ref[lab], []).append(lab)
    group_sizes = sorted(groups, reverse=True)

    def size_at(m_ref: int, b: int) -> int:
        return m_ref - (b_ref - b) // a

    # each simplex size's binomial and each b's cat_q are built once in this call, and dropped with it
    sizes = {(m, b): size_at(m, b) for m in group_sizes for b in bs}
    binomials = {s: _binomial_coefficients(s + a - 1, a - 1) for s in set(sizes.values()) if s >= 0}
    dense = {key: binomials.get(s, []) for key, s in sizes.items()}
    points = {key: sum(c) for key, c in dense.items()}
    targets = {b: _cat_q_coefficients(a, b) for b in bs}

    budget = [max_nodes]
    remaining = {m: len(g) for m, g in groups.items()}
    class_counts = {(r, b): sum(targets[b][r::a]) for r in range(a) for b in bs}
    assignment: list[list[tuple[int, int]]] = []

    def apportion(r: int, idx: int, counts: dict[int, int], acc: dict[int, int]) -> bool:
        """Choose how many cosets of each size land in class r, then recurse."""
        budget[0] -= 1
        if budget[0] < 0:
            raise CapExceededError("age search exceeded its work limit (inconclusive)")
        if idx == len(group_sizes):
            if any(acc[b] != class_counts[(r, b)] for b in bs):
                return False
            # the coefficients on exponents r mod a, reindexed by (e - r) / a
            solved = _solve_class(dict(counts), {b: targets[b][r::a] for b in bs}, dense, bs, budget)
            if solved is None:
                return False
            # the idx levels above still hold this class's reservations
            assignment.append(solved)
            if r + 1 == a:
                if all(v == 0 for v in remaining.values()):
                    return True
            elif apportion(r + 1, 0, {}, {b: 0 for b in bs}):
                return True
            assignment.pop()
            return False
        m = group_sizes[idx]
        # the later sizes can still contribute at most this much per b
        headroom = {
            b: sum(remaining[m2] * points[(m2, b)] for m2 in group_sizes[idx + 1 :])
            for b in bs
        }
        for n in range(remaining[m] + 1):
            new_acc = {b: acc[b] + n * points[(m, b)] for b in bs}
            if any(new_acc[b] > class_counts[(r, b)] for b in bs):
                break  # larger n only overshoots further
            if any(new_acc[b] + headroom[b] < class_counts[(r, b)] for b in bs):
                continue
            counts[m] = n
            remaining[m] -= n
            if apportion(r, idx + 1, counts, new_acc):
                remaining[m] += n
                return True
            remaining[m] += n
        counts.pop(m, None)
        return False

    try:
        found = apportion(0, 0, {}, {b: 0 for b in bs})
    except CapExceededError as exc:
        return AgeSearchResult(a, bs, "budget_exhausted", max_nodes, None, dict(sizes_ref), None, str(exc))
    nodes_used = max_nodes - budget[0]
    if not found:
        return AgeSearchResult(a, bs, "no_solution", nodes_used, None, dict(sizes_ref), None,
                               "no consistent b-independent shifts exist for these b")

    shifts: dict[tuple[int, ...], int] = {}
    pools = {m: list(g) for m, g in groups.items()}
    for r, solved in enumerate(assignment):
        for m, s in solved:
            shifts[pools[m].pop()] = r + a * s
    for b in bs:  # reassemble the decomposition and compare, end to end
        total = _spread([(e, dense[(sizes_ref[lab], b)]) for lab, e in shifts.items()], a)
        if total != targets[b]:
            raise AssertionError("solver produced an invalid decomposition")
    age_poly = LaurentPoly(Counter(shifts.values()))
    expected = LaurentPoly.one()
    for j in range(2, a):
        expected = expected * q_int(a, power=j)
    return AgeSearchResult(a, bs, "found", nodes_used, shifts, dict(sizes_ref), age_poly == expected)
