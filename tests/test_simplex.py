"""Core simplex membership, enumeration, z-coordinates, and conjugation."""

import random
from fractions import Fraction
from itertools import product
from math import comb, gcd

import pytest

from corelattice import simplex as S
from corelattice.abacus import charges_from_core, core_from_charges, shift, size_of_charges
from corelattice.errors import CapExceededError
from corelattice.partitions import brute_force_simultaneous_cores, is_core, skew_length
from reference import conjugate, conjugation_T, contains, from_z, unshift, zero_charges


def compositions(total, parts):
    """Nonnegative compositions in lexicographic order, by filtering the whole box (no shared code with the walk)."""
    return [z for z in product(range(total + 1), repeat=parts) if sum(z) == total]


def test_spec_validation():
    with pytest.raises(ValueError, match="^a=4 and b=6 must be coprime$"):
        S.SimplexSpec(4, 6)
    with pytest.raises(ValueError, match="^a must be >= 2$"):
        S.SimplexSpec(1, 2)
    with pytest.raises(ValueError, match="^b must be >= 1$"):
        S.SimplexSpec(3, 0)
    with pytest.raises(ValueError, match="^a must be >= 2$"):
        S.SimplexSpec(b=2, a=1)


def test_spec_is_a_frozen_named_pair():
    spec = S.SimplexSpec(3, 4)
    assert repr(spec) == "SimplexSpec(a=3, b=4)" and (spec.a, spec.b) == (3, 4)
    assert spec == S.SimplexSpec(b=4, a=3) and spec != S.SimplexSpec(4, 3)
    assert hash(spec) == hash(S.SimplexSpec(3, 4)) and len({spec, S.SimplexSpec(3, 4), S.SimplexSpec(3, 5)}) == 2
    for field in ("a", "b", "c"):
        with pytest.raises(AttributeError):
            setattr(spec, field, 5)
    assert spec == (3, 4)


def test_contains_examples():
    s34 = S.SimplexSpec(3, 4)
    assert contains(s34, zero_charges(3))
    big = (0, 3, -3)
    assert not contains(s34, big)
    assert not is_core(core_from_charges(3, big), 4)
    s311 = S.SimplexSpec(3, 11)
    assert contains(s311, charges_from_core((9, 7, 5, 3, 2, 2, 1, 1), 3))


def test_rational_catalan():
    assert S.rational_catalan(3, 4) == 5
    assert S.rational_catalan(2, 3) == 2
    assert S.rational_catalan(3, 11) == 26
    with pytest.raises(ValueError):
        S.rational_catalan(4, 6)


def test_enumerate_examples():
    assert len(S.enumerate_cores(S.SimplexSpec(3, 4))) == 5
    parts = {core_from_charges(2, c) for c in S.enumerate_cores(S.SimplexSpec(2, 3))}
    assert parts == {(), (1,)}
    assert S.enumerate_cores(S.SimplexSpec(7, 1)) == [zero_charges(7)]


def test_enumerate_is_deterministic_and_in_simplex():
    spec = S.SimplexSpec(4, 7)
    cores = S.enumerate_cores(spec)
    assert cores == S.enumerate_cores(spec)
    assert all(isinstance(c, tuple) and contains(spec, c) for c in cores)
    zs = [S.to_z(spec, shift(4, c)) for c in cores]
    assert zs == sorted(zs)  # lexicographic output order


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        S.enumerate_cores(S.SimplexSpec(3, 4), cap=4)


def test_z_round_trip_and_characterization():
    s34 = S.SimplexSpec(3, 4)
    zs = {S.to_z(s34, shift(3, c)) for c in S.enumerate_cores(s34)}
    expected = {
        z
        for z in ((i, j, 4 - i - j) for i in range(5) for j in range(5 - i))
        if (z[1] + 2 * z[2]) % 3 == 0
    }
    assert zs == expected
    s37 = S.SimplexSpec(3, 7)
    for c in S.enumerate_cores(s37):
        tx = shift(3, c)
        assert from_z(s37, S.to_z(s37, tx)) == tx


def test_from_z_rejects_nontrivial_determinant():
    # sum(i*z_i) = 10 is not 0 mod 4
    with pytest.raises(ValueError, match="trivial-determinant"):
        from_z(S.SimplexSpec(4, 5), (1, 1, 0, 3))
    with pytest.raises(ValueError, match="must be nonnegative"):
        from_z(S.SimplexSpec(4, 5), (2, 4, 0, -1))
    with pytest.raises(ValueError, match="does not match the simplex"):
        from_z(S.SimplexSpec(4, 5), (1, 1, 3))


def test_z_map_bijection_range():
    for a in range(2, 6):
        for b in range(a + 1, 17):
            if gcd(a, b) != 1:
                continue
            spec = S.SimplexSpec(a, b)
            zs = {S.to_z(spec, shift(a, c)) for c in S.enumerate_cores(spec)}
            expected = {
                tuple(z)
                for z in compositions(b, a)
                if sum(i * v for i, v in enumerate(z)) % a == 0
            }
            assert zs == expected


def test_iter_cores_matches_enumerate_cores_and_the_z_maps():
    for a in range(2, 8):
        for b in range(1, 13):
            if gcd(a, b) != 1:
                continue
            spec = S.SimplexSpec(a, b)
            walked = list(S.iter_cores(spec))
            assert [c for _, c in walked] == S.enumerate_cores(spec)
            zs = [z for z, _ in walked]
            assert zs == sorted(set(zs)) and len(zs) == S.rational_catalan(a, b)
            for z, c in walked:
                assert unshift(from_z(spec, z)) == c


def test_iter_cores_checks_cap_before_walking():
    with pytest.raises(CapExceededError):
        next(S.iter_cores(S.SimplexSpec(3, 4), cap=4))


def test_to_z_rejects_outside_points():
    s34 = S.SimplexSpec(3, 4)
    with pytest.raises(ValueError):
        S.to_z(s34, shift(3, (0, 3, -3)))


def test_to_z_rejects_a_point_of_the_wrong_length():
    with pytest.raises(ValueError, match="expected 3 coordinates, got 4"):
        S.to_z(S.SimplexSpec(3, 4), shift(4, (0, 0, 0, 0)))
    with pytest.raises(ValueError, match="expected 3 coordinates, got 2"):
        S.to_z(S.SimplexSpec(3, 4), (-1, 1))


def test_to_z_rejects_a_nontrivial_determinant():
    # the shifted coordinates of the charges (1, 0, 0, 0), which do not sum to 0, built past shift's check:
    # on the lattice and inside the simplex, but z = (1, 1, 1, 2) has sum(i*z_i) = 9, not 0 mod 4
    tx = tuple(2 * 4 * ci + 2 * i - 3 for i, ci in enumerate((1, 0, 0, 0)))
    with pytest.raises(ValueError, match="determinant condition fails"):
        S.to_z(S.SimplexSpec(4, 5), tx)


def test_empty_partition_z_sums_to_b():
    for a, b in ((2, 5), (3, 7), (4, 9), (5, 8)):
        z = S.to_z(S.SimplexSpec(a, b), shift(a, zero_charges(a)))
        assert sum(z) == b
        assert sum(i * v for i, v in enumerate(z)) % a == 0


def test_conjugation_examples():
    assert conjugation_T(zero_charges(4)) == zero_charges(4)
    rng = random.Random(7)
    for _ in range(60):
        a = rng.randint(2, 6)
        head = [rng.randint(-3, 3) for _ in range(a - 1)]
        c = (*head, -sum(head))
        tc = conjugation_T(c)
        assert conjugation_T(tc) == c
        assert core_from_charges(a, tc) == conjugate(core_from_charges(a, c))


def test_conjugation_in_z_coordinates():
    spec = S.SimplexSpec(4, 7)
    for c in S.enumerate_cores(spec):
        z = S.to_z(spec, shift(4, c))
        zt = S.to_z(spec, shift(4, conjugation_T(c)))
        assert zt == tuple(z[(-i) % 4] for i in range(4))


def test_self_conjugate_counts():
    assert S.core_fold(S.SimplexSpec(3, 4))[2] == 3 == S.self_conjugate_count(3, 4)
    assert S.core_fold(S.SimplexSpec(2, 3))[2] == 2 == S.self_conjugate_count(2, 3)
    assert S.core_fold(S.SimplexSpec(6, 1))[2] == 1


def test_sizes_and_averages():
    s34 = S.SimplexSpec(3, 4)
    count, total = S.core_moments(s34)
    assert (count, total) == (5, 10)
    assert Fraction(total, count) == 2 == S.armstrong_average(3, 4)
    count, total = S.core_moments(S.SimplexSpec(2, 3))
    assert Fraction(total, count) == Fraction(1, 2) == S.armstrong_average(2, 3)
    assert S.core_moments(S.SimplexSpec(4, 1)) == (1, 0) and S.armstrong_average(4, 1) == 0
    _, _, _, fixed_total = S.core_fold(s34)
    assert Fraction(fixed_total, S.self_conjugate_count(3, 4)) == S.armstrong_average(3, 4)


def test_core_moments_match_the_walk():
    # every coprime b from 1, so b < a and b = 1 are covered too
    for a in range(2, 8):
        for b in range(1, 20 if a <= 6 else 15):
            if gcd(a, b) != 1:
                continue
            spec = S.SimplexSpec(a, b)
            count = total = 0
            for _, c in S.iter_cores(spec):
                count += 1
                total += size_of_charges(a, c)
            assert S.core_moments(spec) == (count, total), (a, b)


def _tx_of_composition(a, b, z):
    """from_z's 2a-scaled coordinates for any composition z, core or not (Fractions off the lattice)."""
    k = S._z_offset(a, b)
    offsets = [0]
    for zi in z[:-1]:
        offsets.append(offsets[-1] + 2 * b - 2 * a * zi)
    t0 = Fraction(-sum(offsets), a)
    tx = [0] * a
    for j, off in enumerate(offsets):
        tx[(j * b + k) % a] = t0 + off
    return tx


@pytest.mark.parametrize("a", range(2, 7))
def test_each_rotation_orbit_of_compositions_holds_one_core_of_its_size(a):
    # the lemma behind core_moments: rotating z permutes tx, and each orbit meets the cores once
    for b in range(1, 12):
        if gcd(a, b) != 1:
            continue
        k = S._z_offset(a, b)
        cores = {z: c for z, c in S.iter_cores(S.SimplexSpec(a, b))}
        for z in compositions(b, a):
            tx = _tx_of_composition(a, b, z)
            rotated = _tx_of_composition(a, b, z[1:] + z[:1])
            assert all(rotated[(j * b + k) % a] == tx[((j + 1) * b + k) % a] for j in range(a)), z
            orbit = {z[i:] + z[:i] for i in range(a)}
            assert len(orbit) == a, z
            (core,) = orbit & cores.keys()
            size = Fraction(-(a * a - 1), 24) + sum(t * t for t in tx) / (8 * a)
            assert size == size_of_charges(a, cores[core]), z


def test_core_fold_matches_the_charge_vector_routes():
    for a in range(2, 7):
        for b in range(1, 16):
            if gcd(a, b) != 1:
                continue
            spec = S.SimplexSpec(a, b)
            cores = S.enumerate_cores(spec)
            fixed = [c for c in cores if conjugation_T(c) == c]
            sizes = [size_of_charges(a, c) for c in cores]
            fixed_sizes = [size_of_charges(a, c) for c in fixed]
            expected = (len(cores), sum(sizes), len(fixed), sum(fixed_sizes))
            assert S.core_fold(spec) == expected, (a, b)


def test_is_self_conjugate_is_the_conjugation_fixed_point_test():
    for a in range(2, 7):
        for c in ((*head, -sum(head)) for head in product(range(-2, 3), repeat=a - 1)):
            assert S.is_self_conjugate(c) == (conjugation_T(c) == c), c


def test_core_fold_honours_the_cap():
    with pytest.raises(CapExceededError, match="Cat\\(3,4\\) = 5 exceeds the cap of 4"):
        S.core_fold(S.SimplexSpec(3, 4), cap=4)
    assert S.core_fold(S.SimplexSpec(3, 4), cap=5) == (5, 10, 3, 6)


@pytest.mark.parametrize("a,b", [(12, 61), (20, 101), (30, 211)])
def test_core_moments_give_the_closed_forms_at_scale(a, b):
    catalan = S.rational_catalan(a, b)
    count, total = S.core_moments(S.SimplexSpec(a, b))
    assert count == catalan
    assert Fraction(total, count) == S.armstrong_average(a, b) == Fraction((a + b + 1) * (a - 1) * (b - 1), 24)


def test_an_off_lattice_walk_is_refused_before_any_core(monkeypatch):
    # a wrong index offset k puts lift[j] off 2a*Z: both routes refuse the (a,b) as a whole
    real = S._z_offset
    monkeypatch.setattr(S, "_z_offset", lambda a, b: real(a, b) + 1)
    walk = S.iter_cores(S.SimplexSpec(5, 7))
    with pytest.raises(AssertionError, match="does not map to the charge lattice"):
        next(walk)
    with pytest.raises(AssertionError, match="does not map to the charge lattice"):
        S.core_moments(S.SimplexSpec(5, 7))


def test_a_walk_whose_charges_do_not_sum_to_zero_is_refused(monkeypatch):
    # lift[0] one lattice step too high raises one charge of every core by 1: the per-core sum check fires
    real = S._walk_constants

    def shifted(a, b):
        step, lift = real(a, b)
        return step, [lift[0] + 2 * a, *lift[1:]]

    monkeypatch.setattr(S, "_walk_constants", shifted)
    with pytest.raises(AssertionError, match="charges must sum to 0"):
        next(S.iter_cores(S.SimplexSpec(3, 4)))


def test_count_and_armstrong_medium_range():
    for a in range(2, 5):
        for b in range(a + 1, 13):
            if gcd(a, b) != 1:
                continue
            spec = S.SimplexSpec(a, b)
            cores = S.enumerate_cores(spec)
            assert len(cores) == S.rational_catalan(a, b)
            total = sum(size_of_charges(a, c) for c in cores)
            assert total == S.rational_catalan(a, b) * S.armstrong_average(a, b)


def test_oracle_equivalence_small():
    for a, b in ((2, 3), (2, 7), (3, 4), (3, 5), (4, 5)):
        spec = S.SimplexSpec(a, b)
        cores = S.enumerate_cores(spec)
        max_size = max(size_of_charges(a, c) for c in cores)
        assert max_size == (a * a - 1) * (b * b - 1) // 24
        enumerated = {core_from_charges(a, c) for c in cores}
        assert enumerated == set(brute_force_simultaneous_cores(a, b, max_size))


def test_enumeration_is_symmetric_in_the_two_moduli():
    # the set of (a,b)-cores does not depend on which modulus drives the abacus
    for a, b in ((3, 5), (2, 7), (4, 7), (5, 6)):
        via_a = {core_from_charges(a, c) for c in S.enumerate_cores(S.SimplexSpec(a, b))}
        via_b = {core_from_charges(b, c) for c in S.enumerate_cores(S.SimplexSpec(b, a))}
        assert via_a == via_b


def test_rotation_equidistribution():
    # the cyclic shift acts freely on compositions of b and each orbit meets
    # the trivial-determinant sublattice exactly once
    for a in range(2, 6):
        for b in range(a + 1, 13):
            if gcd(a, b) != 1:
                continue
            comps = compositions(b, a)
            assert len(comps) == comb(a + b - 1, a - 1)
            seen = set()
            orbits = 0
            for z in comps:
                if z in seen:
                    continue
                orbit = {tuple(z[(i + j) % a] for i in range(a)) for j in range(a)}
                assert len(orbit) == a  # free action
                trivial = [w for w in orbit if sum(i * v for i, v in enumerate(w)) % a == 0]
                assert len(trivial) == 1
                seen |= orbit
                orbits += 1
            assert orbits == S.rational_catalan(a, b)


def test_core_record_fields():
    spec = S.SimplexSpec(3, 4)
    c = charges_from_core((3, 1, 1), 3)
    rec = dict(zip(S.CORE_FIELDS, S.core_record(spec, c, S.to_z(spec, shift(3, c)))))
    assert rec == {
        "charges": [-1, 0, 1],
        "z": [4, 0, 0],
        "partition": [3, 1, 1],
        "size": 5,
        "length": 3,
        "skew_length": 3,
        "co_skew_length": 0,
    }


def skew_length_by_hooks(parts, a, b):
    """Cells in an a-row with hook length below b, from arms and legs (no beta-set, no abacus)."""
    a_rows = {}
    for i, v in enumerate(parts):
        a_rows.setdefault((v - i) % a, i)  # parts weakly decrease: a class's first row is its longest
    conj = conjugate(parts)
    # the hook of cell (r, c) is arm + leg + 1 = (parts[r] - c - 1) + (conj[c] - r - 1) + 1
    return sum(1 for r in a_rows.values() for c in range(parts[r]) if parts[r] - c + conj[c] - r - 1 < b)


def test_core_record_matches_the_partition_routes():
    # every core of every coprime a <= 7, b <= 13 (b < a too; b = 1 gives only the empty partition)
    for a in range(2, 8):
        for b in range(1, 14):
            if gcd(a, b) != 1:
                continue
            spec = S.SimplexSpec(a, b)
            for z, charges in S.iter_cores(spec):
                rec = dict(zip(S.CORE_FIELDS, S.core_record(spec, charges, z)))
                p = core_from_charges(a, charges)
                assert rec["charges"] == list(charges) and rec["z"] == list(z)
                assert rec["partition"] == list(p), (a, b, charges)
                assert rec["length"] == len(p)
                assert rec["size"] == sum(p) == size_of_charges(a, charges)
                assert rec["skew_length"] == skew_length(p, a, b) == skew_length_by_hooks(p, a, b), (a, b, p)
                assert rec["co_skew_length"] == (a - 1) * (b - 1) // 2 - rec["skew_length"]
                assert is_core(p, a) and is_core(p, b), (a, b, p)
