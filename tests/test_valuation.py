"""Uniformizers, Kummer multiplicity vs the p-adic oracle, divisibility."""

import json
import random

import pytest

from kummerlab import quadorder, valuation
from kummerlab.arith import multiplicative_order, primes_below, valuation_int
from kummerlab.cyclotomic import (
    CyclotomicElement,
    CyclotomicRing,
    cyclotomic_ring,
    gaussian_periods,
    norm,
)
from kummerlab.idealprimes import enumerate_jacobi_maps, map_for_root
from kummerlab.lattice import IntLattice, mul_matrix
from kummerlab.polyint import resultant
from kummerlab.valuation import (
    KummerPrime,
    divides,
    factorize,
    kummer_prime,
    multiplicities,
    multiplicity,
    quotient_and_norm,
    valuation_oracle,
    valuation_oracles,
)
from reference import (
    divisibility_step,
    kernel_mod,
    lattice_contains,
    quotient_by_conjugates,
    standard_lattice,
    uniformizer_by_tower,
)

RNG_SEED = 52361


def _elements(lam, count, seed, spread=4):
    rng = random.Random(seed)
    ring = cyclotomic_ring(lam)
    out = []
    while len(out) < count:
        x = ring.element([rng.randint(-spread, spread) for _ in range(lam - 1)])
        if not x.is_zero():
            out.append(x)
    return out


def test_uniformizer_certificate_split():
    maps = enumerate_jacobi_maps(5, 11)
    for phi in maps:
        K = kummer_prime(phi)
        assert phi.kills(K.psi)
        assert K.period_norm % 11 == 0
        assert (K.period_norm // 11) % 11 != 0
    # 2 + alpha certifiably uniformizes the xi = 9 map; alpha - 3 is
    # rejected for the xi = 3 map because its norm is 121
    ring = maps[0].ring
    assert map_for_root(maps, 9).kills(ring.element([2, 1]))
    assert norm(ring.element([2, 1])) == 11
    rejected = ring.alpha() - ring.element(3)
    assert map_for_root(maps, 3).kills(rejected)
    assert norm(rejected) == 121


def test_uniformizer_ramified():
    # the certificate asks only that lam divide the norm exactly once;
    # coprime extra content is harmless
    for lam in (3, 5, 7):
        phi = enumerate_jacobi_maps(lam, lam)[0]
        K = kummer_prime(phi)
        assert valuation_int(K.period_norm, lam) == 1
        assert phi.kills(K.psi)
    K3 = kummer_prime(enumerate_jacobi_maps(3, 3)[0])
    assert abs(K3.period_norm) == 3
    # 1 - alpha is itself a certified uniformizer for the ramified prime
    ring = cyclotomic_ring(3)
    assert norm(ring.one() - ring.alpha()) == 3


def test_uniformizer_inert_is_q():
    phi = enumerate_jacobi_maps(5, 47)[0]  # 47 has order 4 mod 5
    K = kummer_prime(phi)
    assert K.psi == phi.ring.element(47)
    assert K.psi_conjugates == phi.ring.one()
    assert K.period_norm == 47


def test_uniformizer_large_split_prime():
    # 193 = 1 mod 3 splits; a uniformizer's norm is a multiple of 193, out
    # of reach of small coefficients, and alpha - u_0 needs no bound
    ring = cyclotomic_ring(3)
    for phi in enumerate_jacobi_maps(3, 193):
        assert phi.f == 1
        K = kummer_prime(phi)
        assert phi.kills(K.psi)
        assert valuation_int(K.period_norm, 193) == 1
        x = K.psi * ring.element([2, 1])
        assert multiplicity(x, K) == valuation_oracle(x, phi) == 1


def test_uniformizer_psi_conjugate_product_definition():
    # Psi, taken up the period system's subgroup tower, must equal the
    # literal product of the e-1 nontrivial period conjugates; p = 2 and 3
    # have residue degree f > 1 at 23 and 41, so the tower starts at a
    # subgroup of order f
    from kummerlab.cyclotomic import conjugate

    cases = [(5, 11), (5, 19), (7, 29), (23, 2), (23, 3), (23, 47),
             (41, 2), (41, 3), (41, 83)]
    degrees = set()
    for lam, p in cases:
        for phi in enumerate_jacobi_maps(lam, p):
            degrees.add((lam, phi.f))
            K = kummer_prime(phi)
            system = gaussian_periods(lam, (lam - 1) // phi.f)
            prod = phi.ring.one()
            current = K.psi
            for _ in range(system.e - 1):
                current = conjugate(current, system.g)
                prod = prod * current
            assert prod == K.psi_conjugates
            assert (K.psi * K.psi_conjugates) == phi.ring.element(K.period_norm)
    assert {(23, 11), (41, 8), (41, 20), (23, 1), (41, 1)} <= degrees


def test_degree_one_uniformizer_is_the_synthetic_division():
    # psi = alpha - r, Psi = -Q(alpha) and the norm Phi(r) at f = 1 equal
    # the period system's tower on every map; 5 and 11 take psi + q
    for lam, p in ((23, 47), (41, 83), (5, 11), (5, 5)):
        for phi in enumerate_jacobi_maps(lam, p):
            K = kummer_prime(phi)
            psi, big_psi, nval = uniformizer_by_tower(phi)
            assert (K.psi, K.psi_conjugates, K.period_norm) == (psi, big_psi, nval)
    # the map xi = 3 of 11 at lambda 5: Phi_5(3) = 121, so r = 3 - 11
    r = -8
    K = kummer_prime(map_for_root(enumerate_jacobi_maps(5, 11), 3))
    assert K.psi.coeffs == (-r, 1, 0, 0)
    assert K.period_norm == (r**5 - 1) // (r - 1) == 11 * 331
    assert K.psi_conjugates.coeffs == (
        -(r**3 + r**2 + r + 1), -(r**2 + r + 1), -(r + 1), -1
    )


def test_tower_multiply_counts(monkeypatch):
    # norm builds each step's product of conjugates by doubling, for
    # bit_length(r - 1) + popcount(r - 1) - 1 products a step: 6 at lambda
    # 23 (steps of index 2 and 11) and at lambda 41 (2, 2, 2 and 5), where
    # one conjugate at a time, sum (r_i - 1), took 11 and 7.  kummer_prime
    # takes Psi and the period norm from one synthetic division at f = 1,
    # no ring product, and at f > 1 from one walk up the period tower, at
    # most 2 * sum r_i products with the psi + q retry; the cache is
    # cleared so that each map is built here
    count = 0
    original = CyclotomicElement.__mul__

    def counted(self, other):
        nonlocal count
        count += 1
        return original(self, other)

    monkeypatch.setattr(CyclotomicElement, "__mul__", counted)
    for lam, one_by_one in ((23, 11), (41, 7)):
        ring = cyclotomic_ring(lam)
        steps = ring.norm_schedule
        assert sum(r - 1 for _, r in steps) == one_by_one
        count = 0
        norm(ring.element([2, 1]))
        assert count == 6
        assert count == sum(
            (r - 1).bit_length() + (r - 1).bit_count() - 1 for _, r in steps
        )
    phi = enumerate_jacobi_maps(41, 83)[0]
    assert phi.f == 1
    count = 0
    kummer_prime.cache_clear()
    kummer_prime(phi)
    assert count == 0
    phi = enumerate_jacobi_maps(41, 3)[0]
    assert phi.f == 8
    steps = gaussian_periods(41, 5).norm_schedule
    count = 0
    kummer_prime(phi)
    assert 0 < count <= 2 * sum(r for _, r in steps) == 10


def test_maps_above_one_prime_share_one_period_system():
    # all maps above p have the same residue degree, so one (lambda, e);
    # at f = 1 (83 at lambda 41) no period system is built at all
    for lam, p in ((41, 83), (23, 2), (13, 3)):
        gaussian_periods.cache_clear()
        kummer_prime.cache_clear()
        maps = enumerate_jacobi_maps(lam, p)
        for phi in maps:
            kummer_prime(phi)
        assert len(maps) > 1
        if maps[0].f == 1:
            assert gaussian_periods.cache_info().misses == 0
        else:
            assert gaussian_periods.cache_info().misses == 1
            gaussian_periods(lam, (lam - 1) // maps[0].f)  # the one built
            assert gaussian_periods.cache_info().misses == 1
    kummer_prime.cache_clear()


def test_kummer_test_reads_psi_mod_q():
    # psi_columns hold Psi' = Psi - q z with coefficients in (-q/2, q/2]:
    # every entry of the table is below q, and the multiplicities of
    # psi^k * y are still the oracle's, at f = 1, at f = 11 and at q = lambda
    rng = random.Random(RNG_SEED)
    cases = [(41, 83), (23, 2), (7, 7)]
    maps = [phi for lam, p in cases for phi in enumerate_jacobi_maps(lam, p)]
    maps.append(enumerate_jacobi_maps(101, 607)[0])
    for phi in maps:
        K, q = kummer_prime(phi), phi.p
        assert all(abs(c) < q for col in K.psi_columns for c in col)
        ring = phi.ring
        y = ring.element([rng.randint(-3, 3) for _ in range(ring.degree)])
        for k in (0, 1, 3):
            for x in (K.psi**k * y, K.psi**k * ring.element(q + 1)):
                assert multiplicity(x, K) == valuation_oracle(x, phi)


def test_multiplicity_pinned():
    ring = cyclotomic_ring(5)
    for phi in enumerate_jacobi_maps(5, 11):
        assert multiplicity(ring.element(11), kummer_prime(phi)) == 1
    ram = kummer_prime(enumerate_jacobi_maps(5, 5)[0])
    pi = ring.one() - ring.alpha()
    assert multiplicity(pi**4, ram) == 4
    assert multiplicity(ring.element(5), ram) == 4
    assert multiplicity(ring.alpha(), ram) == 0


def test_multiplicity_zero_when_not_killed():
    ring = cyclotomic_ring(5)
    phi = map_for_root(enumerate_jacobi_maps(5, 11), 3)
    x = ring.element([1, 1])
    assert not phi.kills(x)
    assert multiplicity(x, kummer_prime(phi)) == 0


def test_multiplicity_of_zero_raises():
    phi = enumerate_jacobi_maps(5, 11)[0]
    with pytest.raises(ValueError):
        multiplicity(phi.ring.zero(), kummer_prime(phi))
    with pytest.raises(ValueError):
        valuation_oracle(phi.ring.zero(), phi)


def test_batch_routes_refuse_a_zero_element_and_another_ring():
    phi = map_for_root(enumerate_jacobi_maps(5, 11), 3)
    K = kummer_prime(phi)
    one, zero = phi.ring.one(), phi.ring.zero()
    assert multiplicities([], [K]) == [[]] and valuation_oracles([], [phi]) == [[]]
    with pytest.raises(ValueError, match="valuation of 0 is infinite"):
        multiplicities([one, zero], [K])
    with pytest.raises(ValueError, match="valuation of 0 is infinite"):
        valuation_oracles([one, zero], [phi])
    other = cyclotomic_ring(7).one()
    foreign = r"^element lives in CyclotomicRing\(7\), not CyclotomicRing\(5\)$"
    with pytest.raises(ValueError, match=foreign):
        multiplicities([one, other], [K])
    with pytest.raises(ValueError, match=foreign):
        valuation_oracles([one, other], [phi])
    # every map's ring is checked, not the first one's
    phi7 = enumerate_jacobi_maps(7, 29)[0]
    expects = r"^element lives in CyclotomicRing\(5\), not CyclotomicRing\(7\)$"
    with pytest.raises(ValueError, match=expects):
        multiplicities([one], [K, kummer_prime(phi7)])
    with pytest.raises(ValueError, match=expects):
        valuation_oracles([one], [phi, phi7])


def test_ring_checks_take_an_equal_ring_and_refuse_another():
    # every ring check tests identity, then equality: a ring built apart
    # from the shared one passes, and another ring is refused as before
    built, shared = CyclotomicRing(7), cyclotomic_ring(7)
    assert built is not shared and built == shared
    phi = enumerate_jacobi_maps(7, 29)[0]
    K = kummer_prime(phi)
    x = built.element(list(K.psi.coeffs))
    assert x - shared.one() == K.psi - 1
    assert phi.apply(x) == phi.apply(K.psi) and phi.kills(x)
    assert multiplicity(x, K) == valuation_oracle(x, phi) == 1
    assert multiplicities([x, K.psi], [K]) == [[1, 1]]
    assert valuation_oracles([x, K.psi], [phi]) == [[1, 1]]
    y, one = built.element(29), shared.one()
    check = quadorder.dichotomy_check
    assert check([phi], K.psi, y) == check([phi], x, y) == check([phi], x, 29 * one)
    other = cyclotomic_ring(5).element([2, 1])
    expects = r"^element lives in CyclotomicRing\(5\), not CyclotomicRing\(7\)$"
    with pytest.raises(ValueError, match=expects):
        x - other
    with pytest.raises(ValueError, match=expects):
        multiplicity(other, K)
    with pytest.raises(ValueError, match=expects):
        phi.apply(other)
    with pytest.raises(ValueError, match=expects):
        check([phi], other, other)
    with pytest.raises(ValueError, match=expects):
        check([phi], x, other)


def test_norm_cap_stops_a_broken_uniformizer():
    # with Psi = q every level divides, so only the norm cap ends the loop;
    # the columns are those of q's multiplication matrix, 11 times the
    # identity's, so that multiplicity reads the broken Psi
    ring = cyclotomic_ring(5)
    phi = map_for_root(enumerate_jacobi_maps(5, 11), 9)
    columns = tuple(zip(*mul_matrix(ring, [11, 0, 0, 0])))
    assert columns == tuple(tuple(11 * (i == j) for i in range(4)) for j in range(4))
    broken = kummer_prime(phi)._replace(
        psi_conjugates=ring.element(11), psi_columns=columns
    )
    for x in (ring.one(), ring.element([2, 1]), ring.element(11)):
        with pytest.raises(AssertionError):
            multiplicity(x, broken)


def test_records_are_immutable_values():
    # KummerPrime, ValuationRecord and IdealFactorization are named tuples:
    # fields cannot be assigned, equal fields compare and hash equal, and
    # the repr names every field.  KummerPrime is a plain one that carries
    # Psi's columns as a field
    ring = cyclotomic_ring(5)
    phi = map_for_root(enumerate_jacobi_maps(5, 11), 9)
    K = kummer_prime(phi)
    fact = factorize(ring.one() - ring.alpha())
    for record, field in ((K, "psi"), (fact.records[0], "mu"), (fact, "records")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    kummer_prime.cache_clear()
    again = kummer_prime(phi)
    assert again is not K and again == K and hash(again) == hash(K)
    assert KummerPrime.__bases__ == (tuple,)
    assert KummerPrime._fields[-1] == "psi_columns" and len(K) == 5
    assert (again.map.p, again.psi_columns) == (11, K.psi_columns)
    assert repr(fact) == (
        "IdealFactorization(norm_value=5, records=(ValuationRecord("
        "map=JacobiMap(CyclotomicRing(5), p=5, xi=1), mu=1),))"
    )


def test_valuations_up_to_the_degree_and_divides_compute_no_norm(monkeypatch):
    ring = cyclotomic_ring(5)
    ram = enumerate_jacobi_maps(5, 5)[0]
    split = map_for_root(enumerate_jacobi_maps(5, 11), 9)
    K_ram, K_split = kummer_prime(ram), kummer_prime(split)

    def no_norm(x):
        raise RuntimeError("norm computed")

    monkeypatch.setattr(valuation, "norm", no_norm)
    pi, unit, d = ring.one() - ring.alpha(), ring.element([1, 1]), ring.element([2, 1])
    for mu in range(ring.degree + 1):
        assert multiplicity(pi**mu * unit, K_ram) == mu
        assert valuation_oracle(pi**mu * unit, ram) == mu
        assert multiplicity(3 * d**mu, K_split) == mu
        assert valuation_oracle(3 * d**mu, split) == mu
    # divides takes norm(d) from its exact-division cofactor
    assert divides(d, ring.element(11))
    assert not divides(d * d, ring.element(11))
    # past the degree the cap is computed, and with it the norm
    with pytest.raises(RuntimeError):
        multiplicity(pi ** (ring.degree + 1), K_ram)
    with pytest.raises(RuntimeError):
        valuation_oracle(pi ** (ring.degree + 1), ram)


def test_oracle_example_3_7():
    ring = cyclotomic_ring(3)
    x = ring.element([3, 1])
    assert norm(x) == 7
    for phi in enumerate_jacobi_maps(3, 7):
        assert valuation_oracle(x, phi) == multiplicity(x, kummer_prime(phi))
    assert sorted(
        valuation_oracle(x, phi) for phi in enumerate_jacobi_maps(3, 7)
    ) == [0, 1]


# Per conductor: a split prime (f = 1), a prime of degree f > 1, and lam.
ORACLE_PRIMES = {
    3: (7, 2, 3),
    5: (11, 19, 5),
    7: (29, 2, 7),
    11: (23, 3, 11),
    13: (53, 5, 13),
}


def _oracle_maps():
    for lam, primes in ORACLE_PRIMES.items():
        for p in primes:
            for phi in enumerate_jacobi_maps(lam, p)[:2]:
                kind = "ramified" if p == lam else f"f={phi.f}"
                yield kind, phi


def test_oracle_matches_kernel_powers():
    # the reference is membership in (ker phi)^mu, built from lattice
    # products here and nowhere in the library
    rng = random.Random(RNG_SEED + 5)
    pairs = 0
    seen = set()
    for kind, phi in _oracle_maps():
        ring, d = phi.ring, phi.ring.degree
        kernel = phi.kernel()
        basis = kernel.rows
        powers = [standard_lattice(d)]
        for k in range(4):
            for _ in range(10):
                x = _elements(phi.ring.n, 1, rng.random())[0]
                for _ in range(k):
                    # a random element of the kernel, or p if that is 0
                    c = [rng.randint(-2, 2) for _ in range(d)]
                    g = [sum(a * r[i] for a, r in zip(c, basis)) for i in range(d)]
                    x = x * ring.element(g) if any(g) else x * phi.p
                mu = valuation_oracle(x, phi)
                while len(powers) < mu + 2:
                    powers.append(powers[-1].product(kernel, ring))
                assert lattice_contains(powers[mu], x.coeffs), (phi, x, mu)
                assert not lattice_contains(powers[mu + 1], x.coeffs), (phi, x, mu)
                pairs += 1
                seen.add((kind, min(mu, 3)))
    assert pairs >= 900
    kinds = {kind for kind, _ in seen}
    assert {"f=1", "f=2", "f=3", "f=4", "f=5", "ramified"} <= kinds
    assert seen == {(kind, mu) for kind in kinds for mu in range(4)}


def test_oracle_builds_no_lattice(monkeypatch):
    # g = F(alpha) + p, F the map's factor, lies in the prime; with p and
    # the unit 1 + alpha it reaches every mu up to past the degree, where
    # the norm cap is computed
    def no_lattice(*args, **kwargs):
        raise RuntimeError("lattice built")

    maps = [phi for _, phi in _oracle_maps()]
    monkeypatch.setattr(IntLattice, "__init__", no_lattice)
    for phi in maps:
        ring = phi.ring
        g = ring.element(list(phi.factor)) + phi.p
        v_g = valuation_oracle(g, phi)
        v_p = phi.ring.n - 1 if phi.p == phi.ring.n else 1
        assert v_g >= 1
        for a in range(4):
            for b in range(2):
                x = (ring.alpha() + 1) * g**a * phi.p**b
                assert valuation_oracle(x, phi) == a * v_g + b * v_p


def _kummer_primes(lam, primes):
    return [kummer_prime(phi) for p in primes for phi in enumerate_jacobi_maps(lam, p)]


def _all_kummer_primes(lam, bound):
    return _kummer_primes(lam, primes_below(bound + 1))


# Primes at which u_0 repeats in some map's u-vector, so that psi comes from
# the circulant branch's kernel_mod over F_q, and psi + q is needed for some
# of those maps; test_circulant_branch_below_44 takes every such pair with
# lam < 44 and q < 700.
REPEATED_U0_PRIMES = {13: [3], 19: [7, 11]}


def test_circulant_branch_below_44():
    # every map of f > 1 with a repeated u_0 for lam < 44 and q < 700: psi
    # is sum x_k eta_k, or psi + q, with x the first row of the kernel of
    # y N = 0 mod q, y = (1, x), by the relation solve; below lam = 32 the
    # multiplicity of a few elements and of psi matches the oracle's.  u_0
    # repeats exactly where the period polynomial P has a repeated root mod
    # q, so q divides its discriminant Res(P, P')
    maps = []
    for lam in primes_below(44)[1:]:
        for q in primes_below(700):
            f = multiplicative_order(q, lam) if q != lam else 1
            if f == 1 or f == lam - 1:
                continue
            poly = list(gaussian_periods(lam, (lam - 1) // f).polynomial)
            if resultant(poly, [k * c for k, c in enumerate(poly)][1:]) % q:
                continue
            for phi in enumerate_jacobi_maps(lam, q):
                u = phi.period_residues()
                if u.count(u[0]) > 1:
                    maps.append(phi)
    pairs = {(phi.ring.n, phi.p) for phi in maps}
    assert (len(maps), len(pairs)) == (67, 26)
    assert {(13, 3), (19, 7), (19, 11), (31, 2), (41, 3), (43, 2)} <= pairs
    shifts = set()
    for phi in maps:
        K = kummer_prime(phi)
        lam, q = phi.ring.n, phi.p
        system = gaussian_periods(lam, (lam - 1) // phi.f)
        u, e = phi.period_residues(), len(system.periods)
        rows = [[0] + [q - 1] * (e - 1)]
        rows += [[u[(k + l) % e] for l in range(e)] for k in range(e)]
        x = kernel_mod(rows, q).rows[0][1:]
        psi = sum((c * eta for c, eta in zip(x, system.periods)), phi.ring.zero())
        assert K.psi in (psi, psi + q), phi
        shifts.add(K.psi == psi + q)
        if lam < 32:
            drawn = _elements(lam, 3, RNG_SEED + q)
            for y in drawn + [g * K.psi for g in drawn] + [K.psi, K.psi * K.psi]:
                assert multiplicity(y, K) == valuation_oracle(y, phi), (phi, y)
    assert shifts == {False, True}


@pytest.mark.parametrize("lam", [3, 5, 7, 13, 19])
def test_kummer_vs_oracle_corpus(lam):
    if lam in REPEATED_U0_PRIMES:
        primes = _kummer_primes(lam, REPEATED_U0_PRIMES[lam])
    else:
        primes = _all_kummer_primes(lam, 50)
    for x in _elements(lam, 60, RNG_SEED + lam):
        nval = norm(x)
        for K in primes:
            mu = multiplicity(x, K)
            assert mu == valuation_oracle(x, K.map)
            # finiteness bound from the norm
            assert mu <= valuation_int(nval, K.map.p) * (lam - 1)
            # gap regression: the divisibility set is exactly [0, mu]
            for step in range(mu + 1):
                assert divisibility_step(x, K, step)
            assert not divisibility_step(x, K, mu + 1)


@pytest.mark.parametrize("lam", [3, 5, 7])
def test_valuation_axioms(lam):
    rng = random.Random(RNG_SEED + 10 * lam)
    primes = _all_kummer_primes(lam, 50)
    ring = cyclotomic_ring(lam)
    pairs = 0
    while pairs < 40:
        x = ring.element([rng.randint(-4, 4) for _ in range(lam - 1)])
        y = ring.element([rng.randint(-4, 4) for _ in range(lam - 1)])
        if x.is_zero() or y.is_zero():
            continue
        pairs += 1
        s = x + y
        for K in primes:
            assert multiplicity(x * y, K) == multiplicity(x, K) + multiplicity(y, K)
            if not s.is_zero():
                assert multiplicity(s, K) >= min(
                    multiplicity(x, K), multiplicity(y, K)
                )


def is_defined_at_by_valuation(
    numerator: CyclotomicElement, denominator: CyclotomicElement, K: KummerPrime
) -> bool:
    """Valuation form of the same test: v(numerator) >= v(denominator)."""
    if denominator.is_zero():
        raise ZeroDivisionError("zero denominator")
    if numerator.is_zero():
        return True
    return multiplicity(numerator, K) >= multiplicity(denominator, K)


def test_defined_at_pinned():
    ring = cyclotomic_ring(5)
    maps = enumerate_jacobi_maps(5, 11)
    phi9 = map_for_root(maps, 9)
    eleven = ring.element(11)
    d = ring.element([2, 1])
    for rep in quadorder.dichotomy_check(maps, eleven, ring.one()):
        assert rep["at_fraction"]  # x/1 always defined
    [rep] = quadorder.dichotomy_check([phi9], eleven, d)
    assert rep["at_fraction"]
    K9 = kummer_prime(phi9)
    assert multiplicity(eleven, K9) == 1 == multiplicity(d, K9)
    q = quotient_and_norm(d, eleven)[0]
    assert valuation_oracle(q, phi9) == 0
    assert sorted(valuation_oracle(q, m) for m in maps) == [0, 1, 1, 1]
    with pytest.raises(ZeroDivisionError):
        quadorder.dichotomy_check([phi9], eleven, ring.zero())


def test_defined_at_routes_agree_and_dichotomy():
    rng = random.Random(RNG_SEED + 99)
    for lam in (3, 5):
        ring = cyclotomic_ring(lam)
        primes = _all_kummer_primes(lam, 30)
        pairs = 0
        while pairs < 100:
            x = ring.element([rng.randint(-4, 4) for _ in range(lam - 1)])
            y = ring.element([rng.randint(-4, 4) for _ in range(lam - 1)])
            if x.is_zero() or y.is_zero():
                continue
            pairs += 1
            reps = quadorder.dichotomy_check([K.map for K in primes], x, y)
            for K, rep in zip(primes, reps):
                assert rep["at_fraction"] == is_defined_at_by_valuation(x, y, K)
                assert rep["at_inverse"] == is_defined_at_by_valuation(y, x, K)
                # the dichotomy: defined at the fraction or its inverse
                assert rep["at_fraction"] or rep["at_inverse"]


def test_factorize_pinned():
    ring = cyclotomic_ring(5)
    assert factorize(ring.one()).records == ()
    one_minus = factorize(ring.one() - ring.alpha())
    assert [(r.map.p, r.map.label(), r.mu) for r in one_minus.records if r.mu] == [
        (5, 1, 1)
    ]
    two_plus = factorize(ring.element([2, 1]))
    assert [(r.map.p, r.map.label(), r.mu) for r in two_plus.records if r.mu] == [
        (11, 9, 1)
    ]
    assert len(two_plus.records) == 4  # all maps of 11 are recorded
    with pytest.raises(ValueError):
        factorize(ring.zero())


def test_factorize_builds_no_uniformizer(monkeypatch):
    # every valuation comes from the oracle; Kummer's route, run afterwards,
    # gives the same records
    ring41 = cyclotomic_ring(41)
    xs = _elements(5, 15, RNG_SEED + 2005) + _elements(7, 15, RNG_SEED + 2007)
    xs.append(ring41.element([2, 1]))

    def no_uniformizer(phi):
        raise RuntimeError("uniformizer built")

    monkeypatch.setattr(valuation, "kummer_prime", no_uniformizer)
    facts = [factorize(x) for x in xs]
    monkeypatch.undo()
    for x, fact in zip(xs, facts):
        for r in fact.records:
            assert r.mu == multiplicity(x, kummer_prime(r.map)), (x, r.map)
    assert [(r.map.p, r.map.label(), r.mu) for r in facts[-1].records if r.mu] == [
        (83, 81, 1),
        (8831418697, 8831418695, 1),
    ]


def test_factorize_norm_consistency():
    for lam in (3, 5, 7):
        for x in _elements(lam, 25, RNG_SEED + 1000 + lam):
            fact = factorize(x)
            nval = fact.norm_value
            assert nval == norm(x)
            by_prime: dict[int, int] = {}
            for r in fact.records:
                by_prime[r.map.p] = by_prime.get(r.map.p, 0) + r.map.f * r.mu
            for p, total in by_prime.items():
                assert total == valuation_int(nval, p)


def test_divides_pinned():
    ring = cyclotomic_ring(5)
    pi = ring.one() - ring.alpha()
    five = ring.element(5)
    assert divides(pi, five)
    assert not divides(pi**5, five)
    assert divides(ring.element([2, 1]), ring.element(11))
    assert divides(pi, pi)
    assert divides(pi, ring.zero())
    with pytest.raises(ZeroDivisionError):
        divides(ring.zero(), five)


def test_exact_quotient():
    ring = cyclotomic_ring(5)
    x = ring.element([1, -2, 0, 3])
    d = ring.element([2, 1, 1, 0])
    prod = x * d
    assert quotient_and_norm(d, prod)[0] == x
    assert quotient_and_norm(d, ring.one())[0] is None


def test_exact_quotient_matches_the_conjugate_by_conjugate_cofactor():
    # the cofactor up the subgroup tower against the lam - 2 products of
    # the reference, on quotients that exist and on ones that do not
    rng = random.Random(RNG_SEED + 11)
    for lam, count in [(3, 30), (5, 30), (7, 20), (11, 10), (23, 4)]:
        ring = cyclotomic_ring(lam)
        for i, d in enumerate(_elements(lam, count, rng.randrange(10**6), 2)):
            y = ring.element([rng.randint(-3, 3) for _ in range(lam - 1)])
            x = y * d if i % 2 else y
            quotient = quotient_and_norm(d, x)[0]
            assert quotient == quotient_by_conjugates(d, x)
            if i % 2:
                assert quotient == y
            if lam < 23:
                assert divides(d, x) == (quotient is not None)


def test_completeness_property():
    # whenever every map is defined at x/y the quotient is integral
    rng = random.Random(RNG_SEED + 7)
    from kummerlab.arith import factorize_int

    ring = cyclotomic_ring(5)
    cases = 0
    while cases < 60:
        x = ring.element([rng.randint(-4, 4) for _ in range(4)])
        y = ring.element([rng.randint(-3, 3) for _ in range(4)])
        if x.is_zero() or y.is_zero():
            continue
        if cases % 2:
            x = x * y  # force divisibility half the time
        cases += 1
        maps = [
            phi
            for p in sorted(factorize_int(norm(y)))
            for phi in enumerate_jacobi_maps(5, p)
        ]
        reps = quadorder.dichotomy_check(maps, x, y)
        defined_everywhere = all(rep["at_fraction"] for rep in reps)
        quotient = quotient_and_norm(y, x)[0]
        assert defined_everywhere == (quotient is not None)
        assert divides(y, x) == defined_everywhere


def test_factorize_refuses_an_inconsistent_norm(monkeypatch, capsys):
    # valuations that miss the norm's exponent of 11 are refused, and the
    # CLI reports that as a failed assertion
    from kummerlab.cli import main

    monkeypatch.setattr(valuation, "valuation_oracle", lambda x, phi: 0)
    x = cyclotomic_ring(5).element([2, 1])
    with pytest.raises(ArithmeticError, match="norm consistency failed at p=11"):
        factorize(x)
    assert main(["factor", "--lambda", "5", "2 + a"]) == 1
    assert "assertion failed:" in capsys.readouterr().err


def test_divides_refuses_routes_that_disagree(monkeypatch):
    # 2 + a divides 11 exactly; an oracle that values only the divisor
    # makes the valuation comparison say no
    ring = cyclotomic_ring(5)
    d = ring.element([2, 1])
    monkeypatch.setattr(valuation, "valuation_oracle", lambda x, phi: int(x == d))
    message = "exact division and valuation comparison disagree"
    with pytest.raises(ArithmeticError, match=message):
        divides(d, ring.element(11))


def test_kummer_prime_refuses_a_failed_certificate(monkeypatch):
    # a norm with q^2 in it, even after the shift by q, fails the
    # certificate; the cache is cleared so that the map is built here
    phi = enumerate_jacobi_maps(5, 11)[0]
    kummer_prime.cache_clear()
    real = valuation._linear_uniformizer

    def inflated(ring, r):
        psi, big_psi, nval = real(ring, r)
        return psi, big_psi, nval * phi.p

    monkeypatch.setattr(valuation, "_linear_uniformizer", inflated)
    with pytest.raises(ArithmeticError, match="failed its certificate"):
        kummer_prime(phi)
    assert kummer_prime.cache_info().currsize == 0


def test_lifts_are_built_once_per_map_and_level(monkeypatch):
    # the oracle reads x's image at the Teichmueller lift mod p^M for
    # M = 2, 4, ...; each (map, M) raises a power only once
    valuation._lift_columns.cache_clear()
    raised = []
    power = valuation.gf_pow_mod

    def counting(*args):
        raised.append(args)
        return power(*args)

    monkeypatch.setattr(valuation, "gf_pow_mod", counting)
    phi = map_for_root(enumerate_jacobi_maps(5, 11), 9)
    x = cyclotomic_ring(5).element([2, 1]) ** 3
    assert valuation_oracle(x, phi) == 3
    assert len(raised) == 2  # M = 2, and the 4 that 3 is below
    assert valuation_oracle(x * 7, phi) == 3 and len(raised) == 2


def test_a_valuation_of_1000_takes_10_lifts(monkeypatch, capsys):
    # 11^1000 lies in P^1000 and not P^1001: the images mod 11^M vanish for
    # M = 2, ..., 512 and read v_11 = 1000 at M = 1024, and the Kummer
    # route in the same report agrees
    from kummerlab.cli import main

    valuation._lift_columns.cache_clear()
    precisions = []
    power = valuation.gf_pow_mod

    def counting(root, exponent, factor, m):
        precisions.append(valuation_int(m, 11))
        return power(root, exponent, factor, m)

    monkeypatch.setattr(valuation, "gf_pow_mod", counting)
    args = ["valuation", "--lambda", "5", "--p", "11", "--xi", "9", "--json"]
    assert main(args + [str(11**1000)]) == 0
    report = json.loads(capsys.readouterr().out)["result"]
    assert report["mu"] == report["oracle"] == 1000
    assert precisions == [2**k for k in range(1, 11)]


def test_a_valuation_of_2544_builds_lifts_at_2_to_4096(monkeypatch, capsys):
    # 7^2544 at lambda 3: both maps above 7 read v = 2544 at M = 4096, each
    # lift a Newton step from the one below it, so every (map, M) takes one
    # power and no other precision is built
    from kummerlab.cli import main

    valuation._lift_columns.cache_clear()
    precisions = []
    power = valuation.gf_pow_mod

    def counting(root, exponent, factor, m):
        precisions.append(valuation_int(m, 7))
        return power(root, exponent, factor, m)

    monkeypatch.setattr(valuation, "gf_pow_mod", counting)
    assert main(["factor", "--lambda", "3", "--json", str(7**2544)]) == 0
    records = json.loads(capsys.readouterr().out)["result"]["records"]
    assert [(r["p"], r["mu"]) for r in records] == [(7, 2544), (7, 2544)]
    assert sorted(precisions) == sorted(2 * [2**k for k in range(1, 13)])


# Per conductor: a split map, a map of degree f > 1 and the ramified map.
PLANTED_PRIMES = {5: (11, 19, 5), 7: (29, 2, 7)}


def test_oracle_reads_planted_valuations():
    # x = psi^k u p^j, u a unit at P, has valuation k + e j, e = v_P(p):
    # 1 for p != lam and lam - 1 at p = lam
    rng = random.Random(RNG_SEED + 13)
    for lam, primes in PLANTED_PRIMES.items():
        ring = cyclotomic_ring(lam)
        for p in primes:
            phi = enumerate_jacobi_maps(lam, p)[0]
            K = kummer_prime(phi)
            e = lam - 1 if p == lam else 1
            pairs = [(0, 0), (60, 30), (1, 0), (0, 1)]
            pairs += [(rng.randint(0, 60), rng.randint(0, 30)) for _ in range(6)]
            for k, j in pairs:
                u = ring.zero()
                while phi.kills(u):
                    u = ring.element([rng.randint(-3, 3) for _ in range(lam - 1)])
                x = K.psi**k * u * p**j
                assert valuation_oracle(x, phi) == k + e * j, (phi, k, j)
                assert multiplicity(x, K) == k + e * j, (phi, k, j)
