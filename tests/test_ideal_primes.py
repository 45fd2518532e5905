"""Jacobi map enumeration, application, period residues, kernels."""

import random

import pytest

from kummerlab import charsum, idealprimes
from kummerlab.arith import multiplicative_order, primes_below
from kummerlab.charsum import character
from kummerlab.cyclotomic import conjugate, cyclotomic_ring, gaussian_periods
from kummerlab.idealprimes import enumerate_jacobi_maps, map_for_root
from kummerlab.lattice import IntLattice
from kummerlab.polyint import cyclotomic_polynomial
from kummerlab.polymod import factor_mod_p, gf_add, gf_mod, gf_mul, gf_pow_mod
from kummerlab.valuation import _vanishes_at_lift, kummer_prime
from reference import contains_lattice, power_rows_reference, standard_lattice

RNG_SEED = 77911


def _scaled_standard(dim, c):
    return IntLattice([[c * int(i == j) for j in range(dim)] for i in range(dim)])


def _transformed(lattice, func):
    """Image lattice under a Z-linear map given on coordinate rows."""
    return IntLattice([func(r) for r in lattice.rows])


def _power(lattice, e, order):
    if e < 0:
        raise ValueError("negative lattice power")
    out = standard_lattice(lattice.dim)
    for _ in range(e):
        out = out.product(lattice, order)
    return out


def _conjugate_lattice(lattice, k, lam):
    """Image of a coefficient lattice in Z[alpha] under sigma_k."""
    ring = cyclotomic_ring(lam)
    return _transformed(
        lattice, lambda row: list(conjugate(ring.element(list(row)), k).coeffs)
    )


def _conjugated_map(phi, k):
    """The map x -> phi(sigma_k(x)); its kernel is sigma_k^{-1}(ker phi)."""
    k_inv = pow(k, -1, phi.ring.n)
    target = _conjugate_lattice(phi.kernel(), k_inv, phi.ring.n)
    for candidate in enumerate_jacobi_maps(phi.ring.n, phi.p):
        if candidate.kernel() == target:
            return candidate
    raise AssertionError("conjugated map must exist in the enumeration")


def test_enumerate_split():
    maps = enumerate_jacobi_maps(5, 11)
    assert sorted(m.label() for m in maps) == [3, 4, 5, 9]
    assert all(m.f == 1 for m in maps)


def _coords(poly, f):
    """A residue polynomial as its f coordinates."""
    return tuple(poly) + (0,) * (f - len(poly))


def _horner(coeffs, root, factor, m):
    """The evaluation the power rows replace: Horner's rule in (Z/m)[X]/(F)."""
    acc = []
    for c in reversed(coeffs):
        acc = gf_add(gf_mod(gf_mul(acc, root, m), list(factor), m), [c % m], m)
    return _coords(acc, len(factor) - 1)


def test_enumerate_inert():
    maps = enumerate_jacobi_maps(5, 2)
    assert len(maps) == 1
    phi = maps[0]
    assert phi.f == 4 and phi.factor == (1, 1, 1, 1, 1)
    xi = list(phi.apply(phi.ring.alpha()))
    assert gf_pow_mod(xi, 5, list(phi.factor), 2) == [1]


def test_enumerate_ramified():
    maps = enumerate_jacobi_maps(5, 5)
    assert len(maps) == 1
    phi = maps[0]
    ring = phi.ring
    assert phi.apply(ring.alpha()) == (1,)
    assert phi.kills(ring.one() - ring.alpha())


def test_enumerate_rejects_bad_conductor():
    with pytest.raises(ValueError):
        enumerate_jacobi_maps(4, 11)
    with pytest.raises(ValueError):
        enumerate_jacobi_maps(2, 11)


def test_degree_one_maps_are_constructed(monkeypatch):
    # Jacobi's z^k against the roots factor_mod_p finds, in its order
    expected = {}
    for lam in primes_below(42)[1:]:
        phi_lam = list(cyclotomic_polynomial(lam))
        for p in primes_below(2000):
            if p % lam == 1:
                expected[lam, p] = [tuple(f) for f, _ in factor_mod_p(phi_lam, p)]

    def no_factoring(*args):
        raise AssertionError("factor_mod_p called")

    monkeypatch.setattr(idealprimes, "factor_mod_p", no_factoring)
    for (lam, p), factors in expected.items():
        maps = enumerate_jacobi_maps(lam, p)
        assert [phi.factor for phi in maps] == factors
    assert [phi.factor for phi in enumerate_jacobi_maps(5, 5)] == [(4, 1)]
    with pytest.raises(AssertionError, match="factor_mod_p called"):
        enumerate_jacobi_maps(5, 19)


# (lam, p) where the period polynomial has a repeated root mod p, so one
# gcd with eta_0(X) - u holds several factors of Phi_lam
REPEATED_RESIDUES = [(13, 3), (19, 7), (19, 11), (29, 7), (29, 17)]


def _higher_degree_pairs(lam_bound, p_bound):
    for lam in primes_below(lam_bound + 1)[1:]:
        for p in primes_below(p_bound):
            if p != lam and 1 < multiplicative_order(p, lam) < lam - 1:
                yield lam, p


def test_period_route_matches_factor_mod_p(monkeypatch):
    # every factor list, order included, against the full factorization;
    # the route itself factors only period polynomials and repeated-residue
    # gcds, never Phi_lam
    pairs = list(_higher_degree_pairs(23, 200)) + REPEATED_RESIDUES
    assert len(pairs) == 141 + len(REPEATED_RESIDUES)
    expected = {
        (lam, p): [
            tuple(f) for f, _ in factor_mod_p(list(cyclotomic_polynomial(lam)), p)
        ]
        for lam, p in pairs
    }
    factored = []

    def recording(f, p):
        factored.append(len(f) - 1)
        return factor_mod_p(f, p)

    monkeypatch.setattr(idealprimes, "factor_mod_p", recording)
    for (lam, p), factors in expected.items():
        del factored[:]
        assert [phi.factor for phi in enumerate_jacobi_maps(lam, p)] == factors
        assert max(factored) < lam - 1


def test_period_polynomial_repeated_residues():
    for lam, p in REPEATED_RESIDUES:
        e = (lam - 1) // multiplicative_order(p, lam)
        poly, _ = idealprimes._period_polynomial(lam, e)
        assert max(mult for _, mult in factor_mod_p(list(poly), p)) == 2
        assert len(enumerate_jacobi_maps(lam, p)) == e


def test_period_polynomial_matches_the_product():
    # prod (Y - eta_i) multiplied out in Z[alpha][Y], lowest degree first
    for lam in (3, 5, 7, 11, 13):
        for e in range(1, lam):
            if (lam - 1) % e:
                continue
            system = gaussian_periods(lam, e)
            ring = system.ring
            product = [ring.one()]
            for eta in system.periods:
                shifted = [ring.zero()] + product
                product = [a - eta * b for a, b in zip(shifted, product + [0])]
            expected = tuple(c.rational_value() for c in product)
            poly, eta0 = idealprimes._period_polynomial(lam, e)
            assert poly == expected and eta0 == system.periods[0].coeffs


def test_period_polynomial_cache_is_bounded():
    assert idealprimes._period_polynomial.cache_info().maxsize is not None


def test_map_keyed_caches_are_bounded():
    # one kernel lattice and one uniformizer per map seen
    assert idealprimes._kernel_lattice.cache_info().maxsize is not None
    assert kummer_prime.cache_info().maxsize is not None


def test_conductor_keyed_caches_are_bounded():
    # one ring, one Phi_n, one character and one period system per
    # conductor seen, one discrete-log table with its packed logs per prime
    assert cyclotomic_ring.cache_info().maxsize is not None
    assert cyclotomic_polynomial.cache_info().maxsize is not None
    assert character.cache_info().maxsize is not None
    assert charsum._log_table.cache_info().maxsize is not None
    assert gaussian_periods.cache_info().maxsize is not None


def test_maps_match_the_reference_rows_on_the_census_grid():
    # claim 01's grid: xi is the least of X^(p^k) mod F over k < f, and the
    # rows are its powers by one polynomial product and division each
    for lam in (3, 5, 7, 11, 13):
        for p in primes_below(200):
            for phi in enumerate_jacobi_maps(lam, p):
                factor = list(phi.factor)
                orbit = [
                    _coords(gf_pow_mod([0, 1], p**k, factor, p), phi.f)
                    for k in range(phi.f)
                ]
                assert _coords(phi.xi, phi.f) == min(orbit)
                assert phi.rows == power_rows_reference(phi.xi, lam - 1, factor, p)


def test_census_counts():
    for lam in (3, 5, 7, 11, 13):
        for p in primes_below(200):
            maps = enumerate_jacobi_maps(lam, p)
            if p == lam:
                assert len(maps) == 1
            else:
                assert len(maps) == (lam - 1) // multiplicative_order(p, lam)
            assert len({m.factor for m in maps}) == len(maps)


def test_apply_pinned():
    maps = enumerate_jacobi_maps(5, 11)
    phi3 = map_for_root(maps, 3)
    ring = phi3.ring
    assert phi3.apply(ring.zero()) == (0,)
    assert phi3.apply(ring.element([2, 1])) == (5,)
    with pytest.raises(ValueError):
        phi3.apply(cyclotomic_ring(7).alpha())


def test_apply_is_homomorphism():
    rng = random.Random(RNG_SEED)
    for lam, p in [(5, 11), (5, 2), (7, 13), (3, 3)]:
        for phi in enumerate_jacobi_maps(lam, p):
            ring, factor = phi.ring, list(phi.factor)
            for _ in range(40):
                x = ring.element([rng.randint(-9, 9) for _ in range(lam - 1)])
                y = ring.element([rng.randint(-9, 9) for _ in range(lam - 1)])
                a, b = phi.apply(x), phi.apply(y)
                assert phi.apply(x + y) == tuple((u + v) % p for u, v in zip(a, b))
                product = gf_mod(gf_mul(list(a), list(b), p), factor, p)
                assert phi.apply(x * y) == _coords(product, phi.f)


# (lam, p) with f = ord_lam(p) = 1, 2, 3, 4, 6, and p = lam
APPLY_CASES = [(5, 11), (5, 19), (7, 2), (5, 2), (7, 3), (5, 5), (7, 7)]


def test_apply_matches_horner_reference():
    rng = random.Random(RNG_SEED + 2)
    degrees = set()
    for lam, p in APPLY_CASES:
        for phi in enumerate_jacobi_maps(lam, p):
            degrees.add(phi.f)
            factor = list(phi.factor)
            # xi is the least element of the Frobenius orbit of X
            orbit = [
                _coords(gf_pow_mod([0, 1], p**k, factor, p), phi.f)
                for k in range(phi.f)
            ]
            assert _coords(phi.xi, phi.f) == min(orbit)
            assert phi.apply(phi.ring.alpha()) == min(orbit)
            for _ in range(30):
                c = [rng.randint(-50, 50) for _ in range(lam - 1)]
                x = phi.ring.element(c)
                assert phi.apply(x) == _horner(x.coeffs, list(phi.xi), factor, p)
    assert degrees == {1, 2, 3, 4, 6}


def test_vanishes_at_lift_matches_horner_reference():
    # the reference evaluates at the Teichmueller lift of X itself, not of
    # the canonical root xi; both lie above the same prime
    rng = random.Random(RNG_SEED + 3)
    outcomes = set()
    for lam, p in APPLY_CASES[:5]:
        for phi in enumerate_jacobi_maps(lam, p)[:2]:
            ring, d, factor = phi.ring, lam - 1, list(phi.factor)
            basis = phi.kernel().rows
            for k in range(5):
                for _ in range(4):
                    x = ring.element([rng.randint(-9, 9) for _ in range(d)])
                    for _ in range(k):
                        c = [rng.randint(-2, 2) for _ in range(d)]
                        g = [sum(a * r[i] for a, r in zip(c, basis)) for i in range(d)]
                        x = x * ring.element(g) if any(g) else x * p
                    for mu in range(1, 5):
                        m = p**mu
                        lift = gf_pow_mod([0, 1], p ** (phi.f * (mu - 1)), factor, m)
                        expected = not any(_horner(x.coeffs, lift, factor, m))
                        assert _vanishes_at_lift(x, phi, mu) == expected, (phi, x, mu)
                        outcomes.add((mu, expected))
    assert outcomes == {(mu, b) for mu in range(1, 5) for b in (False, True)}


def test_kernel_primality_surrogate():
    rng = random.Random(RNG_SEED + 1)
    for phi in enumerate_jacobi_maps(5, 11) + enumerate_jacobi_maps(5, 2):
        ring = phi.ring
        found = 0
        while found < 20:
            x = ring.element([rng.randint(-6, 6) for _ in range(4)])
            y = ring.element([rng.randint(-6, 6) for _ in range(4)])
            if phi.kills(x * y):
                found += 1
                assert phi.kills(x) or phi.kills(y)


def test_period_residues_pinned():
    sys52 = gaussian_periods(5, 2)
    vectors = sorted(m.period_residues(sys52) for m in enumerate_jacobi_maps(5, 19))
    assert vectors == [(4, 14), (14, 4)]
    for u0, u1 in vectors:
        assert (u0 * u0 + u0 - 1) % 19 == 0  # roots of the period polynomial
    phi3 = map_for_root(enumerate_jacobi_maps(5, 11), 3)
    assert phi3.period_residues(gaussian_periods(5, 4)) == (3, 9, 4, 5)


def test_period_residue_sums():
    sys52 = gaussian_periods(5, 2)
    for p in (19, 29):
        for phi in enumerate_jacobi_maps(5, p):
            assert sum(phi.period_residues(sys52)) % p == p - 1


def test_period_residues_are_rotations():
    for lam, e, p in [(5, 2, 19), (7, 2, 2), (13, 4, 3)]:
        system = gaussian_periods(lam, e)
        vectors = [m.period_residues(system) for m in enumerate_jacobi_maps(lam, p)]
        base = vectors[0]
        rotations = {
            tuple(base[(i + j) % e] for i in range(e)) for j in range(e)
        }
        assert set(vectors) <= rotations
        assert len(set(vectors)) == len(vectors)


def test_period_residue_degree_mismatch():
    phi = enumerate_jacobi_maps(5, 19)[0]  # f = 2
    with pytest.raises(ValueError):
        phi.period_residues(gaussian_periods(5, 4))


def test_kernel_pinned():
    phi3 = map_for_root(enumerate_jacobi_maps(5, 11), 3)
    kernel = phi3.kernel()
    assert kernel.index() == 11
    assert [11, 0, 0, 0] in kernel
    assert [-3, 1, 0, 0] in kernel  # alpha - 3
    inert = enumerate_jacobi_maps(5, 2)[0].kernel()
    assert inert.index() == 16
    assert [2, 0, 0, 0] in inert
    ram = enumerate_jacobi_maps(5, 5)[0].kernel()
    assert ram.index() == 5
    assert [5, 0, 0, 0] in ram and [1, -1, 0, 0] in ram


def test_kernel_closed_under_alpha_multiplication():
    for lam, p in [(5, 11), (5, 2), (7, 29)]:
        ring = cyclotomic_ring(lam)
        for phi in enumerate_jacobi_maps(lam, p):
            kernel = phi.kernel()
            shifted = _transformed(
                kernel,
                lambda row: list((ring.element(list(row)) * ring.alpha()).coeffs),
            )
            assert contains_lattice(kernel, shifted)


def test_conjugation_action_and_transitivity():
    for lam, p in [(5, 11), (5, 19), (7, 2)]:
        maps = enumerate_jacobi_maps(lam, p)
        kernels = {m.kernel() for m in maps}
        base = maps[0]
        orbit = set()
        for k in range(1, lam):
            moved = _conjugated_map(base, k)
            assert moved.kernel() == _conjugate_lattice(
                base.kernel(), pow(k, -1, lam), lam
            )
            orbit.add(moved.kernel())
        assert orbit == kernels


def test_kernel_product_reconstructs_p():
    for lam, p in [(5, 11), (5, 19), (5, 2), (7, 13)]:
        ring = cyclotomic_ring(lam)
        maps = enumerate_jacobi_maps(lam, p)
        prod = standard_lattice(lam - 1)
        for phi in maps:
            prod = prod.product(phi.kernel(), ring)
        assert prod.index() == p ** (lam - 1)
        assert prod == _scaled_standard(lam - 1, p)
    # ramified: the kernel power reconstructs (lam)
    ram = enumerate_jacobi_maps(5, 5)[0]
    power = _power(ram.kernel(), 4, cyclotomic_ring(5))
    assert power == _scaled_standard(4, 5)


def test_map_for_root_takes_residue_or_coefficients():
    split = enumerate_jacobi_maps(5, 11)
    assert map_for_root(split, 9) is map_for_root(split, 20) is split[0]
    inert = enumerate_jacobi_maps(5, 2)
    assert map_for_root(inert, [0, 0, 0, 1]) is inert[0]
    with pytest.raises(ValueError, match="no Jacobi map with xi = 0,1"):
        map_for_root(inert, [0, 1])
    with pytest.raises(ValueError, match="no Jacobi map with xi = 1 "):
        map_for_root(split, 1)
