"""Jacobi map enumeration, application, period residues, kernels."""

import itertools
import random

import pytest

from kummerlab import idealprimes
from kummerlab.arith import (
    exact_sqrt,
    is_prime,
    multiplicative_order,
    primes_below,
    valuation_int,
)
from kummerlab.cyclotomic import conjugate, cyclotomic_ring, gaussian_periods
from kummerlab.ffield import image
from kummerlab.idealprimes import enumerate_jacobi_maps, map_for_root
from kummerlab.lattice import IntLattice
from kummerlab.polyint import cyclotomic_polynomial
from kummerlab.polymod import (
    factor_mod_p,
    gf_mod,
    gf_mul,
    gf_pow_mod,
    gf_root,
    gf_sub,
)
from kummerlab.quadorder import QuadOrder, enumerate_quad_maps
from kummerlab.valuation import _lift_columns
from reference import (
    contains_lattice,
    kernel_mod,
    lattice_contains,
    map_of_factor,
    power_rows_reference,
    standard_lattice,
    transpose,
)

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
        acc = gf_sub(gf_mod(gf_mul(acc, root, m), list(factor), m), [-c % m], m)
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

    enumerate_jacobi_maps.cache_clear()
    monkeypatch.setattr(idealprimes, "factor_mod_p", no_factoring)
    for (lam, p), factors in expected.items():
        maps = enumerate_jacobi_maps(lam, p)
        assert [phi.factor for phi in maps] == factors
    assert [phi.factor for phi in enumerate_jacobi_maps(5, 5)] == [(4, 1)]
    # the root u of the period polynomial found at (29, 7) is a repeated one
    with pytest.raises(AssertionError, match="factor_mod_p called"):
        enumerate_jacobi_maps(29, 7)


def test_maps_are_built_once_per_prime(monkeypatch):
    # a second call builds no JacobiMap and hands out the same tuple; a
    # refusal is no result, so it is raised again on every call
    enumerate_jacobi_maps.cache_clear()
    built = []
    construct = idealprimes.JacobiMap.__init__

    def counting(self, *args):
        built.append(args)
        construct(self, *args)

    monkeypatch.setattr(idealprimes.JacobiMap, "__init__", counting)
    for lam, p in [(5, 11), (5, 19), (7, 7), (7, 29), (23, 47), (41, 83)]:
        maps = enumerate_jacobi_maps(lam, p)
        assert isinstance(maps, tuple) and len(built) == len(maps)
        del built[:]
        assert enumerate_jacobi_maps(lam, p) is maps
        assert not built
    for _ in range(2):
        with pytest.raises(ValueError, match="must be an odd prime"):
            enumerate_jacobi_maps(9, 11)
        with pytest.raises(ValueError, match="is not prime"):
            enumerate_jacobi_maps(5, 21)


# (lam, p) where the period polynomial has a repeated root mod p, so one
# gcd with eta_0(X) - u holds several factors of Phi_lam
REPEATED_RESIDUES = [(13, 3), (19, 7), (19, 11), (29, 7), (29, 17)]


def _higher_degree_pairs(lam_bound, p_bound):
    for lam in primes_below(lam_bound + 1)[1:]:
        for p in primes_below(p_bound):
            if p != lam and 1 < multiplicative_order(p, lam) < lam - 1:
                yield lam, p


def test_period_route_matches_factor_mod_p(monkeypatch):
    # every factor list of the 486 pairs is e distinct monic divisors of
    # Phi_lam of degree f in factor_mod_p's order, which are its factors:
    # Phi_lam mod p is a product of distinct irreducibles of degree f.  The
    # lists of the pairs with lam <= 23 and p < 200 and of the repeated
    # residues are also compared with factor_mod_p itself (all 486 pairs
    # would take it about 38 s).  The route factors only repeated-residue
    # gcds, never Phi_lam.
    pairs = list(_higher_degree_pairs(43, 400))
    assert len(pairs) == 486 and set(REPEATED_RESIDUES) < set(pairs)
    literal = [(lam, p) for lam, p in pairs if lam <= 23 and p < 200]
    assert len(literal) == 141
    expected = {
        (lam, p): [
            tuple(f) for f, _ in factor_mod_p(list(cyclotomic_polynomial(lam)), p)
        ]
        for lam, p in literal + REPEATED_RESIDUES
    }
    factored = []

    def recording(f, p):
        factored.append(len(f) - 1)
        return factor_mod_p(f, p)

    enumerate_jacobi_maps.cache_clear()
    monkeypatch.setattr(idealprimes, "factor_mod_p", recording)
    for lam, p in pairs:
        del factored[:]
        factors = [phi.factor for phi in enumerate_jacobi_maps(lam, p)]
        assert all(d < lam - 1 for d in factored)
        f = multiplicative_order(p, lam)
        assert len(set(factors)) == (lam - 1) // f
        assert factors == sorted(factors, key=lambda fac: (len(fac), fac))
        for fac in factors:
            assert len(fac) == f + 1 and fac[-1] == 1 and max(fac) < p
            assert not gf_mod(list(cyclotomic_polynomial(lam)), list(fac), p)
        assert factors == expected.get((lam, p), factors)


def test_conjugate_route_at_a_large_prime():
    # the period cubic of lambda = 7 at a 101-digit prime of order 2 mod 7:
    # one branch of the split finds a root, and the conjugates of its factor
    # are the other factors of Phi_7
    start = 10**100 - 10**100 % 7 + 6
    p = next(q for q in range(start, start + 10**4, 7) if is_prime(q))
    poly = gaussian_periods(7, 3).polynomial
    u = gf_root(list(poly), p)
    assert sum(c * pow(u, k, p) for k, c in enumerate(poly)) % p == 0
    factors = [tuple(f) for f, _ in factor_mod_p(list(cyclotomic_polynomial(7)), p)]
    assert [len(f) - 1 for f in factors] == [2, 2, 2]
    assert [phi.factor for phi in enumerate_jacobi_maps(7, p)] == factors


def test_gf_root_finds_a_root_of_every_split_polynomial():
    # products of linear factors with repeats, at small primes and a large
    # one; a p-th power has f' = 0 and is read as its p-th root
    rng = random.Random(RNG_SEED)
    for p in (2, 3, 5, 7, 101, 2**127 - 1):
        for _ in range(20):
            roots = [rng.randrange(p) for _ in range(rng.randint(1, 7))]
            f = [1]
            for r in roots:
                f = gf_mul(f, [-r % p, 1], p)
            assert gf_root(f, p) in roots
    assert gf_root([1, 0, 1], 2) == 1  # (Y + 1)^2 over F_2
    assert gf_root([2, 0, 0, 1], 3) == 1  # (Y - 1)^3 over F_3
    assert gf_root([1, 0, 0, 0, 0, 0, 0, 0, 0, 1], 3) == 2  # (Y + 1)^9


def test_gf_root_refuses_a_root_outside_f_p():
    # the period cubic of lambda = 7 is irreducible mod p of order 3 or 6
    # mod 7: no root in F_p, where _split would draw splitting elements
    # forever; X^p = X mod the squarefree part is read off the first one
    cubic = [-1, -2, 1, 1]
    assert list(gaussian_periods(7, 3).polynomial) == cubic
    large = (q for q in range(10**100 + 1, 10**100 + 10**4, 2) if is_prime(q))
    for p in (3, 5, 17, 19, 31, *itertools.islice(large, 4)):
        if multiplicative_order(p % 7, 7) in (3, 6):
            with pytest.raises(ValueError, match=f"irreducible factor mod {p}"):
                gf_root(cubic, p)
        else:
            u = gf_root(cubic, p)
            assert sum(c * pow(u, k, p) for k, c in enumerate(cubic)) % p == 0
    # a root in F_p beside a factor without one, and the same squared
    for f, p in (([2, 1, 2, 1], 3), ([1, 1, 1], 2), ([1, 0, 0, 1], 2)):
        for g in (f, gf_mul(f, f, p)):
            with pytest.raises(ValueError, match="irreducible factor"):
                gf_root(g, p)
    for f, p in (([5], 5), ([7, 14], 7), ([0], 3)):
        with pytest.raises(ValueError, match=f"constant mod {p}"):
            gf_root(f, p)
    # every monic polynomial of degree 1 to 4 mod 2 and 3: a root when its
    # complete factorization is linear, ValueError otherwise
    for p in (2, 3):
        for degree in range(1, 5):
            for low in itertools.product(range(p), repeat=degree):
                f = [*low, 1]
                factors = factor_mod_p(f, p)
                if all(len(g) == 2 for g, _ in factors):
                    assert gf_root(f, p) in [-g[0] % p for g, _ in factors]
                else:
                    with pytest.raises(ValueError):
                        gf_root(f, p)


def test_period_polynomial_repeated_residues():
    for lam, p in REPEATED_RESIDUES:
        e = (lam - 1) // multiplicative_order(p, lam)
        poly = gaussian_periods(lam, e).polynomial
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
            assert system.polynomial == expected


def test_maps_match_the_reference_rows_on_the_census_grid():
    # claim 01's grid: xi is the least of X^(p^k) mod F over k < f, and the
    # columns are the rows of its powers by one polynomial product and
    # division each, transposed
    for lam in (3, 5, 7, 11, 13):
        for p in primes_below(200):
            for phi in enumerate_jacobi_maps(lam, p):
                factor = list(phi.factor)
                orbit = [
                    _coords(gf_pow_mod([0, 1], p**k, factor, p), phi.f)
                    for k in range(phi.f)
                ]
                assert _coords(phi.xi, phi.f) == min(orbit)
                rows = power_rows_reference(phi.xi, lam - 1, factor, p)
                assert phi.columns == transpose(rows, phi.f)


def test_table_maps_match_of_factor_at_every_residue_degree():
    # every map of degree f > 1 (inert primes included) and every ramified
    # one, read off one power table, and every map of a quadratic order,
    # read off the powers of X, against the map built from the same factor
    # by stepping the Frobenius orbit of X
    pairs = [
        (lam, p)
        for lam in primes_below(42)[1:]
        for p in primes_below(400)
        if p == lam or multiplicative_order(p, lam) > 1
    ] + [(101, 2), (101, 3), (101, 19)]
    maps = [phi for lam, p in pairs for phi in enumerate_jacobi_maps(lam, p)]
    quad_maps = [
        phi
        for u in range(-6, 7)
        for v in range(-6, 7)
        if exact_sqrt(u * u - 4 * v) is None
        for p in primes_below(60)
        for phi in enumerate_quad_maps(QuadOrder(u, v), p)
    ]
    assert len(quad_maps) == 3020
    degrees, roots = set(), set()
    for phi in maps + quad_maps:
        ref = map_of_factor(phi.ring, phi.p, phi.factor)
        assert (phi.f, phi.xi, phi.columns) == (ref.f, ref.xi, ref.columns), phi
        degrees.add(phi.f)
    for phi in quad_maps:
        roots.add((phi.f, phi.xi == (), phi.ring.disc % phi.p == 0))
    assert {2, 3, 4, 5, 6, 10, 20, 25, 40, 100} <= degrees
    # degree 2, and degree 1 at a root 0 or not, repeated or not
    assert {(2, False, False), (1, True, True), (1, True, False)} <= roots
    assert {(1, False, True), (1, False, False)} <= roots


def test_kernel_is_kernel_mod_of_the_columns():
    # the HNF read off the RREF of the columns, against the relation solve
    # of the reference kernel_mod, on maps of every residue degree and of
    # quadratic orders
    maps = [
        phi
        for lam in (3, 5, 7, 11, 13)
        for p in primes_below(60)
        for phi in enumerate_jacobi_maps(lam, p)
    ]
    maps += enumerate_jacobi_maps(41, 83) + enumerate_jacobi_maps(101, 607)[:3]
    maps += [
        phi
        for u, v in ((0, 1), (1, 1), (0, 5), (1, 6), (3, -7))
        for p in (2, 3, 5, 7, 13)
        for phi in enumerate_quad_maps(QuadOrder(u, v), p)
    ]
    for phi in maps:
        assert phi.kernel() == kernel_mod(list(zip(*phi.columns)), phi.p), phi


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


def _least_valuation(coords, p: int, precision: int) -> int:
    """The least v_p of the coordinates of a residue mod p^precision, and
    the precision when all of them are 0."""
    return min((valuation_int(c, p) for c in coords if c), default=precision)


def test_lift_image_matches_horner_reference():
    # the reference evaluates at the Teichmueller lift of X itself, not of
    # the canonical root xi.  The two lifts differ by a power of Frobenius,
    # an automorphism of the Galois ring, so the images differ but their
    # least v_p, which is x's valuation while below M, is the same.
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
                    for precision in range(1, 5):
                        m = p**precision
                        power = p ** (phi.f * (precision - 1))
                        lift = gf_pow_mod([0, 1], power, factor, m)
                        reference = _horner(x.coeffs, lift, factor, m)
                        expected = _least_valuation(reference, p, precision)
                        coords = image(x.coeffs, _lift_columns(phi, precision), m)
                        got = _least_valuation(coords, p, precision)
                        assert got == expected, (phi, x, precision)
                        outcomes.add((precision, expected))
    assert outcomes == {(m, v) for m in range(1, 5) for v in range(m + 1)}


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
    vectors = sorted(m.period_residues() for m in enumerate_jacobi_maps(5, 19))
    assert vectors == [(4, 14), (14, 4)]
    for u0, u1 in vectors:
        assert (u0 * u0 + u0 - 1) % 19 == 0  # roots of the period polynomial
    phi3 = map_for_root(enumerate_jacobi_maps(5, 11), 3)
    assert phi3.period_residues() == (3, 9, 4, 5)


def test_period_residue_sums():
    for p in (19, 29):
        for phi in enumerate_jacobi_maps(5, p):
            assert sum(phi.period_residues()) % p == p - 1


def test_period_residues_are_rotations():
    for lam, e, p in [(5, 2, 19), (7, 2, 2), (13, 4, 3)]:
        vectors = [m.period_residues() for m in enumerate_jacobi_maps(lam, p)]
        base = vectors[0]
        rotations = {
            tuple(base[(i + j) % e] for i in range(e)) for j in range(e)
        }
        assert set(vectors) <= rotations
        assert len(set(vectors)) == len(vectors)


def test_period_residues_are_the_images_of_the_map_s_own_periods():
    # the period system is the one of e = (lam - 1) / f periods, at every
    # prime below 100: split, ramified (p = lam) and inert p alike
    for lam in (3, 5, 7, 11, 13, 23):
        for p in primes_below(100):
            for phi in enumerate_jacobi_maps(lam, p):
                system = gaussian_periods(lam, (lam - 1) // phi.f)
                images = [phi.apply(eta) for eta in system.periods]
                assert not any(c for img in images for c in img[1:])  # in F_p
                assert phi.period_residues() == tuple(img[0] for img in images)


def test_kernel_pinned():
    phi3 = map_for_root(enumerate_jacobi_maps(5, 11), 3)
    kernel = phi3.kernel()
    assert kernel.index() == 11
    assert lattice_contains(kernel, [11, 0, 0, 0])
    assert lattice_contains(kernel, [-3, 1, 0, 0])  # alpha - 3
    inert = enumerate_jacobi_maps(5, 2)[0].kernel()
    assert inert.index() == 16
    assert lattice_contains(inert, [2, 0, 0, 0])
    ram = enumerate_jacobi_maps(5, 5)[0].kernel()
    assert ram.index() == 5
    assert lattice_contains(ram, [5, 0, 0, 0])
    assert lattice_contains(ram, [1, -1, 0, 0])


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
