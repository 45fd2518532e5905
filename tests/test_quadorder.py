"""Quadratic orders: singular maps, conductors, Gauss's Lemma."""

import random

import pytest

from kummerlab import lattice
from kummerlab.arith import primes_below
from kummerlab.cyclotomic import cyclotomic_ring
from kummerlab.idealprimes import JacobiMap, enumerate_jacobi_maps
from kummerlab.lattice import IntLattice
from kummerlab.polymod import gf_mod, gf_normalize
from kummerlab.quadorder import (
    CATALOG,
    QuadOrder,
    conductor,
    dichotomy_check,
    enumerate_quad_maps,
    gauss_lemma_check,
    prime_square_anomaly,
)
from reference import colon_extends_to, lattice_contains, quad_product, transpose

RNG_SEED = 83231

SQRT_M3 = QuadOrder(0, 3)
GAUSSIAN = QuadOrder(0, 1)

# The catalog's orders, by name
CATALOG_ORDERS = {name: QuadOrder(u, v) for name, u, v, _ in CATALOG}
# (b, c) of a monic T^2 + bT + c that splits over the fraction field but
# not over the order: exactly the orders that are not integrally closed
GAUSS_LEMMA_WITNESSES = {
    "Z[sqrt(-3)]": ([1, 0], [1, 0]),
    "Z[2i]": ([0, 0], [1, 0]),
    "Z[3i]": ([0, 0], [1, 0]),
    "Z[sqrt(5)]": ([-1, 0], [-1, 0]),
}
# (numerator, denominator, p) of an integral element outside the order
INTEGRAL_WITNESSES = {
    "Z[sqrt(-3)]": ([1, 1], 2, 2),
    "Z[2i]": ([0, 1], 2, 2),
    "Z[3i]": ([0, 1], 3, 3),
    "Z[sqrt(5)]": ([1, 1], 2, 2),
}


def test_order_validation():
    with pytest.raises(ValueError):
        QuadOrder(0, -4)  # discriminant 16 is a square
    with pytest.raises(ValueError):
        QuadOrder(2, 1)  # discriminant 0


def test_element_arithmetic_and_norm():
    theta = SQRT_M3.element([0, 1])
    assert theta * theta == SQRT_M3.element(-3)
    x, y = SQRT_M3.element([1, 1]).coeffs
    assert x * x - SQRT_M3.u * x * y + SQRT_M3.v * y * y == 4  # |1 + sqrt(-3)|^2
    golden = QuadOrder(-1, -1)
    t = golden.element([0, 1])
    assert t * t == golden.element([1, 0]) + t  # theta^2 = theta + 1


def test_products_match_the_closed_formula():
    # (x1 + y1 t)(x2 + y2 t) = x1 x2 - v y1 y2 + (x1 y2 + x2 y1 - u y1 y2) t
    rng = random.Random(RNG_SEED + 2)
    orders = 0
    while orders < 60:
        u, v = rng.randint(-20, 20), rng.randint(-50, 50)
        try:
            order = QuadOrder(u, v)
        except ValueError:
            continue
        orders += 1
        for _ in range(30):
            a = [rng.randint(-10**6, 10**6) for _ in range(2)]
            b = [rng.randint(-10**6, 10**6) for _ in range(2)]
            product = order.element(a) * order.element(b)
            assert product.coeffs == quad_product(order, a, b)
            assert (order.element(a) ** 2).coeffs == quad_product(order, a, a)


def test_map_enumeration():
    maps = enumerate_quad_maps(SQRT_M3, 2)
    assert len(maps) == 1 and maps[0].label() == 1
    phi = maps[0]
    assert phi.kills(SQRT_M3.element([1, 1]))
    assert phi.kills(SQRT_M3.element([2, 0]))
    assert phi.apply(SQRT_M3.element([0, 1])) == (1,)

    assert sorted(m.label() for m in enumerate_quad_maps(GAUSSIAN, 5)) == [2, 3]
    inert = enumerate_quad_maps(GAUSSIAN, 7)
    assert len(inert) == 1 and inert[0].f == 2

    for p in (2, 3, 5):
        maps = enumerate_quad_maps(QuadOrder(0, p * p), p)
        assert len(maps) == 1 and maps[0].label() == 0


def test_quad_maps_match_a_reference():
    # the reference: theta goes to each root r of T^2 + uT + v mod p, found
    # by trial, with rows 1, r and kernel (p, 0), (-r, 1); with no root it
    # goes to X in F_p[X]/(F), with rows 1, X and kernel p Z^2.  Z[p i]
    # has the root r = 0 at p.
    orders = list(CATALOG_ORDERS.values())
    orders += [QuadOrder(0, p * p) for p in (2, 3, 5)] + [QuadOrder(-1, 1)]
    for order in orders:
        for p in primes_below(30):
            maps = enumerate_quad_maps(order, p)
            assert all(isinstance(phi, JacobiMap) for phi in maps)
            roots = [
                r for r in range(p) if (r * r + order.u * r + order.v) % p == 0
            ]
            if not roots:
                (phi,) = maps
                assert (phi.f, phi.label()) == (2, [0, 1])
                assert phi.columns == transpose([[1, 0], [0, 1]], 2)
                assert phi.kernel() == IntLattice([[p, 0], [0, p]])
                continue
            assert sorted(phi.label() for phi in maps) == roots
            for phi in maps:
                r = phi.label()
                assert phi.f == 1 and phi.columns == transpose([[1], [r]], 1)
                assert phi.kernel() == IntLattice([[p, 0], [-r, 1]])


def test_apply_refuses_foreign_elements():
    quad_map = enumerate_quad_maps(GAUSSIAN, 5)[0]
    cyclotomic_map = enumerate_jacobi_maps(5, 11)[0]
    with pytest.raises(ValueError):
        cyclotomic_map.apply(GAUSSIAN.element([1, 1]))
    with pytest.raises(ValueError):
        quad_map.apply(cyclotomic_ring(5).one())
    with pytest.raises(ValueError):
        cyclotomic_map.apply(cyclotomic_ring(7).alpha())
    with pytest.raises(ValueError):
        quad_map.apply(SQRT_M3.element([1, 1]))


def test_apply_is_x_plus_y_theta():
    # theta goes to the class of X in F_p[X]/(F): x + y*theta to x + y*X mod F
    rng = random.Random(RNG_SEED + 1)
    degrees = set()
    for order in (SQRT_M3, GAUSSIAN, QuadOrder(-1, -1), QuadOrder(1, 5)):
        for p in (2, 3, 5, 7, 11):
            for phi in enumerate_quad_maps(order, p):
                degrees.add(phi.f)
                for _ in range(20):
                    x, y = rng.randint(-30, 30), rng.randint(-30, 30)
                    expected = gf_mod(gf_normalize([x, y], p), list(phi.factor), p)
                    expected = tuple(expected) + (0,) * (phi.f - len(expected))
                    assert phi.apply(order.element([x, y])) == expected
    assert degrees == {1, 2}


def test_kernels():
    phi = enumerate_quad_maps(SQRT_M3, 2)[0]
    kernel = phi.kernel()
    assert kernel.index() == 2
    assert lattice_contains(kernel, [1, 1]) and lattice_contains(kernel, [2, 0])
    assert not lattice_contains(kernel, [1, 0])
    inert = enumerate_quad_maps(GAUSSIAN, 7)[0]
    assert inert.kernel().index() == 49


def test_singularity_witnesses():
    phi2 = enumerate_quad_maps(SQRT_M3, 2)[0]
    [rep] = dichotomy_check([phi2], SQRT_M3.element([1, 1]), SQRT_M3.element(2))
    assert rep == {"at_fraction": False, "at_inverse": False}
    for p in (2, 3, 5):
        order = QuadOrder(0, p * p)
        phi = enumerate_quad_maps(order, p)[0]
        [rep] = dichotomy_check([phi], order.element([0, 1]), order.element(p))
        assert rep == {"at_fraction": False, "at_inverse": False}


def test_integral_element_witnesses():
    # each catalogued integral element outside its order defeats the map in
    # both directions
    for name, (numerator, denominator, p) in INTEGRAL_WITNESSES.items():
        order = CATALOG_ORDERS[name]
        num = order.element(numerator)
        den = order.element(denominator)
        hit = False
        for rep in dichotomy_check(enumerate_quad_maps(order, p), num, den):
            if not rep["at_fraction"] and not rep["at_inverse"]:
                hit = True
        assert hit, name


def test_nonsingular_fraction():
    phi = enumerate_quad_maps(GAUSSIAN, 2)[0]
    [rep] = dichotomy_check([phi], GAUSSIAN.element([1, 1]), GAUSSIAN.element(1))
    assert rep["at_fraction"]


@pytest.mark.parametrize("k", [1, 14])
def test_dichotomy_check_solves_once_per_fraction(monkeypatch, k):
    # one relation solve gives the colon rows of both directions
    maps = [
        phi for p in primes_below(31) for phi in enumerate_quad_maps(GAUSSIAN, p)
    ][:k]
    assert len(maps) == k
    calls = []
    solve = lattice._relations
    monkeypatch.setattr(
        lattice, "_relations", lambda *args: calls.append(args) or solve(*args)
    )
    num, den = GAUSSIAN.element([3, 1]), GAUSSIAN.element([2, -1])
    reps = dichotomy_check(maps, num, den)
    assert len(calls) == 1
    assert reps == [
        {
            "at_fraction": colon_extends_to(phi.kernel(), [3, 1], [2, -1], GAUSSIAN),
            "at_inverse": colon_extends_to(phi.kernel(), [2, -1], [3, 1], GAUSSIAN),
        }
        for phi in maps
    ]


def test_dichotomy_check_refuses_a_zero_numerator_first():
    phi = enumerate_quad_maps(SQRT_M3, 2)[0]
    with pytest.raises(ZeroDivisionError, match="zero numerator"):
        dichotomy_check([phi], SQRT_M3.element(0), SQRT_M3.element(0))
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        dichotomy_check([phi], SQRT_M3.element(1), SQRT_M3.element(0))


def test_maximal_orders_keep_dichotomy():
    rng = random.Random(RNG_SEED)
    for u, v in [(0, 1), (-1, -1), (0, 5)]:
        order = QuadOrder(u, v)
        assert conductor(order) == 1
        maps = [
            phi
            for p in primes_below(31)
            for phi in enumerate_quad_maps(order, p)
        ]
        count = 0
        while count < 200:
            num = order.element([rng.randint(-9, 9), rng.randint(-9, 9)])
            den = order.element([rng.randint(-9, 9), rng.randint(-9, 9)])
            if num.is_zero() or den.is_zero():
                continue
            count += 1
            for rep in dichotomy_check(maps, num, den):
                assert rep["at_fraction"] or rep["at_inverse"]


def test_singular_orders_fail_only_at_conductor_primes():
    rng = random.Random(RNG_SEED + 1)
    for u, v, cond in [(0, 3, 2), (0, 4, 2), (0, 9, 3), (0, 25, 5), (0, -5, 2)]:
        order = QuadOrder(u, v)
        assert conductor(order) == cond
        # a witness exists at every prime dividing the conductor
        for p in {cond}:
            witnesses = 0
            for num, den in [
                (order.element([0, 1]), order.element(p)),
                (order.element([1, 1]), order.element(2)),
            ]:
                for rep in dichotomy_check(enumerate_quad_maps(order, p), num, den):
                    if not rep["at_fraction"] and not rep["at_inverse"]:
                        witnesses += 1
            assert witnesses > 0, (u, v, p)
        # and never at primes coprime to it
        maps = [
            phi
            for p in primes_below(31)
            if cond % p != 0
            for phi in enumerate_quad_maps(order, p)
        ]
        count = 0
        while count < 100:
            num = order.element([rng.randint(-9, 9), rng.randint(-9, 9)])
            den = order.element([rng.randint(-9, 9), rng.randint(-9, 9)])
            if num.is_zero() or den.is_zero():
                continue
            count += 1
            for phi, rep in zip(maps, dichotomy_check(maps, num, den)):
                assert rep["at_fraction"] or rep["at_inverse"], (u, v, phi.p)


def test_prime_square_anomaly():
    rep = prime_square_anomaly()
    assert rep["holds"]
    assert rep["p_index"] == 2 and rep["two_index"] == 4
    assert rep["p_squared_index"] == 8 and rep["two_p_index"] == 8
    assert rep["p_squared_equals_two_p"] and not rep["p_equals_two"]
    assert rep["maximal_order_two_inert"]


def test_conductors_pinned():
    assert conductor(SQRT_M3) == 2
    assert conductor(GAUSSIAN) == 1
    assert conductor(QuadOrder(0, 9)) == 3
    assert conductor(QuadOrder(-1, -1)) == 1
    assert conductor(QuadOrder(0, -5)) == 2
    assert conductor(QuadOrder(-1, 1)) == 1  # Z[zeta_6]
    assert conductor(SQRT_M3) == 2


def test_gauss_lemma_pinned():
    rep = gauss_lemma_check(SQRT_M3, SQRT_M3.element(1), SQRT_M3.element(1))
    assert rep["reducible_over_K"] and not rep["reducible_over_O"]
    assert rep["roots"] == [["-1/2", "1/2"], ["-1/2", "-1/2"]]

    sqrt5 = QuadOrder(0, -5)
    rep5 = gauss_lemma_check(sqrt5, sqrt5.element(-1), sqrt5.element(-1))
    assert rep5["reducible_over_K"] and not rep5["reducible_over_O"]

    rep_i = gauss_lemma_check(GAUSSIAN, GAUSSIAN.element(0), GAUSSIAN.element(-4))
    assert rep_i["reducible_over_K"] and rep_i["reducible_over_O"]

    irreducible = gauss_lemma_check(GAUSSIAN, GAUSSIAN.element(0), GAUSSIAN.element(3))
    assert not irreducible["reducible_over_K"]


def test_gauss_lemma_witness_iff_not_integrally_closed():
    for name, order in CATALOG_ORDERS.items():
        witness = GAUSS_LEMMA_WITNESSES.get(name)
        closed = conductor(order) == 1
        assert (witness is None) == closed, name
        if witness is not None:
            b, c = witness
            rep = gauss_lemma_check(order, order.element(b), order.element(c))
            assert rep["reducible_over_K"] and not rep["reducible_over_O"]
        else:
            # integrally closed: no monic quadratic may split over K only
            probes = [
                (order.element(1), order.element(1)),
                (order.element(0), order.element(-4)),
                (order.element(-1), order.element(-1)),
                (order.element([0, 1]), order.element(0)),
            ]
            for b, c in probes:
                rep = gauss_lemma_check(order, b, c)
                assert rep["reducible_over_K"] == rep["reducible_over_O"]
