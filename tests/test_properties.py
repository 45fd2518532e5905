"""Properties on generated inputs: ring axioms, the norm and the reduction
mod Phi_n at prime and composite conductors, integer polynomial products,
power rows of a root, the Jacobi-sum counts, Kummer's uniformizer at
residue degree 1, Kummer multiplicities (additive, and equal to the literal
level test), the p-adic valuation oracle, the colon test of a map at a
fraction and the expression round trip.

Examples are derandomized, so every run draws the same inputs.
"""

from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kummerlab.arith import primes_below, valuation_int
from kummerlab.charsum import _counts, character
from kummerlab.cyclotomic import cyclotomic_ring, norm
from kummerlab.exprparse import parse_element, render_element
from kummerlab.ffield import power_rows
from kummerlab.idealprimes import enumerate_jacobi_maps, map_for_root
from kummerlab.lattice import colon_rows, extends_to
from kummerlab.polyint import autocorrelation, mul, trim
from kummerlab.quadorder import QuadOrder, enumerate_quad_maps
from kummerlab.valuation import (
    divisibility_step,
    find_uniformizer,
    kummer_prime,
    multiplicity,
    valuation_oracle,
)
from reference import (
    colon_extends_to,
    counts_reference,
    divmod_exact,
    power_rows_reference,
    reduce_from_top,
    uniformizer_by_tower,
)

LAMBDAS = [3, 5, 7]
# composite conductors: 4q, 2q and odd with three prime factors
CONDUCTORS = LAMBDAS + [12, 46, 105]
GENERATED = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def elements(lam, spread=20):
    ring = cyclotomic_ring(lam)
    coeffs = st.lists(
        st.integers(-spread, spread), min_size=ring.degree, max_size=ring.degree
    )
    return coeffs.map(ring.element)


def nonzero_elements(lam, spread=20):
    return elements(lam, spread).filter(lambda x: not x.is_zero())


@pytest.mark.parametrize("lam", CONDUCTORS)
@GENERATED
@given(data=st.data())
def test_ring_axioms(lam, data):
    x, y, z = (data.draw(elements(lam)) for _ in range(3))
    ring = cyclotomic_ring(lam)
    zero, one = ring.zero(), ring.one()
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x + zero == x
    assert x + (-x) == zero
    assert x - y == x + (-y)
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * one == x
    assert x * (y + z) == x * y + x * z


@pytest.mark.parametrize("lam", CONDUCTORS)
@GENERATED
@given(data=st.data())
def test_norm_is_multiplicative(lam, data):
    x, y = data.draw(elements(lam)), data.draw(elements(lam))
    assert norm(x * y) == norm(x) * norm(y)


# P exactly dividing n (15, 219), an odd square with it (45, 75),
# n = 2 mod 4 (30, 438), three odd primes (105, 231), no block (1, 27, 46)
REDUCE_CONDUCTORS = [1, 15, 27, 30, 45, 46, 75, 105, 219, 231, 438]


@pytest.mark.parametrize("n", REDUCE_CONDUCTORS)
@GENERATED
@given(data=st.data())
def test_reduce_matches_the_single_step_reference(n, data):
    ring = cyclotomic_ring(n)
    length = data.draw(st.integers(0, 3 * n))
    spread = data.draw(st.sampled_from([1, 50, 10**30]))
    rng = data.draw(st.randoms(use_true_random=False))
    coeffs = [rng.randint(-spread, spread) for _ in range(length)]
    residue = ring._reduce(coeffs)
    assert residue == reduce_from_top(ring, coeffs)
    _, r = divmod_exact(trim(list(coeffs)), list(ring.modulus))
    assert residue == tuple(r + [0] * (ring.degree - len(r)))


def _value(f, x):
    out = 0
    for c in reversed(f):
        out = out * x + c
    return out


BIG = 2**70
TERMS = st.lists(st.integers(-BIG, BIG), min_size=20, max_size=120)


@GENERATED
@given(TERMS, TERMS)
def test_mul_is_evaluation(f, g):
    # product coefficients stay below 2^140 * 120 < 2^199 in absolute value,
    # so the value at 2^200 determines the product; the small points check
    # signs on their own
    h = mul(f, g)
    assert not h or h[-1]
    for x in (-1, 2, 2**200):
        assert _value(h, x) == _value(f, x) * _value(g, x)


@GENERATED
@given(
    st.one_of(
        st.lists(st.integers(0, 3), max_size=60),
        st.lists(st.integers(0, 2**16), min_size=1, max_size=40),
        st.lists(st.integers(0, 2**26), min_size=1, max_size=40),
    )
)
def test_autocorrelation_is_a_double_loop(h):
    n = len(h)
    assert autocorrelation(h) == [
        sum(h[e] * h[(e - s) % n] for e in range(n)) for s in range(n)
    ]


# every order lam | p - 1 of a character mod p < 500
CHARACTER_ORDERS = [
    (p, lam)
    for p in primes_below(500)[1:]
    for lam in range(2, p)
    if (p - 1) % lam == 0
]


def _with_indices(order):
    # i and k in [-3 lam, 3 lam]: negative, reduced and at least lam
    indices = st.integers(-3 * order[1], 3 * order[1])
    return st.tuples(st.just(order), indices, indices)


@GENERATED
@given(st.sampled_from(CHARACTER_ORDERS).flatmap(_with_indices))
@example(((101, 5), -15, 7))  # prime order
@example(((257, 64), 130, -1))  # prime power
@example(((421, 60), 59, 180))  # composite
@example(((499, 498), 497, -1494))  # lam = p - 1
def test_counts_match_the_reference(case):
    order, i, k = case
    chi = character(*order)
    assert _counts(chi, i, k) == counts_reference(chi, i, k)


# small prime conductors with the primes of residue degree 1 above them:
# lam itself and p = 1 mod lam below 400
DEGREE_ONE = [
    (lam, p)
    for lam in (3, 5, 7, 11, 13, 17, 19)
    for p in primes_below(400)
    if p % lam in (0, 1)
]


@GENERATED
@given(st.sampled_from(DEGREE_ONE))
@example((5, 11))  # the map xi = 3 needs psi + q
def test_degree_one_uniformizer_matches_the_tower(case):
    for phi in enumerate_jacobi_maps(*case):
        assert phi.f == 1
        K = find_uniformizer(phi)
        assert (K.psi, K.psi_conjugates, K.period_norm) == uniformizer_by_tower(phi)


@GENERATED
@given(
    nonzero_elements(5, spread=6),
    nonzero_elements(5, spread=6),
    st.integers(0, 2),
)
def test_multiplicity_is_additive(x, y, k):
    # the prime above 11 that kills 2 + a; the factor (2 + a)^k makes
    # nonzero multiplicities common
    K = kummer_prime(map_for_root(enumerate_jacobi_maps(5, 11), 9))
    x = x * cyclotomic_ring(5).element([2, 1]) ** k
    assert multiplicity(x * y, K) == multiplicity(x, K) + multiplicity(y, K)


@pytest.mark.parametrize("lam", [3, 5, 7, 11, 13])
@GENERATED
@given(data=st.data())
def test_multiplicity_is_the_last_literal_level(lam, data):
    # multiplicity divides by q one coefficient at a time; the literal test
    # forms x * Psi^mu and checks its content against q^mu, at every level
    # up to the norm bound degree * v_q(norm(x))
    maps = [phi for p in primes_below(50) for phi in enumerate_jacobi_maps(lam, p)]
    K = kummer_prime(data.draw(st.sampled_from(maps)))
    x = data.draw(nonzero_elements(lam, spread=6)) * K.psi ** data.draw(
        st.integers(0, 2)
    )
    bound = x.ring.degree * valuation_int(norm(x), K.q)
    levels = [mu for mu in range(bound + 1) if divisibility_step(x, K, mu)]
    assert multiplicity(x, K) == max(levels)


@pytest.mark.parametrize("f", [1, 2, 3, 4, 5, 6])
@GENERATED
@given(data=st.data())
def test_power_rows_match_the_reference(f, data):
    # any monic F of degree f and any root, at a prime modulus and at a
    # prime power, as for the oracle's Teichmueller lifts
    p = data.draw(st.sampled_from([2, 3, 5, 11, 101]))
    m = p ** data.draw(st.integers(1, 4))
    coeffs = st.integers(-m, m)
    factor = data.draw(st.lists(coeffs, min_size=f, max_size=f)) + [1]
    root = data.draw(st.lists(coeffs, max_size=2 * f))
    count = data.draw(st.integers(0, 24))
    expected = power_rows_reference(root, count, factor, m)
    assert power_rows(root, count, factor, m) == expected


@pytest.mark.parametrize("p", [211, 5, 19])
@GENERATED
@given(
    nonzero_elements(5, spread=6),
    nonzero_elements(5, spread=6),
    st.integers(0, 2),
    st.integers(0, 2),
)
def test_oracle_is_additive(p, x, y, j, k):
    # a split prime above the oracle threshold, the ramified prime and a
    # prime of degree 2; F(alpha) + p, F the map's factor, lies in the
    # prime, so its powers make nonzero valuations common
    phi = enumerate_jacobi_maps(5, p)[0]
    g = cyclotomic_ring(5).element(list(phi.factor)) + p
    x, y = x * g**j, y * g**k
    v_xy = valuation_oracle(x * y, phi)
    assert v_xy == valuation_oracle(x, phi) + valuation_oracle(y, phi)


def _colon_rows_agree(maps, order, num, den):
    # one solve per direction, tested against every map, versus the
    # canonical colon lattice built anew for each map
    for a, b in ((num, den), (den, num)):
        rows = colon_rows(a, b, order)
        for phi in maps:
            kernel = phi.kernel()
            assert extends_to(kernel, rows) == colon_extends_to(kernel, a, b, order)


def _is_square(n):
    return n >= 0 and isqrt(n) ** 2 == n


QUAD_ORDERS = (
    st.tuples(st.integers(-4, 4), st.integers(-30, 30))
    .filter(lambda uv: not _is_square(uv[0] ** 2 - 4 * uv[1]))
    .map(lambda uv: QuadOrder(*uv))
)
# a denominator scaled by a small prime is where singular maps fail
SCALES = st.sampled_from([1, 1, 2, 3, 5])


def _nonzero_coeffs(d, spread):
    return st.lists(
        st.integers(-spread, spread), min_size=d, max_size=d
    ).filter(any)


@GENERATED
@given(order=QUAD_ORDERS, data=st.data())
def test_colon_rows_match_the_colon_lattice_on_quadratic_orders(order, data):
    maps = [phi for p in primes_below(30) for phi in enumerate_quad_maps(order, p)]
    num = data.draw(_nonzero_coeffs(2, 9))
    scale = data.draw(SCALES)
    den = [scale * c for c in data.draw(_nonzero_coeffs(2, 9))]
    _colon_rows_agree(maps, order, num, den)


@pytest.mark.parametrize("lam", LAMBDAS)
@GENERATED
@given(data=st.data())
def test_colon_rows_match_the_colon_lattice_in_z_alpha(lam, data):
    ring = cyclotomic_ring(lam)
    maps = [phi for p in primes_below(30) for phi in enumerate_jacobi_maps(lam, p)]
    num = data.draw(_nonzero_coeffs(ring.degree, 6))
    scale = data.draw(SCALES)
    den = [scale * c for c in data.draw(_nonzero_coeffs(ring.degree, 6))]
    _colon_rows_agree(maps, ring, num, den)


@pytest.mark.parametrize("lam", LAMBDAS)
@GENERATED
@given(data=st.data())
def test_parse_render_round_trip(lam, data):
    x = data.draw(elements(lam, spread=1000))
    assert parse_element(render_element(x), cyclotomic_ring(lam)) == x


@GENERATED
@given(st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_parse_render_round_trip_quadratic(a, b):
    order = QuadOrder(0, 3)
    x = order.element([a, b])
    assert parse_element(render_element(x), order) == x
