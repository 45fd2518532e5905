"""Properties on generated inputs: ring axioms, the norm and the reduction
mod Phi_n at prime and composite conductors (and its Moebius-sum form for
vectors constant on gcd classes), integer polynomial products (against
the full schoolbook too), power columns of a root and the vanishing read
of them, the packed batch read zero_images and the batch routes of both
valuations that screen with it, the degree-1 maps read off Jacobi's root
table, the Jacobi-sum counts, Kummer's uniformizer at residue degree 1,
Kummer multiplicities
(additive, and equal to the literal level test), the p-adic valuation
oracle and its Newton lifts against the p-power chain, dichotomy_check's
colon test of every map at a fraction and its inverse, the one relation
solve that gives both colon ideals of a fraction, a map's reads of its
columns, the expression round trip, the quadratic reduction (its carried
pairs stay below its refusal bound) and the square root in a quadratic
field.

Examples are derandomized, so every run draws the same inputs.
"""

from array import array
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kummerlab import ffield
from kummerlab.arith import primes_below, valuation_int
from kummerlab.charsum import _counts, character
from kummerlab.cyclotomic import cyclotomic_ring, norm
from kummerlab.exprparse import parse_element, render_element
from kummerlab.ffield import power_columns, vanishes, zero_images
from kummerlab.idealprimes import enumerate_jacobi_maps, map_for_root
from kummerlab.lattice import IntLattice, colon_relations
from kummerlab.polyint import KRONECKER_MIN_TERMS, mul, trim
from kummerlab.quadorder import (
    QuadOrder,
    _field_sqrt,
    dichotomy_check,
    enumerate_quad_maps,
)
from kummerlab.valuation import (
    _lift_columns,
    kummer_prime,
    multiplicities,
    multiplicity,
    valuation_oracle,
    valuation_oracles,
)
from reference import (
    autocorrelation,
    autocorrelation_reference,
    colon,
    colon_extends_to,
    counts_reference,
    divisibility_step,
    divmod_exact,
    field_sqrt_reference,
    kernel_mod,
    lattice_contains,
    lift_by_power_chain,
    map_of_factor,
    power_rows_reference,
    principal_lattice,
    reduce_from_top,
    schoolbook_reference,
    transpose,
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


# a prime, prime powers, 2^2 and 3^2 times other primes, and products of
# two to four distinct primes; 1 and 2 have only one-member gcd classes,
# and 1155 takes 16-bit table words
INVARIANT_CONDUCTORS = [1, 2, 3, 4, 9, 12, 30, 36, 50, 105, 210, 221, 330, 420, 1155]


@pytest.mark.parametrize("n", INVARIANT_CONDUCTORS)
@GENERATED
@given(data=st.data())
def test_invariant_residue_is_the_reduction(n, data):
    ring = cyclotomic_ring(n)
    spread = data.draw(st.sampled_from([1, 50, 10**30]))
    rng = data.draw(st.randoms(use_true_random=False))
    by_class = {d: rng.randint(-spread, spread) for d in range(1, n + 1) if n % d == 0}
    c = [by_class[gcd(s, n)] for s in range(n)]
    value = ring.invariant_residue(c)
    assert value is not None
    assert ring._reduce(c) == (value,) + (0,) * (ring.degree - 1)
    # one member of a class with two or more members moved off its class,
    # and, where the class has a third member, its mirror n - s with it
    shared = [s for s in range(n) if n // gcd(s, n) > 2]
    assert bool(shared) == (n > 2)
    if shared:
        s = data.draw(st.sampled_from(shared))
        delta = data.draw(st.sampled_from([-1, 1, spread, -(10**30)]))
        c[s] += delta
        if data.draw(st.booleans()) and n // gcd(s, n) not in (3, 4, 6):
            c[n - s] += delta
        assert ring.invariant_residue(c) is None


@pytest.mark.parametrize("n", INVARIANT_CONDUCTORS)
@GENERATED
@given(data=st.data())
def test_invariant_residues_read_each_run(n, data):
    # one run or many, gcd-class runs mixed with tampered ones anywhere in
    # the batch, as a list or as the array words charsum unpacks: each run
    # reads as invariant_residue reads it alone, as a list and as the same
    # words, and its reduction
    ring = cyclotomic_ring(n)
    spread = data.draw(st.sampled_from([1, 50, 10**30]))
    rng = data.draw(st.randoms(use_true_random=False))
    count = data.draw(st.sampled_from([1, 2, 7]))
    shared = [s for s in range(n) if n // gcd(s, n) > 2]
    tampered = set()
    if shared:
        tampered = data.draw(st.sets(st.integers(0, count - 1), max_size=count))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    c = []
    for j in range(count):
        by_class = {d: rng.randint(-spread, spread) for d in divisors}
        run = [by_class[gcd(s, n)] for s in range(n)]
        if j in tampered:
            s = data.draw(st.sampled_from(shared))
            run[s] += data.draw(st.sampled_from([-1, 1, spread]))
        c += run
    if spread < 2**62 and data.draw(st.booleans()):
        c = array("q", c)
    values = ring.invariant_residues(c)
    assert len(values) == count
    for j, value in enumerate(values):
        words = c[j * n : (j + 1) * n]
        run = list(words)
        assert value == ring.invariant_residue(run) == ring.invariant_residue(words)
        assert (value is None) is (j in tampered), j
        if value is not None:
            assert ring._reduce(run) == (value,) + (0,) * (ring.degree - 1)


def test_invariant_residue_reads_array_words():
    # c_s = 3 gcd(s, 12) is constant on the gcd classes of 12, so its
    # residue is 3 (12 - 6 - 4 + 2) = 12, whether c is a list or the array
    # words charsum unpacks; moved off its class, it is None as both
    ring = cyclotomic_ring(12)
    c = [3 * gcd(s, 12) for s in range(12)]
    assert ring.invariant_residue(c) == ring.invariant_residue(array("q", c)) == 12
    c[5] += 1
    assert ring.invariant_residue(c) is ring.invariant_residue(array("q", c)) is None


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


@st.composite
def sparse_terms(draw):
    """A coefficient list of length 0 to 30 with one to all of its terms
    nonzero, each of absolute value at most 2^70."""
    n = draw(st.integers(0, 30))
    if not n:
        return []
    support = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    nonzero = st.integers(-BIG, BIG).filter(bool)
    return [draw(nonzero) if i in support else 0 for i in range(n)]


DENSE = [3**70 - 5 * i for i in range(30)]


@GENERATED
@given(sparse_terms(), sparse_terms())
@example(DENSE[:KRONECKER_MIN_TERMS], DENSE[:KRONECKER_MIN_TERMS])  # packed
@example(DENSE[: KRONECKER_MIN_TERMS - 1], DENSE)  # one side too short
@example(DENSE[:1], DENSE)  # one term against a dense operand
@example([0, 0, 0], DENSE)  # no nonzero term at all
@example([], DENSE)
def test_mul_matches_the_full_schoolbook(f, g):
    # the loop multiplies only nonzero terms, over the sparser operand
    # first; the reference multiplies every pair in the order given
    expected = schoolbook_reference(f, g)
    assert mul(f, g) == expected
    assert mul(g, f) == expected


@GENERATED
@given(
    st.one_of(
        st.lists(st.integers(0, 3), max_size=60),
        st.lists(st.integers(0, 2**16), min_size=1, max_size=40),
        st.lists(st.integers(0, 2**26), min_size=1, max_size=40),
    )
)
def test_autocorrelation_is_a_double_loop(h):
    assert autocorrelation(h) == autocorrelation_reference(h)


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
        K = kummer_prime(phi)
        assert (K.psi, K.psi_conjugates, K.period_norm) == uniformizer_by_tower(phi)


# every odd prime lam < 42 with the primes p = 1 mod lam below 2000, and
# the largest census the CLI allows
ROOT_TABLE_PRIMES = [
    (lam, p) for lam in primes_below(42)[1:] for p in primes_below(2000) if p % lam == 1
] + [(101, 607)]


def test_root_table_builds_the_power_column_maps():
    # Jacobi's root table against each map rebuilt from its factor through
    # ffield.power_columns; the factors are X - r over lam - 1 distinct
    # roots r of Phi_lam mod p, in factor_mod_p's order
    for lam, p in ROOT_TABLE_PRIMES:
        maps = enumerate_jacobi_maps(lam, p)
        factors = [phi.factor for phi in maps]
        assert len(factors) == lam - 1 and factors == sorted(set(factors))
        for phi in maps:
            assert sum(pow(phi.xi[0], j, p) for j in range(lam)) % p == 0
            ref = map_of_factor(phi.ring, p, phi.factor)
            assert (phi.factor, phi.xi, phi.columns) == (ref.factor, ref.xi, ref.columns)


@GENERATED
@given(data=st.data())
def test_root_table_maps_read_like_power_column_maps(data):
    # kills and the vanishing read of rows, on vectors that half the time lie
    # in the drawn map's kernel: y * (alpha - r) + p z for r the root of some
    # map
    lam, p = data.draw(st.sampled_from(ROOT_TABLE_PRIMES))
    maps = enumerate_jacobi_maps(lam, p)
    phi = data.draw(st.sampled_from(maps))
    ref = map_of_factor(phi.ring, p, phi.factor)
    ring = phi.ring

    def vector():
        killer = phi if data.draw(st.booleans()) else data.draw(st.sampled_from(maps))
        y, z = data.draw(elements(lam, spread=9)), data.draw(elements(lam, spread=2))
        return y * ring.element([-killer.xi[0], 1]) + z * p

    x = vector()
    assert phi.kills(x) == ref.kills(x)
    rows = [vector().coeffs for _ in range(data.draw(st.integers(1, 3)))]
    assert vanishes(rows, phi.columns, p) == vanishes(rows, ref.columns, p)


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
    bound = x.ring.degree * valuation_int(norm(x), K.map.p)
    levels = [mu for mu in range(bound + 1) if divisibility_step(x, K, mu)]
    assert multiplicity(x, K) == max(levels)


@pytest.mark.parametrize("f", [1, 2, 3, 4, 5, 6])
@GENERATED
@given(data=st.data())
def test_power_columns_match_the_reference(f, data):
    # any monic F of degree f and any root, at a prime modulus and at a
    # prime power, as for the oracle's Teichmueller lifts
    p = data.draw(st.sampled_from([2, 3, 5, 11, 101]))
    m = p ** data.draw(st.integers(1, 4))
    coeffs = st.integers(-m, m)
    factor = data.draw(st.lists(coeffs, min_size=f, max_size=f)) + [1]
    root = data.draw(st.lists(coeffs, max_size=2 * f))
    count = data.draw(st.integers(0, 24))
    expected = transpose(power_rows_reference(root, count, factor, m), f)
    assert power_columns(root, count, factor, m) == expected


@pytest.mark.parametrize("f", [2, 3, 5, 8])
@GENERATED
@given(data=st.data())
def test_power_columns_of_x_match_the_reference(f, data):
    # the root X, written as X or as X plus a multiple of F, takes the
    # shift-and-fold path: each power the last one times X, folded by F
    p = data.draw(st.sampled_from([2, 3, 5, 11, 101]))
    m = p ** data.draw(st.integers(1, 4))
    coeffs = st.integers(-m, m)
    factor = data.draw(st.lists(coeffs, min_size=f, max_size=f)) + [1]
    k = data.draw(st.integers(-m, m))
    root = [0, 1] + [0] * (f - 1)
    root = [a + k * c for a, c in zip(root, factor)]
    count = data.draw(st.integers(0, 3 * f + 3))
    expected = transpose(power_rows_reference(root, count, factor, m), f)
    assert power_columns(root, count, factor, m) == expected


@settings(GENERATED, max_examples=100)
@given(data=st.data())
def test_newton_lifts_match_the_power_chain(data):
    # every map at p != lam, f from 1 to 12, at precisions 1 to 16
    lam = data.draw(st.sampled_from([3, 5, 7, 11, 13]))
    p = data.draw(st.sampled_from([q for q in primes_below(60) if q != lam]))
    phi = data.draw(st.sampled_from(enumerate_jacobi_maps(lam, p)))
    precision = data.draw(st.integers(1, 16))
    m = p**precision
    lift = lift_by_power_chain(phi, precision)
    rows = power_rows_reference(lift, lam - 1, phi.factor, m)
    assert _lift_columns(phi, precision) == transpose(rows, phi.f)


@pytest.mark.parametrize("f", [1, 2, 3, 4, 5, 6])
@GENERATED
@given(data=st.data())
def test_vanishes_matches_full_images(f, data):
    # the draws of the test above, read at m = p and at m = p^mu, mu >= 2:
    # vanishes says whether every coordinate of every full image is 0
    p = data.draw(st.sampled_from([2, 3, 5, 11, 101]))
    mu = data.draw(st.integers(2, 4))
    coeffs = st.integers(-(p**mu), p**mu)
    factor = data.draw(st.lists(coeffs, min_size=f, max_size=f)) + [1]
    root = data.draw(st.lists(coeffs, max_size=2 * f))
    count = data.draw(st.integers(0, 24))
    vector = st.lists(coeffs, min_size=count, max_size=count)
    vectors = data.draw(st.lists(vector, max_size=4))
    # over the root X the powers X^0 .. X^(f-1) are the unit coordinates, so
    # the unit vector at X^(f-1) maps to 0 but in its last coordinate
    width = max(count, f)
    last = [int(i == f - 1) for i in range(width)]
    for m in (p, p**mu):
        killed = [[m * c for c in v] for v in vectors]
        rows = power_rows_reference(root, count, factor, m)
        columns = power_columns(root, count, factor, m)
        for vs in (vectors, killed, killed + vectors[:1], []):
            images = [_full_image_of(rows, f, m, v) for v in vs]
            assert vanishes(vs, columns, m) == (not any(map(any, images)))
        rows = power_rows_reference([0, 1], width, factor, m)
        assert _full_image_of(rows, f, m, last) == (0,) * (f - 1) + (1,)
        columns = power_columns([0, 1], width, factor, m)
        killed = [[m * c for c in v] + [0] * (width - count) for v in vectors]
        assert vanishes(killed, columns, m)
        assert not vanishes(killed + [last], columns, m)


@pytest.mark.parametrize("width", [2, 4, 12])
@GENERATED
@given(data=st.data())
def test_zero_images_match_vanishes(width, data):
    # mixed signs, entries within and past the 64-bit word, moduli p and
    # p^mu, reads of one to three columns
    spread = data.draw(st.sampled_from([1, 9, 2**20, 2**70]))
    entry = st.integers(-spread, spread)
    vectors = data.draw(st.lists(st.lists(entry, min_size=width, max_size=width)))
    read = st.tuples(
        st.lists(
            st.lists(st.integers(-(10**6), 10**6), min_size=width, max_size=width),
            min_size=1,
            max_size=3,
        ),
        st.sampled_from([2, 3, 4, 9, 101, 101**3]),
    )
    reads = data.draw(st.lists(read, max_size=4))
    # a vector times m reads 0 under every read mod m
    vectors += [[m * a for a in v] for v in vectors[:1] for _, m in reads]
    assert zero_images(vectors, reads) == [
        [i for i, v in enumerate(vectors) if vanishes([v], columns, m)]
        for columns, m in reads
    ]


def test_zero_images_packs_up_to_the_word_bound(monkeypatch):
    # 2 B sum c = 2^16 - 2 and 2^64 - 2: the largest offsets B whose words
    # still fit 16 and 64 bits, where the word of (B, B) is exactly the
    # bound; one more and the 16-bit read takes 32-bit words, the 64-bit
    # read the dot products
    packed = []
    pack = ffield.pack_words
    monkeypatch.setattr(ffield, "pack_words", lambda w: packed.append(w) or pack(w))
    column = [3, 4]  # c sums to 7; read mod 5 and 11 it is [3, 4] as well
    for bits, top in ((16, 2**15 - 1), (64, 2**63 - 1)):
        for offset in (top // 7, top // 7 + 1):
            vectors = [[offset, offset], [-offset, -offset], [offset, -offset]]
            vectors += [[4, -3], [offset - 4, 3 - offset], [0, 0], [7, 0], [1, 1]]
            for m in (5, 11):
                expected = [
                    i
                    for i, v in enumerate(vectors)
                    if (3 * v[0] + 4 * v[1]) % m == 0
                ]
                del packed[:]
                assert zero_images(vectors, [([column], m)]) == [expected]
                words = {w.itemsize * 8 for w in packed}
                if offset == top // 7:
                    assert words == {bits}
                else:
                    assert words == ({32} if bits == 16 else set())


_BATCH_MAPS = {
    lam: [phi for p in primes_below(32) for phi in enumerate_jacobi_maps(lam, p)]
    for lam in (5, 7, 13)
}


@pytest.mark.parametrize("lam", sorted(_BATCH_MAPS))
@GENERATED
@given(data=st.data())
def test_batch_routes_match_the_per_element_routes(lam, data):
    # split primes, degree f > 1, inert primes and p = lam; each element
    # times a power of a drawn uniformizer, so nonzero values are common,
    # and batches with entries past 2^64 read by dot products
    maps = st.lists(st.sampled_from(_BATCH_MAPS[lam]), min_size=1, max_size=4)
    maps = data.draw(maps)
    primes = [kummer_prime(phi) for phi in maps]
    spread = data.draw(st.sampled_from([4, 4, 2**70]))
    xs = [
        x * data.draw(st.sampled_from(primes)).psi ** data.draw(st.integers(0, 2))
        for x in data.draw(st.lists(nonzero_elements(lam, spread), max_size=8))
    ]
    assert multiplicities(xs, primes) == [
        [multiplicity(x, K) for x in xs] for K in primes
    ]
    assert valuation_oracles(xs, maps) == [
        [valuation_oracle(x, phi) for x in xs] for phi in maps
    ]


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


def _colon_rows_agree(maps, order, num, den):
    # one solve for both directions, read against every map, versus the
    # canonical colon lattice built anew for each map
    reps = dichotomy_check(maps, order.element(num), order.element(den))
    for phi, rep in zip(maps, reps):
        kernel = phi.kernel()
        assert rep == {
            "at_fraction": colon_extends_to(kernel, num, den, order),
            "at_inverse": colon_extends_to(kernel, den, num, order),
        }


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


def _one_solve_agrees(maps, order, num, den):
    # the x-halves and the y-halves of one relation solve span the colon
    # ideals of the fraction and of its inverse
    d = order.degree
    relations = colon_relations(num, den, order)
    halves = ([r[:d] for r in relations], [r[d:] for r in relations])
    for half, (a, b) in zip(halves, ((num, den), (den, num))):
        assert IntLattice(half) == colon(principal_lattice(b, order), a, order)
    _colon_rows_agree(maps, order, num, den)


# Z[sqrt(-3)] and Z[2i] are singular at 2
SINGULAR_OR_DRAWN = st.one_of(
    st.sampled_from([QuadOrder(0, 3), QuadOrder(0, 4)]), QUAD_ORDERS
)


@GENERATED
@given(order=SINGULAR_OR_DRAWN, data=st.data())
def test_one_solve_gives_both_colon_ideals_on_quadratic_orders(order, data):
    maps = [phi for p in primes_below(12) for phi in enumerate_quad_maps(order, p)]
    num = data.draw(_nonzero_coeffs(2, 9))
    scale = data.draw(SCALES)
    den = [scale * c for c in data.draw(_nonzero_coeffs(2, 9))]
    _one_solve_agrees(maps, order, num, den)


@pytest.mark.parametrize("lam", [3, 5])
@GENERATED
@given(data=st.data())
def test_one_solve_gives_both_colon_ideals_in_z_alpha(lam, data):
    ring = cyclotomic_ring(lam)
    maps = [phi for p in primes_below(12) for phi in enumerate_jacobi_maps(lam, p)]
    num = data.draw(_nonzero_coeffs(ring.degree, 6))
    scale = data.draw(SCALES)
    den = [scale * c for c in data.draw(_nonzero_coeffs(ring.degree, 6))]
    _one_solve_agrees(maps, ring, num, den)


def _full_image_of(rows, f, m, coeffs):
    # every coordinate of the image mod m, a full dot product with the rows
    return tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % m for j in range(f))


def _full_image(phi, coeffs):
    rows = power_rows_reference(phi.xi, phi.ring.degree, phi.factor, phi.p)
    return _full_image_of(rows, phi.f, phi.p, coeffs)


def _column_reads_agree(phi, data):
    d, p = phi.ring.degree, phi.p
    vectors = st.lists(st.integers(-30, 30), min_size=d, max_size=d)
    kernel_lattice = phi.kernel()
    kernel = [list(r) for r in kernel_lattice.rows]
    weights = data.draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d))
    killed = [sum(w * r[i] for w, r in zip(weights, kernel)) for i in range(d)]
    for coeffs in (data.draw(vectors), killed):
        x = phi.ring.element(coeffs)
        assert phi.apply(x) == _full_image(phi, coeffs)
        assert phi.kills(x) == (not any(_full_image(phi, coeffs)))
    colon = data.draw(st.lists(vectors, max_size=4))
    killed_all = not any(any(_full_image(phi, g)) for g in colon)
    assert vanishes(colon, phi.columns, p) == killed_all
    # a last row whose image is 0 but in its last coordinate: the rows that
    # kill the first f - 1 coordinates, less those that kill all f
    if phi.f == 1:
        last = [1] + [0] * (d - 1)
    else:
        rows = power_rows_reference(phi.xi, d, phi.factor, p)
        partial = kernel_mod([row[:-1] for row in rows], p).rows
        last = next(list(r) for r in partial if not lattice_contains(kernel_lattice, r))
    image = _full_image(phi, last)
    assert not any(image[:-1]) and image[-1]
    assert vanishes(kernel, phi.columns, p)
    assert not vanishes(kernel + [last], phi.columns, p)


@pytest.mark.parametrize("lam, p", [(5, 11), (7, 29), (5, 5), (7, 13), (7, 2), (5, 3)])
@GENERATED
@given(data=st.data())
def test_column_reads_are_full_dot_products_in_z_alpha(lam, p, data):
    # residue degrees 1, 1, 1 (ramified), 2, 3 and 4
    phi = data.draw(st.sampled_from(enumerate_jacobi_maps(lam, p)))
    _column_reads_agree(phi, data)
    with pytest.raises(ValueError):
        phi.kills(cyclotomic_ring(12 - lam).alpha())


@GENERATED
@given(order=SINGULAR_OR_DRAWN, data=st.data())
def test_column_reads_are_full_dot_products_on_quadratic_orders(order, data):
    p = data.draw(st.sampled_from(primes_below(30)))
    phi = data.draw(st.sampled_from(enumerate_quad_maps(order, p)))
    _column_reads_agree(phi, data)
    with pytest.raises(ValueError):  # a ring of the same degree
        phi.kills(cyclotomic_ring(3).alpha())


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


@GENERATED
@given(order=QUAD_ORDERS, data=st.data())
def test_quad_reduce_matches_long_division(order, data):
    # up to length 3, a product's vector; longer, a parsed expression's.
    # The top entry is nonzero, so every length counts.
    length = data.draw(st.one_of(st.integers(0, 5), st.integers(0, 40)))
    entry = st.one_of(st.just(0), st.integers(-50, 50))
    coeffs = data.draw(st.lists(entry, min_size=length, max_size=length))
    coeffs.append(data.draw(st.integers(1, 50)))
    _, r = divmod_exact(trim(list(coeffs)), list(order.modulus))
    assert order._reduce(coeffs) == tuple(r + [0] * (2 - len(r)))


# orders with roots far from the unit circle too
WIDE_QUAD_ORDERS = st.one_of(
    QUAD_ORDERS,
    st.tuples(st.integers(-(10**6), 10**6), st.integers(-(10**9), 10**9))
    .filter(lambda uv: not _is_square(uv[0] ** 2 - 4 * uv[1]))
    .map(lambda uv: QuadOrder(*uv)),
)


@GENERATED
@given(order=WIDE_QUAD_ORDERS, data=st.data())
def test_quad_reduce_carries_stay_below_the_refusal_bound(order, data):
    # the lemma behind QuadOrder._reduce's refusal, for any X above the
    # residue's coefficients: the b of every tail C_j, j >= 1, is below
    # 2(2X + S).  A drawn multiple of the modulus plus a small remainder
    # keeps the residue small against its tails.
    modulus = list(order.modulus)
    cofactor = data.draw(st.lists(st.integers(-9, 9), min_size=1, max_size=30))
    remainder = data.draw(st.lists(st.integers(-9, 9), min_size=2, max_size=2))
    coeffs = mul(cofactor, modulus)
    coeffs[:2] = [c + r for c, r in zip(coeffs, remainder)]
    coeffs = trim(coeffs) or [0]
    _, residue = divmod_exact(list(coeffs), modulus)
    assert order._reduce(coeffs) == tuple(residue + [0] * (2 - len(residue)))
    x = max(map(abs, residue), default=0) + 1
    s = sum(map(abs, coeffs))
    for j in range(1, len(coeffs)):
        _, tail = divmod_exact(trim(coeffs[j:]), modulus)
        b = tail[1] if len(tail) > 1 else 0
        assert abs(b) < 2 * (2 * x + s)


def _fractions(spread, denominators):
    return st.builds(Fraction, st.integers(-spread, spread), denominators)


@settings(GENERATED, max_examples=150)
@given(order=QUAD_ORDERS, data=st.data())
def test_field_sqrt_matches_the_quadratic_solve(order, data):
    # delta is the square of a drawn s, of a drawn s of trace 0 (then delta
    # is rational), or drawn itself; both routes give the same root or None
    denominators = st.sampled_from([1, 1, 2, 3])
    kind = data.draw(st.sampled_from(["square", "trace 0", "any"]))
    x, y = (data.draw(_fractions(30, denominators)) for _ in range(2))
    if kind == "trace 0":
        x = order.u * y / 2
    if kind == "any":
        delta = (x, y)
    else:
        delta = (x * x - order.v * y * y, 2 * x * y - order.u * y * y)
    root = _field_sqrt(order, *delta)
    assert root == field_sqrt_reference(order, *delta)
    if kind != "any":
        assert root is not None and root in ((x, y), (-x, -y))
