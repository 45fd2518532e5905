"""Cyclotomic ring arithmetic, conjugation, norms, Gaussian periods."""

import random
from math import gcd

import pytest

from kummerlab import polyint
from kummerlab.arith import primes_below
from kummerlab.charsum import character, stickelberger_check
from kummerlab.cyclotomic import (
    CyclotomicRing,
    conjugate,
    cyclotomic_ring,
    gaussian_periods,
    norm,
)
from kummerlab.idealprimes import enumerate_jacobi_maps
from kummerlab.valuation import factorize, quotient_and_norm
from kummerlab.polyint import cyclotomic_polynomial, resultant, trim
from reference import divmod_exact

RNG_SEED = 40087


def _random_element(ring, rng, spread=5):
    return ring.element([rng.randint(-spread, spread) for _ in range(ring.degree)])


def test_ring_basics():
    ring = cyclotomic_ring(5)
    a = ring.alpha()
    assert a**5 == ring.one()
    assert ring.alpha(4) == ring.element([-1, -1, -1, -1])
    assert sum((ring.alpha(k) for k in range(1, 5)), ring.zero()) == ring.element(-1)


def test_pow_multiply_count(monkeypatch):
    # square-and-multiply from the base: bit_length - 1 squarings and
    # popcount - 1 multiplies, none by one and no squaring past the top bit
    ring = cyclotomic_ring(12)
    x = ring.element([2, -1, 0, 3])
    calls = []
    mul = polyint.mul

    def counted(f, g):
        calls.append(1)
        return mul(f, g)

    expected = ring.one()
    for e in range(1, 41):
        expected = expected * x
        monkeypatch.setattr(polyint, "mul", counted)
        calls.clear()
        power = x**e
        monkeypatch.setattr(polyint, "mul", mul)
        assert power == expected
        assert len(calls) == e.bit_length() - 1 + bin(e).count("1") - 1
    assert x**0 == ring.one()
    with pytest.raises(ValueError):
        x ** -1


def test_conjugation_pinned():
    ring = cyclotomic_ring(5)
    a = ring.alpha()
    assert conjugate(a, 1) == a
    s2 = conjugate(a, 2)
    assert s2 == ring.alpha(2)
    assert conjugate(s2, 2) == ring.element([-1, -1, -1, -1])  # alpha^4
    x = ring.element([3, -1, 2, 0])
    assert conjugate(x, 4) == conjugate(x, -1)


def test_conjugation_rejects_noncoprime():
    ring = cyclotomic_ring(6)
    with pytest.raises(ValueError):
        conjugate(ring.alpha(), 2)


def test_conjugation_is_homomorphism_and_composes():
    rng = random.Random(RNG_SEED)
    for lam in (5, 7, 12):
        ring = cyclotomic_ring(lam)
        units = [k for k in range(1, lam) if gcd(k, lam) == 1]
        for _ in range(30):
            x = _random_element(ring, rng)
            y = _random_element(ring, rng)
            k = rng.choice(units)
            j = rng.choice(units)
            assert conjugate(x + y, k) == conjugate(x, k) + conjugate(y, k)
            assert conjugate(x * y, k) == conjugate(x, k) * conjugate(y, k)
            assert conjugate(conjugate(x, j), k) == conjugate(x, (j * k) % lam)


def test_norm_pinned_values():
    ring = cyclotomic_ring(5)
    a = ring.alpha()
    assert norm(ring.one() - a) == 5  # Phi_5(1)
    assert norm(ring.element([2, 1])) == 11  # Phi_5(-2)
    assert norm(ring.element(7)) == 7**4
    assert norm(a) == 1


def test_norm_multiplicative():
    rng = random.Random(RNG_SEED + 1)
    for lam in (3, 5, 7, 11):
        ring = cyclotomic_ring(lam)
        for _ in range(250):
            x = _random_element(ring, rng)
            y = _random_element(ring, rng)
            assert norm(x * y) == norm(x) * norm(y)


def test_norm_equals_resultant():
    # Phi_n is monic, so Res(Phi_n, x) is the product of x over its roots;
    # the composite conductors have non-cyclic or mixed subgroup towers
    rng = random.Random(RNG_SEED + 2)
    for n, count in [(3, 40), (5, 40), (7, 40), (11, 40), (12, 20), (15, 20),
                     (20, 20), (21, 20), (23, 8), (41, 3)]:
        ring = cyclotomic_ring(n)
        phi = list(cyclotomic_polynomial(n))
        for _ in range(count):
            x = _random_element(ring, rng)
            assert norm(x) == resultant(phi, list(x.coeffs))


def test_norm_schedule_covers_the_unit_group():
    for n in (1, 2, 3, 4, 9, 12, 15, 20, 21, 23, 41):
        units = {k for k in range(n) if gcd(k, n) == 1}
        products = [1 % n]
        for k, r in cyclotomic_ring(n).norm_schedule:
            assert all(r % d for d in range(2, r))  # prime index
            products = [h * pow(k, j, n) % n for h in products for j in range(r)]
        assert sorted(products) == sorted(units)
    multiplies = {n: sum(r - 1 for _, r in cyclotomic_ring(n).norm_schedule)
                  for n in (23, 41)}
    assert multiplies == {23: 11, 41: 7}


def test_reduce_matches_division():
    # reference: remainder of the general division by Phi_n; the conductors
    # cover odd and even, prime, 2q and 4q, odd composite and
    # four-prime-factor n; past 41 a sample of the lengths
    rng = random.Random(RNG_SEED + 6)
    for n in (1, 2, 3, 4, 6, 8, 9, 12, 15, 20, 21, 23, 36, 41,
              46, 92, 105, 210, 462, 498):
        ring = cyclotomic_ring(n)
        modulus = list(ring.modulus)
        lengths = range(3 * n + 1)
        if n > 41:
            lengths = sorted({0, ring.degree, n // 2, n}
                             | set(rng.sample(lengths, 3)))
        for length in lengths:
            for spread in (1, 10**20):
                c = [rng.randint(-spread, spread) for _ in range(length)]
                _, r = divmod_exact(trim(list(c)), modulus)
                assert ring._reduce(c) == tuple(r + [0] * (ring.degree - len(r)))


def test_reduction_plan():
    # no block at a prime, a prime power or twice a prime: the single
    # clear-from-top stage starts at the fold, as it always did
    for q in primes_below(200):
        for n in [q ** k for k in range(1, 8) if q ** k < 200] + [2 * q]:
            m, _, blocks, top, _ = CyclotomicRing(n)._plan
            assert blocks == () and top == m, n
    # Phi_219 | Phi_3(X^73) and Phi_498 | Phi_6(X^83): one block of 73 or 83
    # coefficients, then 2 single steps in place of 75 and 85
    for n, block in ((219, (146, 219)), (498, (166, 249))):
        _, _, blocks, top, degree = CyclotomicRing(n)._plan
        assert blocks == (block,) and top - degree == 2


def test_composite_rings_divide_by_no_polynomial(monkeypatch):
    # the library keeps no general polynomial division to fall back on
    assert not hasattr(polyint, "divmod_exact")
    # build Phi_n afresh instead of reading the cache
    monkeypatch.setattr(polyint, "cyclotomic_polynomial",
                        polyint.cyclotomic_polynomial.__wrapped__)
    rng = random.Random(RNG_SEED + 7)
    for n in (12, 36, 46, 105, 210):
        ring = CyclotomicRing(n)
        x, y = _random_element(ring, rng), _random_element(ring, rng)
        k = next(k for k in range(2, n) if gcd(k, n) == 1)
        assert conjugate(x * y, k) == conjugate(x, k) * conjugate(y, k)
        assert norm(x * y) == norm(x) * norm(y)
        assert (x * ring.alpha(n - 1)) * ring.alpha() == x


def test_periods_pinned():
    sys52 = gaussian_periods(5, 2)
    ring = sys52.ring
    assert sys52.g == 2
    assert sys52.periods[0] == ring.alpha(1) + ring.alpha(4)
    assert sys52.periods[1] == ring.alpha(2) + ring.alpha(3)
    sys54 = gaussian_periods(5, 4)
    assert [p.coeffs for p in sys54.periods] == [
        ring.alpha(1).coeffs,
        ring.alpha(2).coeffs,
        ring.alpha(4).coeffs,
        ring.alpha(3).coeffs,
    ]
    sys73 = gaussian_periods(7, 3)
    ring7 = sys73.ring
    assert sys73.g == 3
    assert sys73.periods[0] == ring7.alpha(1) + ring7.alpha(6)


def test_period_sums_and_galois_action():
    for lam, e in [(5, 2), (5, 4), (7, 2), (7, 3), (7, 6), (11, 5), (13, 4)]:
        system = gaussian_periods(lam, e)
        total = system.ring.zero()
        for eta in system.periods:
            total = total + eta
        assert total == system.ring.element(-1)
        # sigma_g permutes the periods cyclically
        for i, eta in enumerate(system.periods):
            assert conjugate(eta, system.g) == system.periods[(i + 1) % e]
        # sigma_{g^e} fixes each period
        fix = pow(system.g, e, lam)
        for eta in system.periods:
            assert conjugate(eta, fix) == eta


def test_period_system_validation():
    with pytest.raises(ValueError):
        gaussian_periods(5, 3)
    with pytest.raises(ValueError):
        gaussian_periods(8, 2)


@pytest.mark.parametrize(
    "build,key,refused,fields",
    [
        (character, (13, 4), (13, 5), ("p", "lam", "m", "g", "packed_logs")),
        (
            gaussian_periods,
            (13, 4),
            (13, 5),
            ("ring", "lam", "e", "f", "g", "periods", "norm_schedule", "polynomial"),
        ),
    ],
    ids=["character", "gaussian_periods"],
)
def test_a_cached_record_is_a_plain_tuple_built_once(build, key, refused, fields):
    # the builder is the one way to the record: it checks the key, and a
    # second call hands out the same tuple
    build.cache_clear()
    record = build(*key)
    assert isinstance(record, tuple) and not hasattr(record, "__dict__")
    assert record._fields == fields
    assert build(*key) is record
    with pytest.raises(ValueError):
        build(*refused)
    info = build.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 2, 1)


@pytest.mark.parametrize(
    "entry",
    [
        lambda: gaussian_periods(9, 5),
        lambda: enumerate_jacobi_maps(9, 21),
        lambda: factorize(cyclotomic_ring(9).zero()),
        lambda: quotient_and_norm(cyclotomic_ring(9).zero(), 2),
        lambda: stickelberger_check(9, 11),
    ],
    ids=[
        "gaussian_periods",
        "enumerate_jacobi_maps",
        "factorize",
        "quotient_and_norm",
        "stickelberger_check",
    ],
)
def test_one_rule_refuses_a_conductor_that_is_not_an_odd_prime(entry):
    # each key is also wrong in another way (e does not divide 8, 21 is
    # not prime, x is 0, p is not 1 mod 9): the conductor is refused first
    with pytest.raises(ValueError, match="^conductor 9 must be an odd prime$"):
        entry()
