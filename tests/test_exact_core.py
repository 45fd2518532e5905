"""Integer, polynomial, finite-field, and lattice layer."""

import itertools
import math
import random
import signal
import tracemalloc
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kummerlab.arith import (
    _MR_PROOF_LIMIT,
    _SIEVE_FROM,
    DEFAULT_TRIAL_DIVISION_BOUND,
    FactorizationError,
    exact_sqrt,
    factorize_int,
    is_prime,
    least_primitive_root,
    multiplicative_order,
    primes_below,
    squarefree_decomposition,
    squarefree_divisors,
)
from kummerlab.cyclotomic import cyclotomic_ring, norm
from kummerlab.exprparse import parse_element
from kummerlab.idealprimes import enumerate_jacobi_maps
from kummerlab import lattice
from kummerlab.lattice import IntLattice, colon_relations, mul_matrix
from kummerlab import arith, polyint
from kummerlab.polyint import cyclotomic_polynomial, mul, resultant
from kummerlab.polymod import (
    factor_mod_p,
    gf_divmod,
    gf_mod,
    gf_mul,
    gf_normalize,
    gf_pow_mod,
)
from kummerlab.quadorder import QuadOrder, dichotomy_check, enumerate_quad_maps
from kummerlab.valuation import divides, factorize
from reference import (
    autocorrelation,
    autocorrelation_reference,
    colon,
    colon_extends_to,
    divmod_exact,
    kernel_mod,
    lattice_contains,
    principal_lattice,
    schoolbook_reference,
    standard_lattice,
    trial_division_reference,
)

RNG_SEED = 9157


def test_is_prime_small():
    known = set(primes_below(200))
    for n in range(200):
        assert is_prime(n) == (n in known)


def test_is_prime_below_43_squared_needs_no_miller_rabin(monkeypatch):
    # below 43^2 a number that no base up to 41 divides is prime, so no
    # Miller-Rabin round (one pow each) runs
    known = set(primes_below(43 * 43))

    def no_pow(*args):
        raise AssertionError("Miller-Rabin ran below 43^2")

    monkeypatch.setattr(arith, "pow", no_pow, raising=False)
    for n in range(43 * 43):
        assert is_prime(n) == (n in known), n
    with pytest.raises(AssertionError, match="Miller-Rabin ran"):
        is_prime(43 * 43)  # no base divides it, and it is composite


def test_is_prime_large_composites():
    assert is_prime(2**61 - 1)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    # strong pseudoprime to the first 12 prime bases, 2 through 37
    assert not is_prime(399165290221 * 798330580441)


def test_is_prime_refuses_past_its_digit_budget(monkeypatch):
    # past MAX_PRIME_DIGITS the bases still answer, and an n that none of
    # them divides is refused before any Miller-Rabin round
    def no_pow(*args):
        raise AssertionError("Miller-Rabin ran past the budget")

    monkeypatch.setattr(arith, "pow", no_pow, raising=False)
    assert not is_prime(41 * 10**1500)
    # no prime up to 41 divides either, and 4401 digits are more than
    # Python prints
    for n, digits in ((10**1000 + 9, 1001), (10**4400 + 9, 4401)):
        with pytest.raises(ValueError) as err:
            is_prime(n)
        assert str(err.value) == (
            f"primality of an integer of {digits} digits is over the budget of "
            "1000 digits"
        )


# Arnault's strong pseudoprime to the 13 prime bases up to 41 (J. Symbolic
# Comput. 20, 1995): p1 p2 p3 with p_i = k_i (p1 - 1) + 1 for k = 1, 53, 61
ARNAULT_FACTORS = (
    1189640571950868212323,
    63050950313396015253067,
    72568074889002960951643,
)
ARNAULT = 5443183882119677641412472432444739926992410014294629071132996995163

# the odd n below 2 * 10^5 that the strong Lucas test with Selfridge's
# parameters takes for primes and are not (OEIS A217255)
STRONG_LUCAS_PSEUDOPRIMES = [
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
    75077, 97439, 100127, 113573, 115639, 130139, 155819, 158399, 161027,
    162133, 176399, 176471, 189419, 192509, 197801,
]


def test_is_prime_refuses_arnaults_pseudoprime_to_all_13_bases(monkeypatch):
    p1 = ARNAULT_FACTORS[0]
    assert ARNAULT_FACTORS == (p1, 53 * (p1 - 1) + 1, 61 * (p1 - 1) + 1)
    assert math.prod(ARNAULT_FACTORS) == ARNAULT > _MR_PROOF_LIMIT
    assert all(is_prime(p) for p in ARNAULT_FACTORS) and not is_prime(ARNAULT)
    # the 13 bases alone, run past their proof limit, take it for a prime
    monkeypatch.setattr(arith, "_MR_PROOF_LIMIT", 10**100)
    assert is_prime(ARNAULT)


def test_bpsw_rejects_every_strong_lucas_pseudoprime(monkeypatch):
    bound = 2 * 10**5
    primes = set(primes_below(bound))
    lucas = [n for n in range(3, bound, 2) if arith._strong_lucas(n) != (n in primes)]
    assert lucas == STRONG_LUCAS_PSEUDOPRIMES
    # with the proof limit lowered to 43^2 every n from there takes the BPSW
    # route: base 2 rejects each Lucas pseudoprime, and Lucas each base-2 one
    monkeypatch.setattr(arith, "_MR_PROOF_LIMIT", 43 * 43)
    assert [n for n in range(bound) if is_prime(n) != (n in primes)] == []


def test_strong_lucas_refuses_a_square_before_its_search():
    # a square has (D/n) = 0 or 1 for every D, so the search for
    # (D/n) = -1 would run on until |D| met the prime 10^13 + 37
    def hang(signum, frame):
        raise TimeoutError("the search for D ran on a square")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(2)
    try:
        n = (10**13 + 37) ** 2
        assert is_prime(10**13 + 37) and n > _MR_PROOF_LIMIT
        assert not arith._strong_lucas(n)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_bpsw_agrees_with_the_13_bases_above_the_proof_limit(monkeypatch):
    # the first primes above the limit, Mersenne primes, and products of
    # consecutive primes just above its square root
    primes = [
        3317044064679887385962123,
        3317044064679887385962177,
        3317044064679887385962191,
        2**89 - 1,
        2**127 - 1,
    ]
    products = [
        1821275395081 * 1821275395109,
        1821275395109 * 1821275395129,
        1821275395129 * 1821275395133,
        (2**61 - 1) * (2**89 - 1),
    ]
    assert min(primes + products) > _MR_PROOF_LIMIT
    expected = [True] * len(primes) + [False] * len(products)
    assert [is_prime(n) for n in primes + products] == expected
    monkeypatch.setattr(arith, "_MR_PROOF_LIMIT", 10**100)
    assert [is_prime(n) for n in primes + products] == expected


def test_factorize_int():
    assert factorize_int(1) == {}
    assert factorize_int(360) == {2: 3, 3: 2, 5: 1}
    assert factorize_int(-97) == {97: 1}
    # prime cofactor beyond the bound is accepted via the primality test
    assert factorize_int(2 * (10**9 + 7), bound=100) == {2: 1, 10**9 + 7: 1}


def test_factorize_int_prime_cofactors():
    # a proven-prime cofactor ends trial division; above the proof limit of
    # the Miller-Rabin bases, division runs to the bound as before
    big, huge = 10**12 + 39, 4 * 10**24 + 27
    assert factorize_int(-(2**3) * 3 * 7**2 * big) == {2: 3, 3: 1, 7: 2, big: 1}
    assert factorize_int(5 * big * 11) == {5: 1, 11: 1, big: 1}
    assert factorize_int(2 * 5 * huge) == {2: 1, 5: 1, huge: 1}
    with pytest.raises(FactorizationError):
        factorize_int(13 * 399165290221 * 798330580441)


def _outcome(factor, n, bound):
    """The factors in their order, or the exception's type and text."""
    try:
        return list(factor(n, bound).items())
    except ValueError as err:  # FactorizationError included
        return type(err), str(err)


# bounds around 6k - 1 and its partner 6k + 1, and around the first sieved
# segment
_EDGE_BOUNDS = sorted(
    {6 * k + d for k in (1, 2, 3, 4, 8, 17) for d in (-2, -1, 0, 1, 2)}
    | {_SIEVE_FROM + d for d in range(-8, 9)}
    | {4 * _SIEVE_FROM, 20000}
)
# products of these reach every branch: repeated and partner factors, hits
# on both sides of _SIEVE_FROM, and cofactors above _MR_PROOF_LIMIT
_FACTOR_POOL = [5, 7, 11, 13, 23, 25, 29, 97, 2999, 3001, 3011, 10007, 10009]


@settings(max_examples=300, deadline=None)
@given(
    factors=st.lists(st.sampled_from(_FACTOR_POOL), max_size=6),
    cofactor=st.one_of(
        st.integers(1, 10**6),
        st.integers(1, 10**30),
        st.integers(_MR_PROOF_LIMIT - 10**6, 2 * _MR_PROOF_LIMIT),
    ),
    sign=st.sampled_from([1, -1]),
    bound=st.one_of(st.integers(-2, 40), st.sampled_from(_EDGE_BOUNDS)),
)
@example(factors=[13, 10007, 10009], cofactor=1, sign=1, bound=11)
@example(factors=[], cofactor=1, sign=-1, bound=0)
@example(factors=[], cofactor=0, sign=1, bound=5)
@example(factors=[3001, 3011], cofactor=4 * 10**24 + 27, sign=-1, bound=20000)
# 5 is a candidate from bound 5 on; below it 25 is a composite cofactor
@example(factors=[25], cofactor=1, sign=1, bound=1)
@example(factors=[25], cofactor=1, sign=1, bound=2)
@example(factors=[25], cofactor=1, sign=1, bound=3)
@example(factors=[25], cofactor=1, sign=1, bound=4)
@example(factors=[25], cofactor=1, sign=1, bound=5)
@example(factors=[25], cofactor=1, sign=1, bound=6)
def test_factorize_int_matches_trial_division_reference(factors, cofactor, sign, bound):
    # the sieve divides by the primes among the candidates, the reference by
    # every candidate: the same factors in the same order, or the same error
    n = sign * math.prod(factors) * cofactor
    assert _outcome(factorize_int, n, bound) == _outcome(
        trial_division_reference, n, bound
    )


def test_factorize_int_reaches_the_partner_of_the_last_candidate():
    # bound 11 admits 6k - 1 = 11 and so its partner 13 = bound + 2
    with pytest.raises(FactorizationError) as err:
        factorize_int(13 * 10007 * 10009, 11)
    assert str(err.value) == (
        "cofactor 100160063 is composite and exceeds the trial-division bound 11"
    )


def test_factorize_int_names_a_long_cofactor_by_its_digit_count():
    # 5 (10^4400 + 1) is refused at once, since is_prime stops at the base 5,
    # and its 4401 digits are more than Python prints
    with pytest.raises(FactorizationError) as err:
        factorize_int(5 * (10**4400 + 1), 1)
    assert str(err.value) == (
        "cofactor of 4401 digits is composite and exceeds the trial-division bound 1"
    )


def test_primes_below_matches_the_primality_test():
    known = [p for p in range(10**4) if is_prime(p)]
    for bound in range(10**4 + 1):
        assert primes_below(bound) == known[: bisect_left(known, bound)]


PINNED_41 = "7+19a+33a^3-5a^17+11a^30"


def test_factorize_int_memory_is_bounded():
    # the pinned lambda-41 norm is 83 times a 60-digit composite, so trial
    # division runs to the default bound; the sieve holds one segment and
    # the primes read out of it, and a second call keeps and allocates no
    # more than the first (a prime table kept up to 10^6 would hold about
    # 2.8 MB).  The residue-degree table of conductor 41 (a few KB) stays in
    # its bounded cache, so it is built before the count starts.
    nval = norm(parse_element(PINNED_41, cyclotomic_ring(41)))
    arith._residue_degrees(41)
    for conductor in (1, 41):
        peaks, kept = [], []
        tracemalloc.start()
        try:
            for _ in range(2):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                try:
                    factorize_int(nval, conductor=conductor)
                except FactorizationError:
                    pass
                current, peak = tracemalloc.get_traced_memory()
                peaks.append(peak - start)
                kept.append(current - start)
        finally:
            tracemalloc.stop()
        # (a few bytes of interpreter free lists move from call to call)
        assert peaks[0] < 2**20, conductor
        assert peaks[1] - peaks[0] < 4096, conductor
        assert max(kept) < 4096, conductor


def test_pinned_norm_reads_only_the_classes_that_can_divide_it(monkeypatch):
    # an exact work count, which does not drift with the machine's speed:
    # every sieve entry that itertools.compress reads, and every prime it
    # hands out, for the pinned lambda-41 norm, which is trial-divided to
    # the default bound.  Each count includes the table of sieving primes
    # below 1001 (516 entries, 179 primes).  Reading every odd number of
    # each segment would take 498,219 entries and 78,056 primes.
    counts = {}
    real = arith.compress

    def counted(data, selectors):
        counts["read"] += len(selectors)
        for value in real(data, selectors):
            counts["primes"] += 1
            yield value

    monkeypatch.setattr(arith, "compress", counted)
    x = parse_element(PINNED_41, cyclotomic_ring(41))
    nval = norm(x)

    def work(call):
        counts.update(read=0, primes=0)
        with pytest.raises(FactorizationError):
            call()
        return counts["read"], counts["primes"]

    # conductor 1: the classes 1 and 5 mod 6, every prime
    assert work(lambda: factorize_int(nval)) == (332_318, 78_056)
    # conductor 41: only the classes whose residue degree f has lo^f <= n
    assert work(lambda: factorize_int(nval, conductor=41)) == (134_342, 30_447)
    # factorize and divides trial-divide their norms at the ring's conductor
    assert work(lambda: factorize(x)) == (134_342, 30_447)
    assert work(lambda: divides(x, x)) == (134_342, 30_447)


@st.composite
def _drawn_norms(draw):
    lam = draw(st.sampled_from([3, 5, 7, 11, 13, 23, 41]))
    terms = draw(
        st.dictionaries(
            st.integers(0, lam - 2), st.integers(-60, 60), min_size=1, max_size=4
        )
    )
    x = cyclotomic_ring(lam).element([terms.get(i, 0) for i in range(lam - 1)])
    assume(not x.is_zero())
    return lam, norm(x)


@settings(max_examples=40, deadline=None)
@given(drawn=_drawn_norms())
def test_factorize_int_at_a_conductor_matches_trial_division_reference(drawn):
    # a prime that the residue-degree rule skips cannot divide the norm, so
    # the factors, their order and the error text are those of dividing by
    # every candidate
    lam, nval = drawn
    for bound in (*_EDGE_BOUNDS, DEFAULT_TRIAL_DIVISION_BOUND):
        assert _outcome(
            lambda n, b: factorize_int(n, b, conductor=lam), nval, bound
        ) == _outcome(trial_division_reference, nval, bound), (lam, bound)


def test_factorize_int_reads_a_class_whose_power_equals_the_cofactor():
    # 9203 = 6 * 1534 - 1 is prime and starts a sieved segment (k = 1534),
    # and its order mod each lam below is lam - 1, so the norm of x = 9203
    # is 9203^(lam - 1): at that segment lo^f equals the cofactor exactly.
    # Its class must be read when lo^f <= n; reading it only when lo^f < n
    # would miss the factor.
    q = 9203
    assert is_prime(q) and (q + 1) // 6 == 1 + 3 * (2**9 - 1) and q > _SIEVE_FROM
    for lam in (3, 5, 7, 11, 41):
        assert multiplicative_order(q, lam) == lam - 1
        nval = norm(cyclotomic_ring(lam).element([q] + [0] * (lam - 2)))
        assert nval == q ** (lam - 1)
        assert factorize_int(nval, conductor=lam) == {q: lam - 1}
        for bound in (*_EDGE_BOUNDS, DEFAULT_TRIAL_DIVISION_BOUND):
            assert _outcome(
                lambda n, b: factorize_int(n, b, conductor=lam), nval, bound
            ) == _outcome(trial_division_reference, nval, bound), (lam, bound)


def test_factorize_int_merges_the_classes_of_a_segment_in_ascending_order():
    # the sieved segment [9203, 18419) is read one residue class at a time,
    # and a later class can hold a smaller prime: 10009 = 1 and 10007 = 5
    # mod 6, 9221 = 5 and 9209 = 11 mod 18.  Dividing in class order would
    # put 10009 first, and at conductor 3 would take the cofactor 9209^2 for
    # a prime once 9221^2 is divided out, since 9209^2 < 9221^2.
    assert list(factorize_int(10007 * 10009).items()) == [(10007, 1), (10009, 1)]
    nval = norm(cyclotomic_ring(3).element([9209 * 9221, 0]))
    assert list(factorize_int(nval, conductor=3).items()) == [(9209, 2), (9221, 2)]


def test_factorize_int_refuses_a_conductor_below_1():
    for conductor in (0, -41):
        with pytest.raises(ValueError, match="must be positive"):
            factorize_int(83, conductor=conductor)


def test_multiplicative_order():
    assert multiplicative_order(2, 5) == 4
    assert multiplicative_order(11, 5) == 1
    assert multiplicative_order(7, 1) == multiplicative_order(0, 1) == 1
    with pytest.raises(ValueError):
        multiplicative_order(5, 10)
    # modulo a subgroup: the squares mod 7, and <5> of order 4 mod 13
    assert multiplicative_order(2, 7, {1, 2, 4}) == 1
    assert multiplicative_order(3, 7, {1, 2, 4}) == 2
    assert multiplicative_order(2, 13, {1, 5, 8, 12}) == 3
    assert multiplicative_order(7, 1, {0}) == 1
    with pytest.raises(ValueError):
        multiplicative_order(6, 21, {1, 4, 16})
    # the least s >= 1 with a^s in H, at every unit mod 21 and H = <4>
    for a in (a for a in range(1, 21) if math.gcd(a, 21) == 1):
        s = next(s for s in range(1, 21) if pow(a, s, 21) in {1, 4, 16})
        assert multiplicative_order(a, 21, {1, 4, 16}) == s == multiplicative_order(
            a, 21, (1, 4, 16)
        )


def test_squarefree_divisors():
    assert squarefree_divisors(1) == {1: 1}
    assert squarefree_divisors(12) == {1: 1, 2: -1, 3: -1, 6: 1}
    for n in range(1, 200):
        expected = {}
        for s in range(1, n + 1):
            primes = [q for q in range(2, s + 1) if s % q == 0 and is_prime(q)]
            if n % s == 0 and all(s % (q * q) for q in primes):
                expected[s] = (-1) ** len(primes)
        assert squarefree_divisors(n) == expected, n


def test_least_primitive_root():
    assert least_primitive_root(5) == 2
    assert least_primitive_root(7) == 3
    assert least_primitive_root(41) == 6


def test_squarefree_decomposition():
    assert squarefree_decomposition(-12) == (2, -3)
    assert squarefree_decomposition(20) == (2, 5)
    assert squarefree_decomposition(1) == (1, 1)


def test_exact_sqrt():
    assert exact_sqrt(0) == 0 and exact_sqrt(1) == 1
    assert exact_sqrt(2) is None and exact_sqrt(3) is None
    rng = random.Random(RNG_SEED)
    roots = [2, 3, 10**9 + 7] + [rng.randrange(10**k) + 2 for k in range(1, 2001, 37)]
    roots.append(10**2000 - 1)  # its square has 4000 digits
    for r in roots:
        n = r * r
        assert exact_sqrt(n) == r
        assert exact_sqrt(n - 1) is None and exact_sqrt(n + 1) is None
        assert exact_sqrt(-n) is None
    assert exact_sqrt(-1) is None


def test_integer_arithmetic_identities():
    rng = random.Random(RNG_SEED)
    for _ in range(200):
        a = rng.randint(-(10**30), 10**30)
        b = rng.randint(1, 10**20)
        assert (a + b) - b == a
        assert (a * b) // b == a


# --- integer polynomials -------------------------------------------------


def test_cyclotomic_polynomials_pinned():
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(1) == (-1, 1)
    # derived by dividing X^12 - 1 by the proper cyclotomic factors
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


def test_cyclotomic_product_identity():
    for n in range(1, 31):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = mul(prod, list(cyclotomic_polynomial(d)))
        expected = [-1] + [0] * (n - 1) + [1]
        assert prod == expected


def test_cyclotomic_polynomials_match_division():
    # reference: X^n - 1 divided by Phi_d for every proper divisor d
    phi = {}
    for n in range(1, 501):
        f = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                f, r = divmod_exact(f, phi[d])
                assert r == []
        phi[n] = f
        assert cyclotomic_polynomial(n) == tuple(f)


def test_divmod_exact_roundtrip():
    rng = random.Random(RNG_SEED + 1)
    for _ in range(100):
        g = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [1]
        q = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
        r = [rng.randint(-9, 9) for _ in range(len(g) - 1)]
        f = mul(q, g)
        for i, c in enumerate(r):
            f = f + [0] * max(0, i + 1 - len(f))
            f[i] += c
        qq, rr = divmod_exact(f, g)
        back = mul(qq, g)
        for i, c in enumerate(rr):
            back = back + [0] * max(0, i + 1 - len(back))
            back[i] += c
        while back and back[-1] == 0:
            back.pop()
        while f and f[-1] == 0:
            f.pop()
        assert back == f


def test_resultant_vs_product_of_roots():
    # Res(X^2 - 1, f) = f(1) * f(-1)
    f = [3, 1, 2]
    assert resultant([-1, 0, 1], f) == (3 + 1 + 2) * (3 - 1 + 2)
    assert resultant([1, 1], [1, 1]) == 0


def test_resultant_of_split_polynomials():
    # Res(prod (X - a_i), prod (X - b_j)) = prod (a_i - b_j); shared roots
    # give 0, and zero pivots force row swaps in the elimination
    rng = random.Random(RNG_SEED)
    for _ in range(60):
        roots_f = [rng.randint(-4, 4) for _ in range(rng.randint(1, 6))]
        roots_g = [rng.randint(-4, 4) for _ in range(rng.randint(1, 6))]
        f, g, expected = [1], [1], 1
        for a in roots_f:
            f = mul(f, [-a, 1])
        for b in roots_g:
            g = mul(g, [-b, 1])
        for a in roots_f:
            for b in roots_g:
                expected *= a - b
        assert resultant(f, g) == expected
    assert resultant([1, 0, 1], [-1, 0, 1]) == 4
    assert resultant([0, 0, 1], [5]) == 25


def test_mul_matches_schoolbook(monkeypatch):
    t = polyint.KRONECKER_MIN_TERMS
    rng = random.Random(RNG_SEED)

    def draw(length, bits, zeros=0.2):
        return [
            0 if rng.random() < zeros else rng.randint(-(2**bits), 2**bits)
            for _ in range(length)
        ]

    cases = []
    # the selection's boundary: t - 1 and t nonzero terms in long operands
    for nonzero in (t - 1, t, t + 1):
        for length in (nonzero, 2 * t):
            f = [0] * length
            for i in rng.sample(range(length), nonzero):
                f[i] = rng.choice([-3, -1, 1, 2, 7])
            cases += [(f, draw(length, 5, 0)), (draw(length, 5, 0), f)]
    # lengths 1 to 500 with negative and zero coefficients, and
    # coefficients past 2^64 and 2^1000
    for length in list(range(1, 45)) + [63, 64, 65, 127, 239, 499, 500]:
        cases.append((draw(length, 8), draw(rng.randint(1, 500), 8)))
    for length in (1, t - 1, t, 40, 120):
        for bits in (64, 65, 1001):
            cases.append((draw(length, bits), draw(length + 3, bits)))
    # all -B times all +B: a product coefficient is -B^2 * min(len) exactly,
    # the width bound; B near powers of two walks it across byte boundaries
    for length, other in ((t, t), (t, 3 * t), (64, 64), (100, 37)):
        for k in list(range(1, 20)) + [63, 64, 65, 1000]:
            for big in (2**k - 1, 2**k, 2**k + 1):
                cases.append(([-big] * length, [big] * other))
                cases.append(([big] * length, [big] * other))
    # leading and trailing zeros, as in padded ring coefficients
    cases.append(([0] * 5 + draw(60, 30, 0) + [0] * 7, [0, 0] + draw(30, 3, 0)))

    packed = []
    kronecker = polyint._kronecker_mul

    def spy(f, g):
        packed.append((f, g))
        return kronecker(f, g)

    monkeypatch.setattr(polyint, "_kronecker_mul", spy)
    for f, g in cases:
        expected = schoolbook_reference(f, g)
        assert mul(f, g) == expected
        assert mul(tuple(f), tuple(g)) == expected
        dense = min(len(f) - f.count(0), len(g) - g.count(0)) >= t
        assert packed == ([(f, g), (tuple(f), tuple(g))] if dense else [])
        packed.clear()
    assert mul([], [1, 2]) == mul([3], []) == []


def test_autocorrelation_pinned():
    assert autocorrelation([]) == []
    assert autocorrelation([5]) == [25]
    assert autocorrelation([1, 2]) == [5, 4]
    # c[1] = h0 h2 + h1 h0 + h2 h1, c[2] = h0 h1 + h1 h2 + h2 h0: equal
    # because c[s] = c[n - s]
    assert autocorrelation([1, 2, 3]) == [14, 11, 11]
    assert autocorrelation([0, 0, 1, 0]) == [1, 0, 0, 0]
    assert autocorrelation([0, 1, 0, 0, 0]) == [1, 0, 0, 0, 0]
    for n in (1, 2, 3, 17):
        assert autocorrelation([0] * n) == [0] * n
    # (sum h)^2 at the bound of each word width, 2^8 to 2^64, and entries
    # near 2^32: one side packs the narrower word, the other the wider
    for k in (4, 8, 16, 32):
        for total in (2**k - 1, 2**k - 2, 2**k + 1):
            for h in ([total], [total - 2, 2], [1, total - 3, 0, 2]):
                if total**2 < 2**64:
                    assert autocorrelation(h) == autocorrelation_reference(h), h
    top = 2**32 - 1
    assert autocorrelation([top]) == [top * top]
    assert autocorrelation([top - 1, 1, 0]) == [(top - 1) ** 2 + 1, top - 1, top - 1]
    h = [2**31, 2**31 - 1]
    assert autocorrelation(h) == autocorrelation_reference(h)


def test_autocorrelation_packs_the_narrower_word():
    # max(h) * sum(h) bounds every lag and picks a narrower word than
    # (sum h)^2 here, up to the very edge of 2^8, 2^16 and 2^32
    def word(bound):
        return next(w for w in (8, 16, 32, 64) if not bound >> w)

    for h in ([15, 1], [1] * 16, [1, 0, 14, 0, 1], [255, 1], [1] * 256,
              [3] * 7 + [1] * 270, [2**16 - 1, 1], [2**15, 2**14, 2**14],
              [1] * 255, [3] * 28):
        assert word(max(h) * sum(h)) < word(sum(h) ** 2), h
        assert autocorrelation(h) == autocorrelation_reference(h), h
    # a constant vector meets max(h) * sum(h) at every lag
    assert autocorrelation([1] * 255) == [255] * 255
    assert autocorrelation([3] * 28) == [252] * 28


@pytest.mark.parametrize(
    "h", [[2**32], [2**31, 2**31], [2**32 - 1, 0, 1], [1] * 2**3 + [2**32 - 8], [-1, 2]]
)
def test_autocorrelation_refuses_an_inexact_word(h):
    with pytest.raises(ValueError):
        autocorrelation(h)


def test_narrowest_word_at_every_edge():
    # the narrowest word w with bound < 2^w, from the one-byte word up
    assert polyint.narrowest_word(0) == (8, "B")
    for bits, code in ((8, "B"), (16, "H"), (32, "I"), (64, "Q")):
        assert polyint.narrowest_word(2**bits - 1) == (bits, code)
        if bits < 64:
            assert polyint.narrowest_word(2**bits)[0] == 2 * bits
    for bound in range(1, 2**17, 997):
        bits = polyint.narrowest_word(bound)[0]
        assert bound < 2**bits and (bits == 8 or bound >= 2 ** (bits // 2))


@pytest.mark.parametrize("bound", [2**64, 2**64 + 1, 2**100, -1])
def test_narrowest_word_refuses_a_bound_no_word_holds(bound):
    with pytest.raises(ValueError, match=f"holds {bound}$"):
        polyint.narrowest_word(bound)


# --- polynomials mod p ---------------------------------------------------


def _all_monic(deg, p):
    if deg == 0:
        yield [1]
        return
    for c in range(p**deg):
        coeffs = []
        v = c
        for _ in range(deg):
            v, digit = divmod(v, p)
            coeffs.append(digit)
        yield coeffs + [1]


def _is_irreducible_bruteforce(f, p):
    # brute force: trial of every monic divisor of degree <= deg/2
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for g in _all_monic(d, p):
            from kummerlab.polymod import gf_divmod

            _, r = gf_divmod(list(f), g, p)
            if not r:
                return False
    return deg >= 1


def _product_step_by_step(f, g, p):
    # the schoolbook product over F_p, every step reduced
    prod = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            prod[i + j] = (prod[i + j] + a * b) % p
    return gf_normalize(prod, p)


def _divmod_step_by_step(f, g, p):
    # the schoolbook division over F_p, every step reduced
    r = gf_normalize(list(f), p)
    q = [0] * max(len(r) - len(g) + 1, 0)
    inv = pow(g[-1], -1, p)
    while len(r) >= len(g):
        c = q[len(r) - len(g)] = r[-1] * inv % p
        for j, b in enumerate(g, len(r) - len(g)):
            r[j] = (r[j] - c * b) % p
        r = gf_normalize(r, p)
    return gf_normalize(q, p), r


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    p=st.sampled_from([2, 3, 7, 101, 2**127 - 1, 2**521 - 1]),
    data=st.data(),
)
def test_gf_mul_and_divmod_reduce_once(p, data):
    # lazy reduction reads the same product and quotient as reducing after
    # every step, also for a square (the same list twice) and for a dividend
    # with coefficients outside [0, p), as gf_pow_mod passes its products
    coeffs = st.lists(st.integers(0, p - 1), max_size=8)
    f, g = data.draw(coeffs), data.draw(coeffs)
    g.append(data.draw(st.integers(1, p - 1)))
    assert gf_mul(f, g, p) == _product_step_by_step(f, g, p)
    assert gf_mul(f, f, p) == _product_step_by_step(f, list(f), p)
    quotient = _divmod_step_by_step(f, g, p)
    assert gf_divmod(f, g, p) == quotient
    lifted = [a + p * data.draw(st.integers(-3, 3)) for a in f]
    assert gf_divmod(lifted, g, p) == quotient


def test_factor_phi5_mod_11():
    factors = factor_mod_p(list(cyclotomic_polynomial(5)), 11)
    roots = sorted((-f[0]) % 11 for f, _ in factors)
    assert roots == [3, 4, 5, 9]
    assert all(m == 1 and len(f) == 2 for f, m in factors)
    # canonical order: by (degree, coefficient tuple)
    assert [f for f, _ in factors] == sorted(f for f, _ in factors)


def test_factor_phi5_mod_2_irreducible():
    factors = factor_mod_p(list(cyclotomic_polynomial(5)), 2)
    assert factors == [([1, 1, 1, 1, 1], 1)]


def test_factor_with_multiplicity():
    assert factor_mod_p([0, 0, 1], 3) == [([0, 1], 2)]
    assert factor_mod_p(list(cyclotomic_polynomial(5)), 5) == [([4, 1], 4)]
    assert factor_mod_p(list(cyclotomic_polynomial(3)), 3) == [([2, 1], 2)]


def test_factor_requires_prime_modulus():
    with pytest.raises(ValueError):
        factor_mod_p([1, 1], 6)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_factor_reconstructs_and_is_irreducible(p):
    rng = random.Random(RNG_SEED + p)
    for _ in range(25):
        deg = rng.randint(1, 6)
        f = gf_normalize(
            [rng.randint(0, p - 1) for _ in range(deg)] + [rng.randint(1, p - 1)],
            p,
        )
        if len(f) < 2:
            continue
        factors = factor_mod_p(f, p)
        prod = [f[-1]]
        for fac, mult in factors:
            for _ in range(mult):
                prod = gf_mul(prod, fac, p)
            assert _is_irreducible_bruteforce(fac, p)
        assert prod == f


def test_equal_degree_structure_of_cyclotomic_factors():
    for lam in (3, 5, 7, 11, 13):
        for p in primes_below(200):
            if p == lam:
                continue
            f = multiplicative_order(p, lam)
            factors = factor_mod_p(list(cyclotomic_polynomial(lam)), p)
            assert len(factors) == (lam - 1) // f
            assert all(len(fac) - 1 == f and m == 1 for fac, m in factors)


# --- finite fields -------------------------------------------------------


def test_field_arithmetic_f16():
    phi5 = [1, 1, 1, 1, 1]  # F_16 = F_2[X]/(Phi_5)
    assert gf_pow_mod([0, 1], 5, phi5, 2) == [1]
    assert gf_pow_mod([0, 1], 15, phi5, 2) == [1]


def test_field_prime_field_detection():
    # X is the root 3 of 8 + X in F_11[X]/(8 + X) = F_11
    assert gf_mod([0, 1], [8, 1], 11) == [3]


def test_pow_mod_a_linear_modulus_by_repeated_products():
    # (Z/m)[X]/(X + c) is Z/m, so a power there is an integer power
    for m in (2, 11, 7**3):
        for c in (0, 1, 5, m - 1):
            for base in ([0, 1], [3, 2, 1], [], [m]):
                power = [1]
                for e in range(12):
                    assert gf_pow_mod(base, e, [c, 1], m) == power, (m, c, base, e)
                    power = gf_mod(gf_mul(power, base, m), [c, 1], m)


# --- lattices ------------------------------------------------------------


def _det_fraction(rows):
    n = len(rows)
    mat = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, n):
            f = mat[r][col] * inv
            if f:
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return det


def test_hnf_pinned_examples():
    assert IntLattice([[2, 0], [0, 2]]).rows == ((2, 0), (0, 2))
    lat = IntLattice([[2, 0], [1, 1]])
    assert lat.rows == ((1, 1), (0, 2))
    assert lat.index() == 2


def test_hnf_canonical_under_unimodular_changes():
    rng = random.Random(RNG_SEED + 17)
    for _ in range(40):
        d = rng.randint(2, 5)
        base = [[rng.randint(-5, 5) for _ in range(d)] for _ in range(d)]
        if _det_fraction(base) == 0:
            continue
        reference = IntLattice(base)
        rows = [list(r) for r in base]
        for _ in range(15):
            i, j = rng.randrange(d), rng.randrange(d)
            if i != j:
                c = rng.randint(-3, 3)
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        rng.shuffle(rows)
        assert IntLattice(rows) == reference
        assert IntLattice([list(r) for r in reference.rows]) == reference  # idempotent


def test_hnf_index_is_absolute_determinant():
    rng = random.Random(RNG_SEED + 23)
    for _ in range(40):
        d = rng.randint(2, 4)
        base = [[rng.randint(-6, 6) for _ in range(d)] for _ in range(d)]
        det = _det_fraction(base)
        if det == 0:
            continue
        assert IntLattice(base).index() == abs(int(det))


def test_hnf_rejects_rank_deficient():
    for rows in (
        [[1, 2], [2, 4]],
        [[0, 1], [0, 2], [0, 3]],  # more generators than the dimension
        [[1, 0, 0], [0, 0, 1], [0, 0, 2]],  # no pivot in the middle column
        [[1, 0]],  # fewer generators than the dimension
    ):
        with pytest.raises(ValueError, match="full-rank"):
            IntLattice(rows)


def test_membership():
    lat = IntLattice([[2, 0], [1, 1]])
    assert lattice_contains(lat, [1, 1])
    assert lattice_contains(lat, [2, 0])
    assert not lattice_contains(lat, [1, 0])
    assert lattice_contains(lat, [3, 1])


GAUSSIAN = QuadOrder(0, 1)  # Z[i]
SQRT_M3 = QuadOrder(0, 3)  # Z[sqrt(-3)]


def _times(order, a, b):
    """Coordinates of a * b, multiplied as ring elements."""
    return list((order.element(list(a)) * order.element(list(b))).coeffs)


@pytest.mark.parametrize(
    "order",
    [cyclotomic_ring(n) for n in (5, 12, 15, 41)]
    + [QuadOrder(0, 1), QuadOrder(0, 3), QuadOrder(-1, 1), QuadOrder(1, 5)],
    ids=repr,
)
def test_mul_matrix_matches_ring_multiplication(order):
    # row i of mul_matrix(v) is v * e_i, e_i = alpha^i or (1, theta)
    rng = random.Random(RNG_SEED + 29)
    d = order.degree
    basis = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(5):
        v = [rng.randint(-9, 9) for _ in range(d)]
        assert [list(r) for r in mul_matrix(order, v)] == [
            _times(order, v, e) for e in basis
        ]


def _generated_orders(rng):
    """Z[alpha] for every conductor 1 .. 60, and 60 QuadOrder(u, v) with
    u, v drawn from [-30, 30], square discriminants skipped."""
    orders = [cyclotomic_ring(n) for n in range(1, 61)]
    while len(orders) < 120:
        u, v = rng.randint(-30, 30), rng.randint(-30, 30)
        disc = u * u - 4 * v
        if disc < 0 or math.isqrt(disc) ** 2 != disc:
            orders.append(QuadOrder(u, v))
    return orders


def test_mul_matrix_matches_ring_multiplication_on_generated_orders():
    # the rows v * theta^i by ring multiplication, for vectors v of every
    # length up to twice the degree: a long v is reduced first
    rng = random.Random(RNG_SEED + 37)
    for order in _generated_orders(rng):
        d = order.degree
        basis = [[int(i == j) for j in range(d)] for i in range(d)]
        for length in (1, d, d + 1, 2 * d):
            v = [rng.randint(-30, 30) for _ in range(length)]
            assert [list(r) for r in mul_matrix(order, v)] == [
                _times(order, v, e) for e in basis
            ], (order, v)


def test_product_and_colon_refuse_every_rank_mismatch_on_generated_orders():
    rng = random.Random(RNG_SEED + 41)
    for order in _generated_orders(rng):
        d = order.degree
        for dim in sorted({1, 2, d - 1, d, d + 1, rng.randint(1, 60)} - {0}):
            unit = standard_lattice(dim)
            v = [rng.randint(-9, 9) for _ in range(dim - 1)] + [1]
            if dim == d:
                if d > 8:  # a product of rank d takes d^2 generators
                    continue
                assert unit.product(unit, order) == unit
                relations = colon_relations(v, v, order)
                assert IntLattice([r[:d] for r in relations]) == unit
                continue
            with pytest.raises(ValueError, match="dimension mismatch"):
                unit.product(unit, order)
            with pytest.raises(ValueError, match="dimension mismatch"):
                colon_relations(v, v, order)


def test_product_and_colon_check_the_order_rank():
    lat = IntLattice([[2, 0], [1, 1]])
    ring = cyclotomic_ring(5)
    with pytest.raises(ValueError, match="dimension mismatch"):
        lat.product(lat, ring)
    with pytest.raises(ValueError, match="dimension mismatch"):
        colon_relations([1, 1], [1, 1], ring)
    with pytest.raises(ValueError, match="dimension mismatch"):
        colon_relations([1, 1, 0], [1, 0], SQRT_M3)
    square = standard_lattice(4)
    with pytest.raises(ValueError, match="dimension mismatch"):
        square.product(square, SQRT_M3)
    with pytest.raises(ValueError, match="dimension mismatch"):
        colon_relations([1, 0, 0, 0], [1, 0, 0, 0], SQRT_M3)
    # mul_matrix reduces a long vector; colon_relations still refuses it
    with pytest.raises(ValueError, match="dimension mismatch"):
        colon_relations([1, 1, 0, 0, 1], [1, 0, 0, 0], ring)
    with pytest.raises(ValueError, match="dimension mismatch"):
        colon_relations([1, 0, 0, 0], [1, 0, 0], ring)
    with pytest.raises(ZeroDivisionError):
        colon_relations([1, 1], [0, 0], SQRT_M3)


def test_dichotomy_check_refuses_maps_and_elements_of_another_ring():
    z5, gaussian_maps = cyclotomic_ring(5), enumerate_quad_maps(GAUSSIAN, 5)
    # a fraction of a rank-4 ring at a map of a rank-2 order, and back
    expects = r"^element lives in CyclotomicRing\(5\), not QuadOrder\(u=0, v=3\)$"
    with pytest.raises(ValueError, match=expects):
        dichotomy_check(
            enumerate_quad_maps(SQRT_M3, 2), z5.element([1, 1]), z5.element(1)
        )
    expects = r"^element lives in QuadOrder\(u=0, v=3\), not CyclotomicRing\(5\)$"
    with pytest.raises(ValueError, match=expects):
        dichotomy_check(
            enumerate_jacobi_maps(5, 11), SQRT_M3.element([1, 1]), SQRT_M3.element(2)
        )
    # equal degrees: the maps of Z[i] at a fraction of Z[sqrt(-3)], which
    # reads (True, True) at both maps unless the rings are compared
    expects = r"^element lives in QuadOrder\(u=0, v=3\), not QuadOrder\(u=0, v=1\)$"
    with pytest.raises(ValueError, match=expects):
        dichotomy_check(gaussian_maps, SQRT_M3.element([1, 1]), SQRT_M3.element(2))
    # a numerator and a denominator from two orders, with and without maps
    for maps in (gaussian_maps, []):
        with pytest.raises(ValueError, match=expects):
            dichotomy_check(maps, GAUSSIAN.element([1, 1]), SQRT_M3.element(2))
    reps = dichotomy_check(gaussian_maps, GAUSSIAN.element([1, 1]), GAUSSIAN.element(2))
    assert len(reps) == 2


def test_colon_examples():
    two = principal_lattice([2, 0], GAUSSIAN)
    assert colon(two, [2, 0], GAUSSIAN) == standard_lattice(2)
    two_m3 = principal_lattice([2, 0], SQRT_M3)
    assert colon(two_m3, [1, 1], SQRT_M3) == IntLattice([[2, 0], [1, 1]])


def test_ideal_product_anomaly():
    p_ideal = IntLattice([[2, 0], [1, 1]])
    two = principal_lattice([2, 0], SQRT_M3)
    assert p_ideal.product(p_ideal, SQRT_M3) == two.product(p_ideal, SQRT_M3)
    assert p_ideal != two


def test_product_index_divisibility():
    rng = random.Random(RNG_SEED + 31)
    for _ in range(30):
        a = [rng.randint(-4, 4), rng.randint(-4, 4)]
        b = [rng.randint(-4, 4), rng.randint(-4, 4)]
        if a == [0, 0] or b == [0, 0]:
            continue
        la = principal_lattice(a, GAUSSIAN)
        lb = principal_lattice(b, GAUSSIAN)
        prod = la.product(lb, GAUSSIAN)
        # invertible ideals in the maximal order Z[i]: indices multiply
        assert prod.index() == la.index() * lb.index()


def _random_ideal(order, rng):
    d = order.degree
    n = rng.randint(1, 15)
    rows = [[n * int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(2):
        e = [rng.randint(-5, 5) for _ in range(d)]
        if any(e):
            rows += [list(r) for r in principal_lattice(e, order).rows]
    return IntLattice(rows)


def test_product_index_is_multiple_of_index_product():
    # the index of a product of ideal lattices is always a multiple of the
    # product of indices; it exceeds it exactly in the non-invertible case
    # (p^2 = (2) p in Z[sqrt(-3)]: index 8 over 2 * 2)
    rng = random.Random(RNG_SEED + 37)
    for order in (GAUSSIAN, SQRT_M3):
        for _ in range(150):
            la = _random_ideal(order, rng)
            lb = _random_ideal(order, rng)
            prod = la.product(lb, order)
            assert prod.index() % (la.index() * lb.index()) == 0
    p_ideal = IntLattice([[2, 0], [1, 1]])
    assert p_ideal.product(p_ideal, SQRT_M3).index() == 8 > 4


def test_extends_to_matches_the_colon_containment():
    # both halves of the one relation solve, at the fraction and at its
    # inverse, versus the canonical colon lattice and a containment test of
    # HNF rows against the kernel
    rng = random.Random(RNG_SEED + 43)
    maps = [
        phi
        for lam in (5, 7)
        for p in primes_below(30)
        for phi in enumerate_jacobi_maps(lam, p)
    ]
    # maximal controls, then Z[sqrt(-3)] and Z[p i] for p = 2, 3, 5
    for u, v in [(0, 1), (-1, -1), (0, 5), (0, 3), (0, 4), (0, 9), (0, 25)]:
        order = QuadOrder(u, v)
        maps += [phi for p in primes_below(12) for phi in enumerate_quad_maps(order, p)]
    outcomes = set()
    for phi in maps:
        order, d, kernel = phi.ring, phi.ring.degree, phi.kernel()
        for _ in range(12):
            num, den = [0] * d, [0] * d
            while not any(num) or not any(den):
                num = [rng.randint(-6, 6) for _ in range(d)]
                den = [rng.randint(-6, 6) for _ in range(d)]
            if rng.random() < 0.3:  # den in p * O, where the map can fail
                den = [phi.p * c for c in den]
            [rep] = dichotomy_check([phi], order.element(num), order.element(den))
            assert rep == {
                "at_fraction": colon_extends_to(kernel, num, den, order),
                "at_inverse": colon_extends_to(kernel, den, num, order),
            }, (phi.ring, phi.p, num, den)
            outcomes.add((isinstance(order, QuadOrder), rep["at_fraction"]))
    assert len(outcomes) == 4


def test_kernel_mod():
    lat = kernel_mod([[1], [3]], 11)  # {(a, b): a + 3b = 0 mod 11}
    assert lat.index() == 11
    assert lattice_contains(lat, [8, 1])
    assert lattice_contains(lat, [11, 0])
    assert not lattice_contains(lat, [1, 0])
    # the library's one column (1, 3), row-reduced over F_11
    assert lattice.kernel_mod([[1, 3]], 11) == lat


def _box(d, r):
    return itertools.product(range(-r, r + 1), repeat=d)


def test_colon_and_kernel_mod_generated():
    rng = random.Random(RNG_SEED + 41)
    for order in (GAUSSIAN, SQRT_M3, cyclotomic_ring(5)):
        d = order.degree
        for _ in range(25):
            lat = _random_ideal(order, rng)
            v = [0] * d
            while not any(v):
                v = [rng.randint(-5, 5) for _ in range(d)]
            col = colon(lat, v, order)
            for delta in col.rows:
                assert lattice_contains(lat, _times(order, v, delta))
            for delta in _box(d, 2 if d == 2 else 1):
                assert lattice_contains(col, delta) == lattice_contains(
                    lat, _times(order, v, delta)
                )
    for _ in range(40):
        d, m = rng.randint(1, 3), rng.randint(1, 3)
        q = rng.randint(1, 12)
        nmat = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(d)]
        lat = kernel_mod(nmat, q)
        for x in _box(d, 3):
            image = [sum(x[i] * nmat[i][k] for i in range(d)) for k in range(m)]
            assert lattice_contains(lat, x) == all(c % q == 0 for c in image)
        if is_prime(q):  # the library's kernel: N's columns over F_q
            assert lattice.kernel_mod([list(c) for c in zip(*nmat)], q) == lat
