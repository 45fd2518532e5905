"""Integer utilities: primality, factorization, primitive roots, discrete
logs and exact square roots.

All routines are deterministic and exact.  Primality is proven below
_MR_PROOF_LIMIT, about 3.3 * 10^24, and a BPSW probable prime from there up
to MAX_PRIME_DIGITS digits; check_prime is the package's one prime rule.
Factorization is trial division with an explicit bound, which is all the
desk-scale norms in this package need.

Trial division and primes_below share one segmented sieve of Eratosthenes
(Bays and Hudson, BIT 17, 1977; Crandall and Pomerance, Prime Numbers,
section 3.2).  Trial division visits the candidates 6k - 1 and 6k + 1 in
segments of k whose widths start small and double up to a cap, so a small
input stops as early as a one-by-one loop would and memory stays bounded.
A segment that starts at _SIEVE_FROM or later is sieved by 3 and the primes
below the square root of its end.  Its primes are read out one residue
class mod 6c at a time, c the conductor (1 by default), and merged into
ascending order: only classes prime to 6, and of those only the classes
whose primes can divide the cofactor.

The residue-degree rule.  A norm N = N(x) of x in Z[zeta_c] is divisible
by a prime p not dividing c only as a power of p^f, f the order of p mod c
(Kummer's decomposition: pZ[zeta_c] is a product of distinct primes of
norm p^f, Washington, Introduction to Cyclotomic Fields, Theorem 2.13, so
v_p(N) = f * (the sum of the multiplicities of x at them)).  Trial
division divides out every prime below p before it reaches p, so a p
that divides the cofactor n leaves v_p(n) = v_p(N) >= f, hence p^f <= n.
A class whose degree f has lo^f > n at the start lo of a segment then
holds no prime dividing n anywhere in the segment, since n only shrinks.
Skipping it changes no factor, no order and no stop rule, each of which
asks only about primes that can divide n.  At c = lambda = 41, trial
division of the pinned norm of 7+19a+33a^3-5a^17+11a^30 (83 times a
60-digit composite) to the default bound of 10**6 reads 134,342 sieve
entries, the table of sieving primes included, and divides 30,268 sieved
primes, against 332,318 and 77,877 at c = 1; reading every odd number of
each segment took 498,219 entries.
"""

import sys
from functools import lru_cache
from itertools import chain, compress
from math import gcd, isqrt, log10

# Deterministic Miller-Rabin bases: the first 13 primes decide every
# n < _MR_PROOF_LIMIT (Sorenson and Webster, Math. Comp. 86, 2017); the
# first 12 stop short, at the strong pseudoprime 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROOF_LIMIT = 3317044064679887385961981

# The primality budget: BPSW on a 1000-digit prime takes about 0.38 s, its
# base 2 round 0.09 s of that (0.44 s at 1100 digits, 2.3 s at 2000; Python
# 3.11.7, x86-64), and a longer n that no base divides is refused.
MAX_PRIME_DIGITS = 1000
_PRIME_BUDGET = 10**MAX_PRIME_DIGITS

DEFAULT_TRIAL_DIVISION_BOUND = 10**6

# Trial-division segments run over k: the first holds the candidates 5 to 19,
# and a full sieved one holds 3 * _SEGMENT_CAP bytes.
_FIRST_WIDTH = 3
_SEGMENT_CAP = 1 << 15
# A segment that starts below this value is not sieved, and every odd number
# in it is divided into n: there a sieve's set-up and slices cost more than
# the remainders they save.
_SIEVE_FROM = 3000


class FactorizationError(ValueError):
    """Raised when an integer cannot be factored within the trial bound."""


def is_prime(n: int) -> bool:
    """Division by fixed bases, then Miller-Rabin to all 13, a proof below
    _MR_PROOF_LIMIT; from there up to MAX_PRIME_DIGITS digits BPSW, base 2
    and _strong_lucas (Baillie and Wagstaff, Math. Comp. 35, 1980).  A longer
    n that no base divides raises ValueError."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # no prime up to 41 divides n, so n is prime
        return True
    if n >= _PRIME_BUDGET:
        raise ValueError(
            f"primality of an integer of {decimal_digits(n)} digits is over the "
            f"budget of {MAX_PRIME_DIGITS} digits"
        )
    proven = n < _MR_PROOF_LIMIT
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES if proven else (2,):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return proven or _strong_lucas(n)


def check_prime(p: int) -> None:
    """ValueError naming p unless p is prime: the package's one prime rule."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def _jacobi_symbol(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Whether the odd n > 1 is a strong Lucas probable prime with
    Selfridge's parameters: D the first of 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1 and Q = (1 - D) / 4.  With n + 1 = d 2^s, d odd,
    that is U_d = 0 or V_(d 2^r) = 0 mod n for some r < s.  A perfect
    square has no such D and is refused first."""
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi_symbol(D, n)) != -1:
        if j == 0 and abs(D) != n:  # D shares a proper factor with n
            return False
        D = -D - 2 if D > 0 else -D + 2
    q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    # U_k, V_k and Q^k mod n from k = 1 up the bits of d: doubling takes
    # U_2k = U_k V_k, V_2k = V_k^2 - 2Q^k, and a one bit steps to
    # U_(k+1) = (U_k + V_k) / 2, V_(k+1) = (D U_k + V_k) / 2 (n is odd)
    u, v, qk = 1, 1, q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = (u + v) % n, (D * u + v) % n
            u, v, qk = (u + n * (u & 1)) // 2, (v + n * (v & 1)) // 2, qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _strike(lo: int, hi: int, primes: list[int]) -> bytearray:
    """keep[i] == 1 exactly when no p in ``primes`` divides lo + 2i, except p
    itself: the sieve of the odd numbers of [lo, hi) (lo and hi odd).

    Only the p of the ascending ``primes`` with p * p < hi strike; when those
    are 3 and every prime up to sqrt(hi), the survivors are the primes of
    [lo, hi).
    """
    size = (hi - lo) // 2
    keep = bytearray(b"\x01") * size
    for p in primes:
        if p * p >= hi:
            break
        # index of p * p, or of the first odd multiple of p at or above lo
        start = (p * p - lo) // 2 if p * p >= lo else -lo * ((p + 1) // 2) % p
        keep[start::p] = bytes((size - 1 - start) // p + 1)
    return keep


@lru_cache(maxsize=64)
def _residue_degrees(conductor: int) -> tuple[tuple[int, int], ...]:
    """(r, f) for each residue r mod 6 * conductor prime to 6 (the sieve
    strikes every multiple of 3), with f the residue degree of the primes
    p = r: the order of r mod the conductor, or 1 when r shares a factor
    with it, a class that holds at most one prime, a divisor of the
    conductor."""
    return tuple(
        (r, multiplicative_order(r, conductor) if gcd(r, conductor) == 1 else 1)
        for r in range(1, 6 * conductor, 2)
        if r % 3
    )


def _candidates(
    lo: int, hi: int, n: int, sieving: list[int] | None, conductor: int
) -> range | list[int]:
    """The numbers of [lo, hi) to divide into the cofactor n, ascending (lo
    and hi odd): every odd one below _SIEVE_FROM; from there on, the primes
    that ``sieving`` leaves in the residue classes mod 6 * conductor whose
    degree f has lo^f <= n, read out of the sieve one class at a time."""
    if lo < _SIEVE_FROM:
        return range(lo, hi, 2)
    # the largest degree f <= conductor with lo^f <= n
    top = 0
    while top < conductor and lo ** (top + 1) <= n:
        top += 1
    keep = _strike(lo, hi, sieving)
    step = 3 * conductor  # entries of keep per 6 * conductor numbers
    reads = []
    for r, f in _residue_degrees(conductor):
        if f <= top:
            j = (r - lo) // 2 % step
            reads.append(compress(range(lo + 2 * j, hi, 2 * step), keep[j::step]))
    return sorted(chain(*reads))


def factorize_int(
    n: int, bound: int = DEFAULT_TRIAL_DIVISION_BOUND, conductor: int = 1
) -> dict[int, int]:
    """Factor |n| by trial division up to ``bound``.

    After 2 and 3, the candidates are 6k - 1 <= bound and their partners
    6k + 1 <= bound + 2, while (6k - 1)^2 <= n.  They are visited in ascending
    order, in segments of k whose widths start at 3 and double up to a cap.
    A segment that starts below _SIEVE_FROM divides every odd number into n;
    a later one is sieved first, and only its primes are.  A composite
    (a multiple of 3 included) never divides n, because its prime factors
    are smaller and were divided out before it is reached, so either way
    the primes found, their order and their exponents are those of dividing
    by every candidate.

    ``conductor`` c promises that n is a norm from Z[zeta_c]: every prime
    p that does not divide c divides n only as a power of p^f, f the order
    of p mod c.  A sieved segment starting at lo then divides only its
    primes whose residue class mod c has lo^f <= the cofactor (the module
    docstring proves that no other can divide it), and the result is the
    same.  The default c = 1 gives every prime degree 1.

    Division stops early at a cofactor below _MR_PROOF_LIMIT that the
    primality test proves prime; the test is skipped after a hit p that
    leaves a cofactor below p^2.  A remaining cofactor is accepted if it
    passes the primality test; otherwise FactorizationError is raised with
    the bound echoed and the cofactor named, by its digit count if Python
    would not print it.
    Returns {prime: exponent}; factorize_int(1) == {}.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    if conductor < 1:
        raise ValueError(f"conductor {conductor} must be positive")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # the k with 6k - 1 <= bound and (6k - 1)^2 <= n are 1 <= k < k_end
    k_end = min(bound + 1, isqrt(n) + 1) // 6 + 1
    k, width, sieving = 1, _FIRST_WIDTH, None
    proven = n < _MR_PROOF_LIMIT and is_prime(n)
    while not proven and k < k_end:
        k1 = min(k + width, k_end)
        lo, hi = 6 * k - 1, 6 * k1 - 1
        if sieving is None and lo >= _SIEVE_FROM:
            sieving = primes_below(isqrt(6 * k_end) + 1)[1:]
        for p in _candidates(lo, hi, n, sieving, conductor):
            if n % p == 0:
                e = 0
                while n % p == 0:
                    e += 1
                    n //= p
                out[p] = e
                proven = n < p * p or (n < _MR_PROOF_LIMIT and is_prime(n))
                if proven:
                    break
        k_end = min(k_end, (isqrt(n) + 1) // 6 + 1)
        k, width = k1, min(2 * width, _SEGMENT_CAP)
    d = 6 * k - 1
    if n > 1:
        if proven or d * d > n or is_prime(n):
            out[n] = out.get(n, 0) + 1
        else:
            limit, digits = sys.get_int_max_str_digits(), decimal_digits(n)
            name = f"of {digits} digits" if limit and digits > limit else n
            raise FactorizationError(
                f"cofactor {name} is composite and exceeds the trial-division "
                f"bound {bound}"
            )
    return out


def decimal_digits(n: int) -> int:
    """The number of decimal digits of |n|, counted from its bit length, so
    that no string is made of an n longer than Python prints."""
    k = int(n.bit_length() * log10(2))  # |n| has k or k + 1 digits
    return k + (abs(n) >= 10**k)


def valuation_int(n: int, p: int) -> int:
    """Exponent of the prime p in n (n != 0)."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def multiplicative_order(a: int, n: int, subgroup=(1,)) -> int:
    """Order of a in (Z/nZ)^* modulo a subgroup, given by its residues:
    the least s >= 1 with a^s in it.  Requires gcd(a, n) == 1."""
    if n == 1:
        return 1
    a %= n
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    order = 1
    x = a
    while x not in subgroup:
        x = x * a % n
        order += 1
    return order


def exact_sqrt(n: int) -> int | None:
    """The r >= 0 with r * r == n, or None for a negative n or a non-square."""
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def least_primitive_root(p: int) -> int:
    """Smallest positive primitive root modulo the prime p."""
    check_prime(p)
    if p == 2:
        return 1
    qs = list(factorize_int(p - 1))
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
    raise AssertionError("unreachable: every prime has a primitive root")


def discrete_log_table(p: int, g: int) -> list[int]:
    """Table ind with g**ind[t] == t mod p for t in 1..p-1 (ind[0] unused)."""
    ind = [0] * p
    x = 1
    for a in range(p - 1):
        ind[x] = a
        x = x * g % p
    return ind


def primes_below(bound: int) -> list[int]:
    """All primes < bound: the odd ones sieved by the primes up to sqrt(bound)."""
    if bound <= 3:
        return [2] if bound == 3 else []
    hi = bound | 1
    keep = _strike(3, hi, primes_below(isqrt(bound) + 1)[1:])
    return [2, *compress(range(3, hi, 2), keep)]


def squarefree_decomposition(n: int) -> tuple[int, int]:
    """Write n = s**2 * d with d squarefree (sign carried by d); returns (s, d)."""
    if n == 0:
        raise ValueError("0 has no squarefree decomposition")
    sign = -1 if n < 0 else 1
    s = 1
    d = 1
    for p, e in factorize_int(n).items():
        s *= p ** (e // 2)
        if e % 2:
            d *= p
    return s, sign * d


def squarefree_divisors(n: int) -> dict[int, int]:
    """mu(s) on the squarefree divisors s of n, keyed by s."""
    divisors = {1: 1}
    for q in factorize_int(n):
        divisors.update({s * q: -mu for s, mu in divisors.items()})
    return divisors
