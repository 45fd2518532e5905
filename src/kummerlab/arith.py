"""Integer utilities: primality, factorization, primitive roots, discrete logs.

All routines are deterministic and exact.  Primality is a deterministic
Miller-Rabin valid far beyond 64-bit inputs; factorization is trial division
with an explicit bound, which is all the desk-scale norms in this package
need.
"""

from math import gcd, isqrt

# Deterministic Miller-Rabin bases: the first 13 primes decide every
# n < _MR_PROOF_LIMIT (Sorenson and Webster, Math. Comp. 86, 2017); the
# first 12 stop short, at the strong pseudoprime 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROOF_LIMIT = 3317044064679887385961981

DEFAULT_TRIAL_DIVISION_BOUND = 10**6


class FactorizationError(ValueError):
    """Raised when an integer cannot be factored within the trial bound."""


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with fixed bases)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize_int(n: int, bound: int = DEFAULT_TRIAL_DIVISION_BOUND) -> dict[int, int]:
    """Factor |n| by trial division up to ``bound``.

    Division stops early at a cofactor below _MR_PROOF_LIMIT that the
    primality test proves prime.  A remaining cofactor is accepted if it
    passes the primality test; otherwise FactorizationError is raised with
    the bound echoed.  Returns {prime: exponent}; factorize_int(1) == {}.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    proven = n < _MR_PROOF_LIMIT and is_prime(n)
    while not proven and d <= bound and d * d <= n:
        for p in (d, d + 2):
            if n % p == 0:
                while n % p == 0:
                    out[p] = out.get(p, 0) + 1
                    n //= p
                proven = n < _MR_PROOF_LIMIT and is_prime(n)
        d += 6
    if n > 1:
        if proven or d * d > n or is_prime(n):
            out[n] = out.get(n, 0) + 1
        else:
            raise FactorizationError(
                f"cofactor {n} is composite and exceeds the trial-division "
                f"bound {bound}"
            )
    return out


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


def multiplicative_order(a: int, n: int) -> int:
    """Order of a in (Z/nZ)^*; requires gcd(a, n) == 1."""
    a %= n
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    order = 1
    x = a
    while x != 1:
        x = x * a % n
        order += 1
    return order


def least_primitive_root(p: int) -> int:
    """Smallest positive primitive root modulo the prime p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
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
    """All primes < bound, by sieve."""
    if bound <= 2:
        return []
    sieve = bytearray([1]) * bound
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(bound - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(bound) if sieve[i]]


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
