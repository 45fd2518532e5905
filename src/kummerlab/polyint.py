"""Dense integer polynomials as coefficient lists, lowest degree first.

The zero polynomial is []; otherwise the last coefficient is nonzero.
These are the carriers for ring products, for cyclotomic polynomials,
built from binomials X^d - 1 without general division, and for the exact
resultant used to cross-check norms.  Products of long dense operands go
through one big-integer multiply (Kronecker substitution), all others
through the schoolbook loop; the cyclic autocorrelation of a nonnegative
vector, its product with its own reflection in Z[X]/(X^n - 1), is one
multiply of packed machine words.  The resultant is a fraction-free Bareiss
determinant.  Nothing here divides by a general polynomial.
"""

import sys
from array import array
from collections.abc import Sequence
from functools import lru_cache

from kummerlab.arith import factorize_int


def trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def degree(f: list[int]) -> int:
    """Degree, with deg 0 = -1."""
    return len(f) - 1


# Products whose operands both have at least this many nonzero terms are
# packed.  Measured crossover on fully dense operands (CPython 3.11.7, 2-core
# x86-64 VM): length 14-16 for 5- to 64-bit coefficients, 20 at 256 bits
# and 24 at 1024 bits.  At length 40 and 5 bits the loop takes 173 us and
# packing 67 us; on 3-term operands of length 40 they take 17 and 41 us.
KRONECKER_MIN_TERMS = 20

# (bits, typecode) of the unsigned array words that pack_words packs,
# narrowest first; the packed integers are read little-endian
_WORDS = sorted((8 * array(code).itemsize, code) for code in "BHIQ")
_BIG_ENDIAN = sys.byteorder == "big"


def mul(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """The product f * g of two coefficient sequences, as a trimmed list.

    The schoolbook loop makes one interpreted step per pair of terms, so
    its cost grows with the nonzero terms of f times the length of g.
    Kronecker substitution costs a pass over each operand and one
    big-integer product, which CPython does by Karatsuba.  So a product is
    packed when both operands have at least KRONECKER_MIN_TERMS nonzero
    terms (the dense Jacobi sums of the character-sum layer), and every
    other product, such as those of sparse elements or short ones, keeps
    the loop.  The lengths are compared before any term is counted, so
    short products pay nothing for the choice.
    """
    if not f or not g:
        return []
    if (
        len(f) >= KRONECKER_MIN_TERMS
        and len(g) >= KRONECKER_MIN_TERMS
        and len(f) - f.count(0) >= KRONECKER_MIN_TERMS
        and len(g) - g.count(0) >= KRONECKER_MIN_TERMS
    ):
        return _kronecker_mul(f, g)
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim(out)


def _kronecker_mul(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """f * g read off f(2^(8w)) * g(2^(8w)) (Schoenhage, EUROCAM 1982).

    Every product coefficient has absolute value at most
    max|f| * max|g| * min(len f, len g) < 2^(8w-1), so after adding
    2^(8w-1) to each it fills its w bytes as an unsigned chunk.
    """
    bound = max(map(abs, f)) * max(map(abs, g)) * min(len(f), len(g))
    w = (bound.bit_length() + 8) // 8
    n = len(f) + len(g) - 1
    half = 1 << (8 * w - 1)
    offset = int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")
    packed = (_evaluate(f, w) * _evaluate(g, w) + offset).to_bytes(n * w, "little")
    out = [
        int.from_bytes(packed[i : i + w], "little") - half
        for i in range(0, n * w, w)
    ]
    return trim(out)


def _evaluate(f: Sequence[int], w: int) -> int:
    """f(2^(8w)), for coefficients of absolute value below 2^(8w)."""
    zero = bytes(w)
    positive = b"".join(c.to_bytes(w, "little") if c > 0 else zero for c in f)
    negative = b"".join((-c).to_bytes(w, "little") if c < 0 else zero for c in f)
    return int.from_bytes(positive, "little") - int.from_bytes(negative, "little")


def narrowest_word(bound: int) -> tuple[int, str]:
    """(bits, typecode) of the narrowest array word above bound < 2^64."""
    return next(word for word in _WORDS if not bound >> word[0])


def pack_words(words: array) -> int:
    """The unsigned array words as one integer, word 0 lowest."""
    if _BIG_ENDIAN:
        words = array(words.typecode, words)
        words.byteswap()
    return int.from_bytes(words.tobytes(), "little")


def unpack_words(x: int, code: str, count: int) -> array:
    """The count words of typecode code that pack_words packs to x."""
    words = array(code, x.to_bytes(count * array(code).itemsize, "little"))
    if _BIG_ENDIAN:
        words.byteswap()
    return words


def autocorrelation(h: Sequence[int]) -> list[int]:
    """c[s] = sum over e of h[e] * h[(e - s) mod n], n = len(h), for h >= 0.

    This is h(X) * h(X^-1) in Z[X]/(X^n - 1).  h is packed once as unsigned
    w-bit words, its reversal is a slice of that array, and the two are
    multiplied once; coefficient t of the product is lag t - (n - 1), so
    folding mod 2^(wn) - 1 and rotating by n - 1 gives c.  Every product
    coefficient, and every cyclic one (the sum of two product
    coefficients), is a sum of h[e] * h[e - s] with each e at most once, so
    at most max(h) * sum(h).  With w the narrowest array word above that
    bound the words never carry and one fold is exact.  w is at most 64,
    and ValueError is raised unless (sum h)^2 < 2^64.  Halving w makes the
    multiply about 3 times faster at n = 60 to 400 (CPython 3.11, x86-64).
    """
    n, total = len(h), sum(h)
    if min(h, default=0) < 0 or total * total >> 64:
        raise ValueError("autocorrelation needs h >= 0 with (sum h)^2 < 2^64")
    if not n:
        return []
    w, code = narrowest_word(max(h) * total)
    words = array(code, h)
    x = pack_words(words) * pack_words(words[::-1])
    bits = w * n
    c = unpack_words((x & ((1 << bits) - 1)) + (x >> bits), code, n).tolist()
    return c[n - 1 :] + c[: n - 1]


@lru_cache(maxsize=1024)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """The n-th cyclotomic polynomial, as prod over d | n of (X^d - 1)^mu(n/d).

    Only squarefree n/d contribute.  Working with power series truncated
    past degree phi(n), a product by X^d - 1 is one pass from the top, and
    the exact quotient by X^d - 1 one running-sum pass from the bottom
    (Arnold and Monagan, Math. Comp. 80, 2011).  Returned as an immutable
    coefficient tuple, monic of degree phi(n).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    primes = list(factorize_int(n))
    phi = n
    for p in primes:
        phi = phi // p * (p - 1)
    # mu(s) on the squarefree divisors s of n
    divisors = {1: 1}
    for p in primes:
        divisors.update({s * p: -mu for s, mu in divisors.items()})
    f = [1] + [0] * phi
    # f[i] <- f[i - d] - f[i] from the top multiplies by X^d - 1; from the
    # bottom, reading the quotient already written below i, it divides by it
    for sign, order in ((1, range(phi, -1, -1)), (-1, range(phi + 1))):
        for s, mu in divisors.items():
            if mu == sign:
                d = n // s
                for i in order:
                    f[i] = (f[i - d] if i >= d else 0) - f[i]
    return tuple(f)


def resultant(f: list[int], g: list[int]) -> int:
    """Res(f, g) as the exact determinant of the Sylvester matrix."""
    m, n = degree(f), degree(g)
    if m < 0 or n < 0:
        return 0
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
    size = m + n
    rows = []
    fh = list(reversed(f))
    gh = list(reversed(g))
    for i in range(n):
        rows.append([0] * i + fh + [0] * (n - 1 - i))
    for i in range(m):
        rows.append([0] * i + gh + [0] * (m - 1 - i))
    # Fraction-free Bareiss elimination: every division by the previous
    # pivot is exact, and the last pivot is the determinant.
    sign, prev = 1, 1
    for k in range(size - 1):
        piv = next((r for r in range(k, size) if rows[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        top = rows[k]
        p = top[k]
        for row in rows[k + 1 :]:
            a = row[k]
            for c in range(k + 1, size):
                row[c] = (row[c] * p - a * top[c]) // prev
        prev = p
    return sign * rows[-1][-1]
