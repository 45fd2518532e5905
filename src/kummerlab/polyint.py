"""Dense integer polynomials as coefficient lists, lowest degree first.

The zero polynomial is []; otherwise the last coefficient is nonzero.
These are the carriers for ring products, for cyclotomic polynomials,
built from binomials X^d - 1 without general division, and for the exact
resultant used to cross-check norms.  Long dense products (Gauss sums,
the norm tower at large conductors) are one big-integer multiply
(Kronecker substitution), all others the schoolbook loop over the
operands' nonzero terms.  Nonnegative vectors whose entries are below a
known bound pack into one integer of unsigned machine words
(narrowest_word, pack_words and unpack_words): the packed logs of
charsum, the autocorrelations of its reflection_products and the batch
reads of ffield.zero_images, whose word bounds are proved there.  The
resultant is a fraction-free Bareiss determinant.  Nothing here divides
by a general polynomial.
"""

import sys
from array import array
from collections.abc import Sequence
from functools import lru_cache

from kummerlab.arith import squarefree_divisors


def trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def degree(f: list[int]) -> int:
    """Degree, with deg 0 = -1."""
    return len(f) - 1


# Products whose operands both have at least this many nonzero terms are
# packed.  Gauss sums in Z[zeta_{lam p}] need it: with the loop alone,
# `gauss-sum --p 1289 --order 7` took 29.6 s in place of 0.11 s.  Measured
# crossover of the loop over nonzero terms and packing, on fully dense
# operands (CPython 3.11.7, 2-core x86-64 VM): length 14-16 for 5- to
# 64-bit coefficients and 20-24 at 256 and 1024 bits.  At length 40 and
# 5 bits the loop takes 120-180 us and packing 50-70 us; on 3-term
# operands of length 40 the loop takes 11 us and packing 64 us.
KRONECKER_MIN_TERMS = 20

# (bits, typecode) of the unsigned array words that pack_words packs,
# narrowest first; the packed integers are read little-endian
_WORDS = sorted((8 * array(code).itemsize, code) for code in "BHIQ")
# the narrowest word above a bound of each bit length 0 .. 64, and the
# byte size of each word
_NARROWEST = [next(w for w in _WORDS if w[0] >= bits) for bits in range(65)]
_WORD_BYTES = {code: bits // 8 for bits, code in _WORDS}
_BIG_ENDIAN = sys.byteorder == "big"


def mul(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """The product f * g of two coefficient sequences, as a trimmed list.

    The schoolbook loop makes one interpreted step per pair of nonzero
    terms: the outer loop runs over the operand with fewer of them, the
    inner one over the other's (index, coefficient) pairs.
    Kronecker substitution costs a pass over each operand and one
    big-integer product, which CPython does by Karatsuba.  So a product is
    packed when both operands have at least KRONECKER_MIN_TERMS nonzero
    terms (Gauss sums in Z[zeta_{lam p}], dense norm-tower products at
    large conductors), and every other product, such as those of sparse
    elements or short ones, keeps the loop.  The lengths are compared
    before any term is counted, so short products pay nothing for it.
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
    f_terms = [(i, a) for i, a in enumerate(f) if a]
    g_terms = [(j, b) for j, b in enumerate(g) if b]
    if len(f_terms) > len(g_terms):
        f_terms, g_terms = g_terms, f_terms
    out = [0] * (len(f) + len(g) - 1)
    for i, a in f_terms:
        for j, b in g_terms:
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
    """(bits, typecode) of the narrowest array word above 0 <= bound < 2^64;
    ValueError for any other bound (bound >> 64 is -1 for a negative one)."""
    if bound >> 64:
        raise ValueError(f"no unsigned array word of at most 64 bits holds {bound}")
    return _NARROWEST[bound.bit_length()]


def pack_words(words: array | bytes) -> int:
    """The unsigned words as one integer, word 0 lowest, read straight
    from the buffer: an array, or bytes for words of one byte."""
    if _BIG_ENDIAN and isinstance(words, array):
        words = array(words.typecode, words)
        words.byteswap()
    return int.from_bytes(words, "little")


def unpack_words(x: int | bytes, code: str, count: int) -> array:
    """The count words of typecode code that pack_words packs to x, or
    that x holds as little-endian bytes (the words of several packed
    integers, their to_bytes joined)."""
    if isinstance(x, int):
        x = x.to_bytes(count * _WORD_BYTES[code], "little")
    words = array(code, x)
    if _BIG_ENDIAN:
        words.byteswap()
    return words


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
    divisors = squarefree_divisors(n)
    phi = sum(mu * (n // s) for s, mu in divisors.items())
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
