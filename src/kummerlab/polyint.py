"""Dense integer polynomials as coefficient lists, lowest degree first.

The zero polynomial is []; otherwise the last coefficient is nonzero.
These are the carriers for cyclotomic polynomials, built from binomials
X^d - 1 without general division, and for the exact resultant used to
cross-check norms.  General division by a monic polynomial is kept as
the tests' reference for the ring's reduction mod Phi_n.
"""

from fractions import Fraction
from functools import lru_cache

from kummerlab.arith import factorize_int


def trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def degree(f: list[int]) -> int:
    """Degree, with deg 0 = -1."""
    return len(f) - 1


def add(f: list[int], g: list[int]) -> list[int]:
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] += c
    for i, c in enumerate(g):
        out[i] += c
    return trim(out)


def neg(f: list[int]) -> list[int]:
    return [-c for c in f]


def sub(f: list[int], g: list[int]) -> list[int]:
    return add(f, neg(g))


def mul(f: list[int], g: list[int]) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim(out)


def divmod_exact(f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """Polynomial division by a monic g over the integers.

    Nothing in the library divides by a general polynomial: the tests keep
    this as the independent reference for `CyclotomicRing._reduce`.
    """
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if g[-1] != 1:
        raise ValueError("divisor must be monic")
    r = list(f)
    dg = degree(g)
    q = [0] * max(len(f) - dg, 0)
    while degree(r) >= dg:
        c = r[-1]
        k = degree(r) - dg
        q[k] = c
        for i, b in enumerate(g):
            r[i + k] -= c * b
        trim(r)
    return trim(q), r


@lru_cache(maxsize=None)
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
    # Exact Gaussian elimination over Q; the determinant is an integer.
    mat = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(size):
        piv = None
        for r in range(col, size):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            return 0
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, size):
            factor = mat[r][col] * inv
            if factor:
                for c in range(col, size):
                    mat[r][c] -= factor * mat[col][c]
    assert det.denominator == 1
    return int(det)
