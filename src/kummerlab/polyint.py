"""Dense integer polynomials as coefficient lists, lowest degree first.

The zero polynomial is []; otherwise the last coefficient is nonzero.
These are the carriers for cyclotomic polynomials and for the exact
resultant used to cross-check norms.
"""

from fractions import Fraction
from functools import lru_cache


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
    """Polynomial division by a monic g over the integers."""
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
    """The n-th cyclotomic polynomial, by exact division of X^n - 1.

    Returned as an immutable coefficient tuple, monic of degree phi(n).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    f = [-1] + [0] * (n - 1) + [1]  # X^n - 1
    for d in range(1, n):
        if n % d == 0:
            q, r = divmod_exact(f, list(cyclotomic_polynomial(d)))
            assert r == [], "cyclotomic division must be exact"
            f = q
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
