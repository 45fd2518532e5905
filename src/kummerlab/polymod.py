"""Polynomials over F_p and their complete factorization.

Representation matches polyint: dense coefficient lists, lowest degree
first, all coefficients reduced into [0, p), zero polynomial is [].

Factorization is squarefree decomposition, then distinct-degree splitting,
then equal-degree splitting.  The equal-degree stage draws its splitting
elements from a fixed counter sequence instead of a random source, so the
factor list (and everything downstream that is ordered by it) is
reproducible bit for bit.  gf_root follows one branch of the same split
to one root of a polynomial whose roots all lie in F_p.
"""

from kummerlab.arith import check_prime
from kummerlab.polyint import trim


def gf_normalize(c: list[int], p: int) -> list[int]:
    return trim([x % p for x in c])


def gf_sub(f: list[int], g: list[int], p: int) -> list[int]:
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return trim(out)


def gf_mul(f: list[int], g: list[int], p: int) -> list[int]:
    """f g over F_p, each output coefficient reduced once (lazy
    reduction), not once per product."""
    return trim([c % p for c in _product(f, g)])


def _product(f: list[int], g: list[int]) -> list[int]:
    """f g over Z, untrimmed; a square (g is f) takes each cross product
    once, doubled."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            if g is f:
                out[2 * i] += a * a
                for j, b in enumerate(f[i + 1 :], i + 1):
                    out[i + j] += a * b << 1
            else:
                for j, b in enumerate(g, i):
                    out[j] += a * b
    return out


def gf_divmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """(q, r) with f = q g + r over F_p, deg r < deg g.  f's coefficients
    may lie outside [0, p), as gf_pow_mod's unreduced products do: the
    remainder is reduced where a quotient coefficient reads it and once
    at the end (lazy reduction), not after every subtraction."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(f)
    dg = len(g) - 1
    inv_lead = pow(g[-1], -1, p)
    q = [0] * max(len(f) - dg, 0)
    low = g[:-1]
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + dg] * inv_lead % p
        if c:
            for i, b in enumerate(low, k):
                r[i] -= c * b
    return trim(q), trim([x % p for x in r[:dg]])


def gf_mod(f: list[int], g: list[int], p: int) -> list[int]:
    return gf_divmod(f, g, p)[1]


def gf_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    while g:
        f, g = g, gf_mod(f, g, p)
    return gf_monic(f, p)


def gf_monic(f: list[int], p: int) -> list[int]:
    if not f:
        return []
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def gf_pow_mod(f: list[int], e: int, mod: list[int], p: int) -> list[int]:
    base = gf_mod(f, mod, p)
    if len(mod) == 2:  # residues mod a linear polynomial are constants
        return trim([pow(base[0] if base else 0, e, p)])
    # gf_divmod reduces what it reads, so the products go in unreduced
    out = [1]
    while e:
        if e & 1:
            out = gf_mod(_product(out, base), mod, p)
        base = gf_mod(_product(base, base), mod, p)
        e >>= 1
    return out


def gf_deriv(f: list[int], p: int) -> list[int]:
    return trim([i * c % p for i, c in enumerate(f)][1:])


def _counter_poly(counter: int, p: int) -> list[int]:
    """The counter-th polynomial over F_p (base-p digits as coefficients)."""
    c = []
    while counter:
        counter, d = divmod(counter, p)
        c.append(d)
    return c


def _squarefree_parts(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Squarefree decomposition: list of (squarefree factor, multiplicity)."""
    out: list[tuple[list[int], int]] = []

    def recurse(g: list[int], mult: int) -> None:
        d = gf_deriv(g, p)
        if not d:
            # g = h(X^p) = h(X)^p since coefficients lie in the prime field
            h = [g[i] for i in range(0, len(g), p)]
            recurse(h, mult * p)
            return
        c = gf_gcd(g, d, p)
        w, _ = gf_divmod(g, c, p)  # product of squarefree part
        i = 1
        while len(w) > 1:
            y = gf_gcd(w, c, p)
            piece, _ = gf_divmod(w, y, p)
            if len(piece) > 1:
                out.append((piece, mult * i))
            w = y
            c, _ = gf_divmod(c, y, p)
            i += 1
        if len(c) > 1:
            recurse(c, mult)

    recurse(gf_monic(f, p), 1)
    return out


def _distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Split a squarefree monic f into (product of degree-d irreducibles, d)."""
    out = []
    x = [0, 1]
    h = x
    rem = f
    d = 0
    while len(rem) - 1 >= 2 * (d + 1):
        d += 1
        h = gf_pow_mod(h, p, rem, p)
        g = gf_gcd(gf_sub(h, x, p), rem, p)
        if len(g) > 1:
            out.append((g, d))
            rem, _ = gf_divmod(rem, g, p)
            h = gf_mod(h, rem, p)
    if len(rem) > 1:
        out.append((rem, len(rem) - 1))
    return out


def _split(f: list[int], d: int, p: int) -> list[int]:
    """A proper monic factor of f, a monic squarefree product of at least
    two degree-d irreducibles: the gcd of f with the first splitting
    element of the counter sequence that splits it.

    For odd p the element is the (p^d - 1)/2 power t of h, less 1, and for
    p = 2 the trace h + h^2 + ... + h^(2^(d-1)) of h over F_{2^d}, t its
    last term.  The first h is X, and X^(p^d) = X mod f holds exactly when
    every irreducible factor of the squarefree f has a degree dividing d;
    it is read off that first t (X^(p^d) is t^2 X, or t^2 at p = 2), and
    ValueError is raised when it fails, where the draws would never end.
    """
    counter = p  # first non-constant polynomial, X
    while True:
        h = _counter_poly(counter, p)
        counter += 1
        if len(h) < 2:
            continue
        h = gf_mod(h, f, p)
        if len(h) < 2:
            continue
        if p == 2:
            t = h
            acc = h
            for _ in range(d - 1):
                t = gf_mod(gf_mul(t, t, p), f, p)
                acc = gf_sub(acc, t, p)  # a + b = a - b mod 2
            g = gf_gcd(acc, f, p)
        else:
            t = gf_pow_mod(h, (p**d - 1) // 2, f, p)
            g = gf_gcd(gf_sub(t, [1], p), f, p)
        if h == [0, 1]:
            square = gf_mul(t, t, p)
            if gf_mod(square if p == 2 else [0, *square], f, p) != h:
                raise ValueError(
                    f"the polynomial has an irreducible factor mod {p} "
                    f"of degree not dividing {d}"
                )
        if 0 < len(g) - 1 < len(f) - 1:
            return g


def _equal_degree_split(f: list[int], d: int, p: int) -> list[list[int]]:
    """Split a monic squarefree product of degree-d irreducibles completely,
    by _split's deterministic splitting elements."""
    if len(f) - 1 == d:
        return [gf_monic(f, p)]
    g = _split(f, d, p)
    rest, _ = gf_divmod(f, g, p)
    return _equal_degree_split(g, d, p) + _equal_degree_split(rest, d, p)


def gf_root(f: list[int], p: int) -> int:
    """One root in F_p of a nonconstant f whose roots all lie in F_p.

    f's squarefree part, f / gcd(f, f') (f = h(X^p) = h^p is replaced by h
    until f' != 0), is a product of distinct linear factors, and one
    branch of its equal-degree split, the smaller factor of each _split,
    ends at one of them.  No complete factorization is made.  ValueError
    if f is constant mod p or has a root outside F_p (_split's check).
    """
    g = gf_monic(gf_normalize(list(f), p), p)
    if len(g) < 2:
        raise ValueError(f"the polynomial is constant mod {p}")
    while not (d := gf_deriv(g, p)):
        g = g[::p]
    g, _ = gf_divmod(g, gf_gcd(g, d, p), p)
    while len(g) > 2:
        h = _split(g, 1, p)
        rest, _ = gf_divmod(g, h, p)
        g = min(h, rest, key=len)
    return -g[0] % p


def factor_mod_p(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Complete factorization of f over F_p into monic irreducibles.

    Returns [(factor, multiplicity), ...] sorted by (degree, coefficient
    tuple); the product of factor**multiplicity times the leading
    coefficient of f reconstructs f.  p must be prime and f nonzero.
    """
    check_prime(p)
    f = gf_normalize(list(f), p)
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    if len(f) == 1:
        return []
    out: list[tuple[list[int], int]] = []
    for sqf, mult in _squarefree_parts(f, p):
        for prod, d in _distinct_degree(sqf, p):
            for irr in _equal_degree_split(prod, d, p):
                out.append((irr, mult))
    out.sort(key=lambda fm: (len(fm[0]), tuple(fm[0])))
    return out
