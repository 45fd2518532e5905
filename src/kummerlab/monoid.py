"""Hilbert monoids: divisor theory on congruence monoids of natural numbers.

M is the set of naturals whose residue mod m lies in a subgroup H of
(Z/mZ)^*.  Factorization into irreducibles is generally non-unique, but
every rational prime p coprime to m acts as an "ideal prime" through the
reduction map onto F_p, and unique factorization into these ideal primes
holds with exponents equal to the ordinary ones.  The map is reduction mod
p, so p alone names its ideal prime, which is principal iff p mod m lies
in H.  The class group is G/H.

The singular monoid N (naturals = 0, 1, 2 mod 4) uses a residue set that is
not a subgroup; there the extension of the reduction map to fractions
breaks down in exactly the way square roots do.
"""

from math import gcd, isqrt, prod

from kummerlab.arith import check_prime, exact_sqrt, factorize_int, multiplicative_order


class HilbertMonoid:
    """Naturals with residue mod m in the subgroup H of (Z/mZ)^*."""

    def __init__(self, m: int, subgroup):
        if m <= 1:
            raise ValueError("modulus must exceed 1")
        H = sorted({h % m for h in subgroup})
        if 1 not in H:
            raise ValueError("subgroup must contain 1")
        for a in H:
            if gcd(a, m) != 1:
                raise ValueError(f"residue {a} is not a unit mod {m}")
            for b in H:
                if (a * b) % m not in H:
                    raise ValueError("residue set is not closed under products")
        self.m = m
        self.subgroup = self.residues = tuple(H)

    def __contains__(self, a: int) -> bool:
        return a >= 1 and a % self.m in self.subgroup

    def __repr__(self):
        return f"HilbertMonoid(m={self.m}, H={list(self.subgroup)})"


class SingularMonoid:
    """The fixed monoid of naturals congruent to 0, 1, or 2 mod 4."""

    m = 4
    residues = (0, 1, 2)

    def __contains__(self, a: int) -> bool:
        return a >= 1 and a % 4 in self.residues

    def __repr__(self):
        return "SingularMonoid(residues 0,1,2 mod 4)"


def _divisors(a: int) -> list[int]:
    out = []
    for d in range(1, isqrt(a) + 1):
        if a % d == 0:
            out.append(d)
            if d != a // d:
                out.append(a // d)
    return sorted(out)


def is_irreducible(M: HilbertMonoid, a: int) -> bool:
    if a not in M or a == 1:
        return False
    return not any(
        d in M and a // d in M for d in _divisors(a) if 1 < d < a
    )


def factor_into_irreducibles(
    M: HilbertMonoid, a: int, all_factorizations: bool = False
):
    """One factorization into irreducibles, or all of them.

    Exhaustive search over monoid divisors, ascending, so the first
    factorization found is the lexicographically least; with
    ``all_factorizations`` every multiset with the given product is
    returned, sorted.
    """
    if a not in M:
        raise ValueError(f"{a} is not in {M!r}")
    results: list[tuple[int, ...]] = []

    def recurse(remaining: int, least: int, chosen: tuple[int, ...]):
        if remaining == 1:
            results.append(chosen)
            return not all_factorizations
        for d in _divisors(remaining):
            if d < least or d == 1:
                continue
            if is_irreducible(M, d) and remaining // d in M:
                if recurse(remaining // d, d, chosen + (d,)):
                    return True
        return False

    recurse(a, 2, ())
    results.sort()
    return results if all_factorizations else results[0]


def ideal_factorization(M: HilbertMonoid, a: int) -> list[tuple[int, int]]:
    """Unique factorization of a into ideal primes: the pairs (p, e) of its
    ordinary factorization, ascending, each ideal prime named by p."""
    if a not in M:
        raise ValueError(f"{a} is not in {M!r}")
    if gcd(a, M.m) != 1:
        raise ValueError(f"{a} shares a factor with the modulus: outside theory")
    out = sorted(factorize_int(a).items())
    if prod(pow(p, e, M.m) for p, e in out) % M.m not in M.subgroup:
        raise AssertionError("class product of an element of M must lie in H")
    return out


def defined_at(M, p: int, a: int, b: int) -> dict:
    """Extend the reduction map mod p to the fraction a/b of Q(M).

    The fraction equals c/d for c, d in M exactly when (c, d) = (a0*s, b0*s)
    for the lowest-terms pair (a0, b0) and a natural scale s.  Membership
    of the scaled pair depends only on s mod m, and its p-divisibility only
    on whether p divides s, so the least valid scale, if any, is at most 2m:
    if p divides the least residue r of a valid class, then p divides
    r + m only when it divides every scale in the class.  Returns the
    decision, the finite value when defined, and "oo" when the reciprocal
    takes the value 0.
    """
    if a not in M or b not in M:
        raise ValueError("both entries must be elements of the monoid")
    check_prime(p)
    m, residues = M.m, M.residues
    g = gcd(a, b)
    a0, b0 = a // g, b // g

    def witness(num: int, den: int):
        for s in range(1, 2 * m + 1):
            if (num * s) % m in residues and (den * s) % m in residues:
                if (den * s) % p != 0:
                    return s
        return None

    s = witness(a0, b0)
    if s is not None:
        value = a0 * s % p * pow(b0 * s % p, -1, p) % p
        return {"defined": True, "value": value}
    s_inv = witness(b0, a0)
    if s_inv is not None and (b0 * s_inv) % p == 0:
        return {"defined": False, "value": "oo"}
    return {"defined": False, "value": None}


def uniformizer(M: HilbertMonoid, p: int) -> int:
    """p times the least r >= 1 coprime to p with p * r in M: p itself when
    its class is principal, else p times a corrector of class [p]^{-1}."""
    check_prime(p)
    if gcd(p, M.m) != 1:
        raise ValueError(f"prime {p} divides the modulus {M.m}: outside theory")
    r = 1
    while gcd(r, p) != 1 or p * r % M.m not in M.subgroup:
        r += 1
    return p * r


def multiplicity_monoid(M: HilbertMonoid, p: int, a: int, q: int | None = None) -> int:
    """Largest mu with the map defined at a / q**mu, q a uniformizer for p."""
    if a not in M:
        raise ValueError(f"{a} is not in {M!r}")
    if q is None:
        q = uniformizer(M, p)
    mu = 0
    while defined_at(M, p, a, q ** (mu + 1))["defined"]:
        mu += 1
    return mu


def class_group(M: HilbertMonoid) -> dict:
    """Cosets of H in G with their multiplication table and the invariant
    factors identifying the abelian group."""
    m, H = M.m, set(M.subgroup)
    # each coset is found at its least residue, so they come sorted, H first
    cosets: list[tuple[int, ...]] = []
    index: dict[int, int] = {}  # residue -> the index of its coset
    for u in range(1, m):
        if gcd(u, m) == 1 and u not in index:
            coset = tuple(sorted(u * h % m for h in H))
            index.update((r, len(cosets)) for r in coset)
            cosets.append(coset)

    n = len(cosets)
    table = [[index[a[0] * b[0] % m] for b in cosets] for a in cosets]
    orders = sorted(multiplicative_order(c[0], m, H) for c in cosets)
    invariants = _invariant_factors(n, orders)
    return {
        "order": n,
        "cosets": [list(c) for c in cosets],
        "table": table,
        "element_orders": orders,
        "invariant_factors": invariants,
        "isomorphic_to": " x ".join(f"C{d}" for d in invariants) if n > 1 else "C1",
    }


def _invariant_factors(n: int, orders: list[int]) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of an abelian group of order n,
    read from the multiset of its element orders.

    For each prime q | n the elements of order dividing q^j form a subgroup
    of order q^(s_j), and s_j - s_(j-1) counts the cyclic q-factors of
    exponent at least j.  The largest invariant factor takes the largest
    exponent of every prime, the next one the next largest, and so on.
    """
    columns = []  # per prime q: the exponents of its cyclic factors, descending
    for q, k in sorted(factorize_int(n).items()):
        at_least, s = [], 0
        while s < k:
            count = sum(1 for o in orders if q ** (len(at_least) + 1) % o == 0)
            prev, s = s, 0
            while count % q == 0:
                count, s = count // q, s + 1
            if count != 1 or s <= prev:
                raise AssertionError("element orders must come from an abelian group")
            at_least.append(s - prev)
        exps = [sum(c >= i for c in at_least) for i in range(1, at_least[0] + 1)]
        columns.append((q, exps))
    width = max((len(exps) for _, exps in columns), default=0)
    return [
        prod(q ** exps[i] for q, exps in columns if i < len(exps))
        for i in reversed(range(width))
    ]


def square_test(M: HilbertMonoid, a: int) -> dict:
    """Two routes to 'a is a square': integer root in M vs ideal exponents.

    The quotient-monoid route declares a square when all ideal exponents are
    even, which holds exactly when a is a square in Z, and the class of
    the root they halve to lies in H; for Hilbert monoids the two answers
    always coincide.
    """
    if a not in M:
        raise ValueError(f"{a} is not in {M!r}")
    r = exact_sqrt(a)
    in_m = r is not None and r in M
    if r is None:
        in_qm = False
    else:
        # a = r^2, so every exponent is even
        root = prod(pow(p, e // 2, M.m) for p, e in ideal_factorization(M, a))
        in_qm = root % M.m in M.subgroup
    return {"square_in_M": in_m, "square_in_QM": in_qm}


def singular_monoid_report() -> dict:
    """The documented failures of the reduction map mod 2 on N.

    Both 6/2 and 2/6 are outside the map's reach, and 9 is a square in Q(N)
    (witness (6/2)^2) while having no square root in N.
    """
    N = SingularMonoid()
    at_62 = defined_at(N, 2, 6, 2)
    at_26 = defined_at(N, 2, 2, 6)
    nine_root_in_n = 3 in N
    # 9 = (6/2)^2 in Q(N): verify 6*6 = 9*2*2 exactly.
    witness = 6 * 6 == 9 * 2 * 2
    return {
        "defined_at_6_over_2": at_62["defined"],
        "defined_at_2_over_6": at_26["defined"],
        "nine_square_in_QN": witness,
        "nine_square_in_N": nine_root_in_n,
        "holds": (
            not at_62["defined"]
            and not at_26["defined"]
            and witness
            and not nine_root_in_n
        ),
    }
