"""Arithmetic in Z[X]/(Phi_n): elements, conjugation, norms, Gaussian periods.

For odd prime conductors this is the ring where ideal primes and Gaussian
periods live, and check_conductor is the one refusal of any other
conductor where those are built; composite conductors (used by the
character-sum layer) get ring arithmetic, conjugation, norms and the
residue of vectors constant on gcd classes only.  Elements are immutable
coefficient tuples of length phi(n), reduced mod Phi_n; equality is
coefficient equality.
The element class is shared with the quadratic orders, whose rings reduce
mod their own modulus, and check_ring is the one refusal of an element of
another ring, for both.
"""

from array import array
from collections import namedtuple
from functools import cached_property, lru_cache
from math import gcd
from operator import sub

from kummerlab import polyint
from kummerlab.arith import factorize_int, is_prime, least_primitive_root
from kummerlab.arith import multiplicative_order, squarefree_divisors


@lru_cache(maxsize=1024)
def cyclotomic_ring(n: int) -> "CyclotomicRing":
    return CyclotomicRing(n)


class CyclotomicRing:
    """Z[alpha] with alpha a primitive n-th root of unity."""

    symbol = "a"

    def __init__(self, n: int):
        self.n = n
        self.modulus = polyint.cyclotomic_polynomial(n)
        self.degree = len(self.modulus) - 1
        self._tail = tuple((i, c) for i, c in enumerate(self.modulus[:-1]) if c)
        # alpha^(n/2) = -1 for even n, so Phi_n divides X^(n/2) + 1
        m, sign = (n // 2, -1) if n % 2 == 0 else (n, 1)
        # Phi_n divides Phi_{n/P}(X^P) when the odd prime P divides n exactly
        # once (the largest such P is taken); with none, P = n and no block
        # is ever cleared
        stride = max(
            (q for q, e in factorize_int(n).items() if q > 2 and e == 1),
            default=n,
        )
        outer = polyint.cyclotomic_polynomial(n // stride)
        top = stride * (len(outer) - 1)
        blocks = tuple((a, a + stride) for a in range(m - stride, top - 1, -stride))
        self._block_tail = tuple(
            (stride * j - top, c) for j, c in enumerate(outer[:-1]) if c
        )
        # the reduction plan: fold length and sign, the blocks (start, end)
        # from the top down, where the single steps start, and phi(n)
        self._plan = (m, sign, blocks, min(m, top), self.degree)

    @cached_property
    def norm_schedule(self) -> tuple[tuple[int, int], ...]:
        """The tower from {1} that norm walks, built on first use: most
        composite rings of the character-sum layer never take a norm."""
        return _norm_schedule(self.n)

    @cached_property
    def _gcd_classes(self) -> tuple[array, tuple[int, ...], tuple[int, ...]]:
        """gcd(s, n) mod n for s = 0 .. n/2, each at most n/2, as compact
        array words, and the d mod n over the d | n with n/d squarefree,
        split by the sign of mu(n/d); built on first use."""
        n = self.n
        code = polyint.narrowest_word(n // 2)[1]
        classes = array(code, [gcd(s, n) % n for s in range(n // 2 + 1)])
        mu = squarefree_divisors(n).items()
        plus = tuple(n // s % n for s, sign in mu if sign == 1)
        minus = tuple(n // s % n for s, sign in mu if sign == -1)
        return classes, plus, minus

    def invariant_residue(self, c) -> int | None:
        """The residue mod Phi_n of c, a list or an array of n words in
        Z[X]/(X^n - 1), when c_s = c_(gcd(s, n) mod n) for every s; None
        when it is not.

        Lemma: such a c is the rational integer sum over d | n of
        mu(n/d) c_(d mod n) mod Phi_n (c_0 - c_1 at prime n).  Proof: the
        alpha^s with gcd(s, n) = d are the primitive (n/d)-th roots of
        unity, and those sum to mu(n/d).  gcd(n - s, n) = gcd(s, n), so
        the condition holds exactly when c_s = c_(gcd(s, n) mod n) for
        s <= n/2, one gather of c over the ring's cached table, and
        c_(n - s) = c_s there, one slice comparison.  Every index read is
        at most n/2, so the head c_0 .. c_(n/2) is taken once as a list and
        the gather, a list, is compared with it; the mirror check compares
        two slices of c, of one type.
        """
        classes, plus, minus = self._gcd_classes
        h = len(classes)
        head = list(c[:h])
        gathered = list(map(head.__getitem__, classes))
        if gathered != head or c[1:h] != c[: self.n - h : -1]:
            return None
        return sum(map(head.__getitem__, plus)) - sum(map(head.__getitem__, minus))

    def invariant_residues(self, c) -> list[int | None]:
        """invariant_residue of each run of n words of c (a sequence of
        whole runs), None for a run that fails.

        Lane s, c[s::n], holds c_s of every run, so one comparison of lane
        s with lane gcd(s, n) and one with lane n - s, 0 < s <= n/2, check
        invariant_residue's equalities for every run at once, and the
        residues are its Moebius sums taken lane by lane.  When a lane
        comparison fails, each run is checked alone.
        """
        n = self.n
        classes, plus, minus = self._gcd_classes
        lanes = {d: c[d::n] for d in set(classes)}
        for s in range(1, len(classes)):
            lane = lanes[classes[s]]
            if c[n - s :: n] != lane or (classes[s] != s and c[s::n] != lane):
                runs = range(0, len(c), n)
                return [self.invariant_residue(c[j : j + n]) for j in runs]

        def sums(divisors):
            return map(sum, zip(*[lanes[d] for d in divisors]))

        if not minus:  # n = 1: each run is one word, its own residue
            return list(sums(plus))
        return list(map(sub, sums(plus), sums(minus)))

    def element(self, coeffs) -> "CyclotomicElement":
        if isinstance(coeffs, int):
            coeffs = [coeffs]
        return CyclotomicElement(self, list(coeffs))

    def zero(self) -> "CyclotomicElement":
        return self.element([])

    def one(self) -> "CyclotomicElement":
        return self.element([1])

    def alpha(self, power: int = 1) -> "CyclotomicElement":
        power %= self.n
        return self.element([0] * power + [1])

    def _reduce(self, coeffs: list[int]) -> tuple[int, ...]:
        """Coefficients of the residue mod Phi_n, padded to length phi(n).

        The input is first folded mod the shortest binomial that Phi_n
        divides: X^(n/2) + 1 for even n, chunks added with alternating
        sign, and X^n - 1 for odd n.  With P the largest odd prime that
        divides n exactly once, Phi_n also divides G(X) = Phi_{n/P}(X^P),
        of degree D = P phi(n/P) and with a term only at every P-th power.
        So the positions at and above D are cleared from the top down one
        block of P coefficients at a time, each block subtracted, as one
        slice, once per nonzero term of Phi_{n/P}.  The positions from
        min(m, D) down to phi(n) are then cleared one at a time, each step
        touching only the nonzero terms of Phi_n.  At n = 219 that is one
        block and 2 single steps in place of 75.  When n is prime, a prime
        power or 2 times a prime there is no block; for odd prime n the
        single stage is one step, which subtracts the folded top
        coefficient from all the others.
        """
        m, sign, blocks, top, d = self._plan
        folded = list(coeffs[:m])
        folded += [0] * (m - len(folded))
        s = 1
        for start in range(m, len(coeffs), m):
            s *= sign
            chunk = coeffs[start : start + m]
            if s == 1:
                for i, c in enumerate(chunk):
                    folded[i] += c
            else:
                for i, c in enumerate(chunk):
                    folded[i] -= c
        for a, end in blocks:
            block = folded[a:end]
            for i, b in self._block_tail:
                folded[a + i : end + i] = [
                    x - b * c for x, c in zip(folded[a + i : end + i], block)
                ]
        for k in range(top - 1, d - 1, -1):
            c = folded[k]
            if c:
                shift = k - d
                for i, b in self._tail:
                    folded[shift + i] -= c * b
        return tuple(folded[:d])

    def __eq__(self, other):
        return isinstance(other, CyclotomicRing) and self.n == other.n

    def __hash__(self):
        return hash(("CyclotomicRing", self.n))

    def __repr__(self):
        return f"CyclotomicRing({self.n})"


def check_ring(x, ring) -> None:
    """ValueError unless x lives in ring, or in an equal ring built apart:
    the package's one same-ring rule, for elements, maps and valuations."""
    if x.ring is not ring and x.ring != ring:
        raise ValueError(f"element lives in {x.ring!r}, not {ring!r}")


def _norm_schedule(n: int, subgroup=(1,)) -> tuple[tuple[int, int], ...]:
    """Steps (k, r), r prime, of a tower H = H_0 < H_1 < ... of (Z/n)^*.

    H_0 is the given subgroup, H_i is generated by H_{i-1} and k_i and has
    prime index r_i over it, so the products k_1^j_1 k_2^j_2 ... with
    0 <= j_i < r_i run over the cosets of H exactly once.
    """
    units = [k for k in range(1, n) if gcd(k, n) == 1]
    group = {h % n for h in subgroup}
    steps = []
    for k in units:
        while k not in group:
            s = multiplicative_order(k, n, group)
            r = next(d for d in range(2, s + 1) if s % d == 0)
            step = pow(k, s // r, n)
            group = {h * pow(step, j, n) % n for h in group for j in range(r)}
            steps.append((step, r))
    return tuple(steps)


class CyclotomicElement:
    """An element of any order in the package: Z[alpha] or a quadratic order.

    The ring reduces the coefficients (its ``_reduce``) and owns the rest of
    the arithmetic; conjugation, norms and valuations exist for Z[alpha]
    only.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs: list[int]):
        self.ring = ring
        self.coeffs = ring._reduce(coeffs)

    def _lift(self, other):
        if isinstance(other, int):
            return self.ring.element(other)
        return other

    def __add__(self, other):
        other = self._lift(other)
        check_ring(other, self.ring)
        return self.ring.element(
            [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    __radd__ = __add__

    def __neg__(self):
        return self.ring.element([-a for a in self.coeffs])

    def __sub__(self, other):
        other = self._lift(other)
        check_ring(other, self.ring)
        return self.ring.element(
            [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        check_ring(other, self.ring)
        return self.ring.element(polyint.mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not ring elements")
        if e == 0:
            return self.ring.element(1)
        out = None
        base = self
        while True:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if not e:
                return out
            base = base * base

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> int:
        if not self.is_rational():
            raise ValueError("element is not a rational integer")
        return self.coeffs[0]

    def content_divisible_by(self, m: int) -> bool:
        """Whether every coefficient of the reduced form is divisible by m."""
        return all(c % m == 0 for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.element(other)
        return (
            isinstance(other, CyclotomicElement)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"CyclotomicElement({self.ring!r}, {list(self.coeffs)})"


def conjugate(x: CyclotomicElement, k: int) -> CyclotomicElement:
    """The automorphism alpha -> alpha^k applied to x; needs gcd(k, n) = 1."""
    n = x.ring.n
    k %= n
    if gcd(k, n) != 1:
        raise ValueError(f"conjugation index {k} is not coprime to {n}")
    out = [0] * n
    for i, c in enumerate(x.coeffs):
        if c:
            out[(i * k) % n] += c
    return x.ring.element(out)


def conjugate_tower(x: CyclotomicElement, schedule) -> tuple[CyclotomicElement, list]:
    """Walk a tower from x, which H = H_0 fixes: the norm y and the step factors.

    At a step (k, r), T = prod_{1<=j<r} sigma_k^j(y) and y <- y * T, the
    norm down to the fixed ring of H_i.  The product c of the T_i is x's
    cofactor: x * c = y, the other conjugates' product.

    T is sigma_k(P_(r-1)), P_a = prod_{0<=j<a} sigma_k^j(y), and P_(r-1) is
    built by doubling along the bits of r - 1 (Itoh and Tsujii, Inform. and
    Comput. 78, 1988): P_2a = P_a * sigma_k^a(P_a) and P_(a+1) =
    y * sigma_k(P_a).  A step takes bit_length(r - 1) + popcount(r - 1) - 1
    multiplies, y * T included, against r - 1 one conjugate at a time: 5 in
    place of 10 at r = 11, 3 in place of 4 at r = 5.
    """
    n = x.ring.n
    y = x
    factors = []
    for k, r in schedule:
        p, a = y, 1
        for bit in bin(r - 1)[3:]:
            p, a = p * conjugate(p, pow(k, a, n)), 2 * a
            if bit == "1":
                p, a = y * conjugate(p, k), a + 1
        t = conjugate(p, k)
        factors.append(t)
        y = y * t
    return y, factors


def norm(x: CyclotomicElement) -> int:
    """Product of all conjugates; a rational integer, multiplicative.

    Taken up the tower from {1}: the sum over its steps of
    bit_length(r_i - 1) + popcount(r_i - 1) - 1 multiplies, 6 at n = 23
    and at n = 41.
    """
    return conjugate_tower(x, x.ring.norm_schedule)[0].rational_value()


def check_conductor(lam: int) -> None:
    """Refuse a conductor other than an odd prime: Gaussian periods, ideal
    primes and their valuations need one."""
    if not is_prime(lam) or lam == 2:
        raise ValueError(f"conductor {lam} must be an odd prime")


# Gaussian periods for a prime conductor: e periods of length f.
# eta_i = sum of alpha^(g^j) over j = i mod e, with g the least primitive
# root mod lam.  sigma_g rotates the periods cyclically.  norm_schedule is
# the tower from H = <g^e>, the subgroup of order f that fixes the periods,
# so conjugate_tower takes period-field norms with it.  polynomial is
# prod_i (Y - eta_i), lowest degree first.
PeriodSystem = namedtuple(
    "PeriodSystem",
    ["ring", "lam", "e", "f", "g", "periods", "norm_schedule", "polynomial"],
)


@lru_cache(maxsize=1024)
def gaussian_periods(lam: int, e: int) -> PeriodSystem:
    """The period system of (lam, e), one per key: every map above one
    prime uses the same one.

    The power sums s_k = sum_i eta_i^k are integers: eta_0^k lies in the
    period field, s_k is its trace down to Q, 1/f of its trace from
    Q(alpha), and that trace of sum c_j alpha^j is lam c_0 - sum_j c_j.
    Newton's identities k a_k = -sum_{i<=k} s_i a_{k-i} then give the
    coefficients of the period polynomial Y^e + a_1 Y^(e-1) + ... + a_e
    from e ring products.
    """
    check_conductor(lam)
    if e < 1 or (lam - 1) % e != 0:
        raise ValueError(f"e={e} must be a positive divisor of lambda-1={lam - 1}")
    ring = cyclotomic_ring(lam)
    f = (lam - 1) // e
    g = least_primitive_root(lam)
    periods = []
    for i in range(e):
        coeffs = [0] * lam
        for j in range(i, lam - 1, e):
            coeffs[pow(g, j, lam)] += 1
        periods.append(ring.element(coeffs))
    sums = []
    power = ring.one()
    for _ in range(e):
        power = power * periods[0]
        c = power.coeffs
        sums.append((lam * c[0] - sum(c)) // f)
    a = [1]
    for k in range(1, e + 1):
        a.append(-sum(s * a[k - 1 - i] for i, s in enumerate(sums[:k])) // k)
    schedule = _norm_schedule(lam, [pow(g, e * j, lam) for j in range(f)])
    return PeriodSystem(
        ring, lam, e, f, g, tuple(periods), schedule, tuple(reversed(a))
    )
