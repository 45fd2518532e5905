"""Arithmetic in Z[X]/(Phi_n): elements, conjugation, norms, Gaussian periods.

For prime conductors this is the ring where ideal primes live; composite
conductors (used by the character-sum layer) get ring arithmetic,
conjugation and norms only.  Elements are immutable coefficient tuples
of length phi(n), reduced mod Phi_n; equality is coefficient equality.
The element class is shared with the quadratic orders, whose rings reduce
mod their own modulus.
"""

from functools import lru_cache
from math import gcd

from kummerlab import polyint
from kummerlab.arith import is_prime, least_primitive_root


@lru_cache(maxsize=1024)
def cyclotomic_ring(n: int) -> "CyclotomicRing":
    return CyclotomicRing(n)


class CyclotomicRing:
    """Z[alpha] with alpha a primitive n-th root of unity."""

    symbol = "a"

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("conductor must be positive")
        self.n = n
        self.modulus = polyint.cyclotomic_polynomial(n)
        self.degree = len(self.modulus) - 1
        # alpha^(n/2) = -1 for even n, so Phi_n divides X^(n/2) + 1
        self._fold, self._fold_sign = (n // 2, -1) if n % 2 == 0 else (n, 1)
        self._tail = tuple((i, c) for i, c in enumerate(self.modulus[:-1]) if c)
        self.norm_schedule = _norm_schedule(n)

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
        sign, and X^n - 1 for odd n.  The positions at and above phi(n) are
        then cleared from the top down, each step touching only the nonzero
        terms of Phi_n.  For odd prime n that is one step, which subtracts
        the folded top coefficient from all the others.
        """
        m, sign = self._fold, self._fold_sign
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
        d = self.degree
        for k in range(m - 1, d - 1, -1):
            c = folded[k]
            if c:
                shift = k - d
                for i, b in self._tail:
                    folded[shift + i] -= c * b
        return tuple(folded[:d])

    def mul_matrix(self, v) -> list[tuple[int, ...]]:
        """Coordinate rows of v * alpha^i, i < phi(n): row i + 1 is row i
        shifted one place and reduced."""
        rows = [self._reduce(list(v))]
        for _ in range(1, self.degree):
            rows.append(self._reduce([0, *rows[-1]]))
        return rows

    def __eq__(self, other):
        return isinstance(other, CyclotomicRing) and self.n == other.n

    def __hash__(self):
        return hash(("CyclotomicRing", self.n))

    def __repr__(self):
        return f"CyclotomicRing({self.n})"


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
            s, power = 1, k
            while power not in group:
                power = power * k % n
                s += 1
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

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError("elements of different rings")

    def _lift(self, other):
        if isinstance(other, int):
            return self.ring.element(other)
        return other

    def __add__(self, other):
        other = self._lift(other)
        self._check(other)
        return self.ring.element(
            [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    __radd__ = __add__

    def __neg__(self):
        return self.ring.element([-a for a in self.coeffs])

    def __sub__(self, other):
        other = self._lift(other)
        self._check(other)
        return self.ring.element(
            [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        self._check(other)
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
    norm down to the fixed ring of H_i, for r - 1 multiplies.  The product
    c of the T_i is x's cofactor: x * c = y, the other conjugates' product.
    """
    y = x
    factors = []
    for k, r in schedule:
        t = z = conjugate(y, k)
        for _ in range(r - 2):
            z = conjugate(z, k)
            t = t * z
        factors.append(t)
        y = y * t
    return y, factors


def norm(x: CyclotomicElement) -> int:
    """Product of all conjugates; a rational integer, multiplicative.

    Taken up the tower from {1}: sum (r_i - 1) multiplies, 7 at n = 41.
    """
    return conjugate_tower(x, x.ring.norm_schedule)[0].rational_value()


class PeriodSystem:
    """Gaussian periods for a prime conductor: e periods of length f.

    eta_i = sum of alpha^(g^j) over j = i mod e, with g the least primitive
    root mod lam.  sigma_g rotates the periods cyclically.  norm_schedule
    is the tower from H = <g^e>, the subgroup of order f that fixes the
    periods, so conjugate_tower takes period-field norms with it.
    """

    __slots__ = ("ring", "lam", "e", "f", "g", "periods", "norm_schedule")

    def __init__(self, lam: int, e: int):
        if not is_prime(lam):
            raise ValueError(f"{lam} is not prime")
        if lam == 2 or e < 1 or (lam - 1) % e != 0:
            raise ValueError(
                f"e={e} must be a positive divisor of lambda-1={lam - 1}"
            )
        self.ring = cyclotomic_ring(lam)
        self.lam = lam
        self.e = e
        self.f = (lam - 1) // e
        self.g = least_primitive_root(lam)
        periods = []
        for i in range(e):
            coeffs = [0] * lam
            for j in range(i, lam - 1, e):
                coeffs[pow(self.g, j, lam)] += 1
            periods.append(self.ring.element(coeffs))
        self.periods = tuple(periods)
        self.norm_schedule = _norm_schedule(
            lam, [pow(self.g, e * j, lam) for j in range(self.f)]
        )

    def combine(self, const: int, coeffs) -> CyclotomicElement:
        """The element const + sum coeffs[i] * eta_i."""
        out = self.ring.element(const)
        for c, eta in zip(coeffs, self.periods):
            if c:
                out = out + c * eta
        return out

    def __repr__(self):
        return f"PeriodSystem(lambda={self.lam}, e={self.e})"


def gaussian_periods(lam: int, e: int) -> PeriodSystem:
    return PeriodSystem(lam, e)

