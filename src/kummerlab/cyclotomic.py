"""Arithmetic in Z[X]/(Phi_n): elements, conjugation, norms, Gaussian periods.

For prime conductors this is the ring where ideal primes live; composite
conductors (used by the character-sum layer) get ring arithmetic,
conjugation and evaluation only.  Elements are immutable coefficient tuples
of length phi(n), reduced mod Phi_n; equality is coefficient equality.
"""

from functools import lru_cache
from math import gcd

from kummerlab import polyint
from kummerlab.arith import is_prime, least_primitive_root
from kummerlab.lattice import MultTable


@lru_cache(maxsize=None)
def cyclotomic_ring(n: int) -> "CyclotomicRing":
    return CyclotomicRing(n)


class CyclotomicRing:
    """Z[alpha] with alpha a primitive n-th root of unity."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("conductor must be positive")
        self.n = n
        self.modulus = polyint.cyclotomic_polynomial(n)
        self.degree = len(self.modulus) - 1

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
        _, r = polyint.divmod_exact(polyint.trim(list(coeffs)), list(self.modulus))
        return tuple(r + [0] * (self.degree - len(r)))

    def mult_table(self) -> MultTable:
        return _mult_table(self.n)

    def __eq__(self, other):
        return isinstance(other, CyclotomicRing) and self.n == other.n

    def __hash__(self):
        return hash(("CyclotomicRing", self.n))

    def __repr__(self):
        return f"CyclotomicRing({self.n})"


@lru_cache(maxsize=None)
def _mult_table(n: int) -> MultTable:
    ring = cyclotomic_ring(n)
    d = ring.degree
    table = []
    for i in range(d):
        row = []
        for j in range(d):
            prod = [0] * (i + j) + [1]
            row.append(ring._reduce(prod))
        table.append(tuple(row))
    return tuple(table)


class CyclotomicElement:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: CyclotomicRing, coeffs: list[int]):
        self.ring = ring
        self.coeffs = ring._reduce(coeffs)

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError("elements of different cyclotomic rings")

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
        return self.ring.element(
            polyint.mul(list(self.coeffs), list(other.coeffs))
        )

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not ring elements")
        out = self.ring.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

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
        return hash((self.ring.n, self.coeffs))

    def __repr__(self):
        return f"CyclotomicElement({self.ring.n}, {list(self.coeffs)})"


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


def norm(x: CyclotomicElement) -> int:
    """Product of all conjugates; a rational integer, multiplicative."""
    n = x.ring.n
    if n == 1:
        return x.rational_value()
    prod = x.ring.one()
    for k in range(1, n):
        if gcd(k, n) == 1:
            prod = prod * conjugate(x, k)
    return prod.rational_value()


class PeriodSystem:
    """Gaussian periods for a prime conductor: e periods of length f.

    eta_i = sum of alpha^(g^j) over j = i mod e, with g the least primitive
    root mod lam.  sigma_g rotates the periods cyclically.
    """

    __slots__ = ("ring", "lam", "e", "f", "g", "periods")

    def __init__(self, lam: int, e: int):
        if not is_prime(lam):
            raise ValueError(f"{lam} is not prime")
        if lam == 2 or (lam - 1) % e != 0:
            raise ValueError(f"e={e} must divide lambda-1={lam - 1}")
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


def express_in_periods(
    x: CyclotomicElement, system: PeriodSystem
) -> tuple[int, ...] | None:
    """Integer coordinates of x in the period basis, or None if x is outside.

    The periods are an integral basis of their subring, so the
    representation x = sum c_i eta_i is unique when it exists.
    """
    if x.ring != system.ring:
        raise ValueError("element does not live in the system's ring")
    # Z[alpha] = Z^lam / (1, ..., 1) and eta_i is the indicator of the coset
    # {g^j : j = i mod e}, so x = sum c_i eta_i exactly when the lifted
    # coefficients minus x[0] are constant on each coset.
    lifted = list(x.coeffs) + [0]
    lam, g = system.lam, system.g
    diffs = [lifted[pow(g, j, lam)] - lifted[0] for j in range(lam - 1)]
    coords = tuple(diffs[: system.e])
    if any(c != coords[j % system.e] for j, c in enumerate(diffs)):
        return None
    return coords
