"""Discrete valuations on Z[alpha] built from uniformizers.

A KummerPrime packages a Jacobi map with a uniformizer psi constructed, as
Kummer did, from the map's period residues u = (u_0, ..., u_{e-1}): psi is
killed by the map and its period-field norm psi * Psi (with Psi the product
of the remaining period conjugates) is divisible by q exactly once.  At
residue degree 1, psi = alpha - r and one synthetic division of Phi by
X - r gives Psi and the norm; otherwise one walk up the period system's
subgroup tower gives both.  The multiplicity of the ideal prime in an
element x is then the largest mu such that every coefficient of
x * Psi^mu is divisible by q^mu.  multiplicity runs that test one level
and one coefficient at a time: it carries the exact quotient
w = x * Psi^mu / q^mu, so level mu + 1 only asks whether q divides each
coefficient of w * Psi, a dot product of w with one column of Psi's
multiplication matrix, and it stops at the first coefficient that q does
not divide.  divisibility_step keeps the literal test, the element
product x * Psi^mu against q^mu, and the tests compare the two.

An independent oracle computes the same number as the largest mu with
x in (ker phi)^mu, by exact p-adic arithmetic and no uniformizer at all.
For p != lam, Z[alpha]/P^mu is the Galois ring (Z/p^mu)[X]/(F), F the
map's factor, with alpha at the Teichmueller lift of the map's root, so
membership in P^mu is one evaluation there.  At p = lam the valuation is
read off the coefficients of x(1 + t).

factorize and divides take every valuation from the oracle, and factorize
checks the records against the norm.  The `kummerlab factor` report
certifies each nonzero record by both routes; the test suite compares them
wholesale.  divides likewise runs two routes, valuations and exact
division.  Definedness at a fraction is the colon-lattice test alone, for
any ring a Jacobi map is built on; the tests compare it with valuations.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import mul

from kummerlab.arith import (
    DEFAULT_TRIAL_DIVISION_BOUND,
    factorize_int,
    valuation_int,
)
from kummerlab.cyclotomic import (
    CyclotomicElement,
    PeriodSystem,
    conjugate_tower,
    gaussian_periods,
    norm,
)
from kummerlab.ffield import image, power_rows
from kummerlab.idealprimes import (
    JacobiMap,
    check_conductor,
    enumerate_jacobi_maps,
)
from kummerlab.lattice import colon_rows, extends_to, kernel_mod
from kummerlab.polymod import gf_pow_mod


@dataclass(frozen=True)
class KummerPrime:
    """An ideal prime with a certified uniformizer."""

    map: JacobiMap
    periods: PeriodSystem
    psi: CyclotomicElement
    psi_conjugates: CyclotomicElement  # Psi = product of the other conjugates
    period_norm: int  # psi * Psi as a rational integer

    @property
    def q(self) -> int:
        return self.map.p

    @cached_property
    def psi_columns(self) -> tuple[tuple[int, ...], ...]:
        """Columns of Psi's multiplication matrix: coefficient l of w * Psi
        is the dot product of w's coefficients with column l."""
        big_psi = self.psi_conjugates
        return tuple(zip(*big_psi.ring.mul_matrix(big_psi.coeffs)))

    def certificate(self) -> dict:
        q = self.q
        return {
            "norm": self.period_norm,
            "divisible_once": self.period_norm % q == 0
            and (self.period_norm // q) % q != 0,
        }


def _norm_and_cofactor(x: CyclotomicElement, schedule):
    """The norm y of x along a tower that ends at Q, and c with x * c = y."""
    y, factors = conjugate_tower(x, schedule)
    return y.rational_value(), reduce(mul, factors)


def _linear_uniformizer(ring, r: int):
    """psi = alpha - r, Psi = -Q(alpha) and psi * Psi = Phi(r), where
    Q = (Phi(X) - Phi(r)) / (X - r) comes from one synthetic division.

    psi * Psi = Phi(r) - Phi(alpha) = Phi(r), which is also the norm of
    psi (Phi has even degree), so Psi is the product of the other
    conjugates of psi: Z[alpha] has no zero divisors.
    """
    modulus = ring.modulus
    quotient = [0] * ring.degree
    value = 0
    for j in range(ring.degree, 0, -1):
        value = value * r + modulus[j]
        quotient[j - 1] = -value
    return ring.element([-r, 1]), ring.element(quotient), value * r + modulus[0]


def find_uniformizer(phi: JacobiMap) -> KummerPrime:
    """Construct a certified uniformizer of the map's ideal prime; no search.

    With e = (lam - 1) / f periods and u their residues under phi:
    - inert (e = 1): psi = q, the period ring being Z;
    - f = 1, the map sending alpha to r, taken in (-q/2, q/2] (the
      ramified q = lam has r = 1): psi = alpha - r, and Psi and the norm
      Phi_lam(r) come from one synthetic division (_linear_uniformizer);
    - f > 1 and u_0 occurring once in u: psi = eta_0 - u_0, with u_0
      taken in (-q/2, q/2];
    - otherwise psi = sum x_k eta_k with residues (0, 1, ..., 1) at the e
      conjugate primes of q in the period field, whose u-vectors are the
      rotations of u.  x comes from one kernel_mod call: the circulant of
      u is invertible mod q because q splits completely in the period field.
    At f > 1, Psi and the norm psi * Psi come from one walk up the period
    system's subgroup tower.  If q^2 divides the norm, psi + q is taken
    instead (q is unramified there, so psi + q lies in the prime exactly
    once; at f = 1 that is alpha - (r - q)).  The result must pass the
    certificate: phi kills psi and q divides psi * Psi exactly once.
    """
    q, lam = phi.p, phi.ring.n
    system = gaussian_periods(lam, (lam - 1) // phi.f)
    ring = system.ring
    e = system.e
    if e == 1:
        return KummerPrime(phi, system, ring.element(q), ring.one(), q)
    if phi.f == 1:
        (r,) = phi.xi
        r = r - q if 2 * r > q else r
        psi, big_psi, nval = _linear_uniformizer(ring, r)
        if nval % (q * q) == 0:
            psi, big_psi, nval = _linear_uniformizer(ring, r - q)
    else:
        u = phi.period_residues(system)
        if u.count(u[0]) == 1:
            psi = system.periods[0] - (u[0] - q if 2 * u[0] > q else u[0])
        else:
            # y = (1, x) with y N = 0 mod q: row 0 puts -1 = q - 1 in every
            # column but the first, row k + 1 is x_k's residue at each prime.
            rows = [[0] + [q - 1] * (e - 1)]
            rows += [[u[(k + l) % e] for l in range(e)] for k in range(e)]
            psi = system.combine(0, kernel_mod(rows, q).rows[0][1:])
        nval, big_psi = _norm_and_cofactor(psi, system.norm_schedule)
        if nval % (q * q) == 0:
            psi = psi + q
            nval, big_psi = _norm_and_cofactor(psi, system.norm_schedule)
    K = KummerPrime(phi, system, psi, big_psi, nval)
    if not (phi.kills(psi) and K.certificate()["divisible_once"]):
        raise ArithmeticError(
            f"constructed uniformizer for {phi!r} failed its certificate"
        )
    return K


@lru_cache(maxsize=1024)
def kummer_prime(phi: JacobiMap) -> KummerPrime:
    """Cached uniformizer for a map."""
    return find_uniformizer(phi)


def divisibility_step(x: CyclotomicElement, K: KummerPrime, mu: int) -> bool:
    """Kummer's test at level mu: q^mu divides every coefficient of x*Psi^mu."""
    return (x * K.psi_conjugates**mu).content_divisible_by(K.q**mu)


def _norm_cap(x: CyclotomicElement, q: int) -> int:
    """An upper bound degree * v_q(norm(x)) + 1 on x's valuation above q.

    Callers compute it once, when mu first exceeds the degree: any mu >= 1
    means q divides norm(x), so the cap is at least degree + 1 and cannot
    fire earlier.
    """
    return x.ring.degree * valuation_int(norm(x), q) + 1


def multiplicity(x: CyclotomicElement, K: KummerPrime) -> int:
    """Largest mu with x * Psi^mu divisible by q^mu coefficientwise.

    It keeps w = x * Psi^mu / q^mu, which lies in Z[alpha] while the test
    holds.  Since x * Psi^(mu+1) = q^mu * (w * Psi), level mu + 1 holds iff
    q divides every coefficient of w * Psi, so the result is the same as
    divisibility_step's.  Each step takes coefficient l of w * Psi as the
    dot product of w with column l of Psi's multiplication matrix, divides
    it by q, and returns mu at the first coefficient q does not divide; w
    becomes the exact quotients only when all of them divide.
    """
    if x.is_zero():
        raise ValueError("valuation of 0 is infinite")
    x._check(K.psi_conjugates)
    q = K.q
    columns = K.psi_columns
    w = x.coeffs
    mu = cap = 0
    while True:
        quotients = []
        for col in columns:
            quotient, remainder = divmod(sum(map(mul, w, col)), q)
            if remainder:
                return mu
            quotients.append(quotient)
        w = quotients
        mu += 1
        if mu > x.ring.degree:
            cap = cap or _norm_cap(x, q)
            if mu > cap:
                raise AssertionError("multiplicity exceeded its norm bound")


def _vanishes_at_lift(x: CyclotomicElement, phi: JacobiMap, mu: int) -> bool:
    """Whether x lies in P^mu, P = ker phi, for a prime p != lam.

    p is unramified, so Z[alpha]/P^mu is the Galois ring
    W = (Z/p^mu)[X]/(F), F the map's factor read as a monic integer
    polynomial, and alpha goes to the Teichmueller lift of the map's root
    xi: the lam-th root of unity xi^(p^(f(mu-1))) above it.  x is in P^mu
    iff x vanishes there, that is iff x.coeffs times the power rows of the
    lift is 0 mod p^mu.
    """
    m = phi.p**mu
    lift = gf_pow_mod(phi.xi, phi.p ** (phi.f * (mu - 1)), phi.factor, m)
    rows = power_rows(lift, phi.ring.degree, phi.factor, m)
    return not any(image(x.coeffs, rows, m))


def _ramified_valuation(x: CyclotomicElement) -> int:
    """x's valuation at the prime P = (1 - alpha) above lam.

    With alpha = 1 + t, v_P(t) = 1 and v_P(lam) = lam - 1, so the terms
    c_i t^i of x(1 + t), i < lam - 1, have the distinct valuations
    (lam - 1) v_lam(c_i) + i, and x's valuation is the least of them.
    """
    lam = x.ring.n
    c = list(x.coeffs)
    for i in range(len(c) - 1):  # Taylor shift: c becomes x(1 + t)
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += c[j + 1]
    return min(
        (lam - 1) * valuation_int(ci, lam) + i for i, ci in enumerate(c) if ci
    )


def valuation_oracle(x: CyclotomicElement, phi: JacobiMap) -> int:
    """Largest mu with x in (ker phi)^mu, by exact p-adic arithmetic.

    It uses no uniformizer, so it is independent of the Kummer route.
    """
    if x.is_zero():
        raise ValueError("valuation of 0 is infinite")
    if not phi.kills(x):
        return 0
    if phi.p == phi.ring.n:
        v = _ramified_valuation(x)
        in_power = lambda mu: mu <= v
    else:
        in_power = lambda mu: _vanishes_at_lift(x, phi, mu)
    mu, cap = 1, 0
    while in_power(mu + 1):
        mu += 1
        if mu > x.ring.degree:
            cap = cap or _norm_cap(x, phi.p)
            if mu > cap:
                raise AssertionError("oracle valuation exceeded its norm bound")
    return mu


def is_defined_at(numerator, denominator, phi: JacobiMap) -> bool:
    """Whether the map extends to numerator/denominator (colon-lattice test).

    The elements may come from any ring a Jacobi map is built on: Z[alpha]
    or a quadratic order.  To test many maps at one fraction, take its
    lattice.colon_rows once and pass them to extends_to for each kernel.
    """
    rows = colon_rows(numerator.coeffs, denominator.coeffs, phi.ring)
    return extends_to(phi.kernel(), rows)


@dataclass(frozen=True)
class ValuationRecord:
    map: JacobiMap
    element: CyclotomicElement
    mu: int


@dataclass(frozen=True)
class IdealFactorization:
    """Multiplicities of x at every map of every prime dividing norm(x).

    The element is determined by its records only up to a unit multiple;
    norm consistency (sum of f * mu over the maps of p equals the exponent
    of p in norm(x)) is validated at construction time.
    """

    element: CyclotomicElement
    norm_value: int
    records: tuple[ValuationRecord, ...]

    def nonzero(self) -> tuple[ValuationRecord, ...]:
        return tuple(r for r in self.records if r.mu > 0)


def factorize(
    x: CyclotomicElement,
    trial_bound: int = DEFAULT_TRIAL_DIVISION_BOUND,
) -> IdealFactorization:
    """Complete ideal prime factorization of a nonzero element."""
    check_conductor(x.ring.n)
    if x.is_zero():
        raise ValueError("cannot factor 0")
    nval = norm(x)
    records = []
    for p in sorted(factorize_int(nval, trial_bound)):
        total = 0
        for phi in enumerate_jacobi_maps(x.ring.n, p):
            mu = valuation_oracle(x, phi)
            total += phi.f * mu
            records.append(ValuationRecord(phi, x, mu))
        if total != valuation_int(nval, p):
            raise ArithmeticError(
                f"norm consistency failed at p={p}: sum f*mu = {total}, "
                f"v_p(norm) = {valuation_int(nval, p)}"
            )
    return IdealFactorization(x, nval, tuple(records))


def _quotient_and_norm(
    d: CyclotomicElement, x: CyclotomicElement
) -> tuple[CyclotomicElement | None, int]:
    """x / d (None when it is not in Z[alpha]) and norm(d).

    The cofactor is the product of the nontrivial conjugates of d, taken
    with norm(d) = d * cofactor from the ring's subgroup tower, and
    x / d = x * cofactor / norm(d) when every coefficient divides.
    """
    check_conductor(d.ring.n)
    if d.is_zero():
        raise ZeroDivisionError("division by zero element")
    nd, cofactor = _norm_and_cofactor(d, d.ring.norm_schedule)
    y = x * cofactor
    if not y.content_divisible_by(nd):
        return None, nd
    return d.ring.element([c // nd for c in y.coeffs]), nd


def exact_quotient(
    d: CyclotomicElement, x: CyclotomicElement
) -> CyclotomicElement | None:
    """x / d when the quotient lies in Z[alpha], else None."""
    return _quotient_and_norm(d, x)[0]


def divides(
    d: CyclotomicElement,
    x: CyclotomicElement,
    trial_bound: int = DEFAULT_TRIAL_DIVISION_BOUND,
) -> bool:
    """Whether d divides x in Z[alpha]; both routes must agree.

    Route one is exact division; route two compares valuations at every map
    over every prime dividing norm(d).
    """
    quotient, norm_d = _quotient_and_norm(d, x)
    by_division = quotient is not None
    if x.is_zero():
        return True
    by_valuation = True
    for p in sorted(factorize_int(norm_d, trial_bound)):
        for phi in enumerate_jacobi_maps(d.ring.n, p):
            if valuation_oracle(d, phi) > valuation_oracle(x, phi):
                by_valuation = False
    if by_division != by_valuation:
        raise ArithmeticError(
            "exact division and valuation comparison disagree on divisibility"
        )
    return by_division
