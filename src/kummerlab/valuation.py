"""Discrete valuations on Z[alpha] built from uniformizers.

kummer_prime, cached per map, gives a KummerPrime: a Jacobi map with a
uniformizer psi constructed, as Kummer did, from the map's period_residues()
u = (u_0, ..., u_{e-1}): psi is killed by the map and its period-field norm
psi * Psi (with Psi the product of the remaining period conjugates) is
divisible by q exactly once.  At residue degree 1, psi = alpha - r and one
synthetic division of Phi by X - r gives Psi and the norm; otherwise one
walk up the period system's subgroup tower gives both.  The multiplicity of
the ideal prime in an element x is then the largest mu such that every
coefficient of x * Psi^mu is divisible by q^mu.  multiplicity runs that test
one level and one coefficient at a time: it carries the exact quotient
w = x * Psi^mu / q^mu, so level mu + 1 only asks whether q divides each
coefficient of w * Psi, a dot product of w with one column of Psi's
multiplication matrix, and it stops at the first coefficient that q does
not divide.  That matrix is taken of Psi mod q, its coefficients in
(-q/2, q/2], which leaves every multiplicity as it is.  The tests compare
it with the literal test of x * Psi^mu.

An independent oracle computes the same number as the largest mu with
x in (ker phi)^mu, by exact p-adic arithmetic and no uniformizer at all.
For p != lam, Z[alpha]/P^M is the Galois ring (Z/p^M)[X]/(F), F the
map's factor, with alpha at the Teichmueller lift of the map's root, and
P^mu / P^M is p^mu times it.  So x lies in P^mu, mu <= M, exactly when its
image there is 0 mod p^mu: once the least v_p of the image's coordinates
is below M, it is the valuation.  The oracle reads the image, one
ffield.image against the lift's power columns, at M = 2, 4, 8, ...; each
lift is one Newton step on X^lam - 1 from the last, built once per (map, M)
in a bounded cache, and a valuation v >= 1 takes floor(log2 v) + 1 of them.
At p = lam the valuation is read off the coefficients of x(1 + t).

multiplicities and valuation_oracles give both numbers for a batch of
elements at many primes.  Most of those numbers are 0, and each route
tells a 0 from one dot product mod p: Kummer's the first coefficient of
x * Psi, the oracle's the image of x.  ffield.zero_images
reads those for the whole batch, one packed product per column, and only
the elements that read 0 go on to multiplicity or valuation_oracle.

factorize and divides take every valuation from the oracle, and factorize
checks the records against the norm.  The `kummerlab factor` report
certifies each nonzero record by both routes; the test suite compares them
wholesale.  divides likewise runs two routes, valuations and exact
division.  Definedness at a fraction is not read here: for any ring a
Jacobi map is built on, quadorder.dichotomy_check reads it off the colon
ideals, and the tests compare that read with valuations.
"""

from collections import namedtuple
from functools import lru_cache, reduce
from operator import mul

from kummerlab.arith import (
    DEFAULT_TRIAL_DIVISION_BOUND,
    factorize_int,
    valuation_int,
)
from kummerlab.cyclotomic import (
    CyclotomicElement,
    check_conductor,
    check_ring,
    conjugate_tower,
    gaussian_periods,
    norm,
)
from kummerlab.ffield import image, power_columns, zero_images
from kummerlab.idealprimes import JacobiMap, enumerate_jacobi_maps
from kummerlab.lattice import kernel_mod, mul_matrix
from kummerlab.polymod import gf_pow_mod


# An ideal prime with a certified uniformizer.
KummerPrime = namedtuple(
    "KummerPrime",
    [
        "map",  # JacobiMap
        "psi",  # CyclotomicElement, the uniformizer
        "psi_conjugates",  # Psi = product of the other conjugates
        "period_norm",  # psi * Psi as a rational integer
        "psi_columns",  # columns of the mul_matrix of Psi mod q
    ],
)


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


@lru_cache(maxsize=1024)
def kummer_prime(phi: JacobiMap) -> KummerPrime:
    """The map's ideal prime with a certified uniformizer; no search.

    With e = (lam - 1) / f periods and u their residues under phi:
    - inert (e = 1): psi = q, the period ring being Z;
    - f = 1, the map sending alpha to r, taken in (-q/2, q/2] (the
      ramified q = lam has r = 1): psi = alpha - r, and Psi and the norm
      Phi_lam(r) come from one synthetic division (_linear_uniformizer);
    - f > 1 and u_0 occurring once in u: psi = eta_0 - u_0, with u_0
      taken in (-q/2, q/2];
    - otherwise psi = sum x_k eta_k with residues (0, 1, ..., 1) at the e
      conjugate primes of q in the period field, whose u-vectors are the
      rotations of u.  x comes from one kernel_mod call, the first row of
      the kernel mod q of the e columns of that system: the circulant of
      u is invertible mod q because q splits completely in the period field.
    At f > 1, Psi and the norm psi * Psi come from one walk up the period
    system's subgroup tower.  If q^2 divides the norm, psi + q is taken
    instead (q is unramified there, so psi + q lies in the prime exactly
    once; at f = 1 that is alpha - (r - q)).  The result must pass the
    certificate: phi kills psi and q divides psi * Psi exactly once.
    """
    q, ring = phi.p, phi.ring
    e = ring.degree // phi.f
    if e == 1:
        psi, big_psi, nval = ring.element(q), ring.one(), q
    elif phi.f == 1:
        (r,) = phi.xi
        r = r - q if 2 * r > q else r
        psi, big_psi, nval = _linear_uniformizer(ring, r)
        if nval % (q * q) == 0:
            psi, big_psi, nval = _linear_uniformizer(ring, r - q)
    else:
        system = gaussian_periods(ring.n, e)
        u = phi.period_residues()
        if u.count(u[0]) == 1:
            psi = system.periods[0] - (u[0] - q if 2 * u[0] > q else u[0])
        else:
            # y = (1, x) with y . c = 0 mod q for each column c: column l
            # is -1 = q - 1 (0 at l = 0), then the periods' residues at the
            # l-th prime, so that psi's residue there is 1 (0 at l = 0).
            columns = [[q - 1 if l else 0, *u[l:], *u[:l]] for l in range(e)]
            x = kernel_mod(columns, q).rows[0][1:]
            psi = sum((c * eta for c, eta in zip(x, system.periods)), ring.zero())
        nval, big_psi = _norm_and_cofactor(psi, system.norm_schedule)
        if nval % (q * q) == 0:
            psi = psi + q
            nval, big_psi = _norm_and_cofactor(psi, system.norm_schedule)
    if not (phi.kills(psi) and nval % q == 0 and nval // q % q):
        raise ArithmeticError(
            f"constructed uniformizer for {phi!r} failed its certificate"
        )
    # Kummer's test may use Psi' = Psi - q z, Psi's coefficients taken in
    # (-q/2, q/2], for Psi.  Psi' still lies in every other prime above q,
    # and v_P(Psi') = v_P(Psi), since q z lies deeper in P: 0 for q != lam,
    # and lam - 2 at q = lam, where v_P(q) = lam - 1.  So q^mu divides
    # x * Psi'^mu exactly when v_P(x) >= mu, as for Psi.  Coefficient l of
    # w * Psi' is the dot product of w with column l of Psi's mul_matrix;
    # each row of that table is a rotation of (Psi', 0) minus one of its
    # entries, so every entry has |c| < q.
    small = [c - q if 2 * c > q else c for c in (c % q for c in big_psi.coeffs)]
    columns = tuple(zip(*mul_matrix(ring, small)))
    return KummerPrime(phi, psi, big_psi, nval, columns)


def _norm_cap(x: CyclotomicElement, q: int) -> int:
    """An upper bound degree * v_q(norm(x)) + 1 on x's valuation above q.

    Callers compute it once, when mu first exceeds the degree: any mu >= 1
    means q divides norm(x), so the cap is at least degree + 1 and cannot
    fire earlier.
    """
    return x.ring.degree * valuation_int(norm(x), q) + 1


def check_nonzero(x: CyclotomicElement) -> None:
    """ValueError for x = 0, whose valuation is infinite at every prime."""
    if x.is_zero():
        raise ValueError("valuation of 0 is infinite")


def multiplicity(x: CyclotomicElement, K: KummerPrime) -> int:
    """Largest mu with x * Psi^mu divisible by q^mu coefficientwise.

    It keeps w = x * Psi^mu / q^mu, which lies in Z[alpha] while the test
    holds.  Since x * Psi^(mu+1) = q^mu * (w * Psi), level mu + 1 holds iff
    q divides every coefficient of w * Psi, so the result is the same as
    the literal test's.  Each step takes coefficient l of w * Psi as the
    dot product of w with column l of Psi's multiplication matrix, divides
    it by q, and returns mu at the first coefficient q does not divide; w
    becomes the exact quotients only when all of them divide.  check_nonzero
    refuses x = 0.
    """
    check_nonzero(x)
    check_ring(x, K.map.ring)
    q = K.map.p
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


@lru_cache(maxsize=1024)
def _lift_columns(phi: JacobiMap, precision: int) -> list[list[int]]:
    """The power columns of the Teichmueller lift z in (Z/p^M)[X]/(F), M the
    precision, p != lam: one Newton step z - z(z^lam - 1)/lam from the lift
    mod p^ceil(M/2), at M <= 2 from xi.  Built once per (map, M)."""
    half = (precision + 1) // 2
    z = [c[1] for c in (phi.columns if half == 1 else _lift_columns(phi, half))]
    lam, m = phi.ring.n, phi.p**precision
    power = gf_pow_mod(z, lam + 1, phi.factor, m) + [0] * len(z)
    inverse = pow(lam, -1, m)  # the step is ((lam + 1) z - z^(lam + 1)) / lam
    lift = [((lam + 1) * a - b) * inverse % m for a, b in zip(z, power)]
    return power_columns(lift, phi.ring.degree, phi.factor, m)


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

    It uses no uniformizer, so it is independent of the Kummer route.  For
    p != lam it evaluates x at the Teichmueller lift mod p^M, M = 2, 4,
    8, ..., until the least v_p of the image's coordinates is below M; that
    least v_p is the valuation.  A zero x is refused by check_nonzero.
    """
    check_nonzero(x)
    if not phi.kills(x):
        return 0
    p, degree = phi.p, x.ring.degree
    if p == phi.ring.n:
        v = _ramified_valuation(x)
        if v > degree and v > _norm_cap(x, p):
            raise AssertionError("oracle valuation exceeded its norm bound")
        return v
    precision, cap = 2, 0
    while True:
        coords = image(x.coeffs, _lift_columns(phi, precision), p**precision)
        v = min((valuation_int(c, p) for c in coords if c), default=precision)
        if v < precision:
            return v
        if precision > degree:
            cap = cap or _norm_cap(x, p)
            if precision > cap:
                raise AssertionError("oracle valuation exceeded its norm bound")
        precision *= 2


def _screened(one, xs, keys, maps, reads) -> list[list[int]]:
    """[one(x, key) for x in xs] for each key, with one called only on the
    xs that ffield.zero_images reads as 0 under the key's read: the others
    are 0.  An element outside the ring of a map of maps is refused by
    cyclotomic.check_ring, each element compared with each distinct ring
    once, in the maps' order; a zero element reads 0 everywhere, so one
    refuses it."""
    for ring in dict.fromkeys(phi.ring for phi in maps):
        for x in xs:
            check_ring(x, ring)
    out = []
    for key, indices in zip(keys, zero_images([x.coeffs for x in xs], reads)):
        values = [0] * len(xs)
        for i in indices:
            values[i] = one(xs[i], key)
        out.append(values)
    return out


def multiplicities(xs, primes) -> list[list[int]]:
    """[multiplicity(x, K) for x in xs] for each K of primes.

    multiplicity returns 0 at its first coefficient, the dot product of x
    with K.psi_columns[0], when q does not divide it; that coefficient is
    read for the whole batch at once, one packed product per prime, and
    only the elements that read 0 mod q go to multiplicity.
    """
    maps = [K.map for K in primes]
    reads = [(K.psi_columns[:1], K.map.p) for K in primes]
    return _screened(multiplicity, xs, primes, maps, reads)


def valuation_oracles(xs, maps) -> list[list[int]]:
    """[valuation_oracle(x, phi) for x in xs] for each phi of maps.

    The oracle returns 0 when phi does not kill x; that is read for the
    whole batch at once, one packed product per column of each map, and
    only the elements phi kills go to valuation_oracle.
    """
    reads = [(phi.columns, phi.p) for phi in maps]
    return _screened(valuation_oracle, xs, maps, maps, reads)


ValuationRecord = namedtuple("ValuationRecord", ["map", "mu"])


# Multiplicities of x at every map of every prime dividing norm(x):
# records is a tuple of ValuationRecord.  The element is determined by its
# records only up to a unit multiple; factorize checks norm consistency
# (sum of f * mu over the maps of p equals the exponent of p in norm(x))
# before it returns one.
IdealFactorization = namedtuple("IdealFactorization", ["norm_value", "records"])


def factorize(
    x: CyclotomicElement,
    trial_bound: int = DEFAULT_TRIAL_DIVISION_BOUND,
) -> IdealFactorization:
    """Complete ideal prime factorization of a nonzero element.

    The norm is trial-divided at the ring's conductor lam: a prime p != lam
    divides it only as a power of p^f, f the residue degree of p, so
    factorize_int divides only by the primes whose p^f is at most the
    cofactor, and finds the same primes as dividing by every one.  A zero
    x has norm 0, which factorize_int refuses.
    """
    check_conductor(x.ring.n)
    nval = norm(x)
    records = []
    for p in factorize_int(nval, trial_bound, conductor=x.ring.n):
        total = 0
        for phi in enumerate_jacobi_maps(x.ring.n, p):
            mu = valuation_oracle(x, phi)
            total += phi.f * mu
            records.append(ValuationRecord(phi, mu))
        if total != valuation_int(nval, p):
            raise ArithmeticError(
                f"norm consistency failed at p={p}: sum f*mu = {total}, "
                f"v_p(norm) = {valuation_int(nval, p)}"
            )
    return IdealFactorization(nval, tuple(records))


def quotient_and_norm(
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


def divides(
    d: CyclotomicElement,
    x: CyclotomicElement,
    trial_bound: int = DEFAULT_TRIAL_DIVISION_BOUND,
) -> bool:
    """Whether d divides x in Z[alpha]; both routes must agree.

    Route one is exact division; route two compares valuations at every map
    over every prime dividing norm(d).
    """
    quotient, norm_d = quotient_and_norm(d, x)
    by_division = quotient is not None
    if x.is_zero():
        return True
    by_valuation = True
    for p in factorize_int(norm_d, trial_bound, conductor=d.ring.n):
        for phi in enumerate_jacobi_maps(d.ring.n, p):
            if valuation_oracle(d, phi) > valuation_oracle(x, phi):
                by_valuation = False
    if by_division != by_valuation:
        raise ArithmeticError(
            "exact division and valuation comparison disagree on divisibility"
        )
    return by_division
