"""Reference routes that several test modules compare the library with.

Nothing in the package uses them, so they live with the tests.
"""

from array import array
from collections.abc import Sequence
from fractions import Fraction

from kummerlab.arith import (
    _MR_PROOF_LIMIT,
    DEFAULT_TRIAL_DIVISION_BOUND,
    FactorizationError,
    discrete_log_table,
    is_prime,
)
from kummerlab.charsum import character, jacobi_sum
from kummerlab.cyclotomic import conjugate, gaussian_periods
from kummerlab.ffield import image, power_columns
from kummerlab.idealprimes import JacobiMap
from kummerlab.lattice import IntLattice, _relations, mul_matrix
from kummerlab.polyint import (
    degree,
    narrowest_word,
    pack_words,
    trim,
    unpack_words,
)
from kummerlab.polymod import gf_mod, gf_mul, gf_pow_mod
from kummerlab.quadorder import _rational_sqrt
from kummerlab.valuation import _norm_and_cofactor


def counts_reference(chi, i: int, k: int) -> list[int]:
    """N_e = #{t in 2 .. p-1 : i ind t + k ind(1-t) = e mod lam}, one step
    per t over a discrete-log table of its own: the reference for
    charsum._counts, which forms every i ind t + k ind(1-t) in one packed
    multiply-add of the logs it holds."""
    lam, p = chi.lam, chi.p
    index = discrete_log_table(p, chi.g)
    counts = [0] * lam
    # 1 - t = p + 1 - t mod p: as t runs up from 2, 1 - t runs down from p - 1
    for a, b in zip(index[2:p], index[p - 1 : 1 : -1]):
        counts[(i * a + k * b) % lam] += 1
    return counts


def fc_value_reference(p: int, i: int, k: int) -> int:
    """J(chi^i, chi^k) of order p - 1, reduced mod Phi_{p-1} in
    Z[zeta_{p-1}], at the least primitive root g mod p: the reference for
    charsum.fundamental_congruence_check, which evaluates the unreduced
    counts."""
    chi = character(p, p - 1)
    value = 0
    for c in reversed(jacobi_sum(chi, i, k).coeffs):
        value = (value * chi.g + c) % p
    return value


def reflection_reference(chi, j) -> dict:
    """The reflection report with both J and the product reduced in the
    ring: the product is J times its conjugate, taken there.  The
    reference for charsum.reflection_identity and reflection_products,
    which reduce only the counts and read the product off the
    autocorrelation's gcd classes."""
    prod = j * conjugate(j, -1)
    return {
        "J": list(j.coeffs),
        "psi": list((-j).coeffs),
        "product": list(prod.coeffs),
        "holds": prod == chi.ring.element(chi.p),
    }


def autocorrelation(h: Sequence[int]) -> list[int]:
    """c[s] = sum over e of h[e] * h[(e - s) mod n], n = len(h), for h >= 0,
    packed with the narrowest word above max(h) * sum(h): the packing that
    charsum.reflection_products does for each pair of a row.

    This is h(X) * h(X^-1) in Z[X]/(X^n - 1).  h is packed once as unsigned
    w-bit words and multiplied once by its packed reflection
    h[0], h[n-1], ..., h[1], the coefficients of h(X^-1) mod X^n - 1, a
    slice of the same array.  Coefficient t of the product is the sum of
    h[e] * h[(e - t) mod n] over t - n < e <= t, 0 <= e < n, so folding
    mod 2^(wn) - 1, which adds coefficient t + n to t, gives c in order.
    Every product coefficient, and every cyclic one (the sum of two product
    coefficients), is a sum of h[e] * h[e - s] with each e at most once, so
    at most max(h) * sum(h).  With w the narrowest array word above that
    bound the words never carry and one fold is exact.  w is at most 64,
    and ValueError is raised unless (sum h)^2 < 2^64.  Halving w makes the
    multiply about 3 times faster at n = 60 to 400 (CPython 3.11, x86-64).
    """
    n, total = len(h), sum(h)
    if min(h, default=0) < 0 or total * total >> 64:
        raise ValueError("autocorrelation needs h >= 0 with (sum h)^2 < 2^64")
    if not n:
        return []
    w, code = narrowest_word(max(h) * total)
    words = array(code, h)
    x = pack_words(words) * pack_words(words[:1] + words[:0:-1])
    bits = w * n
    return unpack_words((x & ((1 << bits) - 1)) + (x >> bits), code, n).tolist()


def autocorrelation_reference(h: Sequence[int]) -> list[int]:
    """c[s] = sum over e of h[e] * h[(e - s) mod n], n = len(h), as the plain
    double loop: the reference for the packed autocorrelation above."""
    n = len(h)
    return [sum(h[e] * h[(e - s) % n] for e in range(n)) for s in range(n)]


def uniformizer_by_tower(phi):
    """psi, Psi and the period norm psi * Psi of a map of residue degree 1,
    Psi and the norm taken up the period system's subgroup tower: the
    reference for the synthetic division of valuation.kummer_prime.

    psi = eta_0 - u_0 with u_0 in (-q/2, q/2], and psi + q when q^2 divides
    the norm.
    """
    q = phi.p
    system = gaussian_periods(phi.ring.n, phi.ring.degree)
    u0 = phi.period_residues()[0]
    psi = system.periods[0] - (u0 - q if 2 * u0 > q else u0)
    nval, big_psi = _norm_and_cofactor(psi, system.norm_schedule)
    if nval % (q * q) == 0:
        psi = psi + q
        nval, big_psi = _norm_and_cofactor(psi, system.norm_schedule)
    return psi, big_psi, nval


def divisibility_step(x, K, mu: int) -> bool:
    """Kummer's test at level mu, literally: q^mu divides every coefficient
    of the element product x * Psi^mu.  The reference for
    valuation.multiplicity, which divides by q one coefficient at a time."""
    return (x * K.psi_conjugates**mu).content_divisible_by(K.map.p**mu)


def divmod_exact(f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """Polynomial division by a monic g over the integers.

    Nothing in the library divides by a general polynomial: the tests keep
    this as the independent reference for `CyclotomicRing._reduce` and
    `QuadOrder._reduce`.
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


def reduce_from_top(ring, coeffs) -> tuple[int, ...]:
    """The residue of coeffs mod Phi_n, padded to length phi(n), cleared
    one position at a time: the reference for CyclotomicRing._reduce,
    which clears whole blocks first at composite n.

    Fold mod X^(n/2) + 1 (even n) or X^n - 1 (odd n), then clear every
    position from the top of the fold down to phi(n) against Phi_n.
    """
    n = ring.n
    m, sign = (n // 2, -1) if n % 2 == 0 else (n, 1)
    folded = list(coeffs[:m])
    folded += [0] * (m - len(folded))
    s = 1
    for start in range(m, len(coeffs), m):
        s *= sign
        for i, c in enumerate(coeffs[start : start + m]):
            folded[i] += s * c
    modulus = ring.modulus
    d = len(modulus) - 1
    for k in range(m - 1, d - 1, -1):
        c = folded[k]
        if c:
            for i, b in enumerate(modulus):
                folded[k - d + i] -= c * b
    return tuple(folded[:d])


def standard_lattice(dim: int) -> IntLattice:
    """Z^dim itself, the unit ideal."""
    return IntLattice([[int(i == j) for j in range(dim)] for i in range(dim)])


def principal_lattice(v, order) -> IntLattice:
    """The lattice v * O for an order element v (v must be a nonzerodivisor)."""
    return IntLattice(mul_matrix(order, v))


def colon(lattice: IntLattice, v, order) -> IntLattice:
    """The colon lattice {delta : v * delta in L}, in canonical form."""
    if len(v) != lattice.dim or order.degree != lattice.dim:
        raise ValueError("dimension mismatch")
    nmat = mul_matrix(order, v)
    return IntLattice([r[: len(v)] for r in _relations(nmat, lattice.rows)])


def kernel_mod(nmat: list[list[int]], q: int) -> IntLattice:
    """The lattice {x in Z^d : x @ N == 0 mod q} for a d x m integer N and
    any q >= 1: the first d entries of the relations of [N; q I].  The
    reference for lattice.kernel_mod, which takes the columns of N and a
    prime q and row-reduces them over F_q."""
    d, m = len(nmat), len(nmat[0])
    target = [[q * int(i == j) for j in range(m)] for i in range(m)]
    return IntLattice([r[:d] for r in _relations(nmat, target)])


def map_of_factor(ring, p: int, factor) -> JacobiMap:
    """The map onto F_p[X]/(F), theta going to the least root of F in the
    Frobenius orbit of X, stepped by the matrix of x -> x^p: the reference
    for the maps read off a power table (Z[alpha]) and off the powers of X
    (quadratic orders)."""
    factor = tuple(factor)
    f = len(factor) - 1
    x = gf_mod([0, 1], factor, p)
    orbit = [tuple(x + [0] * (f - len(x)))]
    if f > 1:
        x_p = gf_pow_mod([0, 1], p, factor, p)
        frobenius = power_columns(x_p, f, factor, p)
        for _ in range(f - 1):
            orbit.append(image(orbit[-1], frobenius, p))
    xi = trim(list(min(orbit)))
    return JacobiMap(ring, p, factor, power_columns(xi, ring.degree, factor, p))


def lattice_contains(lattice: IntLattice, vec) -> bool:
    """Whether vec lies in the lattice: each entry in turn is cleared by a
    multiple of its HNF row, which must divide it.  Only the tests ask."""
    v = list(vec)
    if len(v) != lattice.dim:
        raise ValueError("dimension mismatch")
    for i, row in enumerate(lattice.rows):
        q, r = divmod(v[i], row[i])
        if r:
            return False
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def contains_lattice(outer: IntLattice, inner: IntLattice) -> bool:
    if inner.dim != outer.dim:
        raise ValueError("dimension mismatch")
    return all(lattice_contains(outer, r) for r in inner.rows)


def colon_extends_to(kernel: IntLattice, num, den, order) -> bool:
    """The extension test through the canonical colon lattice: the map
    extends to num/den iff colon(den * O, num) is not inside the kernel."""
    ideal = colon(principal_lattice(den, order), num, order)
    return not contains_lattice(kernel, ideal)


def quad_product(order, a, b) -> tuple[int, int]:
    """(x1 + y1 theta)(x2 + y2 theta) with theta^2 = -u theta - v, by the
    closed formula."""
    (x1, y1), (x2, y2) = a, b
    u, v = order.u, order.v
    return (x1 * x2 - v * y1 * y2, x1 * y2 + x2 * y1 - u * y1 * y2)


def schoolbook_reference(f, g) -> list[int]:
    """f * g with one product for every pair of terms, zero or not: the
    reference for polyint.mul, whose loop multiplies only nonzero terms and
    which packs long dense operands."""
    out = [0] * max(len(f) + len(g) - 1, 0)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return trim(out)


def power_rows_reference(root, count: int, factor, m: int) -> list[list[int]]:
    """root^0 .. root^(count-1) in (Z/m)[X]/(F), one polynomial product
    and one division by F per power: transposed, the reference for
    ffield.power_columns."""
    f = len(factor) - 1
    rows = []
    power = [1]
    for _ in range(count):
        rows.append(power + [0] * (f - len(power)))
        power = gf_mod(gf_mul(power, list(root), m), list(factor), m)
    return rows


def lift_by_power_chain(phi, precision: int) -> list[int]:
    """The Teichmueller lift of the map's root xi mod p^M, M the precision,
    as xi^(p^(f(M-1))): the p-power chain, the reference for
    valuation._lift_columns, which takes Newton steps."""
    m = phi.p**precision
    power = phi.p ** (phi.f * (precision - 1))
    return gf_pow_mod(list(phi.xi), power, list(phi.factor), m)


def transpose(rows, width: int) -> list[list[int]]:
    """The width columns of rows of that length, empty ones if no rows."""
    return [[row[j] for row in rows] for j in range(width)]


def quotient_by_conjugates(d, x):
    """x / d in Z[alpha], or None, through the cofactor of d taken one
    conjugate at a time: the product of sigma_k(d) over k = 2 .. lam - 1,
    lam - 2 ring products.  d * cofactor is norm(d), and x / d is
    x * cofactor / norm(d) when every coefficient divides.  The reference
    for valuation.quotient_and_norm, which takes the cofactor up a tower."""
    cofactor = d.ring.one()
    for k in range(2, d.ring.n):
        cofactor = cofactor * conjugate(d, k)
    nd = (d * cofactor).rational_value()
    y = x * cofactor
    if not y.content_divisible_by(nd):
        return None
    return d.ring.element([c // nd for c in y.coeffs])


def trial_division_reference(
    n: int, bound: int = DEFAULT_TRIAL_DIVISION_BOUND
) -> dict[int, int]:
    """Factor |n| by dividing by 2, 3 and then every 6k - 1 <= bound and its
    partner 6k + 1 while (6k - 1)^2 <= n, one candidate at a time: the
    reference for arith.factorize_int, which sieves the candidates in
    segments.  Division stops at a cofactor below _MR_PROOF_LIMIT that the
    primality test proves prime, as there.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    proven = n < _MR_PROOF_LIMIT and is_prime(n)
    while not proven and d <= bound and d * d <= n:
        for p in (d, d + 2):
            if n % p == 0:
                while n % p == 0:
                    out[p] = out.get(p, 0) + 1
                    n //= p
                proven = n < _MR_PROOF_LIMIT and is_prime(n)
        d += 6
    if n > 1:
        if proven or d * d > n or is_prime(n):
            out[n] = out.get(n, 0) + 1
        else:
            raise FactorizationError(
                f"cofactor {n} is composite and exceeds the trial-division "
                f"bound {bound}"
            )
    return out


def field_sqrt_reference(order, d0, d1):
    """A square root of d0 + d1 theta in Q(theta), or None, by solving
    (x + y theta)^2 = delta as a quadratic in y^2 with rational
    coefficients: the reference for quadorder._field_sqrt, which reads the
    root off delta's trace and norm."""
    u, v = order.u, order.v
    if d1 == 0:
        x = _rational_sqrt(d0)
        if x is not None:
            return (x, Fraction(0))
        # fall through: delta may still be a square with y != 0
    disc = Fraction(u * u - 4 * v)
    a2 = disc
    a1 = 2 * u * d1 - 4 * d0
    a0 = d1 * d1
    inner = a1 * a1 - 4 * a2 * a0
    root = _rational_sqrt(inner)
    if root is None:
        return None
    for sign in (1, -1):
        z = (-a1 + sign * root) / (2 * a2)
        y = _rational_sqrt(z)
        if y is None or y == 0:
            continue
        x = (d1 + u * y * y) / (2 * y)
        if (x * x - v * y * y, 2 * x * y - u * y * y) == (d0, d1):
            return (x, y)
    return None
