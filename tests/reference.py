"""Reference routes that several test modules compare the library with.

Nothing in the package uses them, so they live with the tests.
"""

from kummerlab.cyclotomic import conjugate, gaussian_periods
from kummerlab.lattice import IntLattice, _mul_matrix, _preimage
from kummerlab.polyint import degree, trim
from kummerlab.polymod import gf_mod, gf_mul
from kummerlab.valuation import _norm_and_cofactor


def counts_reference(chi, i: int, k: int) -> list[int]:
    """N_e = #{t in 2 .. p-1 : i ind t + k ind(1-t) = e mod lam}, one step
    per t over the discrete-log table: the reference for charsum._counts,
    which forms every i ind t + k ind(1-t) in one packed multiply-add."""
    lam, p, index = chi.lam, chi.p, chi.index
    counts = [0] * lam
    # 1 - t = p + 1 - t mod p: as t runs up from 2, 1 - t runs down from p - 1
    for a, b in zip(index[2:p], index[p - 1 : 1 : -1]):
        counts[(i * a + k * b) % lam] += 1
    return counts


def uniformizer_by_tower(phi):
    """psi, Psi and the period norm psi * Psi of a map of residue degree 1,
    Psi and the norm taken up the period system's subgroup tower: the
    reference for the synthetic division of valuation.find_uniformizer.

    psi = eta_0 - u_0 with u_0 in (-q/2, q/2], and psi + q when q^2 divides
    the norm.
    """
    q = phi.p
    system = gaussian_periods(phi.ring.n, phi.ring.degree)
    u0 = phi.period_residues(system)[0]
    psi = system.periods[0] - (u0 - q if 2 * u0 > q else u0)
    nval, big_psi = _norm_and_cofactor(psi, system.norm_schedule)
    if nval % (q * q) == 0:
        psi = psi + q
        nval, big_psi = _norm_and_cofactor(psi, system.norm_schedule)
    return psi, big_psi, nval


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
    return IntLattice(order.mul_matrix(v))


def colon(lattice: IntLattice, v, order) -> IntLattice:
    """The colon lattice {delta : v * delta in L}, in canonical form."""
    if len(v) != lattice.dim:
        raise ValueError("dimension mismatch")
    nmat = _mul_matrix(order, v, lattice.dim)
    return IntLattice(_preimage(nmat, lattice.rows))


def contains_lattice(outer: IntLattice, inner: IntLattice) -> bool:
    if inner.dim != outer.dim:
        raise ValueError("dimension mismatch")
    return all(r in outer for r in inner.rows)


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


def power_rows_reference(root, count: int, factor, m: int) -> list[list[int]]:
    """root^0 .. root^(count-1) in (Z/m)[X]/(F), one polynomial product
    and one division by F per power: the reference for ffield.power_rows."""
    f = len(factor) - 1
    rows = []
    power = [1]
    for _ in range(count):
        rows.append(power + [0] * (f - len(power)))
        power = gf_mod(gf_mul(power, list(root), m), list(factor), m)
    return rows


def quotient_by_conjugates(d, x):
    """x / d in Z[alpha], or None, through the cofactor of d taken one
    conjugate at a time: the product of sigma_k(d) over k = 2 .. lam - 1,
    lam - 2 ring products.  d * cofactor is norm(d), and x / d is
    x * cofactor / norm(d) when every coefficient divides.  The reference
    for valuation.exact_quotient, which takes the cofactor up a tower."""
    cofactor = d.ring.one()
    for k in range(2, d.ring.n):
        cofactor = cofactor * conjugate(d, k)
    nd = (d * cofactor).rational_value()
    y = x * cofactor
    if not y.content_divisible_by(nd):
        return None
    return d.ring.element([c // nd for c in y.coeffs])
