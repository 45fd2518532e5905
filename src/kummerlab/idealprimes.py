"""Jacobi maps: the surjective homomorphisms Z[theta] -> F_{p^f}.

A ring here is Z[theta] with theta a root of a monic integer polynomial,
its modulus (Phi_lam for Z[alpha], T^2 + uT + v for a quadratic order),
and elements are coefficient vectors over 1, theta, ..., theta^(d-1).
For a rational prime p, each irreducible factor P_j of the modulus mod p
yields one map: the target field is F_p[X]/(P_j) itself and theta goes to
a root of P_j in it.  Maps with equal kernels are identified; each map
carries a canonical root label, the smallest element of the Frobenius
orbit of its root.  A map is the f F_p-coordinate columns of the powers
of that root and nothing else: its root is entry 1 of the columns, and
every read of it is ffield's: apply is image, and kills and
quadorder.dichotomy_check's read of a colon ideal are vanishes, which
stops at the first nonzero coordinate.  Its kernel is lattice.kernel_mod
of the columns.  For Z[alpha], lam an odd prime, the kernel is a maximal
ideal -- an ideal prime of p.

The maps of each (lam, p) are built once per process, in a bounded cache,
and handed out as a tuple.  Every map of Z[alpha] is read off one power
table: w^lam = 1 in its field, alpha goes to w^s, and the table t of
w^0 .. w^(lam-1) sends alpha^j to t[sj mod lam].  Degree-1 maps are
constructed as Jacobi did, without factoring: for p = 1 mod lam,
z = a^((p-1)/lam) mod p with a >= 2 least such that z != 1 has order lam,
w = z, s = k for the map alpha -> z^k, k = 1 .. lam-1, and t the powers
of z.  For p = lam the one map is alpha -> 1 in F_lam, and t is all ones.
A map of degree f > 1 onto F_p[X]/(F) takes w = X (F divides X^lam - 1)
and X^s the least of the Frobenius orbit X^(p^j mod lam), j < f.  Both
tables come from ffield.power_columns.
Maps of residue degree f > 1 come from Kummer's period congruences and
his conjugate primes: with e = (lam-1)/f, p splits completely in the field
of the e Gaussian periods of length f, so their period polynomial
prod (Y - eta_i), held by the period system (cyclotomic.gaussian_periods),
has all its roots in F_p.  One root u (polymod.gf_root, one branch of an
equal-degree split) gives F_1 = gcd(Phi_lam, eta_0(X) - u),
one factor of Phi_lam mod p unless u is a repeated root, and then the
first factor that factor_mod_p finds in it.  The other factors are its
conjugates: for each other coset s<p> of (Z/lam)^*, F_s is the minimal
polynomial of X^s mod F_1, one relation among columns of the power table
of X mod F_1, read off lattice.kernel_mod.  Only that repeated-root gcd
and, in quadorder.enumerate_quad_maps, the modulus of a quadratic order
go through factor_mod_p.
A map's period_residues() are these u: its images of the e periods of its
own residue degree, the map restricted to the period ring.
"""

from collections.abc import Sequence
from functools import lru_cache
from itertools import count

from kummerlab.arith import check_prime, multiplicative_order
from kummerlab.cyclotomic import check_conductor, check_ring, cyclotomic_ring
from kummerlab.cyclotomic import gaussian_periods
from kummerlab.ffield import image, power_columns, vanishes
from kummerlab.lattice import IntLattice, kernel_mod
from kummerlab.polyint import trim
from kummerlab.polymod import factor_mod_p, gf_gcd, gf_normalize, gf_root


class JacobiMap:
    """A surjective ring homomorphism Z[theta] -> F_{p^f} = F_p[X]/(F).

    theta goes to xi, the canonical root.  The F_p-coordinates of
    xi^0 .. xi^(d-1), d = ring.degree, are the whole map; columns holds
    them as the f length-d vectors that every read of the map dots, and
    xi is read off them.  The maps of Z[alpha] take their columns from a
    power table (_table_map), those of quadratic orders from
    ffield.power_columns of X (quadorder.enumerate_quad_maps).
    """

    __slots__ = ("ring", "p", "f", "factor", "columns")

    def __init__(self, ring, p: int, factor: tuple[int, ...], columns: list):
        self.ring = ring
        self.p = p
        self.factor = factor
        self.f = len(factor) - 1
        self.columns = columns

    @property
    def xi(self) -> tuple[int, ...]:
        """theta's image, the coordinates of xi^1 without trailing zeros."""
        return tuple(trim([column[1] for column in self.columns]))

    def apply(self, x) -> tuple[int, ...]:
        """The F_p-coordinates of x's image."""
        check_ring(x, self.ring)
        return image(x.coeffs, self.columns, self.p)

    def kills(self, x) -> bool:
        """Whether x's image is 0."""
        check_ring(x, self.ring)
        return vanishes((x.coeffs,), self.columns, self.p)

    def kernel(self) -> IntLattice:
        """The kernel of the map in HNF, built on each call."""
        lattice = kernel_mod(self.columns, self.p)
        if lattice.index() != self.p**self.f:
            raise AssertionError("kernel index must be p^f")
        return lattice

    def period_residues(self) -> tuple[int, ...]:
        """Images of the e = (lam - 1) / f Gaussian periods of Z[alpha]:
        the map restricted to the period ring, in which p splits completely
        (p != lam), so every image lies in the prime field."""
        system = gaussian_periods(self.ring.n, self.ring.degree // self.f)
        out = []
        for eta in system.periods:
            img = self.apply(eta)
            if any(img[1:]):
                raise AssertionError("period image must lie in the prime field")
            out.append(img[0])
        return tuple(out)

    def label(self):
        """Canonical printable identity: root residue (f=1) or coefficients."""
        if self.f == 1:
            return self.columns[0][1]
        return list(self.xi)

    def __eq__(self, other):
        return (
            isinstance(other, JacobiMap)
            and (self.ring, self.p, self.factor)
            == (other.ring, other.p, other.factor)
        )

    def __hash__(self):
        return hash((self.ring, self.p, self.factor))

    def __repr__(self):
        return f"JacobiMap({self.ring!r}, p={self.p}, xi={self.label()})"


@lru_cache(maxsize=512)
def enumerate_jacobi_maps(lam: int, p: int) -> tuple[JacobiMap, ...]:
    """All Jacobi maps out of Z[alpha] for the prime p, in canonical order,
    built once per (lam, p).

    For p = lam there is exactly one (alpha -> 1); otherwise one per
    irreducible factor of Phi_lam mod p, which is (lam-1)/f maps of residue
    degree f = order of p mod lam.  The order is factor_mod_p's: by degree,
    then by factor coefficients, so degree-1 maps X - r come by p - r.
    """
    check_conductor(lam)
    check_prime(p)
    ring = cyclotomic_ring(lam)
    if p == lam:
        return (_table_map(ring, p, (p - 1, 1), [[1] * lam], 1),)
    f = multiplicative_order(p, lam)
    if f > 1:
        factors = _period_factors(ring, p, f)
        assert len(factors) == (lam - 1) // f
        orbit = [pow(p, j, lam) for j in range(f)]
        maps = []
        for factor in factors:
            table = power_columns([0, 1], lam, factor, p)
            s = min(orbit, key=lambda r: [column[r] for column in table])
            maps.append(_table_map(ring, p, factor, table, s))
        return tuple(maps)
    # Jacobi's root: z^lam = a^(p-1) = 1 and z != 1, so z has order lam
    powers = (pow(a, (p - 1) // lam, p) for a in count(2))
    z = next(w for w in powers if w != 1)
    table = power_columns([z], lam, (p - z, 1), p)
    maps = [_table_map(ring, p, (p - table[0][k], 1), table, k) for k in range(1, lam)]
    return tuple(sorted(maps, key=lambda phi: phi.factor))


def _table_map(ring, p: int, factor, table, s: int) -> JacobiMap:
    """The map alpha -> w^s, given the f coordinate columns of
    w^0 .. w^(lam-1) in F_p[X]/(F) and w^lam = 1: alpha^j goes to
    w^(sj mod lam), so every column is read off the table."""
    lam = ring.n
    steps = [s * j % lam for j in range(lam - 1)]
    columns = [[column[r] for r in steps] for column in table]
    return JacobiMap(ring, p, tuple(factor), columns)


def _period_factors(ring, p: int, f: int) -> list[tuple[int, ...]]:
    """The factors of Phi_lam mod p, p of order f > 1 mod lam, as Kummer
    found them: one factor and its conjugates.

    For a root u of the period polynomial mod p, gcd(Phi_lam, eta_0(X) - u)
    is the product of the factors whose maps send eta_0 to u; it is one
    factor F_1 unless u is a repeated root, and then F_1 is its first
    factor.  In F_p[X]/(F_1), X^s is a root of F_s, the conjugate factor
    for the coset s<p> in (Z/lam)^*: its coordinates and those of its
    first f powers, t[sk mod lam] for k = 0 .. f in the power table t of X,
    have one relation, the first row of their kernel mod p (constant entry
    1), which is F_s scaled.
    """
    lam = ring.n
    modulus = gf_normalize(list(ring.modulus), p)
    e = (lam - 1) // f
    if e == 1:
        return [tuple(modulus)]
    system = gaussian_periods(lam, e)
    u = gf_root(list(system.polynomial), p)
    eta0 = system.periods[0].coeffs
    first = gf_gcd(modulus, gf_normalize([eta0[0] - u, *eta0[1:]], p), p)
    if len(first) - 1 > f:  # u is a repeated root: the gcd holds several factors
        first = factor_mod_p(first, p)[0][0]
    table = power_columns([0, 1], lam, first, p)
    orbit = [pow(p, j, lam) for j in range(f)]
    factors, seen = [tuple(first)], set(orbit)
    for s in range(2, lam):
        if s not in seen:
            seen.update(s * r % lam for r in orbit)
            powers = [[column[s * k % lam] for k in range(f + 1)] for column in table]
            relation = kernel_mod(powers, p).rows[0]
            inverse = pow(relation[f], -1, p)
            factors.append(tuple(c * inverse % p for c in relation))
    return sorted(factors, key=lambda fac: (len(fac), fac))


def map_for_root(maps: Sequence[JacobiMap], label) -> JacobiMap:
    """The map whose root xi is the given label: an int residue, or the
    root's coefficient list.  Both are taken mod p and a list loses its
    trailing zeros, so [r] and [r, 0] name the degree-1 map with root r."""
    want = [label] if isinstance(label, int) else list(label)
    want = gf_normalize(want, maps[0].p)
    for phi in maps:
        if list(phi.xi) == want:
            return phi
    xi = label if isinstance(label, int) else ",".join(map(str, label))
    raise ValueError(
        f"no Jacobi map with xi = {xi} for lambda={maps[0].ring.n}, p={maps[0].p}"
    )
