"""Jacobi maps: the surjective homomorphisms Z[alpha] -> F_{p^f}.

For an odd prime conductor lam and a rational prime p, each irreducible
factor P_j of Phi_lam mod p yields one map: the target field is
F_p[X]/(P_j) itself and alpha goes to a root of P_j in it.  The kernel of
such a map is a maximal ideal of Z[alpha] -- an ideal prime of p.  Maps
with equal kernels are identified; each map carries a canonical root label,
the smallest element of the Frobenius orbit of its root.  A map is stored
as the F_p-coordinate rows of the powers of that root (ffield.power_rows):
applying it is a row-vector product, and its kernel is kernel_mod of the
rows.

Degree-1 maps are constructed as Jacobi did, without factoring: for
p = 1 mod lam, z = a^((p-1)/lam) mod p with a >= 2 least such that z != 1
is a primitive lam-th root of unity, and the maps send alpha to z^k,
k = 1 .. lam-1.  For p = lam there is a single map, alpha -> 1 in F_lam.
Only primes of residue degree f > 1 go through factor_mod_p.
"""

from functools import lru_cache
from itertools import count

from kummerlab.arith import is_prime, multiplicative_order
from kummerlab.cyclotomic import (
    CyclotomicElement,
    PeriodSystem,
    cyclotomic_ring,
)
from kummerlab.ffield import image, power_rows
from kummerlab.lattice import IntLattice, kernel_mod
from kummerlab.polyint import cyclotomic_polynomial
from kummerlab.polymod import factor_mod_p, gf_mod, gf_pow_mod


class JacobiMap:
    """A surjective ring homomorphism Z[alpha] -> F_{p^f} = F_p[X]/(F).

    alpha goes to xi, the canonical root; rows holds the F_p-coordinates
    of xi^0 .. xi^(lam-2), which are the whole map.
    """

    __slots__ = ("lam", "p", "f", "factor", "xi", "rows", "ring")

    def __init__(self, lam: int, p: int, factor: tuple[int, ...]):
        self.lam = lam
        self.p = p
        self.factor = tuple(factor)
        self.f = len(factor) - 1
        self.ring = cyclotomic_ring(lam)
        orbit = [gf_mod([0, 1], self.factor, p)]
        for _ in range(self.f - 1):
            orbit.append(gf_pow_mod(orbit[-1], p, self.factor, p))
        self.xi = tuple(min(orbit, key=lambda e: e + [0] * (self.f - len(e))))
        self.rows = power_rows(self.xi, lam - 1, self.factor, p)

    def apply(self, x: CyclotomicElement) -> tuple[int, ...]:
        """The F_p-coordinates of x's image: x.coeffs times the rows mod p."""
        if x.ring.n != self.lam:
            raise ValueError(
                f"element lives in conductor {x.ring.n}, map expects {self.lam}"
            )
        return image(x.coeffs, self.rows, self.p)

    def kills(self, x: CyclotomicElement) -> bool:
        return not any(self.apply(x))

    def kernel(self) -> IntLattice:
        return _kernel_lattice(self)

    def period_residues(self, system: PeriodSystem) -> tuple[int, ...]:
        """Images of the Gaussian periods; always in the prime field."""
        if system.lam != self.lam:
            raise ValueError("period system has the wrong conductor")
        if system.e * self.f != self.lam - 1:
            raise ValueError(
                f"period count e={system.e} does not match residue degree "
                f"f={self.f}"
            )
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
            return self.xi[0]
        return list(self.xi)

    def __eq__(self, other):
        return (
            isinstance(other, JacobiMap)
            and (self.lam, self.p, self.factor)
            == (other.lam, other.p, other.factor)
        )

    def __hash__(self):
        return hash((self.lam, self.p, self.factor))

    def __repr__(self):
        return f"JacobiMap(lam={self.lam}, p={self.p}, xi={self.label()})"


@lru_cache(maxsize=None)
def _kernel_lattice(phi: JacobiMap) -> IntLattice:
    lattice = kernel_mod(phi.rows, phi.p)
    if lattice.index() != phi.p**phi.f:
        raise AssertionError("kernel index must be p^f")
    return lattice


def check_conductor(lam: int) -> None:
    """Reject a conductor other than an odd prime: ideal primes need one."""
    if not is_prime(lam) or lam == 2:
        raise ValueError(f"conductor {lam} must be an odd prime")


def enumerate_jacobi_maps(lam: int, p: int) -> list[JacobiMap]:
    """All Jacobi maps out of Z[alpha] for the prime p, in canonical order.

    For p = lam there is exactly one (alpha -> 1); otherwise one per
    irreducible factor of Phi_lam mod p, which is (lam-1)/f maps of residue
    degree f = order of p mod lam.  The order is factor_mod_p's: by degree,
    then by factor coefficients, so degree-1 maps X - r come by p - r.
    """
    check_conductor(lam)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == lam:
        factors = [(p - 1, 1)]
    elif p % lam == 1:
        # Jacobi's root: z^lam = a^(p-1) = 1 and z != 1, so z has order lam
        powers = (pow(a, (p - 1) // lam, p) for a in count(2))
        z = next(w for w in powers if w != 1)
        factors = sorted((p - pow(z, k, p), 1) for k in range(1, lam))
    else:
        factored = factor_mod_p(list(cyclotomic_polynomial(lam)), p)
        factors = [tuple(fac) for fac, _ in factored]
    maps = [JacobiMap(lam, p, fac) for fac in factors]
    if p != lam:
        assert len(maps) == (lam - 1) // multiplicative_order(p, lam)
    return maps


def map_for_root(maps: list[JacobiMap], label) -> JacobiMap:
    """The map whose label() is the given root: an int residue, taken mod p,
    for a degree-1 map, or the root's coefficient list for f > 1."""
    for phi in maps:
        want = label % phi.p if isinstance(label, int) else list(label)
        if phi.label() == want:
            return phi
    xi = label if isinstance(label, int) else ",".join(map(str, label))
    raise ValueError(
        f"no Jacobi map with xi = {xi} for lambda={maps[0].lam}, p={maps[0].p}"
    )
