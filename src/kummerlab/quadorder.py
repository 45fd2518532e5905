"""Quadratic orders Z[theta]: where the ideal-prime construction breaks.

theta has monic minimal polynomial T^2 + u T + v, the order's modulus; the
order is Z + Z theta.  A QuadOrder is a ring in the sense the cyclotomic
ring is (degree, modulus, _reduce, element, symbol); _reduce is one Horner
loop, which refuses a parsed residue that outgrows the parser's cap.  Its
elements are cyclotomic.CyclotomicElement objects, so its reduction maps
onto finite fields are idealprimes.JacobiMap objects: theta goes to X in
F_p[X]/(F), F a factor of the modulus mod p, and the map is the columns of
ffield.power_columns of X.  For a non-maximal order the maps at primes
dividing the conductor fail to extend to fractions in either direction,
Gauss's Lemma for monic polynomials fails, and prime-ideal powers collapse
(p^2 = (2) p without p = (2) in Z[sqrt(-3)]).  dichotomy_check is the one
definedness read, for Z[alpha] and quadratic orders alike: it refuses maps
and elements of different rings by cyclotomic.check_ring, solves once per
fraction for the colon rows of both directions, and reads each half
against each map's columns.
"""

from fractions import Fraction

from kummerlab.arith import exact_sqrt, squarefree_decomposition
from kummerlab.cyclotomic import CyclotomicElement, check_ring
from kummerlab.exprparse import COEFFICIENT_BOUND, MAX_COEFFICIENT_DIGITS
from kummerlab.ffield import power_columns, vanishes
from kummerlab.idealprimes import JacobiMap
from kummerlab.lattice import IntLattice, colon_relations, mul_matrix
from kummerlab.polymod import factor_mod_p

_CARRY_LIMIT = 4 * COEFFICIENT_BOUND  # |b| >= 2(2X + S) is |b| - 2S >= 4X


class QuadOrder:
    """The order Z[theta] with theta^2 = -u theta - v."""

    degree = 2
    symbol = "t"

    def __init__(self, u: int, v: int):
        disc = u * u - 4 * v
        if exact_sqrt(disc) is not None:
            raise ValueError("discriminant must not be a perfect square")
        self.u = u
        self.v = v
        self.disc = disc
        self.modulus = (v, u, 1)

    def element(self, coeffs) -> CyclotomicElement:
        if isinstance(coeffs, int):
            coeffs = [coeffs]
        return CyclotomicElement(self, list(coeffs))

    def _reduce(self, coeffs: list[int]) -> tuple[int, int]:
        """The residue a + b theta mod T^2 + uT + v by Horner's rule from the top:
        after c_n .. c_j the pair is the residue of the tail
        C_j(T) = sum_{i >= j} c_i T^(i-j).  A carried b (j >= 1) with |b| >= 2(2X + S),
        X = 10^4000 and S = sum |c_i|, raises OverflowError: the residue then has a
        coefficient of at least X.  For were all below X, at a root r |C_j(r)| <= S if
        |r| < 1, C_j(r) = (C(r) - sum_{i<j} c_i r^i) / r^j is below 2X + S if |r| >= 1,
        and b is C_j(r1) - C_j(r2) over r1 - r2, of size sqrt|disc| >= sqrt 3."""
        slack = 2 * sum(map(abs, coeffs))
        a = b = 0
        for c in reversed(coeffs):
            if abs(b) - slack >= _CARRY_LIMIT:
                raise OverflowError(f"residue over {MAX_COEFFICIENT_DIGITS} digits")
            a, b = c - self.v * b, a - self.u * b
        return a, b

    def __eq__(self, other):
        return isinstance(other, QuadOrder) and (self.u, self.v) == (
            other.u,
            other.v,
        )

    def __hash__(self):
        return hash(("QuadOrder", self.u, self.v))

    def __repr__(self):
        return f"QuadOrder(u={self.u}, v={self.v})"


def enumerate_quad_maps(order: QuadOrder, p: int) -> list[JacobiMap]:
    """One map per root of the modulus mod p (a repeated root yields a
    single map), or one degree-2 map when it stays irreducible, in
    factor_mod_p's order.  theta goes to X, the least of its Frobenius
    orbit {X, -u - X}: at degree 2 its coordinates (0, 1) could tie with
    (-u mod p, p - 1) only at p = 2, u even, where T^2 + v is reducible.
    factor_mod_p refuses a p that is not prime."""
    factored = factor_mod_p(list(order.modulus), p)
    return [
        JacobiMap(order, p, tuple(fac), power_columns([0, 1], 2, fac, p))
        for fac, _ in factored
    ]


def dichotomy_check(
    maps: list[JacobiMap],
    numerator: CyclotomicElement,
    denominator: CyclotomicElement,
) -> list[dict]:
    """Is each map defined at the fraction, at its inverse, or at neither?

    The one definedness read, for any ring a Jacobi map is built on: a map
    extends to num/den iff it kills not all of the colon ideal
    {x : num * x in den * O}.  One dict per map, in order.  Both elements
    must be nonzero and share the maps' ring.  One relation solve gives the
    colon rows of both directions, its x-halves and its y-halves, and each
    map reads them against its columns with ffield.vanishes.  A (False,
    False) outcome witnesses the failure of the valuation dichotomy, which
    happens only at primes dividing the conductor.
    """
    if not any(numerator.coeffs):
        raise ZeroDivisionError("zero numerator")
    order = numerator.ring
    check_ring(denominator, order)
    for phi in maps:
        check_ring(numerator, phi.ring)
    d = order.degree
    relations = colon_relations(numerator.coeffs, denominator.coeffs, order)
    at_fraction = [r[:d] for r in relations]
    at_inverse = [r[d:] for r in relations]
    return [
        {
            "at_fraction": not vanishes(at_fraction, phi.columns, phi.p),
            "at_inverse": not vanishes(at_inverse, phi.columns, phi.p),
        }
        for phi in maps
    ]


def prime_square_anomaly() -> dict:
    """In Z[sqrt(-3)]: p = (2, 1+theta) satisfies p^2 = (2) p yet p != (2).

    In the maximal order Z[(1+sqrt(-3))/2] the phenomenon disappears: the
    minimal polynomial stays irreducible mod 2, so (2) is itself prime.
    """
    order = QuadOrder(0, 3)
    two = IntLattice(mul_matrix(order, [2, 0]))
    p_ideal = IntLattice([[2, 0], [1, 1], [0, 2], [-3, 1]])
    p_squared = p_ideal.product(p_ideal, order)
    two_p = two.product(p_ideal, order)
    maximal = QuadOrder(-1, 1)
    maps_of_two = enumerate_quad_maps(maximal, 2)
    return {
        "p_index": p_ideal.index(),
        "two_index": two.index(),
        "p_squared_index": p_squared.index(),
        "two_p_index": two_p.index(),
        "p_squared_equals_two_p": p_squared == two_p,
        "p_equals_two": p_ideal == two,
        "maximal_order_two_inert": len(maps_of_two) == 1
        and maps_of_two[0].f == 2,
        "holds": p_squared == two_p
        and p_ideal != two
        and len(maps_of_two) == 1
        and maps_of_two[0].f == 2,
    }


def conductor(order: QuadOrder) -> int:
    """Index of the order in the maximal order, from the discriminants."""
    s, d = squarefree_decomposition(order.disc)
    field_disc = d if d % 4 == 1 else 4 * d
    f = exact_sqrt(order.disc // field_disc)
    assert f is not None
    return f


def _rational_sqrt(q: Fraction) -> Fraction | None:
    rn, rd = exact_sqrt(q.numerator), exact_sqrt(q.denominator)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def _field_sqrt(order: QuadOrder, d0: Fraction, d1: Fraction):
    """The square root x + y theta of delta = d0 + d1 theta in Q(theta)
    with y > 0, or x >= 0 when y = 0; None when delta is not a square.

    If s^2 = delta and n = N(s), then Tr delta + 2n = Tr(s)^2 and
    delta + n = s Tr(s).  So n is +-sqrt(N(delta)), and the sign that makes
    Tr delta + 2n a nonzero square t^2 gives s = (delta + n) / t.  If
    neither does, Tr s = 0 and s = w (2 theta + u), whose square is
    w^2 disc: delta is rational and w^2 = delta / disc.
    """
    u, v = order.u, order.v
    root_norm = _rational_sqrt(d0 * d0 - u * d0 * d1 + v * d1 * d1)
    if root_norm is None:
        return None
    for n in (root_norm, -root_norm):
        t = _rational_sqrt(2 * d0 - u * d1 + 2 * n)
        if t:
            x, y = (d0 + n) / t, d1 / t
            break
    else:
        w = _rational_sqrt(d0 / order.disc) if d1 == 0 else None
        if w is None:
            return None
        x, y = u * w, 2 * w
    return (-x, -y) if y < 0 or (y == 0 and x < 0) else (x, y)


def gauss_lemma_check(
    order: QuadOrder, b: CyclotomicElement, c: CyclotomicElement
) -> dict:
    """Reducibility of the monic quadratic T^2 + bT + c over K versus O.

    Over K the polynomial splits iff b^2 - 4c is a square there; over O it
    splits iff the roots additionally have integer coordinates.
    """
    check_ring(b, order)
    check_ring(c, order)
    delta = b * b - 4 * c
    s = _field_sqrt(order, *map(Fraction, delta.coeffs))
    if s is None:
        return {"reducible_over_K": False, "reducible_over_O": False}
    sx, sy = s
    bx, by = b.coeffs
    roots = [((-bx + sgn * sx) / 2, (-by + sgn * sy) / 2) for sgn in (1, -1)]
    in_order = all(
        rx.denominator == 1 and ry.denominator == 1 for rx, ry in roots
    )
    return {
        "reducible_over_K": True,
        "reducible_over_O": in_order,
        "roots": [[str(rx), str(ry)] for rx, ry in roots],
    }


# The catalog: (name, u, v, conductor) of Z[theta], theta^2 = -u theta - v
CATALOG = (
    ("Z[sqrt(-3)]", 0, 3, 2),
    ("Z[sqrt(-5)]", 0, 5, 1),
    ("Z[i]", 0, 1, 1),
    ("Z[2i]", 0, 4, 2),
    ("Z[3i]", 0, 9, 3),
    ("Z[(1+sqrt(5))/2]", -1, -1, 1),
    ("Z[sqrt(5)]", 0, -5, 2),
)
