"""Ring maps out of Z[X] into (Z/m)[X]/(F), given by their power rows.

A map that sends X to a root r is fixed by the images of 1, r, ..., r^(n-1),
so their coordinate rows over the basis 1, X, ..., X^(f-1) of
(Z/m)[X]/(F), f = deg F, are the whole map: applying it to a coefficient
vector is a row-vector product, and its kernel is the kernel of the rows.
For m = p prime and F irreducible this is a map into the field F_{p^f};
at f = 1 the rows are the integer powers of r mod m.
"""

from operator import mul

from kummerlab.polymod import gf_mod, gf_mul


def power_rows(root, count: int, factor, m: int) -> list[list[int]]:
    """root^0 .. root^(count-1) in (Z/m)[X]/(F) as length-f coordinate rows.

    root is a coefficient list and F a monic integer polynomial.
    """
    f = len(factor) - 1
    rows = []
    power = [1]
    for _ in range(count):
        rows.append(power + [0] * (f - len(power)))
        power = gf_mod(gf_mul(power, root, m), factor, m)
    return rows


def image(coeffs, rows, m: int) -> tuple[int, ...]:
    """The coordinates mod m of sum_i coeffs[i] * rows[i]."""
    return tuple(sum(map(mul, coeffs, column)) % m for column in zip(*rows))
