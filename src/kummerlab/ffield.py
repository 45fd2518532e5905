"""Ring maps out of Z[X] into (Z/m)[X]/(F), given by their power rows.

A map that sends X to a root r is fixed by the images of 1, r, ..., r^(n-1),
so their coordinate rows over the basis 1, X, ..., X^(f-1) of
(Z/m)[X]/(F), f = deg F, are the whole map, and its kernel is the kernel of
the rows.  Applying it to a coefficient vector is one dot product with each
of the f columns of those rows, so a caller that applies a map more than
once transposes its rows once and keeps the columns.
For m = p prime and F irreducible this is a map into the field F_{p^f};
at f = 1 the rows are the integer powers of r mod m.
"""

from operator import mul

from kummerlab.polymod import gf_mod


def power_rows(root, count: int, factor, m: int) -> list[list[int]]:
    """root^0 .. root^(count-1) in (Z/m)[X]/(F) as length-f coordinate rows.

    root is a coefficient list and F a monic integer polynomial.  Row i of
    the f x f matrix of multiplication by the root is X^i * root mod F, each
    row one shift of the last with its top coefficient folded back by F.
    Each power is then the last one times that matrix: f^2 products and no
    polynomial division, and at f = 1 simply v = v * r mod m.
    """
    f = len(factor) - 1
    row = gf_mod(list(root), list(factor), m)
    row += [0] * (f - len(row))
    if f == 1:
        r = row[0]
        rows, v = [], 1
        for _ in range(count):
            rows.append([v])
            v = v * r % m
        return rows
    matrix = []
    for _ in range(f):
        matrix.append(row)
        top = row[-1]
        row = [(a - top * c) % m for a, c in zip([0, *row[:-1]], factor)]
    columns = list(zip(*matrix))
    rows = []
    v = [1] + [0] * (f - 1)
    for _ in range(count):
        rows.append(v)
        v = [sum(map(mul, v, column)) % m for column in columns]
    return rows


def image(coeffs, columns, m: int) -> tuple[int, ...]:
    """The coordinates mod m of sum_i coeffs[i] * rows[i], given the columns
    of the rows: one dot product per column."""
    return tuple(sum(map(mul, coeffs, column)) % m for column in columns)
