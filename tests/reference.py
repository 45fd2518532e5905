"""Reference routes that several test modules compare the library with.

Nothing in the package uses them, so they live with the tests.
"""

from kummerlab.lattice import IntLattice
from kummerlab.polyint import degree, trim


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


def standard_lattice(dim: int) -> IntLattice:
    """Z^dim itself, the unit ideal."""
    return IntLattice([[int(i == j) for j in range(dim)] for i in range(dim)])
