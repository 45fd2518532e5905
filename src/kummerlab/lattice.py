"""Full-rank integer lattices in Hermite normal form.

Lattices are row lattices: a basis is a list of integer row vectors.  The
canonical form is upper triangular with positive pivots on the diagonal and
the entries above each pivot reduced into [0, pivot).  Two bases of the same
lattice always produce the identical canonical matrix, so lattice equality
is matrix equality.

Orders (rings with a distinguished Z-basis) enter through structure-constant
tables: ``table[i][j]`` is the coordinate vector of e_i * e_j.  Ideal
arithmetic (products, colon ideals) is done relative to such a table.
"""

MultTable = tuple[tuple[tuple[int, ...], ...], ...]


def _triangularize(rows: list[list[int]], transform: list[list[int]] | None):
    """In-place upper triangularization by unimodular row operations.

    Returns the list of pivot row indices per column (None if no pivot).
    """
    n = len(rows[0])
    cur = 0
    pivots: list[int | None] = []
    for col in range(n):
        # Euclidean elimination within column `col` on rows cur..end.
        while True:
            best = None
            for r in range(cur, len(rows)):
                if rows[r][col] != 0 and (
                    best is None or abs(rows[r][col]) < abs(rows[best][col])
                ):
                    best = r
            if best is None:
                pivots.append(None)
                break
            rows[cur], rows[best] = rows[best], rows[cur]
            if transform is not None:
                transform[cur], transform[best] = transform[best], transform[cur]
            done = True
            for r in range(cur + 1, len(rows)):
                if rows[r][col] != 0:
                    q = rows[r][col] // rows[cur][col]
                    rows[r] = [a - q * b for a, b in zip(rows[r], rows[cur])]
                    if transform is not None:
                        transform[r] = [
                            a - q * b for a, b in zip(transform[r], transform[cur])
                        ]
                    if rows[r][col] != 0:
                        done = False
            if done:
                if rows[cur][col] < 0:
                    rows[cur] = [-a for a in rows[cur]]
                    if transform is not None:
                        transform[cur] = [-a for a in transform[cur]]
                pivots.append(cur)
                cur += 1
                break
    return pivots


def _reduce_above(rows: list[list[int]], rank: int) -> None:
    for i in range(rank):
        piv = rows[i][i]
        for k in range(i):
            q = rows[k][i] // piv
            if q:
                rows[k] = [a - q * b for a, b in zip(rows[k], rows[i])]


class IntLattice:
    """Full-rank sublattice of Z^d, held as its canonical HNF basis."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows, _canonical: bool = False):
        rows = [list(r) for r in rows]
        if not rows:
            raise ValueError("empty generating set")
        self.dim = len(rows[0])
        if any(len(r) != self.dim for r in rows):
            raise ValueError("generators have mixed dimensions")
        if _canonical:
            self.rows = tuple(tuple(r) for r in rows)
            return
        pivots = _triangularize(rows, None)
        if any(p is None for p in pivots):
            raise ValueError("generators do not span a full-rank lattice")
        rows = rows[: self.dim]
        _reduce_above(rows, self.dim)
        self.rows = tuple(tuple(r) for r in rows)

    @classmethod
    def standard(cls, dim: int) -> "IntLattice":
        return cls([[int(i == j) for j in range(dim)] for i in range(dim)])

    @classmethod
    def scaled_standard(cls, dim: int, c: int) -> "IntLattice":
        return cls([[c * int(i == j) for j in range(dim)] for i in range(dim)])

    def index(self) -> int:
        """Index [Z^d : L] = product of the HNF diagonal."""
        out = 1
        for i in range(self.dim):
            out *= self.rows[i][i]
        return out

    def __contains__(self, vec) -> bool:
        v = list(vec)
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        for i in range(self.dim):
            piv = self.rows[i][i]
            if v[i] % piv != 0:
                return False
            q = v[i] // piv
            if q:
                v = [a - q * b for a, b in zip(v, self.rows[i])]
        return not any(v)

    def contains_lattice(self, other: "IntLattice") -> bool:
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return all(r in self for r in other.rows)

    def product(self, other: "IntLattice", table: MultTable) -> "IntLattice":
        """Lattice generated by all pairwise products under the order's table."""
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        gens = [
            multiply_coords(a, b, table) for a in self.rows for b in other.rows
        ]
        return IntLattice(gens)

    def power(self, e: int, table: MultTable) -> "IntLattice":
        if e < 0:
            raise ValueError("negative lattice power")
        out = IntLattice.standard(self.dim)
        for _ in range(e):
            out = out.product(self, table)
        return out

    def colon(self, v, table: MultTable) -> "IntLattice":
        """The colon lattice {delta : v * delta in L}."""
        d = self.dim
        if len(list(v)) != d or len(table) != d:
            raise ValueError("dimension mismatch")
        return _preimage(multiplication_matrix(v, table), self.rows)

    def transformed(self, func) -> "IntLattice":
        """Image lattice under a Z-linear map given on coordinate rows."""
        return IntLattice([func(r) for r in self.rows])

    def __eq__(self, other) -> bool:
        return isinstance(other, IntLattice) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"IntLattice({[list(r) for r in self.rows]})"


def hnf(rows) -> IntLattice:
    """Canonical Hermite normal form of a full-rank generating set."""
    return IntLattice(rows)


def multiply_coords(a, b, table: MultTable) -> list[int]:
    """Coordinates of the product of two order elements given by coordinates."""
    d = len(table)
    out = [0] * d
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    row = table[i][j]
                    c = ai * bj
                    for k in range(d):
                        if row[k]:
                            out[k] += c * row[k]
    return out


def multiplication_matrix(v, table: MultTable) -> list[list[int]]:
    """Rows are the coordinates of v * e_i, so x -> x @ M is multiplication by v."""
    d = len(table)
    unit = [0] * d
    rows = []
    for i in range(d):
        unit[i] = 1
        rows.append(multiply_coords(v, unit, table))
        unit[i] = 0
    return rows


def principal_lattice(v, table: MultTable) -> IntLattice:
    """The lattice v * O for an order element v (v must be a nonzerodivisor)."""
    return IntLattice(multiplication_matrix(v, table))


def _preimage(nmat, target_rows) -> IntLattice:
    """The lattice {x in Z^d : x @ N in span_Z(target_rows)} for a d x m N.

    The transform rows that clear the stacked matrix [N; T] are exactly the
    relations x @ N + y @ T = 0, so their first d entries span the preimage.
    """
    d = len(nmat)
    stacked = [list(r) for r in nmat] + [list(r) for r in target_rows]
    total = len(stacked)
    transform = [[int(i == j) for j in range(total)] for i in range(total)]
    _triangularize(stacked, transform)
    return IntLattice(
        [transform[r][:d] for r in range(total) if not any(stacked[r])]
    )


def kernel_mod(nmat: list[list[int]], q: int) -> IntLattice:
    """The lattice {x in Z^d : x @ N == 0 mod q} for a d x m integer N."""
    m = len(nmat[0])
    target = [[q * int(i == j) for j in range(m)] for i in range(m)]
    return _preimage(nmat, target)
