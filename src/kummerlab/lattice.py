"""Full-rank integer lattices in Hermite normal form.

Lattices are row lattices: a basis is a list of integer row vectors.  The
canonical form is upper triangular with positive pivots on the diagonal and
the entries above each pivot reduced into [0, pivot).  Two bases of the same
lattice always produce the identical canonical matrix, so lattice equality
is matrix equality.

An order Z[T]/(F) of rank d = ``order.degree`` enters only through
``order._reduce`` (the residue mod F): ``mul_matrix(order, v)`` returns
the rows v * theta^i, i < d, so x -> x @ M is multiplication by v.  Ideal
products and the colon ideals ask nothing else of the ring.  One relation
solve of a fraction num/den gives both of its colon ideals: the relations
(x | y) with x * num + y * den = 0 have x-halves spanning (den : num) and
y-halves spanning (num : den).  The solve triangularizes the augmented
matrix [[N; T] | I] on its first d columns, and the relations are the right
parts of the rows past the rank.  quadorder.dichotomy_check, the one caller
of colon_relations, reads both halves against each Jacobi map's columns.
A kernel mod a prime needs no relation solve: kernel_mod writes its HNF
off one row reduction of the columns over F_p.
"""

from operator import mul


def _triangularize(rows: list[list[int]], width: int) -> int:
    """Row echelon form of the first ``width`` columns, in place, by
    unimodular row operations; the entries past ``width`` ride along.

    Returns the rank r: rows[:r] hold the pivots, each positive, and
    rows[r:] are zero on the first ``width`` columns.
    """
    cur = 0
    for col in range(width):
        # Euclidean elimination within column `col` on rows cur..end.
        while True:
            best = None
            for r in range(cur, len(rows)):
                if rows[r][col] != 0 and (
                    best is None or abs(rows[r][col]) < abs(rows[best][col])
                ):
                    best = r
            if best is None:
                break
            rows[cur], rows[best] = rows[best], rows[cur]
            done = True
            for r in range(cur + 1, len(rows)):
                if rows[r][col] != 0:
                    q = rows[r][col] // rows[cur][col]
                    rows[r] = [a - q * b for a, b in zip(rows[r], rows[cur])]
                    if rows[r][col] != 0:
                        done = False
            if done:
                if rows[cur][col] < 0:
                    rows[cur] = [-a for a in rows[cur]]
                cur += 1
                break
    return cur


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

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        if not rows:
            raise ValueError("empty generating set")
        self.dim = len(rows[0])
        if any(len(r) != self.dim for r in rows):
            raise ValueError("generators have mixed dimensions")
        if _triangularize(rows, self.dim) < self.dim:
            raise ValueError("generators do not span a full-rank lattice")
        rows = rows[: self.dim]
        _reduce_above(rows, self.dim)
        self.rows = tuple(tuple(r) for r in rows)

    def index(self) -> int:
        """Index [Z^d : L] = product of the HNF diagonal."""
        out = 1
        for i in range(self.dim):
            out *= self.rows[i][i]
        return out

    def product(self, other: "IntLattice", order) -> "IntLattice":
        """The lattice spanned by all products a * b, a in self, b in other."""
        if other.dim != self.dim or order.degree != self.dim:
            raise ValueError("dimension mismatch")
        gens = []
        for b in other.rows:
            columns = list(zip(*mul_matrix(order, b)))
            gens += [[sum(map(mul, a, col)) for col in columns] for a in self.rows]
        return IntLattice(gens)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntLattice) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"IntLattice({[list(r) for r in self.rows]})"


def mul_matrix(order, v) -> list[tuple[int, ...]]:
    """Coordinate rows of v * theta^i, i < order.degree: row i + 1 is row i
    shifted one place and reduced."""
    rows = [order._reduce(list(v))]
    for _ in range(1, order.degree):
        rows.append(order._reduce([0, *rows[-1]]))
    return rows


def colon_relations(num, den, order) -> list[list[int]]:
    """The relation rows (x | y) of [num * O; den * O], x * num + y * den = 0.

    x runs over {x : num * x in den * O} and y over {y : den * y in
    num * O}, so the x-halves generate the colon ideal (den : num) and the
    y-halves (num : den): both directions of a fraction from one solve.
    """
    if not any(den):
        raise ZeroDivisionError("zero denominator")
    dim = order.degree
    if len(num) != dim or len(den) != dim:
        raise ValueError("dimension mismatch")
    return _relations(mul_matrix(order, num), mul_matrix(order, den))


def _relations(nmat, target_rows) -> list[list[int]]:
    """Generators (x | y) of the relations x @ N + y @ T = 0.

    The rows [N_i | e_i] and [T_j | e_(d+j)] of the augmented matrix
    [[N; T] | I] stay of the form [v @ [N; T] | v] under row operations,
    so once their first d columns are triangularized, the right parts of
    the rows past the rank are the relations: the HNF with transform of
    Cohen, GTM 138, section 2.4.
    """
    stacked = [*nmat, *target_rows]
    width, total = len(stacked[0]), len(stacked)
    rows = [[*r, *(int(i == j) for j in range(total))] for i, r in enumerate(stacked)]
    rank = _triangularize(rows, width)
    return [row[width:] for row in rows[rank:]]


def kernel_mod(columns: list[list[int]], p: int) -> IntLattice:
    """The lattice {x in Z^d : x . c == 0 mod p for every column c}, p prime,
    for m columns of length d.

    Row reduction of the columns mod p, pivots taken from the right, gives
    the HNF: its diagonal is p at the pivots and 1 elsewhere, where the
    column entries lie in the span of those to the right.  A pivot's
    reduced row is 1 there, 0 at the other pivots and at the positions
    right of it, so a free position i has the row e_i minus, at each
    pivot j > i, row j's entry at i, mod p.
    """
    d = len(columns[0])
    todo = [[a % p for a in column] for column in columns]
    pivots = []  # (position, row): the reduced rows
    for j in range(d - 1, -1, -1):
        at = next((n for n, row in enumerate(todo) if row[j]), None)
        if at is None:
            continue
        row = todo.pop(at)
        inverse = pow(row[j], -1, p)
        row = [a * inverse % p for a in row]
        for other in todo + [r for _, r in pivots]:
            c = other[j]
            if c:
                other[:] = [(a - c * b) % p for a, b in zip(other, row)]
        pivots.append((j, row))
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    for j, row in pivots:
        rows[j][j] = p
        for i in range(j):
            rows[i][j] = -row[i] % p
    return IntLattice(rows)
