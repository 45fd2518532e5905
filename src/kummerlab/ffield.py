"""Ring maps out of Z[X] into (Z/m)[X]/(F), given by their power columns.

A map that sends X to a root r is fixed by the images of 1, r, ..., r^(n-1).
Their coordinates over the basis 1, X, ..., X^(f-1) of (Z/m)[X]/(F),
f = deg F, form f columns of length n, and every read of the map is a dot
product with those columns: image gives all f coordinates of one vector,
vanishes asks whether a list of vectors all map to 0 and stops at the first
nonzero coordinate, and zero_images asks it of each vector of a batch
under each of several maps, one packed big-integer product per column.
For m = p prime and F irreducible this is a map into the field F_{p^f},
and its kernel is lattice.kernel_mod of the columns; at f = 1 the single
column holds the integer powers of r mod m.
"""

from array import array
from operator import mul

from kummerlab.polyint import narrowest_word, pack_words, unpack_words
from kummerlab.polymod import gf_mod


def power_columns(root, count: int, factor, m: int) -> list[list[int]]:
    """The f coordinate columns of root^0 .. root^(count-1) in
    (Z/m)[X]/(F): column j holds the X^j coefficient of every power.

    root is a coefficient list and F a monic integer polynomial.  Row i of
    the f x f matrix of multiplication by the root is X^i * root mod F, each
    row one shift of the last with its top coefficient folded back by F.
    Each power is then the last one times that matrix: f^2 products and no
    polynomial division.  At f = 1 it is simply v = v * r mod m, and for
    the root X each power is the last one shifted and folded: f products.
    """
    f = len(factor) - 1

    def times_x(v):
        top = v[-1]
        return [(a - top * c) % m for a, c in zip([0, *v[:-1]], factor)]

    row = gf_mod(list(root), list(factor), m)
    row += [0] * (f - len(row))
    if f == 1:
        r = row[0]
        column, v = [], 1
        for _ in range(count):
            column.append(v)
            v = v * r % m
        return [column]
    step = times_x
    if row != times_x([1] + [0] * (f - 1)):
        matrix = [row]
        for _ in range(f - 1):
            matrix.append(times_x(matrix[-1]))
        columns = list(zip(*matrix))
        step = lambda v: [sum(map(mul, v, column)) % m for column in columns]
    powers = []  # the coordinates of every power, one after the other
    v = [1] + [0] * (f - 1)
    for _ in range(count):
        powers += v
        v = step(v)
    return [powers[j::f] for j in range(f)]


def image(coeffs, columns, m: int) -> tuple[int, ...]:
    """The coordinates mod m of the image of coeffs: one dot product per
    column."""
    return tuple(sum(map(mul, coeffs, column)) % m for column in columns)


def vanishes(vectors, columns, m: int) -> bool:
    """Whether every vector's image is 0 mod m, read one coordinate at a
    time up to the first nonzero one."""
    for v in vectors:
        for column in columns:
            if sum(map(mul, v, column)) % m:
                return False
    return True


def zero_images(vectors, reads) -> list[list[int]]:
    """For each read (columns, m), the indices of the vectors, all of one
    length n, whose image is 0 mod m under every column.

    The batch is packed once per word size (polyint.pack_words): entry j of
    vector i is word i n + j, offset by B, the batch's largest |entry|, so
    every word lies in [0, 2B].  A column, reduced to c_j in [0, m) and
    reversed, packs to n words, and word i n + n - 1 of the product is
    sum_j (v_ij + B) c_j = v_i . c + B sum c.  No word of the product
    carries: each is a sum of terms (v + B) c_j with distinct j, at most
    2B sum c, and the word is taken above that bound, which is at least the
    batch's own 2B when c is not 0.  So vector i reads 0 under c iff its
    word = B sum c mod m.  A column whose bound needs more than 64 bits is
    dotted with each remaining vector instead.
    """
    n = len(vectors[0]) if vectors else 0
    offset = max((abs(a) for v in vectors for a in v), default=0)
    packed = {}  # typecode -> the packed batch
    out = []
    for columns, m in reads:
        alive = range(len(vectors))
        for column in columns:
            if not alive:
                break
            c = [a % m for a in column]
            if not any(c):  # every vector reads 0
                continue
            total = sum(c)
            bound = 2 * offset * total
            if bound >> 64:
                alive = [i for i in alive if not sum(map(mul, vectors[i], c)) % m]
                continue
            _, code = narrowest_word(bound)
            if code not in packed:
                flat = array(code, [a + offset for v in vectors for a in v])
                packed[code] = pack_words(flat)
            product = packed[code] * pack_words(array(code, c[::-1]))
            words = unpack_words(product, code, len(vectors) * n + n - 1)[n - 1 :: n]
            target = offset * total % m
            alive = [i for i in alive if (words[i] - target) % m == 0]
        out.append(list(alive))
    return out
