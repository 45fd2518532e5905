"""Gauss and Jacobi sums, Jacobi's fundamental congruence, and the
prime-ideal support of J(chi, chi).

Jacobi sums live in Z[alpha], alpha a primitive lam-th root of unity.
Gauss sums live in Z[zeta_{lam p}], one cyclotomic ring, with
alpha = zeta^p and the p-th root of unity x = zeta^lam; their lam-th
powers come back down to Z[alpha].

Sign conventions.  Two Jacobi-sum conventions are in circulation; both are
carried explicitly so every report can print both (as J and psi = -J):

  jacobi_sum(chi, i, k) = -sum_t chi^i(t) chi^k(1-t)
  the plain summation   = +sum_t chi^i(t) chi^k(1-t)

The first is the convention used throughout this module (it is the one
whose image under the substitution that sends the root of unity to a
primitive root mod p satisfies the fundamental congruence with a positive
binomial quotient); the second is the plain summation, the value of the
Gauss-sum ratio g_i g_k / g_{i+k}.  They differ only by sign, so every
modulus and valuation statement holds for both.

The characters of every order mod p share one table of discrete logs,
held once, as packed words (_log_table).  The reflection identity
J(chi^i, chi^k) sigma_{-1}(J) = p is read off the autocorrelation of the
counts by its gcd classes, never by reducing J: one pair alone
(reflection_identity), or every pair of a character, a row of pairs with
the same i at once (reflection_products).
"""

from array import array
from collections import namedtuple
from functools import lru_cache
from math import comb

from kummerlab import polyint
from kummerlab.arith import (
    check_prime,
    discrete_log_table,
    exact_sqrt,
    least_primitive_root,
)
from kummerlab.cyclotomic import (
    CyclotomicElement,
    check_conductor,
    conjugate,
    cyclotomic_ring,
    norm,
)


class Character(namedtuple("Character", ["p", "lam", "m", "g", "packed_logs"])):
    """The character of order lam mod p with chi(g) = zeta, g the least
    primitive root: chi(t) = alpha^(ind t) in Z[X]/(Phi_lam), ind t read
    from the packed logs (_log_table), and m = (p - 1) / lam.  chi(0)
    counts as 0 and is simply omitted from sums.  character builds it."""

    __slots__ = ()

    @property
    def ring(self):
        """Z[alpha], read from cyclotomic_ring: Jacobi's congruence never
        reads it."""
        return cyclotomic_ring(self.lam)

    def __repr__(self):
        return f"Character(p={self.p}, order={self.lam})"


@lru_cache(maxsize=1024)
def _log_table(p: int) -> tuple[int, tuple[str, int, int]]:
    """The least primitive root g mod p and the packed logs, one per
    prime: the characters of every order mod p share them.

    The packed logs (code, A, B) hold ind t and ind(1 - t) for
    t = 2 .. p - 1 as unsigned array words of typecode code, t = 2 lowest
    (polyint.pack_words); ind 1 = 0.  The word is the narrowest that holds
    2 (p - 2)^2, the most that _counts asks of it.
    """
    g = least_primitive_root(p)
    index = discrete_log_table(p, g)
    _, code = polyint.narrowest_word(2 * (p - 2) ** 2)
    # 1 - t = p + 1 - t mod p: as t runs up from 2, 1 - t runs down from p - 1
    logs = array(code, index[2:p])
    co_logs = array(code, index[p - 1 : 1 : -1])
    return g, (code, polyint.pack_words(logs), polyint.pack_words(co_logs))


@lru_cache(maxsize=1024)
def character(p: int, lam: int) -> Character:
    """The character of order lam mod p, one per (p, order), and the one
    refusal of its key: lam < 2, a composite p, or lam not dividing p - 1."""
    if lam < 2:
        raise ValueError(f"order {lam} must be at least 2")
    check_prime(p)
    if (p - 1) % lam != 0:
        raise ValueError(f"order {lam} must divide p - 1 = {p - 1}")
    return Character(p, lam, (p - 1) // lam, *_log_table(p))


def _counts(chi: Character, i: int, k: int) -> list[int]:
    """N_e = #{t in 2 .. p-1 : i ind t + k ind(1-t) = e mod lam}, e < lam.

    Jacobi's sort of the t by the pair (ind t, ind(1 - t)), which depends
    on p alone.  With i, k reduced mod lam, one multiply-add of the packed
    logs, i A + k B, holds every i ind t + k ind(1 - t) as its own word
    (Kronecker substitution).  Each is at most 2 (p - 2)^2, which the word
    holds, so no word carries into the next; the words are read back and
    binned mod lam.
    """
    lam = chi.lam
    code, logs, co_logs = chi.packed_logs
    packed = (i % lam) * logs + (k % lam) * co_logs
    values = polyint.unpack_words(packed, code, chi.p - 2)
    counts = [0] * lam
    for v in values:
        counts[v % lam] += 1
    return counts


def jacobi_sum(chi: Character, i: int, k: int) -> CyclotomicElement:
    """J(chi^i, chi^k) = -sum over t of chi^i(t) chi^k(1-t), exactly."""
    return chi.ring.element([-c for c in _counts(chi, i, k)])


def _checked_counts(chi: Character, i: int, k: int) -> list[int]:
    """_counts(chi, i, k) for a pair of the reflection identity: ValueError
    for a degenerate index, or for counts that do not sum to p - 2."""
    lam, p = chi.lam, chi.p
    if i % lam == 0 or k % lam == 0 or (i + k) % lam == 0:
        raise ValueError(f"degenerate index: i, k, i+k must all be nonzero mod {lam}")
    counts = _counts(chi, i, k)
    if sum(counts) != p - 2:
        raise ValueError(f"counts must sum to p - 2 = {p - 2}")
    return counts


def reflection_products(chi: Character):
    """For each pair i, k in 1 .. lam - 1 with i + k != 0 mod lam, ordered
    by i and then k, the counts N of _counts and the residue of
    J(chi^i, chi^k) times sigma_{-1}(J) mod Phi_lam, without reducing J.

    J = -sum_e N_e alpha^e, so the product is sum_s c_s alpha^s, c the
    cyclic autocorrelation N(X) N(X^-1) mod X^lam - 1: N packed as w-bit
    words, times its packed reflection N_0, N_(lam-1), ..., N_1, folded
    mod 2^(w lam) - 1.  c(z) = |N(z)|^2 is p, 1 or (p - 2)^2 at each
    lam-th root of unity z, fixed by every sigma_u, so c is constant on
    gcd classes and the ring's invariant_residue reads the product off c.
    c is reduced only when that check fails, as for counts that are not
    a Jacobi sum's.  The identity holds when the residue is [p, 0, ..., 0].

    Each i is one row, read at once by the ring's invariant_residues
    (_row_products) after the counts of each of its pairs are checked
    (_checked_counts).  lam = 2 has no such pair.
    """
    lam = chi.lam
    for i in range(1, lam):
        row = [_checked_counts(chi, i, k) for k in range(1, lam) if (i + k) % lam]
        if row:
            yield from _row_products(chi, row)


def _row_products(chi: Character, row: list[list[int]]) -> list[tuple]:
    """reflection_products' (counts, product) for each counts of a row.

    Word bound: each N >= 0 sums to p - 2, so each coefficient of c, a sum
    of N_e N_(e-s) over distinct e, is at most max(N) (p - 2), and w is
    the narrowest word above the row's largest such bound: no word
    carries.  A row whose counts may all be at most small = 255 // (p - 2)
    (their mean (p - 2)/lam is; then p < 258 and every count fits a byte)
    is read as bytes first, and takes the byte word when one translate of
    the joined bytes finds no count above small, with no max taken.  The
    row's autocorrelations are unpacked as one array, c of pair j at words
    j lam .. j lam + lam - 1; a pair that fails its check is reduced from
    that array.
    """
    lam, p, ring = chi.lam, chi.p, chi.ring
    small = 255 // (p - 2)
    data = list(map(bytes, row)) if small * lam >= p - 2 else None
    if data and not b"".join(data).translate(None, bytes(range(small + 1))):
        bits, code = 8, "B"
    else:
        bits, code = polyint.narrowest_word(max(map(max, row)) * (p - 2))
        data = [bytes(c) if bits == 8 else array(code, c) for c in row]
    shift, pack = bits * lam, polyint.pack_words
    mask, size = (1 << shift) - 1, shift // 8
    folded = []
    for words in data:
        x = pack(words) * pack(words[:1] + words[:0:-1])
        folded.append(((x & mask) + (x >> shift)).to_bytes(size, "little"))
    c = polyint.unpack_words(b"".join(folded), code, lam * len(row))
    zeros = [0] * (ring.degree - 1)
    values = ring.invariant_residues(c)
    return [
        (counts, [v, *zeros] if v is not None else list(ring._reduce(c[j : j + lam])))
        for counts, v, j in zip(row, values, range(0, len(c), lam))
    ]


def reflection_identity(chi: Character, i: int, k: int) -> dict:
    """Verify J(chi^i, chi^k) * sigma_{-1}(J(chi^i, chi^k)) == p exactly,
    as a report of J, psi = -J, the product and whether it is p.

    The product is reflection_products' for the one pair, read alone: the
    counts packed in the narrowest word above max(N) (p - 2), and their
    autocorrelation read by invariant_residue and reduced only when that
    check fails.  The only other reduction is of the counts, for
    psi = N mod Phi_lam and J = -psi.
    """
    counts = _checked_counts(chi, i, k)
    lam, ring = chi.lam, chi.ring
    bits, code = polyint.narrowest_word(max(counts) * (chi.p - 2))
    shift = bits * lam
    words = bytes(counts) if bits == 8 else array(code, counts)
    x = polyint.pack_words(words) * polyint.pack_words(words[:1] + words[:0:-1])
    x = (x & ((1 << shift) - 1)) + (x >> shift)
    c = polyint.unpack_words(x, code, lam)
    value = ring.invariant_residue(c)
    if value is None:
        product = list(ring._reduce(c))
    else:
        product = [value] + [0] * (ring.degree - 1)
    psi = list(ring._reduce(counts))
    return {
        "p": chi.p,
        "order": chi.lam,
        "i": i,
        "k": k,
        "J": [-x for x in psi],
        "psi": psi,
        "product": product,
        "holds": product[0] == chi.p and not any(product[1:]),
    }


def gauss_sum(chi: Character, i: int) -> CyclotomicElement:
    """(alpha^i, x) = sum_t chi^i(t) x^t over t = 1 .. p-1, in Z[zeta].

    zeta is a primitive lam*p-th root of unity, alpha = zeta^p and
    x = zeta^lam.  lam and p are coprime because lam | p - 1, so
    Z[zeta] = Z[alpha] (x) Z[x] and the Gauss sum needs no second ring.
    """
    lam, p = chi.lam, chi.p
    n = lam * p
    raw = [0] * n
    raw[lam] = 1  # t = 1, whose log is 0
    code, logs, _ = chi.packed_logs
    for t, e in enumerate(polyint.unpack_words(logs, code, p - 2), 2):
        raw[(p * i * e + lam * t) % n] += 1
    return cyclotomic_ring(n).element(raw)


def _descend(chi: Character, z: CyclotomicElement) -> CyclotomicElement:
    """z as an element of Z[alpha], alpha = zeta^p; ArithmeticError if it
    has a Y-part.

    p * (phi(lam) - 1) < phi(lam * p) because phi(lam) <= lam < p, so the
    image of Z[alpha] is exactly the reduced elements supported on the
    positions p * a: read those, and any other nonzero coefficient is a
    Y-part.
    """
    p = chi.p
    if any(c for e, c in enumerate(z.coeffs) if e % p):
        raise ArithmeticError("descent failed: result has a nontrivial Y-part")
    return chi.ring.element(z.coeffs[::p])


def gauss_sum_ratio(chi: Character, i: int, k: int) -> CyclotomicElement:
    """(alpha^i, x)(alpha^k, x) / (alpha^{i+k}, x), divided out exactly.

    Division is by the inverse-sum trick: multiplying by (alpha^{-(i+k)}, x)
    turns the denominator into chi^{i+k}(-1) * p, which is then removed
    exactly.  The result is Y-free and equals -jacobi_sum(chi, i, k).
    """
    lam, p = chi.lam, chi.p
    if i % lam == 0 or k % lam == 0 or (i + k) % lam == 0:
        raise ValueError("degenerate index for the Gauss-sum ratio")
    t = gauss_sum(chi, i) * gauss_sum(chi, k) * gauss_sum(chi, -(i + k))
    if not t.content_divisible_by(p):
        raise ArithmeticError(f"inexact division by {p}")
    value = _descend(chi, t.ring.element([c // p for c in t.coeffs]))
    # remove chi^{i+k}(-1) = alpha^{(i+k)(p-1)/2}
    exponent = (i + k) * ((p - 1) // 2) % lam
    return value * chi.ring.alpha(-exponent)


def gauss_power_descent(lam: int, p: int, i: int = 1) -> dict:
    """Compute (alpha^i, x)^lam, check it is invariant under every x -> x^j
    and Y-free, and return it as an element of Z[alpha].

    Those substitutions form Gal(Q(zeta_{lam p})/Q(alpha)), cyclic of
    order p - 1 and generated by x -> x^g for the primitive root g = chi.g,
    so invariance under that one conjugation is invariance under all.
    """
    chi = character(p, lam)
    if i % lam == 0:
        raise ValueError("index must be nonzero mod lam")
    power = gauss_sum(chi, i) ** lam
    # x -> x^g fixing alpha is zeta -> zeta^k, k = 1 mod lam and g mod p
    k = 1 + lam * ((chi.g - 1) * pow(lam, -1, p) % p)
    if conjugate(power, k) != power:
        raise ArithmeticError(
            f"descent failed: (alpha^{i}, x)^{lam} is not invariant "
            f"under x -> x^{chi.g}"
        )
    element = _descend(chi, power)
    return {
        "p": p,
        "order": lam,
        "i": i,
        "element": list(element.coeffs),
        "substitution_invariant": True,
    }


def fundamental_congruence_check(p: int, i: int, k: int) -> dict:
    """Jacobi's congruence for the order p-1 sums in Z[zeta_{p-1}].

    The substitution sends the root of unity to the least primitive root g
    mod p, a root of Phi_{p-1} mod p, so the sum -sum_e N_e X^e of _counts
    is evaluated unreduced.  The result must be 0 mod p when i + k < p - 1
    and the exact binomial quotient (2(p-1)-i-k)! / ((p-1-i)!(p-1-k)!)
    mod p when i + k > p - 1.
    """
    check_prime(p)
    if not (0 < i < p - 1 and 0 < k < p - 1):
        raise ValueError("indices must lie strictly between 0 and p-1")
    if i + k == p - 1:
        raise ValueError("excluded index: i + k = p - 1")
    chi = character(p, p - 1)
    value = 0
    for c in reversed(_counts(chi, i, k)):
        value = (value * chi.g - c) % p
    if i + k < p - 1:
        expected = 0
    else:
        u, v = p - 1 - i, p - 1 - k
        expected = comb(u + v, u) % p
    return {
        "p": p,
        "i": i,
        "k": k,
        "value": value,
        "expected": expected,
        "holds": value == expected,
        "branch": "zero" if i + k < p - 1 else "binomial",
    }


def quartic_decomposition(p: int) -> dict:
    """p = a^2 + b^2 via J(chi, chi) for the quartic character.

    The odd part a is pinned mod p, up to sign, by half the central
    binomial coefficient.
    """
    chi = character(p, 4)
    j = jacobi_sum(chi, 1, 1)
    a_raw, b_raw = j.coeffs
    if a_raw * a_raw + b_raw * b_raw != p:
        raise ArithmeticError("quartic Jacobi sum does not have modulus sqrt(p)")
    m = (p - 1) // 4
    a = a_raw if a_raw % 2 else b_raw
    half_binomial = comb(2 * m, m) // 2
    matches = (a - half_binomial) % p == 0 or (a + half_binomial) % p == 0
    return {
        "p": p,
        "m": m,
        "J": list(j.coeffs),
        "psi": list((-j).coeffs),
        "a": a,
        "b": b_raw if a_raw % 2 else a_raw,
        "half_binomial": half_binomial,
        "congruence_holds": matches,
    }


def binomial_congruence(p: int) -> dict:
    """Gauss: for p = a^2 + 4b^2 = 4n + 1, 2a = +-C(2n, n) mod p."""
    check_prime(p)
    if p % 4 != 1:
        raise ValueError(f"{p} must be 1 mod 4")
    n = (p - 1) // 4
    pair = None
    a = 1
    while a * a < p:
        rest = p - a * a
        if rest % 4 == 0:
            b = exact_sqrt(rest // 4)
            if b is not None:
                pair = (a, b)
                break
        a += 2
    if pair is None:
        raise ArithmeticError(f"{p} has no representation a^2 + 4b^2")
    a, b = pair
    central = comb(2 * n, n)
    holds = (2 * a - central) % p == 0 or (2 * a + central) % p == 0
    return {
        "p": p,
        "n": n,
        "a": a,
        "b": b,
        "central_binomial": central,
        "congruence_holds": holds,
    }


def stickelberger_check(lam: int, p: int) -> dict:
    """The prime-ideal support of J(chi, chi) for chi of odd prime order lam.

    With the prime above p normalized by xi = g^m (so that the residue
    symbol of g is zeta), the valuation of J(chi, chi) must be exactly 1 at
    the conjugate primes indexed by 0 < 2t < lam and 0 elsewhere; both the
    uniformizer multiplicity and the p-adic valuation oracle are consulted.
    """
    # imported here: no other function of this module needs maps or valuations
    from kummerlab.idealprimes import enumerate_jacobi_maps, map_for_root
    from kummerlab.valuation import kummer_prime, multiplicity, valuation_oracle

    check_conductor(lam)
    chi = character(p, lam)
    j = jacobi_sum(chi, 1, 1)
    maps = enumerate_jacobi_maps(lam, p)
    entries = []
    ok = True
    for t in range(1, lam):
        xi = pow(chi.g, chi.m * t, p)
        phi = map_for_root(maps, xi)
        K = kummer_prime(phi)
        v_kummer = multiplicity(j, K)
        v_oracle = valuation_oracle(j, phi)
        expected = 1 if 2 * t < lam else 0
        ok = ok and v_kummer == expected and v_oracle == expected
        entries.append(
            {
                "t": t,
                "xi": xi,
                "valuation": v_kummer,
                "valuation_oracle": v_oracle,
                "expected": expected,
            }
        )
    total = sum(e["valuation"] for e in entries)
    return {
        "p": p,
        "order": lam,
        "J": list(j.coeffs),
        "psi": list((-j).coeffs),
        "norm": norm(j),
        "entries": entries,
        "total_valuation": total,
        "holds": ok and total == (lam - 1) // 2,
    }
