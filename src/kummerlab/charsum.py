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
"""

from array import array
from functools import lru_cache
from math import comb, isqrt

from kummerlab import polyint
from kummerlab.arith import (
    discrete_log_table,
    is_prime,
    least_primitive_root,
)
from kummerlab.cyclotomic import (
    CyclotomicElement,
    conjugate,
    cyclotomic_ring,
    norm,
)
from kummerlab.idealprimes import enumerate_jacobi_maps, map_for_root


class Character:
    """The character of order lam mod p with chi(g) = zeta, g the least
    primitive root: chi(t) = alpha^index[t] in Z[X]/(Phi_lam), index the
    discrete-log table.  chi(0) counts as 0 and is simply omitted from
    sums."""

    def __init__(self, p: int, lam: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if lam < 2 or (p - 1) % lam != 0:
            raise ValueError(f"order {lam} must divide p - 1 = {p - 1}")
        self.p = p
        self.lam = lam
        self.m = (p - 1) // lam
        self.g, self.index, self.packed_logs = _log_table(p)
        self.ring = cyclotomic_ring(lam)

    def __repr__(self):
        return f"Character(p={self.p}, order={self.lam})"


@lru_cache(maxsize=1024)
def _log_table(p: int) -> tuple[int, tuple[int, ...], tuple[str, int, int]]:
    """The least primitive root g mod p, its discrete-log table and the
    packed logs, one per prime: the characters of every order mod p share
    them.

    The packed logs (code, A, B) hold ind t and ind(1 - t) for
    t = 2 .. p - 1 as unsigned array words of typecode code, t = 2 lowest
    (polyint.pack_words).  The word is the narrowest that holds
    2 (p - 2)^2, the most that _counts asks of it.
    """
    g = least_primitive_root(p)
    index = tuple(discrete_log_table(p, g))
    _, code = polyint.narrowest_word(2 * (p - 2) ** 2)
    # 1 - t = p + 1 - t mod p: as t runs up from 2, 1 - t runs down from p - 1
    logs = array(code, index[2:p])
    co_logs = array(code, index[p - 1 : 1 : -1])
    return g, index, (code, polyint.pack_words(logs), polyint.pack_words(co_logs))


@lru_cache(maxsize=1024)
def character(p: int, lam: int) -> Character:
    """Shared Character instances, one per (p, order)."""
    return Character(p, lam)


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


def reflection_identity(chi: Character, i: int, k: int) -> dict:
    """Verify J(chi^i, chi^k) * sigma_{-1}(J(chi^i, chi^k)) == p exactly.

    J = -sum_e N_e alpha^e for the counts N of _counts, so J times its
    conjugate is sum_s c_s alpha^s with c the cyclic autocorrelation of N:
    the product is formed in Z[X]/(X^lam - 1) and reduced once.
    """
    lam = chi.lam
    if i % lam == 0 or k % lam == 0 or (i + k) % lam == 0:
        raise ValueError(
            f"degenerate index: i, k, i+k must all be nonzero mod {lam}"
        )
    counts = _counts(chi, i, k)
    j = chi.ring.element([-c for c in counts])
    prod = chi.ring.element(polyint.autocorrelation(counts))
    return {
        "p": chi.p,
        "order": lam,
        "i": i,
        "k": k,
        "J": list(j.coeffs),
        "psi": [-c for c in j.coeffs],
        "product": list(prod.coeffs),
        "holds": prod.is_rational() and prod.coeffs[0] == chi.p,
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
    for t in range(1, p):
        raw[(p * i * chi.index[t] + lam * t) % n] += 1
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
    if lam < 2:
        raise ValueError(f"order {lam} must be at least 2")
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

    The sum is formed by direct summation, the substitution sends the root
    of unity to the least primitive root g mod p, and the result must be
    0 mod p when i + k < p - 1 and the exact binomial quotient
    (2(p-1)-i-k)! / ((p-1-i)!(p-1-k)!) mod p when i + k > p - 1.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not (0 < i < p - 1 and 0 < k < p - 1):
        raise ValueError("indices must lie strictly between 0 and p-1")
    if i + k == p - 1:
        raise ValueError("excluded index: i + k = p - 1")
    chi = Character(p, p - 1)
    psi = jacobi_sum(chi, i, k)
    value = 0
    for e, c in enumerate(psi.coeffs):
        value = (value + c * pow(chi.g, e, p)) % p
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
    if p % 4 != 1:
        raise ValueError(f"{p} must be 1 mod 4")
    chi = Character(p, 4)
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


def _integer_sqrt(n: int) -> int | None:
    r = isqrt(n)
    return r if r * r == n else None


def binomial_congruence(p: int) -> dict:
    """Gauss: for p = a^2 + 4b^2 = 4n + 1, 2a = +-C(2n, n) mod p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p % 4 != 1:
        raise ValueError(f"{p} must be 1 mod 4")
    n = (p - 1) // 4
    pair = None
    a = 1
    while a * a < p:
        rest = p - a * a
        if rest % 4 == 0:
            b = _integer_sqrt(rest // 4)
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
    from kummerlab.valuation import kummer_prime, multiplicity, valuation_oracle

    if not is_prime(lam) or lam == 2:
        raise ValueError("order must be an odd prime")
    if p % lam != 1:
        raise ValueError(f"p = {p} must be 1 mod {lam}")
    chi = Character(p, lam)
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
