"""Gauss and Jacobi sums, the fundamental congruence, Stickelberger support."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummerlab import charsum, cyclotomic, polyint
from kummerlab.arith import primes_below
from kummerlab.charsum import (
    Character,
    _counts,
    binomial_congruence,
    character,
    fundamental_congruence_check,
    gauss_power_descent,
    gauss_sum,
    gauss_sum_ratio,
    jacobi_sum,
    quartic_decomposition,
    reflection_identity,
    stickelberger_check,
)
from kummerlab.cyclotomic import (
    CyclotomicElement,
    conjugate,
    cyclotomic_ring,
    norm,
)
from kummerlab.idealprimes import enumerate_jacobi_maps, map_for_root
from kummerlab.valuation import kummer_prime, multiplicity, valuation_oracle
from reference import counts_reference


def jacobi_sum_positive(chi: Character, i: int, k: int) -> CyclotomicElement:
    """The same sum without the leading minus (the Gauss-sum-ratio value)."""
    return -jacobi_sum(chi, i, k)


def fc_divisibility_criterion(lam: int, p: int, i: int, k: int) -> bool:
    """Whether the congruence predicts p | psi for order-lam indices.

    Scaling (i, k) by m = (p-1)/lam turns the order-lam sum into the
    order-(p-1) congruence with indices (im, km): divisibility happens
    exactly when im + km < p - 1.
    """
    m = (p - 1) // lam
    return (i % lam) * m + (k % lam) * m < p - 1


def test_character_validation():
    with pytest.raises(ValueError):
        Character(10, 3)
    with pytest.raises(ValueError):
        Character(11, 3)  # 3 does not divide 10
    chi = Character(11, 5)
    assert chi.g == 2 and chi.m == 2
    # chi(t) = alpha^index[t]: chi(g) = alpha, chi(g^3) = alpha^3, chi(1) = 1
    assert chi.index[chi.g] == 1 and chi.index[1] == 0
    assert chi.index[pow(chi.g, 3, 11)] == 3
    # the table holds a log for every unit exactly once and none for t = 0,
    # which no power of g reaches: chi(0) is left out of every sum
    assert sorted(chi.index[1:]) == list(range(10))
    assert 0 not in {pow(chi.g, e, 11) for e in range(10)}
    assert sum(_counts(chi, 1, 1)) == 11 - 2


def test_characters_of_one_prime_share_one_log_table():
    # every order mod p reads the same primitive root and discrete logs
    for p in (13, 211, 421):
        orders = [d for d in range(2, p) if (p - 1) % d == 0]
        chis = [character(p, lam) for lam in orders]
        assert all(chi.index is chis[0].index for chi in chis)
        assert all(chi.packed_logs is chis[0].packed_logs for chi in chis)
        assert {chi.g for chi in chis} == {chis[0].g}


def test_counts_take_the_wide_word_past_two_to_the_32():
    # 46349 is the least prime with 2 (p - 2)^2 >= 2^32: the packed logs
    # take 64-bit words there and 32-bit words at the prime before it
    assert 2 * (46337 - 2) ** 2 < 2**32 <= 2 * (46349 - 2) ** 2
    assert character(46337, 4).packed_logs[0] == "I"
    p = 46349
    for lam, i, k in ((4, 1, 1), (4, 3, -1), (p - 1, p - 2, p - 2), (p - 1, -1, 2)):
        chi = character(p, lam)
        assert chi.packed_logs[0] == "Q"
        assert _counts(chi, i, k) == counts_reference(chi, i, k), (lam, i, k)


def test_jacobi_sum_is_integral_and_signed():
    chi = character(13, 4)
    j = jacobi_sum(chi, 1, 1)
    assert j.coeffs == (-3, 2)
    assert jacobi_sum_positive(chi, 1, 1) == -j
    # direct summation never produces denominators: coefficients are plain
    # integers by construction, and the histogram total is p - 2
    hist_total = sum(abs(c) for c in (-j).coeffs)
    assert hist_total <= 13 - 2


def test_degenerate_jacobi_sum():
    # chi * chi trivial: J(chi, chi) = -chi(-1) for the quadratic character
    chi = character(7, 2)
    assert jacobi_sum(chi, 1, 1) == chi.ring.element(-1)
    with pytest.raises(ValueError):
        reflection_identity(chi, 1, 1)


def test_reflection_pinned():
    for p, lam, i, k in [(11, 5, 1, 1), (13, 3, 1, 1), (13, 12, 3, 4)]:
        rep = reflection_identity(character(p, lam), i, k)
        assert rep["holds"]
        assert rep["product"][0] == p and not any(rep["product"][1:])


def test_reflection_sweep_small():
    for p in primes_below(32):
        if p == 2:
            continue
        for lam in range(2, p):
            if (p - 1) % lam:
                continue
            chi = character(p, lam)
            target = chi.ring.element(p)
            for i in range(1, lam):
                for k in range(1, lam):
                    if (i + k) % lam == 0:
                        continue
                    j = jacobi_sum(chi, i, k)
                    assert j * conjugate(j, -1) == target


# one, two and three distinct primes, 2^k, q^k and 2 q^k
REFLECTION_ORDERS = [
    3, 5, 7, 13, 4, 8, 16, 64, 128, 9, 27, 81, 25, 49,
    6, 10, 12, 18, 50, 54, 98, 162, 30, 42, 60, 84, 210, 330, 420,
]
REFLECTION_PRIMES = primes_below(500)


def _reference_reflection(chi, j):
    """The report built as before: J times its conjugate, in the ring."""
    prod = j * conjugate(j, -1)
    return {
        "J": list(j.coeffs),
        "psi": list((-j).coeffs),
        "product": list(prod.coeffs),
        "holds": prod == chi.ring.element(chi.p),
    }


@pytest.mark.parametrize("lam", REFLECTION_ORDERS)
@settings(derandomize=True, database=None, deadline=None, max_examples=6)
@given(data=st.data())
def test_reflection_identity_matches_the_ring_product(lam, data):
    p = data.draw(st.sampled_from([q for q in REFLECTION_PRIMES if q % lam == 1]))
    i = data.draw(st.integers(1, lam - 1))
    k = data.draw(st.integers(1, lam - 1).filter(lambda k: (i + k) % lam))
    chi = character(p, lam)
    rep = reflection_identity(chi, i, k)
    expected = {"p": p, "order": lam, "i": i, "k": k}
    expected.update(_reference_reflection(chi, jacobi_sum(chi, i, k)))
    assert rep == expected
    assert list(rep) == ["p", "order", "i", "k", "J", "psi", "product", "holds"]
    assert rep["holds"]


@pytest.mark.parametrize("p,lam,i,k", [(11, 5, 1, 1), (13, 12, 3, 4), (211, 210, 1, 7)])
def test_reflection_identity_sees_tampered_counts(monkeypatch, p, lam, i, k):
    # one t moved to the next exponent: the product is no longer p, and the
    # report carries the product of the tampered sum with its conjugate
    real = charsum._counts

    def tampered(chi, i, k):
        counts = real(chi, i, k)
        e = counts.index(max(counts))
        counts[e] -= 1
        counts[(e + 1) % chi.lam] += 1
        return counts

    monkeypatch.setattr(charsum, "_counts", tampered)
    chi = character(p, lam)
    rep = reflection_identity(chi, i, k)
    j = chi.ring.element([-c for c in tampered(chi, i, k)])
    assert rep["J"] == list(j.coeffs)
    assert rep["product"] == _reference_reflection(chi, j)["product"]
    assert rep["holds"] is False


def test_reflection_identity_needs_a_rational_product(monkeypatch):
    # p + alpha has the right constant term but is not p
    chi = character(13, 12)
    monkeypatch.setattr(polyint, "autocorrelation", lambda h: [13, 1] + [0] * 10)
    rep = reflection_identity(chi, 3, 4)
    assert rep["product"][:2] == [13, 1] and rep["holds"] is False


def test_reflection_identity_reduces_twice_and_multiplies_nothing(monkeypatch):
    def forbidden(*args):
        raise AssertionError("ring product or conjugate taken")

    reductions = []
    reduce = cyclotomic.CyclotomicRing._reduce

    def counted(ring, coeffs):
        reductions.append(len(coeffs))
        return reduce(ring, coeffs)

    monkeypatch.setattr(charsum, "conjugate", forbidden)
    monkeypatch.setattr(cyclotomic, "conjugate", forbidden)
    monkeypatch.setattr(CyclotomicElement, "__mul__", forbidden)
    monkeypatch.setattr(CyclotomicElement, "__rmul__", forbidden)
    monkeypatch.setattr(cyclotomic.CyclotomicRing, "_reduce", counted)
    for p, lam, i, k in [(11, 5, 1, 1), (13, 12, 3, 4), (331, 330, 7, 11)]:
        chi = character(p, lam)
        reductions.clear()
        assert reflection_identity(chi, i, k)["holds"]
        assert reductions == [lam, lam]


def test_galois_equivariance():
    chi = character(31, 5)
    for i, k in [(1, 1), (1, 2), (2, 3)]:
        j = jacobi_sum(chi, i, k)
        for t in range(2, 5):
            assert conjugate(j, t) == jacobi_sum(chi, i * t, k * t)


def test_gauss_sum_trivial_character():
    chi = character(11, 5)
    s = gauss_sum(chi, 0)
    assert s.ring == cyclotomic_ring(55)
    assert s == -1


def test_gauss_sum_pinned():
    # the quadratic sum at p = 5 is sum (t/5) x^t with x = zeta_10^2
    s = gauss_sum(character(5, 2), 1)
    assert s == cyclotomic_ring(10).element([0, 0, 1, 0, -1, 0, -1, 0, 1, 0])


def test_descent_failure_raises(monkeypatch):
    real = charsum.gauss_sum

    def plus_x(chi, i):
        # a stray x = zeta^lam makes the power move under x -> x^j
        g = real(chi, i)
        return g + g.ring.alpha(chi.lam)

    monkeypatch.setattr(charsum, "gauss_sum", plus_x)
    with pytest.raises(ArithmeticError, match="not invariant"):
        gauss_power_descent(3, 7)
    # with the invariance check blind, the Y-part is still caught
    monkeypatch.setattr(charsum, "conjugate", lambda z, k: z)
    with pytest.raises(ArithmeticError, match="Y-part"):
        gauss_power_descent(3, 7)


def test_gauss_sum_needs_order_dividing_p_minus_1():
    with pytest.raises(ValueError):
        gauss_sum(Character(5, 3), 1)
    with pytest.raises(ValueError):
        gauss_sum_ratio(Character(5, 3), 1, 1)


def test_gauss_sum_ratio_equals_positive_jacobi_sum():
    for p, lam, i, k in [
        (11, 5, 1, 1),
        (7, 3, 1, 1),
        (13, 3, 1, 1),
        (13, 4, 1, 2),
        (31, 6, 1, 1),
        (31, 6, 2, 3),
        (41, 8, 1, 2),
        (41, 8, 3, 3),
        (31, 10, 1, 1),
        (31, 10, 3, 4),
    ]:
        chi = character(p, lam)
        assert gauss_sum_ratio(chi, i, k) == jacobi_sum_positive(chi, i, k)


def test_gauss_sum_product_identity():
    # g_i * g_k = J+ * g_{i+k} in Z[zeta_55], J+ placed on the powers of
    # alpha = zeta^11
    chi = character(11, 5)
    big = cyclotomic_ring(55)
    for i, k in [(1, 1), (1, 2), (2, 2)]:
        lifted = [0] * 55
        for a, c in enumerate(jacobi_sum_positive(chi, i, k).coeffs):
            lifted[11 * a] = c
        left = gauss_sum(chi, i) * gauss_sum(chi, k)
        assert left == big.element(lifted) * gauss_sum(chi, i + k)


def test_conjugate_gauss_sum_pair():
    chi = character(7, 3)
    assert gauss_sum(chi, 1) * gauss_sum(chi, 2) == 7


@pytest.mark.parametrize(
    "lam,p",
    [(2, 5), (2, 7), (3, 7), (3, 13), (5, 11), (4, 13), (4, 17), (6, 7), (6, 13)],
)
def test_gauss_power_descent(lam, p):
    # g^lam = chi(-1) * p * prod_{t=1}^{lam-2} J+(1, t), chi(-1) = alpha^((p-1)/2)
    rep = gauss_power_descent(lam, p)
    assert rep["substitution_invariant"]
    ring = cyclotomic_ring(lam)
    element = ring.element(rep["element"])
    chi = character(p, lam)
    expected = ring.alpha((p - 1) // 2) * p
    for t in range(1, lam - 1):
        expected = expected * jacobi_sum_positive(chi, 1, t)
    assert element == expected
    # each embedding has absolute value p^(lam/2)
    assert abs(norm(element)) == p ** (lam * ring.degree // 2)


def test_descent_rejects_bad_input():
    with pytest.raises(ValueError):
        gauss_power_descent(3, 5)  # 3 does not divide 4
    with pytest.raises(ValueError):
        gauss_power_descent(3, 7, i=3)


def test_fundamental_congruence_pinned():
    rep = fundamental_congruence_check(13, 3, 4)
    assert rep["holds"] and rep["value"] == 0 and rep["branch"] == "zero"
    rep = fundamental_congruence_check(13, 8, 9)
    assert rep["holds"] and rep["value"] == 9
    assert rep["expected"] == comb(7, 3) % 13 == 9


def test_fundamental_congruence_exhaustive_small():
    for p in (5, 7):
        for i in range(1, p - 1):
            for k in range(1, p - 1):
                if i + k == p - 1:
                    continue
                assert fundamental_congruence_check(p, i, k)["holds"]


def test_fundamental_congruence_excluded_index():
    with pytest.raises(ValueError):
        fundamental_congruence_check(13, 5, 7)
    with pytest.raises(ValueError):
        fundamental_congruence_check(13, 0, 3)


def test_quartic_pinned():
    rep = quartic_decomposition(13)
    assert rep["congruence_holds"]
    assert sorted(abs(c) for c in rep["J"]) == [2, 3]
    assert rep["half_binomial"] == 10  # half of C(6,3), congruent to -3
    assert (rep["a"] - 10) % 13 == 0 or (rep["a"] + 10) % 13 == 0
    for p in (5, 17, 29):
        assert quartic_decomposition(p)["congruence_holds"]
    with pytest.raises(ValueError):
        quartic_decomposition(7)


def test_binomial_pinned():
    rep = binomial_congruence(13)
    assert (rep["a"], rep["b"]) == (3, 1)
    assert rep["central_binomial"] == 20
    assert rep["congruence_holds"]
    rep29 = binomial_congruence(29)
    assert (rep29["a"], rep29["b"]) == (5, 1)
    assert rep29["central_binomial"] == 3432
    assert binomial_congruence(5)["congruence_holds"]


@pytest.mark.parametrize("lam,p", [(3, 7), (3, 13), (5, 11), (5, 31), (7, 29)])
def test_stickelberger(lam, p):
    rep = stickelberger_check(lam, p)
    assert rep["holds"]
    vals = [e["valuation"] for e in rep["entries"]]
    assert vals == [1] * ((lam - 1) // 2) + [0] * ((lam - 1) // 2)
    assert all(e["valuation"] == e["valuation_oracle"] for e in rep["entries"])
    assert rep["norm"] == p ** ((lam - 1) // 2)


def test_three_divisibility_routes_agree():
    # FC criterion vs Kummer multiplicity vs p-adic oracle for p | J(chi^t, chi^t)
    lam, p = 5, 11
    chi = character(p, lam)
    g, m = chi.g, chi.m
    maps = enumerate_jacobi_maps(lam, p)
    phi = map_for_root(maps, pow(g, m, p))  # the normalized prime
    K = kummer_prime(phi)
    for t in range(1, lam):
        j = jacobi_sum(chi, t, t)
        by_fc = fc_divisibility_criterion(lam, p, t, t)
        by_kummer = multiplicity(j, K) >= 1
        by_oracle = valuation_oracle(j, phi) >= 1
        assert by_fc == by_kummer == by_oracle == (0 < 2 * t < lam)


def test_stickelberger_validation():
    with pytest.raises(ValueError):
        stickelberger_check(4, 13)
    with pytest.raises(ValueError):
        stickelberger_check(5, 13)  # 13 is not 1 mod 5


@pytest.mark.parametrize("p", [7, 13])
def test_descent_factorization_matches_cubed_exponents(p):
    # (alpha, x)^3 = p * J+ factors as the normalized prime squared times
    # its conjugate: valuations (2, 1) with 2 at the xi = g^m map
    from kummerlab.valuation import factorize

    rep = gauss_power_descent(3, p)
    ring = cyclotomic_ring(3)
    element = ring.element(rep["element"])
    chi = character(p, 3)
    normalized_xi = pow(chi.g, chi.m, p)
    fact = factorize(element)
    by_xi = {r.map.label(): r.mu for r in fact.records}
    assert by_xi[normalized_xi] == 2
    assert sorted(by_xi.values()) == [1, 2]
