"""Gauss and Jacobi sums, the fundamental congruence, Stickelberger support."""

import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummerlab import charsum, cyclotomic, polyint
from kummerlab.arith import primes_below
from kummerlab.charsum import (
    Character,
    _checked_counts,
    _counts,
    _row_products,
    binomial_congruence,
    character,
    degenerate,
    fundamental_congruence_check,
    gauss_power_descent,
    gauss_sum,
    gauss_sum_ratio,
    jacobi_sum,
    pairs,
    quartic_decomposition,
    reflection_identity,
    reflection_products,
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
from reference import (
    autocorrelation,
    counts_reference,
    fc_value_reference,
    reflection_reference,
)


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
        character(10, 3)
    with pytest.raises(ValueError):
        character(11, 3)  # 3 does not divide 10
    chi = character(11, 5)
    assert chi.g == 2 and chi.m == 2
    # the packed logs hold ind t for t = 2 .. 10, and ind 1 = 0
    code, logs, _ = chi.packed_logs
    index = [None, 0, *polyint.unpack_words(logs, code, 11 - 2)]
    # chi(t) = alpha^index[t]: chi(g) = alpha, chi(g^3) = alpha^3, chi(1) = 1
    assert index[chi.g] == 1
    assert index[pow(chi.g, 3, 11)] == 3
    # the table holds a log for every unit exactly once and none for t = 0,
    # which no power of g reaches: chi(0) is left out of every sum
    assert sorted(index[1:]) == list(range(10))
    assert 0 not in {pow(chi.g, e, 11) for e in range(10)}
    assert sum(_counts(chi, 1, 1)) == 11 - 2


def test_characters_of_one_prime_share_one_log_table():
    # every order mod p reads the same primitive root and discrete logs
    for p in (13, 211, 421):
        orders = [d for d in range(2, p) if (p - 1) % d == 0]
        chis = [character(p, lam) for lam in orders]
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


def test_log_table_holds_only_the_packed_logs():
    # 9973, the largest prime that jacobi-sum admits at its default
    # --enum-cap: ind t and ind(1 - t) as two packed integers of 9971
    # 32-bit words, about 78 KiB (83 KiB measured); with a tuple of the
    # logs as well, the table held about 465 KiB
    charsum.character.cache_clear()
    charsum._log_table.cache_clear()
    tracemalloc.start()
    try:
        charsum._log_table(9973)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 100 * 1024


def test_a_character_builds_its_ring_on_first_read(monkeypatch):
    # Jacobi's congruence reads a character of order p - 1 but not its ring
    built = []
    monkeypatch.setattr(
        charsum, "cyclotomic_ring", lambda n: built.append(n) or cyclotomic_ring(n)
    )
    charsum.character.cache_clear()
    assert fundamental_congruence_check(9973, 1, 2)["holds"]
    assert built == []
    chi = character(13, 3)
    assert built == []
    assert chi.ring is cyclotomic_ring(3)
    assert built == [3]


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
    expected.update(reflection_reference(chi, jacobi_sum(chi, i, k)))
    assert rep == expected
    assert list(rep) == ["p", "order", "i", "k", "J", "psi", "product", "holds"]
    assert rep["holds"]


@pytest.mark.parametrize("lam", REFLECTION_ORDERS)
@settings(derandomize=True, database=None, deadline=None, max_examples=6)
@given(data=st.data())
def test_reflection_product_matches_the_report_and_the_ring_product(lam, data):
    p = data.draw(st.sampled_from([q for q in REFLECTION_PRIMES if q % lam == 1]))
    # indices outside 1 .. lam - 1 too: the counts read them mod lam
    index = st.integers(-2 * lam, 2 * lam)
    i = data.draw(index.filter(lambda i: i % lam))
    k = data.draw(index.filter(lambda k: k % lam and (i + k) % lam))
    chi = character(p, lam)
    ((counts, product),) = _row_products(chi, [_checked_counts(chi, i, k)])
    assert counts == counts_reference(chi, i, k)
    assert product == [p] + [0] * (chi.ring.degree - 1)
    rep = reflection_identity(chi, i, k)
    assert rep["product"] == product and rep["holds"] is True
    assert product == reflection_reference(chi, jacobi_sum(chi, i, k))["product"]


@pytest.mark.parametrize("p,lam", [(7, 2), (13, 3), (13, 12), (211, 210)])
def test_reflection_product_refuses_degenerate_indices(monkeypatch, p, lam):
    chi = character(p, lam)
    for i, k in ((0, 1), (1, 0), (1, lam - 1), (lam, 2 * lam), (-1, 1 + lam)):
        with pytest.raises(ValueError, match="degenerate index"):
            _checked_counts(chi, i, k)
        with pytest.raises(ValueError, match="degenerate index"):
            reflection_identity(chi, i, k)
        with pytest.raises(ValueError, match="degenerate index"):
            gauss_sum_ratio(chi, i, k)
    # the pass draws only the nondegenerate pairs, one row per i, and
    # reads no row at lam = 2, where there are none
    read = []
    monkeypatch.setattr(charsum, "_checked_counts", lambda chi, i, k: (i, k))
    monkeypatch.setattr(
        charsum, "_row_products", lambda chi, row: read.append(row) or row
    )
    drawn = list(reflection_products(chi))
    rows = ([(i, k) for k in range(1, lam) if (i + k) % lam] for i in range(1, lam))
    assert read == [row for row in rows if row]
    assert drawn == [pair for row in read for pair in row]
    assert len(drawn) == (lam - 1) * (lam - 2)


@pytest.mark.parametrize("lam", [1, 2, 3, 4, 12, 210])
def test_pairs_are_the_nondegenerate_pairs_in_order(lam):
    admitted = [
        (i, k)
        for i in range(1, lam)
        for k in range(1, lam)
        if not degenerate(lam, i, k)
    ]
    assert list(pairs(lam)) == admitted
    assert len(admitted) == (lam - 1) * (lam - 2)


@pytest.mark.parametrize("p,lam,i,k", [(11, 5, 1, 1), (13, 12, 3, 4), (211, 210, 1, 7)])
def test_reflection_product_reduces_tampered_counts(monkeypatch, p, lam, i, k):
    # one t moved to the next exponent: the autocorrelation leaves the gcd
    # classes, so the product is reduced, and it is not p
    real = charsum._counts

    def tampered(chi, i, k):
        counts = real(chi, i, k)
        e = counts.index(max(counts))
        counts[e] -= 1
        counts[(e + 1) % chi.lam] += 1
        return counts

    reductions = []
    reduce = cyclotomic.CyclotomicRing._reduce

    def counted(ring, coeffs):
        reductions.append(len(coeffs))
        return reduce(ring, coeffs)

    chi = character(p, lam)
    pairs = [(i, k), (k, i)]
    rows = [tampered(chi, a, b) for a, b in pairs]
    monkeypatch.setattr(cyclotomic.CyclotomicRing, "_reduce", counted)
    results = _row_products(chi, rows)
    # one reduction per tampered pair of the row
    assert reductions == [lam, lam]
    for (a, b), (counts, product) in zip(pairs, results):
        assert counts == tampered(chi, a, b)
        j = chi.ring.element([-c for c in counts])
        assert product == reflection_reference(chi, j)["product"]
        assert product != [p] + [0] * (chi.ring.degree - 1)


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
    counts = tampered(chi, i, k)
    j = chi.ring.element([-c for c in counts])
    # the tampered autocorrelation has no gcd-class form, so it is reduced
    assert chi.ring.invariant_residue(autocorrelation(counts)) is None
    assert rep["J"] == list(j.coeffs)
    assert rep["product"] == reflection_reference(chi, j)["product"]
    assert rep["holds"] is False


def test_reflection_identity_needs_a_rational_product(monkeypatch):
    # p + alpha has the right constant term but is not p: the identity's
    # autocorrelation, read with one more at lag 1, leaves the gcd classes
    # and reduces to 13 + alpha
    chi = character(13, 12)
    unpack = polyint.unpack_words

    def off_by_alpha(x, code, count):
        words = unpack(x, code, count)
        if count == chi.lam:
            words[1] += 1
        return words

    monkeypatch.setattr(polyint, "unpack_words", off_by_alpha)
    rep = reflection_identity(chi, 3, 4)
    assert rep["product"] == [13, 1, 0, 0] and rep["holds"] is False


# prime lam, composite lam and lam = 3, whose rows at p = 13 are one pair
IDENTITY_CHARACTERS = [(13, 3), (23, 11), (31, 10), (61, 60), (97, 48)]


@pytest.mark.parametrize("tampered", [False, True], ids=["counts", "tampered"])
@pytest.mark.parametrize("p,lam", IDENTITY_CHARACTERS)
def test_reflection_identity_and_pass_read_the_same_product(
    monkeypatch, p, lam, tampered
):
    # the two entry points share no reading code: the identity reads each
    # pair alone, the pass reads each row by lanes; every pair, one pass,
    # and again with one t moved in every pair of odd k, which both must
    # reduce
    real = charsum._counts

    def counts_of(chi, i, k):
        counts = real(chi, i, k)
        if tampered and k % 2:
            e = counts.index(max(counts))
            counts[e] -= 1
            counts[(e + 1) % chi.lam] += 1
        return counts

    monkeypatch.setattr(charsum, "_counts", counts_of)
    chi = character(p, lam)
    pairs = [
        (i, k) for i in range(1, lam) for k in range(1, lam) if (i + k) % lam
    ]
    results = list(reflection_products(chi))
    assert len(results) == len(pairs)
    target = [p] + [0] * (chi.ring.degree - 1)
    for (i, k), (counts, product) in zip(pairs, results):
        rep = reflection_identity(chi, i, k)
        assert rep["product"] == product, (i, k)
        assert rep["psi"] == list(chi.ring._reduce(counts)), (i, k)
        if not (tampered and k % 2):
            assert product == target, (i, k)
    assert tampered is any(product != target for _, product in results)


# (p, lam, the indices i whose rows are checked against the references,
# None for every one): at (211, 210) four rows of every k, since the ring
# product of all 43,472 pairs takes about half a minute
PASS_CHARACTERS = [
    (13, 12, None),
    (31, 10, None),
    (47, 46, None),
    (211, 210, (1, 11, 105, 209)),
]


@pytest.mark.parametrize(
    "p,lam,rows", PASS_CHARACTERS, ids=["13-12", "31-10", "47-46", "211-210-four-rows"]
)
def test_reflection_pass_matches_the_references_on_every_pair(p, lam, rows):
    # one pass over a character's nondegenerate pairs, in order: the counts
    # of each pair and its product, J times its conjugate in the ring
    chi = character(p, lam)
    pairs = [
        (i, k) for i in range(1, lam) for k in range(1, lam) if (i + k) % lam
    ]
    target = [p] + [0] * (chi.ring.degree - 1)
    results = reflection_products(chi)
    for (i, k), (counts, product) in zip(pairs, results, strict=True):
        assert product == target, (i, k)
        if rows is None or i in rows:
            assert counts == counts_reference(chi, i, k), (i, k)
            j = chi.ring.element([-c for c in counts])
            assert product == reflection_reference(chi, j)["product"], (i, k)


@pytest.mark.parametrize("p,lam", [(13, 12), (31, 10), (211, 210)])
def test_reflection_pass_yields_every_pair_in_row_order(p, lam):
    # (lam - 1)(lam - 2) results, i = 1 .. lam - 1 and then k, every k but
    # the one with i + k = 0 mod lam: the counts of each pair, in order
    chi = character(p, lam)
    pairs = [
        (i, k) for i in range(1, lam) for k in range(1, lam) if (i + k) % lam
    ]
    assert len(pairs) == (lam - 1) * (lam - 2)
    # read as drawn: a whole pass at (211, 210) would hold about 90 MB
    for pair, (counts, _) in zip(pairs, reflection_products(chi), strict=True):
        assert counts == _counts(chi, *pair), pair


@pytest.mark.parametrize("moved", [-1, 1])
@pytest.mark.parametrize("p,lam", [(13, 12), (47, 46), (211, 210)])
def test_reflection_pass_refuses_counts_that_do_not_sum_to_p_minus_2(
    monkeypatch, p, lam, moved
):
    # max(N) (p - 2) bounds every lag only when sum(N) = p - 2: one t more
    # or fewer is refused before anything is packed, here for k >= 2
    real = charsum._counts

    def miscounted(chi, i, k):
        counts = real(chi, i, k)
        if k >= 2:
            counts[counts.index(max(counts))] += moved
        return counts

    monkeypatch.setattr(charsum, "_counts", miscounted)
    chi = character(p, lam)
    with pytest.raises(ValueError, match=f"counts must sum to p - 2 = {p - 2}$"):
        _checked_counts(chi, 1, 2)

    def forbidden_row_read(chi, row):
        raise AssertionError("a row with refused counts was read")

    # the first row holds (1, 2): the pass raises before it reads the row
    monkeypatch.setattr(charsum, "_row_products", forbidden_row_read)
    with pytest.raises(ValueError, match=f"counts must sum to p - 2 = {p - 2}$"):
        next(reflection_products(chi))
    with pytest.raises(ValueError, match="counts must sum to p - 2"):
        reflection_identity(chi, 1, 2)


def test_reflection_identity_reduces_once_and_multiplies_nothing(monkeypatch):
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
        # the counts alone: the product is read off its gcd classes
        assert reductions == [lam]


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
        gauss_sum(character(5, 3), 1)
    with pytest.raises(ValueError):
        gauss_sum_ratio(character(5, 3), 1, 1)


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


def test_gauss_sums_take_the_packed_product(monkeypatch):
    # the powers of a Gauss sum in Z[zeta_{lam p}] are long and dense: the
    # schoolbook loop alone makes gauss-sum hundreds of times slower
    packed = []
    kronecker = polyint._kronecker_mul

    def spy(f, g):
        packed.append(len(f))
        return kronecker(f, g)

    monkeypatch.setattr(polyint, "_kronecker_mul", spy)
    gauss_power_descent(7, 1289)
    assert packed


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


def test_fundamental_congruence_skips_the_reduction_mod_phi():
    # g is a root of Phi_{p-1} mod p, so the unreduced counts give the
    # value of the reduced Jacobi sum at g
    for p in primes_below(60):
        for i in range(1, p - 1):
            for k in range(1, p - 1):
                if i + k != p - 1:
                    value = fundamental_congruence_check(p, i, k)["value"]
                    assert value == fc_value_reference(p, i, k), (p, i, k)


def test_fundamental_congruence_excluded_index():
    with pytest.raises(ValueError, match="degenerate index: .* nonzero mod 12$"):
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


@pytest.mark.parametrize("p,lam", [(31, 10), (47, 46), (211, 210)])
def test_reflection_row_reduces_only_its_tampered_pair(monkeypatch, p, lam):
    # one t moved in one pair of a long row: the row's lane check fails,
    # each pair of the row is checked alone, and only the tampered pair is
    # reduced, from the row's array; every other pair still reads p
    real = charsum._counts
    bad = (1, 3)

    def tampered(chi, i, k):
        counts = real(chi, i, k)
        if (i, k) == bad:
            e = counts.index(max(counts))
            counts[e] -= 1
            counts[(e + 1) % chi.lam] += 1
        return counts

    calls = {"_reduce": [], "invariant_residue": 0}
    reduce = cyclotomic.CyclotomicRing._reduce
    residue = cyclotomic.CyclotomicRing.invariant_residue

    def counted_reduce(ring, coeffs):
        calls["_reduce"].append(len(coeffs))
        return reduce(ring, coeffs)

    def counted_residue(ring, c):
        calls["invariant_residue"] += 1
        return residue(ring, c)

    chi = character(p, lam)
    pairs = [(1, k) for k in range(1, lam) if (1 + k) % lam]
    row = [tampered(chi, i, k) for i, k in pairs]
    monkeypatch.setattr(cyclotomic.CyclotomicRing, "_reduce", counted_reduce)
    monkeypatch.setattr(
        cyclotomic.CyclotomicRing, "invariant_residue", counted_residue
    )
    results = _row_products(chi, row)
    assert len(results) == len(pairs) == lam - 2
    assert calls == {"_reduce": [lam], "invariant_residue": lam - 2}
    target = [p] + [0] * (chi.ring.degree - 1)
    for (i, k), (counts, product) in zip(pairs, results):
        assert counts == tampered(chi, i, k), (i, k)
        j = chi.ring.element([-c for c in counts])
        assert product == reflection_reference(chi, j)["product"], (i, k)
        assert (product == target) is ((i, k) != bad), (i, k)


def test_reflection_row_array_holds_every_autocorrelation(monkeypatch):
    # the row's word holds every lag: counts of at most 255 // (p - 2) + 1
    # = 6 at p = 47 whose squares sum to 261 do not fit a byte, so the row
    # is packed in wider words and its array is each pair's autocorrelation
    p, lam = 47, 46
    base = [6] * 7 + [3] + [0] * (lam - 8)
    arrays = []
    unpack = polyint.unpack_words

    def recorded(x, code, count):
        arrays.append(unpack(x, code, count))
        return arrays[-1]

    chi = character(p, lam)
    row = [base[k:] + base[:k] for k in (1, 2, 3)]
    monkeypatch.setattr(polyint, "unpack_words", recorded)
    results = _row_products(chi, row)
    assert len(results) == len(row)
    for j, (counts, product) in enumerate(results):
        assert arrays[0][j * lam : (j + 1) * lam].tolist() == autocorrelation(counts)
        j_sum = chi.ring.element([-c for c in counts])
        assert product == reflection_reference(chi, j_sum)["product"]


REFLECTION_CHARACTERS = [
    (p, lam) for p in primes_below(200) for lam in range(3, p) if (p - 1) % lam == 0
]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_reflection_rows_match_the_references_on_generated_passes(data):
    # rows of one pair and long rows, one to five of them, indices outside
    # 1 .. lam - 1 included (the counts read them mod lam)
    p, lam = data.draw(st.sampled_from(REFLECTION_CHARACTERS))
    chi = character(p, lam)
    index = st.integers(-2 * lam, 2 * lam).filter(lambda i: i % lam)
    target = [p] + [0] * (chi.ring.degree - 1)
    for _ in range(data.draw(st.integers(1, 5))):
        i = data.draw(index)
        ks = st.integers(-2 * lam, 2 * lam).filter(
            lambda k, i=i: k % lam and (i + k) % lam
        )
        length = data.draw(st.sampled_from([1, 1, 2, lam]))
        pairs = [(i, data.draw(ks)) for _ in range(length)]
        results = _row_products(chi, [_checked_counts(chi, *pair) for pair in pairs])
        assert len(results) == len(pairs)
        for (i, k), (counts, product) in zip(pairs, results):
            assert counts == counts_reference(chi, i, k), (i, k)
            j = jacobi_sum(chi, i, k)
            assert product == reflection_reference(chi, j)["product"] == target, (i, k)
