"""The reproducible claim suite: worked examples plus the acceptance grid.

Every claim is a pure function returning a small result dict; a failed
mathematical assertion marks the claim failed.  Claims are keyed by
descriptive ids ("valuation/ramified-multiplicities"), run in sorted order,
and the rendered output is byte-identical across runs.
"""

import json
import random
import time

from kummerlab import charsum, monoid, quadorder
from kummerlab.arith import (
    DEFAULT_TRIAL_DIVISION_BOUND,
    factorize_int,
    multiplicative_order,
    primes_below,
)
from kummerlab.cyclotomic import cyclotomic_ring, gaussian_periods, norm
from kummerlab.exprparse import render_element
from kummerlab.idealprimes import enumerate_jacobi_maps, map_for_root
from kummerlab.polyint import cyclotomic_polynomial
from kummerlab.polymod import factor_mod_p
from kummerlab.reports import render_json
from kummerlab.valuation import (
    divides,
    factorize,
    kummer_prime,
    multiplicities,
    multiplicity,
    quotient_and_norm,
    valuation_oracle,
    valuation_oracles,
)

SEED = 20260810


class Config:
    """The suite's one fixed configuration; it takes no arguments."""

    enum_cap = 10000
    trial_division_bound = DEFAULT_TRIAL_DIVISION_BOUND


_CLAIMS: list[tuple[str, object]] = []


def claim(name: str):
    def register(fn):
        _CLAIMS.append((name, fn))
        return fn

    return register


def _elements(lam: int, count: int, seed_offset: int):
    rng = random.Random(SEED + seed_offset)
    ring = cyclotomic_ring(lam)
    out = []
    while len(out) < count:
        x = ring.element([rng.randint(-4, 4) for _ in range(lam - 1)])
        if not x.is_zero():
            out.append(x)
    return out


def _all_kummer_primes(lam: int, prime_bound: int):
    out = []
    for p in primes_below(prime_bound + 1):
        for phi in enumerate_jacobi_maps(lam, p):
            out.append(kummer_prime(phi))
    return out


# ---------------------------------------------------------------------------
# Worked examples
# ---------------------------------------------------------------------------


@claim("core/cyclotomic-polynomials")
def _claim_cyclotomic(cfg: Config) -> dict:
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    return {"checked": [1, 5, 12]}


@claim("core/factor-mod-p")
def _claim_factor(cfg: Config) -> dict:
    roots = sorted(
        (-f[0]) % 11 for f, _ in factor_mod_p(list(cyclotomic_polynomial(5)), 11)
    )
    assert roots == [3, 4, 5, 9]
    inert = factor_mod_p(list(cyclotomic_polynomial(5)), 2)
    assert len(inert) == 1 and len(inert[0][0]) - 1 == 4
    ramified = factor_mod_p(list(cyclotomic_polynomial(5)), 5)
    assert ramified == [([4, 1], 4)]
    return {"phi5_roots_mod_11": roots}


@claim("core/prime-square-lattices")
def _claim_lattice_anomaly(cfg: Config) -> dict:
    report = quadorder.prime_square_anomaly()
    assert report["holds"], report
    return report


@claim("cyclotomic/norms")
def _claim_norms(cfg: Config) -> dict:
    ring = cyclotomic_ring(5)
    a = ring.alpha()
    assert norm(ring.one() - a) == 5
    assert norm(ring.element([2, 1])) == 11
    assert norm(ring.element(3)) == 81
    return {"norm_1_minus_a": 5, "norm_2_plus_a": 11}


@claim("cyclotomic/gaussian-periods")
def _claim_periods(cfg: Config) -> dict:
    sys52 = gaussian_periods(5, 2)
    ring = sys52.ring
    assert sys52.periods[0] == ring.alpha(1) + ring.alpha(4)
    assert sys52.periods[1] == ring.alpha(2) + ring.alpha(3)
    sys73 = gaussian_periods(7, 3)
    ring7 = sys73.ring
    assert sys73.g == 3
    assert sys73.periods[0] == ring7.alpha(1) + ring7.alpha(6)
    for system in (sys52, sys73, gaussian_periods(5, 4)):
        total = system.ring.zero()
        for eta in system.periods:
            total = total + eta
        assert total == system.ring.element(-1)
    return {"period_sums": -1}


@claim("ideal-primes/census-examples")
def _claim_map_examples(cfg: Config) -> dict:
    maps11 = enumerate_jacobi_maps(5, 11)
    assert sorted(m.label() for m in maps11) == [3, 4, 5, 9]
    maps2 = enumerate_jacobi_maps(5, 2)
    assert len(maps2) == 1 and maps2[0].f == 4
    maps5 = enumerate_jacobi_maps(5, 5)
    ring = maps5[0].ring
    assert maps5[0].apply(ring.alpha()) == (1,)
    assert maps5[0].kills(ring.one() - ring.alpha())
    return {"maps_of_11": sorted(m.label() for m in maps11)}


@claim("ideal-primes/period-residues")
def _claim_u_vectors(cfg: Config) -> dict:
    vectors = sorted(m.period_residues() for m in enumerate_jacobi_maps(5, 19))
    assert vectors == [(4, 14), (14, 4)]
    phi3 = map_for_root(enumerate_jacobi_maps(5, 11), 3)
    assert phi3.period_residues() == (3, 9, 4, 5)
    for u in vectors:
        assert sum(u) % 19 == 19 - 1
    return {"p19_u_vectors": [list(v) for v in vectors]}


@claim("valuation/uniformizer-certificates")
def _claim_uniformizers(cfg: Config) -> dict:
    maps11 = enumerate_jacobi_maps(5, 11)
    ring = maps11[0].ring
    K9 = kummer_prime(map_for_root(maps11, 9))
    assert K9.map.kills(K9.psi)
    assert K9.period_norm % 11 == 0 and (K9.period_norm // 11) % 11 != 0
    # psi = alpha - u_0 with u_0 = 9 = -2 mod 11: Kummer's own 2 + alpha ...
    cand = ring.element([2, 1])
    assert K9.psi == cand
    assert K9.map.kills(cand) and norm(cand) == 11
    # ... while alpha - 3 is killed by the xi = 3 map but has norm 11^2,
    # so that map's uniformizer is alpha - 3 + 11 = 8 + alpha.
    rejected = ring.alpha() - ring.element(3)
    assert map_for_root(maps11, 3).kills(rejected)
    assert norm(rejected) == 121
    assert kummer_prime(map_for_root(maps11, 3)).psi == ring.element([8, 1])
    K_ram = kummer_prime(enumerate_jacobi_maps(3, 3)[0])
    assert abs(K_ram.period_norm) == 3
    return {
        "psi_for_xi9": render_element(K9.psi),
        "rejected": render_element(rejected),
        "rejected_norm": 121,
    }


@claim("valuation/multiplicities")
def _claim_multiplicities(cfg: Config) -> dict:
    ring = cyclotomic_ring(5)
    eleven = ring.element(11)
    for phi in enumerate_jacobi_maps(5, 11):
        assert multiplicity(eleven, kummer_prime(phi)) == 1
        assert valuation_oracle(eleven, phi) == 1
    ram = enumerate_jacobi_maps(5, 5)[0]
    K = kummer_prime(ram)
    pi4 = (ring.one() - ring.alpha()) ** 4
    assert multiplicity(pi4, K) == 4
    assert multiplicity(ring.element(5), K) == 4
    assert valuation_oracle(ring.element(5), ram) == 4
    assert valuation_oracle(ring.alpha(), ram) == 0
    return {"v_ram_of_5": 4, "v_of_11_at_each_map": 1}


@claim("valuation/defined-at")
def _claim_defined_at(cfg: Config) -> dict:
    ring = cyclotomic_ring(5)
    maps11 = enumerate_jacobi_maps(5, 11)
    phi9 = map_for_root(maps11, 9)
    eleven, d = ring.element(11), ring.element([2, 1])
    [rep] = quadorder.dichotomy_check([phi9], eleven, d)
    assert rep["at_fraction"]
    q = quotient_and_norm(d, eleven)[0]
    assert q is not None
    vals = sorted(valuation_oracle(q, m) for m in maps11)
    assert vals == [0, 1, 1, 1]
    return {"quotient": render_element(q), "valuations": vals}


@claim("valuation/divides")
def _claim_divides(cfg: Config) -> dict:
    ring = cyclotomic_ring(5)
    pi = ring.one() - ring.alpha()
    assert divides(pi, ring.element(5))
    assert not divides(pi**5, ring.element(5))
    assert divides(ring.element([2, 1]), ring.element(11))
    assert divides(ring.element([2, 1]), ring.element([2, 1]))
    return {"ramified_divides_5": True}


@claim("valuation/factorize-examples")
def _claim_factorize(cfg: Config) -> dict:
    ring = cyclotomic_ring(5)
    assert factorize(ring.one()).records == ()
    f1 = factorize(ring.one() - ring.alpha())
    assert [(r.map.p, r.map.label(), r.mu) for r in f1.records if r.mu] == [(5, 1, 1)]
    f2 = factorize(ring.element([2, 1]))
    assert [(r.map.p, r.map.label(), r.mu) for r in f2.records if r.mu] == [(11, 9, 1)]
    return {"factor_2_plus_a": [(11, 9, 1)]}


@claim("charsum/fundamental-congruence-13")
def _claim_fc13(cfg: Config) -> dict:
    low = charsum.fundamental_congruence_check(13, 3, 4)
    high = charsum.fundamental_congruence_check(13, 8, 9)
    assert low["holds"] and low["value"] == 0
    assert high["holds"] and high["value"] == 9 and high["expected"] == 9
    return {"i3_k4": 0, "i8_k9": 9}


@claim("charsum/reflection-examples")
def _claim_reflection(cfg: Config) -> dict:
    for p, lam, i, k in [(11, 5, 1, 1), (13, 3, 1, 1), (13, 12, 3, 4)]:
        rep = charsum.reflection_identity(charsum.character(p, lam), i, k)
        assert rep["holds"], rep
    return {"verified": [[11, 5], [13, 3], [13, 12]]}


@claim("charsum/gauss-sum-ratio")
def _claim_ratio(cfg: Config) -> dict:
    chi = charsum.character(11, 5)
    ratio = charsum.gauss_sum_ratio(chi, 1, 1)
    assert ratio == -charsum.jacobi_sum(chi, 1, 1)
    assert charsum.gauss_sum(chi, 0) == -1
    chi7 = charsum.character(7, 3)
    assert charsum.gauss_sum(chi7, 1) * charsum.gauss_sum(chi7, 2) == 7
    return {"ratio_equals_minus_J": True, "trivial_sum": -1}


@claim("charsum/quartic-examples")
def _claim_quartic(cfg: Config) -> dict:
    out = {}
    for p in (5, 13, 17):
        rep = charsum.quartic_decomposition(p)
        assert rep["congruence_holds"], rep
        out[str(p)] = rep["J"]
    assert sorted(abs(c) for c in out["13"]) == [2, 3]
    return out


@claim("charsum/binomial-examples")
def _claim_binomial(cfg: Config) -> dict:
    out = {}
    for p in (5, 13, 29):
        rep = charsum.binomial_congruence(p)
        assert rep["congruence_holds"], rep
        out[str(p)] = [rep["a"], rep["b"]]
    assert out["13"] == [3, 1] and out["29"] == [5, 1]
    return out


@claim("charsum/stickelberger-5-11")
def _claim_stick_example(cfg: Config) -> dict:
    rep = charsum.stickelberger_check(5, 11)
    assert rep["holds"]
    assert [e["valuation"] for e in rep["entries"]] == [1, 1, 0, 0]
    return {"valuations": [1, 1, 0, 0], "norm": rep["norm"]}


@claim("monoid/factorizations")
def _claim_monoid_factor(cfg: Config) -> dict:
    M = monoid.HilbertMonoid(4, [1])
    assert monoid.factor_into_irreducibles(M, 441, all_factorizations=True) == [
        (9, 49),
        (21, 21),
    ]
    assert monoid.factor_into_irreducibles(M, 9) == (9,)
    assert monoid.factor_into_irreducibles(M, 1) == ()
    ideal = monoid.ideal_factorization(M, 441)
    assert ideal == [(3, 2), (7, 2)]
    return {"factorizations_of_441": [[9, 49], [21, 21]], "ideal": ideal}


@claim("monoid/defined-at")
def _claim_monoid_defined(cfg: Config) -> dict:
    M = monoid.HilbertMonoid(4, [1])
    first = monoid.defined_at(M, 3, 9, 21)
    second = monoid.defined_at(M, 3, 9, 21**2)
    third = monoid.defined_at(M, 3, 9, 21**3)
    assert first == {"defined": True, "value": 0}
    assert second["defined"] and second["value"] == 1
    assert not third["defined"]
    assert monoid.uniformizer(M, 3) == 21
    assert monoid.uniformizer(M, 5) == 5
    # 9 is not a uniformizer: the map is not defined at 21/9.
    assert not monoid.defined_at(M, 3, 21, 9)["defined"]
    return {"at_9_over_21": 0, "at_9_over_441": 1, "at_9_over_9261": None}


@claim("monoid/class-groups")
def _claim_class_groups(cfg: Config) -> dict:
    small = monoid.class_group(monoid.HilbertMonoid(4, [1]))
    assert small["order"] == 2
    trivial = monoid.class_group(monoid.HilbertMonoid(5, [1, 2, 3, 4]))
    assert trivial["order"] == 1
    klein = monoid.class_group(monoid.HilbertMonoid(8, [1]))
    assert klein["order"] == 4 and klein["invariant_factors"] == [2, 2]
    return {
        "m4": small["isomorphic_to"],
        "m5_full": trivial["isomorphic_to"],
        "m8": klein["isomorphic_to"],
    }


@claim("monoid/singular")
def _claim_singular_monoid(cfg: Config) -> dict:
    rep = monoid.singular_monoid_report()
    assert rep["holds"], rep
    return rep


@claim("quad/maps")
def _claim_quad_maps(cfg: Config) -> dict:
    maps = quadorder.enumerate_quad_maps(quadorder.QuadOrder(0, 3), 2)
    assert len(maps) == 1 and maps[0].label() == 1
    gauss = quadorder.enumerate_quad_maps(quadorder.QuadOrder(0, 1), 5)
    assert sorted(m.label() for m in gauss) == [2, 3]
    three_i = quadorder.enumerate_quad_maps(quadorder.QuadOrder(0, 9), 3)
    assert len(three_i) == 1 and three_i[0].label() == 0
    return {"sqrt_minus_3_mod_2": 1, "gaussian_mod_5": [2, 3]}


@claim("quad/conductors")
def _claim_conductors(cfg: Config) -> dict:
    out = {}
    for name, u, v, expected in quadorder.CATALOG:
        c = quadorder.conductor(quadorder.QuadOrder(u, v))
        assert c == expected, name
        out[name] = c
    return out


@claim("quad/gauss-lemma")
def _claim_gauss_lemma(cfg: Config) -> dict:
    o_m3 = quadorder.QuadOrder(0, 3)
    rep = quadorder.gauss_lemma_check(o_m3, o_m3.element(1), o_m3.element(1))
    assert rep["reducible_over_K"] and not rep["reducible_over_O"]
    o_5 = quadorder.QuadOrder(0, -5)
    rep5 = quadorder.gauss_lemma_check(o_5, o_5.element(-1), o_5.element(-1))
    assert rep5["reducible_over_K"] and not rep5["reducible_over_O"]
    o_i = quadorder.QuadOrder(0, 1)
    rep_i = quadorder.gauss_lemma_check(o_i, o_i.element(0), o_i.element(-4))
    assert rep_i["reducible_over_K"] and rep_i["reducible_over_O"]
    return {"witnesses": ["T^2+T+1 over Z[sqrt(-3)]", "T^2-T-1 over Z[sqrt(5)]"]}


# ---------------------------------------------------------------------------
# Acceptance criteria
# ---------------------------------------------------------------------------


@claim("acceptance/01-jacobi-map-census")
def _acc_census(cfg: Config) -> dict:
    pairs = 0
    for lam in (3, 5, 7, 11, 13):
        for p in primes_below(200):
            maps = enumerate_jacobi_maps(lam, p)
            if p == lam:
                expected = 1
            else:
                expected = (lam - 1) // multiplicative_order(p, lam)
            assert len(maps) == expected, (lam, p)
            pairs += 1
    return {"pairs_checked": pairs}


@claim("acceptance/02-fundamental-congruence")
def _acc_fc(cfg: Config) -> dict:
    checked = 0
    for p in (5, 7, 11, 13):
        for i, k in charsum.pairs(p - 1):
            rep = charsum.fundamental_congruence_check(p, i, k)
            assert rep["holds"], rep
            checked += 1
    return {"cases": checked}


@claim("acceptance/03-reflection-identity")
def _acc_reflection(cfg: Config) -> dict:
    checked = 0
    for p in primes_below(51):
        if p == 2:
            continue
        for lam in range(2, p):
            if (p - 1) % lam != 0:
                continue
            chi = charsum.character(p, lam)
            expected = [p] + [0] * (chi.ring.degree - 1)
            for _, product in charsum.reflection_products(chi):
                assert product == expected, (p, lam, product)
                checked += 1
    return {"cases": checked}


@claim("acceptance/04-stickelberger")
def _acc_stickelberger(cfg: Config) -> dict:
    out = {}
    for lam, p in [(3, 7), (3, 13), (5, 11), (5, 31), (7, 29)]:
        rep = charsum.stickelberger_check(lam, p)
        assert rep["holds"], rep
        out[f"{lam},{p}"] = [e["valuation"] for e in rep["entries"]]
    return out


@claim("acceptance/05-quartic-and-binomial")
def _acc_quartic(cfg: Config) -> dict:
    for p in (5, 13, 17, 29):
        rep = charsum.quartic_decomposition(p)
        assert rep["congruence_holds"], rep
        rep2 = charsum.binomial_congruence(p)
        assert rep2["congruence_holds"], rep2
    return {"primes": [5, 13, 17, 29]}


@claim("acceptance/06-kummer-vs-oracle")
def _acc_agreement(cfg: Config) -> dict:
    checked = 0
    positive = 0
    for lam in (3, 5, 7):
        primes = _all_kummer_primes(lam, 50)
        corpus = _elements(lam, 170, seed_offset=lam)
        kummer = multiplicities(corpus, primes)
        oracle = valuation_oracles(corpus, [K.map for K in primes])
        for i, x in enumerate(corpus):
            for K, mus, vs in zip(primes, kummer, oracle):
                mu = mus[i]
                assert mu == vs[i], (lam, K, x)
                checked += 1
                positive += mu > 0
        rng = random.Random(SEED + 100 + lam)
        ring = cyclotomic_ring(lam)
        xs, ys = [], []
        while len(xs) < 60:
            x = ring.element([rng.randint(-4, 4) for _ in range(lam - 1)])
            y = ring.element([rng.randint(-4, 4) for _ in range(lam - 1)])
            if not (x.is_zero() or y.is_zero()):
                xs.append(x)
                ys.append(y)
        sums = [x + y for x, y in zip(xs, ys)]
        kept = [i for i, s in enumerate(sums) if not s.is_zero()]
        products = [x * y for x, y in zip(xs, ys)]
        batches = (xs, ys, products, [sums[i] for i in kept])
        for a, b, ab, s in zip(*(multiplicities(batch, primes) for batch in batches)):
            assert ab == [u + v for u, v in zip(a, b)]
            assert all(t >= min(a[i], b[i]) for i, t in zip(kept, s))
    assert checked >= 500 * 20
    return {"element_map_checks": checked, "positive_valuations": positive}


@claim("acceptance/07-norm-consistency")
def _acc_norm_consistency(cfg: Config) -> dict:
    elements = 0
    for lam in (3, 5, 7):
        for x in _elements(lam, 60, seed_offset=200 + lam):
            # factorize validates sum f*mu == v_p(norm) for every p | norm
            factorize(x, cfg.trial_division_bound)
            elements += 1
    return {"elements": elements}


@claim("acceptance/08-completeness")
def _acc_completeness(cfg: Config) -> dict:
    ring = cyclotomic_ring(5)
    rng = random.Random(SEED + 300)
    cases = []
    while len(cases) < 100:
        x = ring.element([rng.randint(-4, 4) for _ in range(4)])
        y = ring.element([rng.randint(-3, 3) for _ in range(4)])
        if not x.is_zero() and not y.is_zero():
            cases.append((x, y))
    while len(cases) < 200:
        y = ring.element([rng.randint(-2, 2) for _ in range(4)])
        z = ring.element([rng.randint(-2, 2) for _ in range(4)])
        if not y.is_zero() and not z.is_zero():
            cases.append((y * z, y))
    divisible = 0
    for x, y in cases:
        quotient, norm_y = quotient_and_norm(y, x)
        by_division = quotient is not None
        primes = factorize_int(norm_y, cfg.trial_division_bound, conductor=ring.n)
        maps = [phi for p in primes for phi in enumerate_jacobi_maps(5, p)]
        reps = quadorder.dichotomy_check(maps, x, y)
        defined_everywhere = all(rep["at_fraction"] for rep in reps)
        assert defined_everywhere == by_division, (x, y)
        divisible += by_division
    return {"pairs": len(cases), "divisible": divisible}


@claim("acceptance/09-monoid-suite")
def _acc_monoid(cfg: Config) -> dict:
    M = monoid.HilbertMonoid(4, [1])
    assert monoid.factor_into_irreducibles(M, 441, all_factorizations=True) == [
        (9, 49),
        (21, 21),
    ]
    assert monoid.defined_at(M, 3, 9, 21)["defined"]
    assert monoid.defined_at(M, 3, 9, 21**2)["defined"]
    assert not monoid.defined_at(M, 3, 9, 21**3)["defined"]
    assert monoid.multiplicity_monoid(M, 3, 9) == 2
    for q in (21, 33, 57):
        assert monoid.multiplicity_monoid(M, 3, 9, q) == 2
    assert monoid.class_group(M)["order"] == 2
    squares = 0
    for a in range(1, cfg.enum_cap + 1):
        if a in M:
            rep = monoid.square_test(M, a)
            assert rep["square_in_M"] == rep["square_in_QM"], a
            squares += 1
    singular = monoid.singular_monoid_report()
    assert singular["holds"]
    return {"square_tests": squares, "class_group_order": 2}


@claim("acceptance/10-singular-orders")
def _acc_singular_orders(cfg: Config) -> dict:
    o_m3 = quadorder.QuadOrder(0, 3)
    phi2 = quadorder.enumerate_quad_maps(o_m3, 2)[0]
    [rep] = quadorder.dichotomy_check([phi2], o_m3.element([1, 1]), o_m3.element(2))
    assert rep == {"at_fraction": False, "at_inverse": False}
    anomaly = quadorder.prime_square_anomaly()
    assert anomaly["holds"]
    assert quadorder.conductor(o_m3) == 2
    lemma = quadorder.gauss_lemma_check(o_m3, o_m3.element(1), o_m3.element(1))
    assert lemma["reducible_over_K"] and not lemma["reducible_over_O"]
    for p in (2, 3, 5):
        order = quadorder.QuadOrder(0, p * p)  # Z[pi]
        phi = quadorder.enumerate_quad_maps(order, p)[0]
        [rep] = quadorder.dichotomy_check(
            [phi], order.element([0, 1]), order.element(p)
        )
        assert rep == {"at_fraction": False, "at_inverse": False}, p
    fractions = 0
    for u, v in [(0, 1), (-1, -1), (0, 5)]:  # maximal-order controls
        order = quadorder.QuadOrder(u, v)
        maps = [
            phi
            for p in primes_below(31)
            for phi in quadorder.enumerate_quad_maps(order, p)
        ]
        rng = random.Random(SEED + 400 + v)
        seen = 0
        while seen < 200:
            num = order.element([rng.randint(-9, 9), rng.randint(-9, 9)])
            den = order.element([rng.randint(-9, 9), rng.randint(-9, 9)])
            if num.is_zero() or den.is_zero():
                continue
            seen += 1
            fractions += 1
            reps = quadorder.dichotomy_check(maps, num, den)
            for phi, rep in zip(maps, reps):
                assert rep["at_fraction"] or rep["at_inverse"], (u, v, phi)
    return {"maximal_order_fractions": fractions}


@claim("acceptance/11-gauss-descent")
def _acc_descent(cfg: Config) -> dict:
    out = {}
    for lam, p in [(2, 5), (3, 7), (3, 13), (5, 11)]:
        rep = charsum.gauss_power_descent(lam, p)
        ring = cyclotomic_ring(lam)
        element = ring.element(rep["element"])
        if lam == 2:
            assert element == ring.element(5)
        else:
            chi = charsum.character(p, lam)
            expected = ring.element(p)
            for t in range(1, lam - 1):
                expected = expected * (-charsum.jacobi_sum(chi, 1, t))
            assert element == expected, (lam, p)
        out[f"{lam},{p}"] = rep["element"]
    return out


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def _run_one(name: str, fn, cfg: Config) -> dict:
    try:
        detail = fn(cfg)
        return {"claim": name, "status": "pass", "detail": detail}
    except AssertionError as exc:
        return {"claim": name, "status": "fail", "detail": {"error": str(exc)}}
    except Exception as exc:  # computational failure, still reported
        return {
            "claim": name,
            "status": "error",
            "detail": {"error": f"{type(exc).__name__}: {exc}"},
        }


def run_claims(cfg: Config, name_filter: str | None = None, trace=None) -> list[dict]:
    """Run the selected claims in sorted order; with a text file trace,
    write one JSON line per claim to it: claim, status and wall_s."""
    selected = sorted(
        (
            (name, fn)
            for name, fn in _CLAIMS
            if name_filter is None or name_filter in name
        ),
        key=lambda pair: pair[0],
    )
    results = []
    for name, fn in selected:
        t0 = time.perf_counter()
        result = _run_one(name, fn, cfg)
        if trace is not None:
            wall = time.perf_counter() - t0
            line = {"claim": name, "status": result["status"], "wall_s": wall}
            trace.write(json.dumps(line) + "\n")
        results.append(result)
    return results


def reproduce_all(
    name_filter: str | None = None,
    json_mode: bool = False,
    trace=None,
) -> tuple[str, int]:
    """Run the suite; returns (rendered output, exit code).  trace is
    passed on to run_claims and never touches the output.  A filter that
    selects no claim is refused, as it would pass having checked nothing."""
    results = run_claims(Config(), name_filter, trace)
    if not results:
        raise ValueError(f"--filter {name_filter!r} matches no claim")
    failures = [r for r in results if r["status"] != "pass"]
    if json_mode:
        out = render_json("reproduce", {"claims": results})
    else:
        lines = [f"{r['status'].upper():4s} {r['claim']}" for r in results]
        lines.append(
            f"{len(results) - len(failures)}/{len(results)} claims passed"
        )
        out = "\n".join(lines) + "\n"
    return out, (1 if failures else 0)
