"""Hilbert monoid divisor theory and the singular monoid counterexample."""

import itertools
import math
import random
from math import gcd, lcm

import pytest

from kummerlab.arith import factorize_int, primes_below
from kummerlab.monoid import (
    HilbertMonoid,
    SingularMonoid,
    _invariant_factors,
    class_group,
    defined_at,
    factor_into_irreducibles,
    ideal_factorization,
    is_irreducible,
    multiplicity_monoid,
    singular_monoid_report,
    square_test,
    uniformizer,
)

M4 = HilbertMonoid(4, [1])


def test_membership_and_validation():
    assert 21 in M4 and 9 in M4 and 1 in M4
    assert 3 not in M4 and 0 not in M4
    with pytest.raises(ValueError):
        HilbertMonoid(4, [2])  # 2 is not a unit mod 4
    with pytest.raises(ValueError):
        HilbertMonoid(5, [1, 2])  # not closed: 2*2 = 4 missing


def test_irreducibles():
    assert is_irreducible(M4, 9)
    assert is_irreducible(M4, 21)
    assert is_irreducible(M4, 49)
    assert not is_irreducible(M4, 25)  # 5 * 5
    assert not is_irreducible(M4, 1)


def test_factorizations_of_441():
    assert factor_into_irreducibles(M4, 441, all_factorizations=True) == [
        (9, 49),
        (21, 21),
    ]
    assert factor_into_irreducibles(M4, 9) == (9,)
    assert factor_into_irreducibles(M4, 1) == ()
    with pytest.raises(ValueError):
        factor_into_irreducibles(M4, 7)


def test_ideal_factorization():
    assert ideal_factorization(M4, 441) == [(3, 2), (7, 2)]
    assert ideal_factorization(M4, 9) == [(3, 2)]
    # the ideal prime of p is principal iff p mod m lies in H
    [(five, _)] = ideal_factorization(M4, 5)
    assert five % M4.m in M4.subgroup
    [(three, _)] = ideal_factorization(M4, 9)
    assert three % M4.m not in M4.subgroup
    with pytest.raises(ValueError):
        ideal_factorization(M4, 12)  # not in M / shares factor with modulus


def test_ideal_factorization_matches_integers():
    for a in range(1, 10001):
        if a in M4:
            factors = ideal_factorization(M4, a)
            assert dict(factors) == factorize_int(a)
            assert factors == sorted(factors)
            prod = 1
            for p, e in factors:
                prod *= p**e
            assert prod == a


def test_defined_at_cancellation_chain():
    assert defined_at(M4, 3, 9, 21) == {"defined": True, "value": 0}
    second = defined_at(M4, 3, 9, 21**2)
    assert second["defined"] and second["value"] == 1  # value of 1/49 mod 3
    third = defined_at(M4, 3, 9, 21**3)
    assert third == {"defined": False, "value": "oo"}
    assert defined_at(M4, 3, 21, 9) == {"defined": False, "value": "oo"}


def _defined_at_full_scan(M, p, a, b):
    # the reference: scan every scale s up to m*p, the period of both
    # conditions
    m = M.m
    residues = {r for r in range(m) if r + m in M}
    g = gcd(a, b)
    a0, b0 = a // g, b // g

    def witness(num, den):
        for s in range(1, m * p + 1):
            if (num * s) % m in residues and (den * s) % m in residues:
                if (den * s) % p != 0:
                    return s
        return None

    s = witness(a0, b0)
    if s is not None:
        return {"defined": True, "value": a0 * s % p * pow(b0 * s % p, -1, p) % p}
    s_inv = witness(b0, a0)
    if s_inv is not None and (b0 * s_inv) % p == 0:
        return {"defined": False, "value": "oo"}
    return {"defined": False, "value": None}


def test_defined_at_scale_bound_matches_full_scan():
    monoids = [
        M4,
        HilbertMonoid(5, [1]),
        HilbertMonoid(8, [1, 3]),
        HilbertMonoid(9, [1, 8]),
        HilbertMonoid(12, [1]),
        SingularMonoid(),
    ]
    outcomes = set()
    for M in monoids:
        members = [a for a in range(1, 41) if a in M]
        for p in (2, 3, 5, 7, 11):
            for a in members:
                for b in members:
                    rep = defined_at(M, p, a, b)
                    assert rep == _defined_at_full_scan(M, p, a, b), (M, p, a, b)
                    outcomes.add(str(rep["value"]) if not rep["defined"] else "finite")
    assert outcomes == {"finite", "oo", "None"}


def test_defined_at_large_prime_answers_at_once():
    # the scale search is bounded by 2m, not m*p
    p = 100000007
    assert defined_at(M4, p, 1, p * p) == {"defined": False, "value": "oo"}
    assert defined_at(M4, p, p * p, 1) == {"defined": True, "value": 0}


def test_defined_at_refuses_an_entry_outside_the_monoid():
    # a is checked before b, and both before the prime
    with pytest.raises(ValueError, match=r"^0 is not in HilbertMonoid\(m=4, H=\[1\]\)$"):
        defined_at(M4, 4, 0, 2)
    with pytest.raises(ValueError, match=r"^2 is not in HilbertMonoid\(m=4, H=\[1\]\)$"):
        defined_at(M4, 4, 9, 2)
    with pytest.raises(ValueError, match=r"^3 is not in SingularMonoid"):
        defined_at(SingularMonoid(), 2, 1, 3)


def test_uniformizers():
    assert uniformizer(M4, 3) == 21
    assert uniformizer(M4, 5) == 5
    assert uniformizer(M4, 7) == 7 * 3
    with pytest.raises(ValueError):
        uniformizer(M4, 2)  # divides the modulus: outside theory


def test_nine_is_not_a_uniformizer():
    # 21 is killed by the map, but the map is undefined at 21/9
    assert defined_at(M4, 3, 21, 9)["defined"] is False


def test_multiplicity():
    assert multiplicity_monoid(M4, 3, 9) == 2
    assert multiplicity_monoid(M4, 3, 5) == 0
    assert multiplicity_monoid(M4, 7, 441) == 2
    for q in (21, 33, 57):  # 3*7, 3*11, 3*19
        assert multiplicity_monoid(M4, 3, 9, q) == 2


def test_multiplicity_uniformizer_independent_sweep():
    for a in range(1, 1001):
        if a in M4:
            expected = multiplicity_monoid(M4, 3, a, 21)
            for q in (33, 57):
                assert multiplicity_monoid(M4, 3, a, q) == expected, a


def test_multiplicity_equals_integer_exponent():
    for a in range(1, 1000):
        if a in M4 and gcd(a, 4) == 1:
            for p in (3, 5, 7):
                exp = 0
                n = a
                while n % p == 0:
                    exp += 1
                    n //= p
                assert multiplicity_monoid(M4, p, a) == exp


def test_class_groups():
    rep = class_group(M4)
    assert rep["order"] == 2 and rep["invariant_factors"] == [2]
    assert class_group(HilbertMonoid(5, [1, 2, 3, 4]))["order"] == 1
    klein = class_group(HilbertMonoid(8, [1]))
    assert klein["order"] == 4
    assert klein["invariant_factors"] == [2, 2]
    assert klein["isomorphic_to"] == "C2 x C2"
    cyclic = class_group(HilbertMonoid(5, [1]))
    assert cyclic["order"] == 4 and cyclic["invariant_factors"] == [4]


def _invariant_chains(n: int) -> list[list[int]]:
    """All chains d_1 | d_2 | ... with product n and every d_i > 1."""
    if n == 1:
        return [[]]
    out = []

    def recurse(remaining: int, max_d: int, chain: list[int]):
        if remaining == 1:
            out.append(list(reversed(chain)))
            return
        for d in range(2, max_d + 1):
            if max_d % d == 0 and remaining % d == 0:
                recurse(remaining // d, d, chain + [d])

    recurse(n, n, [])
    return out


def _model_orders(chain: list[int]) -> list[int]:
    """The sorted element orders of C_d1 x C_d2 x ..."""
    return sorted(
        lcm(*[d // gcd(x, d) for d, x in zip(chain, combo)], 1)
        for combo in itertools.product(*[range(d) for d in chain])
    )


def _invariants_by_search(n: int, orders: list[int]) -> list[int]:
    """The chain whose model group has the given element-order multiset,
    found by trying every chain of order n."""
    for chain in _invariant_chains(n):
        if _model_orders(chain) == orders:
            return chain
    raise AssertionError("element orders must match some abelian group")


def test_invariant_factors_of_every_model_group():
    for n in range(1, 130):
        for chain in _invariant_chains(n):
            assert _invariant_factors(n, _model_orders(chain)) == chain
    with pytest.raises(AssertionError):
        _invariant_factors(4, [1, 2, 4, 4, 4])


def test_class_group_invariants_match_the_search():
    # H = {1}, the squares, cubes and fourth powers of the units mod m
    seen = set()
    for m in range(2, 90):
        units = [a for a in range(1, m) if gcd(a, m) == 1]
        for k in (1, 2, 3, 4):
            H = {pow(a, k, m) for a in units} if k > 1 else {1}
            rep = class_group(HilbertMonoid(m, H))
            n, orders = rep["order"], rep["element_orders"]
            assert rep["invariant_factors"] == _invariants_by_search(n, orders)
            seen.add(tuple(rep["invariant_factors"]))
    assert {(2, 2, 2), (2, 12), (2, 2, 4), (3, 3)} <= seen


def test_class_group_law_well_defined():
    M = HilbertMonoid(8, [1])
    rep = class_group(M)
    cosets = [tuple(c) for c in rep["cosets"]]
    table = rep["table"]
    for i, ci in enumerate(cosets):
        for j, cj in enumerate(cosets):
            # any pair of representatives lands in the product coset
            for a in ci:
                for b in cj:
                    assert a * b % 8 in cosets[table[i][j]]


def _generated_monoids(seed: int = 2718) -> list[HilbertMonoid]:
    """For every m from 2 to 60, the subgroups closed from 0, 1 and 2 units
    drawn at random."""
    rng = random.Random(seed)
    out = []
    for m in range(2, 61):
        units = [a for a in range(1, m) if gcd(a, m) == 1]
        for k in (0, 1, 2):
            gens = rng.sample(units, min(k, len(units)))
            H, grown = set(), {1}
            while grown != H:
                H, grown = grown, grown | {h * g % m for h in grown for g in gens}
            out.append(HilbertMonoid(m, H))
    return out


GENERATED = _generated_monoids()


def test_class_group_table_and_orders_by_brute_force():
    for M in GENERATED:
        m, H = M.m, set(M.subgroup)
        rep = class_group(M)
        cosets = [tuple(c) for c in rep["cosets"]]
        units = [a for a in range(1, m) if gcd(a, m) == 1]
        assert sorted(r for c in cosets for r in c) == units, M
        assert all(set(c) == {c[0] * h % m for h in H} for c in cosets), M
        for i, ci in enumerate(cosets):
            for j, cj in enumerate(cosets):
                holders = [k for k, c in enumerate(cosets) if ci[0] * cj[0] % m in c]
                assert holders == [rep["table"][i][j]], (M, i, j)
        orders = [
            next(k for k in itertools.count(1) if pow(c[0], k, m) in H)
            for c in cosets
        ]
        assert rep["element_orders"] == sorted(orders), M


def test_class_group_invariant_factors_on_generated_monoids():
    for M in GENERATED:
        rep = class_group(M)
        inv = rep["invariant_factors"]
        assert math.prod(inv) == rep["order"], M
        assert all(b % a == 0 for a, b in zip(inv, inv[1:])), M
        assert (inv[-1] if inv else 1) == max(rep["element_orders"]), M


def test_uniformizer_is_the_least_on_generated_monoids():
    for M in GENERATED:
        for p in primes_below(60):
            if M.m % p == 0:
                with pytest.raises(ValueError):
                    uniformizer(M, p)
                continue
            r = next(r for r in itertools.count(1) if r % p and p * r in M)
            q = uniformizer(M, p)
            assert q == p * r, (M, p)
            assert multiplicity_monoid(M, p, q, q) == 1, (M, p)


def test_square_tests():
    assert square_test(M4, 25) == {"square_in_M": True, "square_in_QM": True}
    assert square_test(M4, 9) == {"square_in_M": False, "square_in_QM": False}
    assert square_test(M4, 441) == {"square_in_M": True, "square_in_QM": True}


def test_square_booleans_coincide():
    for a in range(1, 10001):
        if a in M4:
            rep = square_test(M4, a)
            assert rep["square_in_M"] == rep["square_in_QM"], a


def test_dichotomy_in_hilbert_monoids():
    members = [a for a in range(1, 501) if a in M4]
    for p in (3, 7):
        for a in members:
            for b in members:
                forward = defined_at(M4, p, a, b)["defined"]
                backward = defined_at(M4, p, b, a)["defined"]
                assert forward or backward, (p, a, b)


def test_singular_monoid_membership():
    N = SingularMonoid()
    assert 6 in N and 2 in N and 9 in N
    assert 3 not in N and 7 not in N


def test_singular_dichotomy_failure_pattern():
    # undefined in both directions exactly when the reduced fraction is a
    # ratio of odd numbers whose product is 3 mod 4
    N = SingularMonoid()
    for a in range(1, 61):
        for b in range(1, 61):
            if a not in N or b not in N:
                continue
            g = gcd(a, b)
            a0, b0 = a // g, b // g
            forward = defined_at(N, 2, a, b)["defined"]
            backward = defined_at(N, 2, b, a)["defined"]
            both_fail = not forward and not backward
            expected = a0 % 2 == 1 and b0 % 2 == 1 and (a0 * b0) % 4 == 3
            assert both_fail == expected, (a, b)


def test_singular_report():
    rep = singular_monoid_report()
    assert rep["holds"]
    assert not rep["defined_at_6_over_2"]
    assert not rep["defined_at_2_over_6"]
    assert rep["nine_square_in_QN"] and not rep["nine_square_in_N"]
