"""Acceptance gate: one test per criterion, all exact, no tolerances.

Each test drives the corresponding claim of the reproduce suite and prints
a single pass/fail line; criterion 12 additionally certifies byte-identity
of two consecutive full JSON runs, their golden sha256 and the runtime budget.
"""

import hashlib
import time

import pytest

from kummerlab.reproduce import _CLAIMS, Config, reproduce_all

CFG = Config()
# sha256 of `kummerlab reproduce --json`; change it only together with an
# intended change of a reported value
GOLDEN_SHA256 = "d877aa3db64bcdd0738102067a3f6462751c922dd4fed0312fda51badc4a2872"
CLAIMS = dict(_CLAIMS)

CRITERIA = [
    (1, "jacobi-map-census", "acceptance/01-jacobi-map-census"),
    (2, "fundamental-congruence", "acceptance/02-fundamental-congruence"),
    (3, "reflection-identity", "acceptance/03-reflection-identity"),
    (4, "stickelberger", "acceptance/04-stickelberger"),
    (5, "quartic-and-binomial", "acceptance/05-quartic-and-binomial"),
    (6, "kummer-vs-oracle", "acceptance/06-kummer-vs-oracle"),
    (7, "norm-consistency", "acceptance/07-norm-consistency"),
    (8, "completeness", "acceptance/08-completeness"),
    (9, "monoid-suite", "acceptance/09-monoid-suite"),
    (10, "singular-orders", "acceptance/10-singular-orders"),
    (11, "gauss-descent", "acceptance/11-gauss-descent"),
]


@pytest.mark.parametrize("number,name,claim_id", CRITERIA)
def test_acceptance_criterion(number, name, claim_id):
    fn = CLAIMS[claim_id]
    try:
        detail = fn(CFG)
    except AssertionError:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS {detail}")


def test_acceptance_criterion_12_determinism():
    # two consecutive full JSON runs must agree byte for byte, each inside
    # the runtime budget
    t0 = time.time()
    first, code1 = reproduce_all(CFG, json_mode=True)
    mid = time.time()
    second, code2 = reproduce_all(CFG, json_mode=True)
    end = time.time()
    try:
        assert code1 == 0 and code2 == 0
        assert first == second
        assert hashlib.sha256(first.encode()).hexdigest() == GOLDEN_SHA256
        assert mid - t0 <= 60, f"first run took {mid - t0:.1f}s"
        assert end - mid <= 60, f"second run took {end - mid:.1f}s"
    except AssertionError:
        print("ACCEPTANCE 12 determinism: FAIL")
        raise
    print(
        f"ACCEPTANCE 12 determinism: PASS "
        f"{{'bytes': {len(first)}, 'runs': [{mid - t0:.1f}s, {end - mid:.1f}s]}}"
    )
