"""One workload in one fresh process: set up, run the closed loop, report.

``run.py`` starts this script with ``src`` on PYTHONPATH; it is not meant
to be run by hand.  The workload's inputs come from ``--seed`` (and, for
``factorize`` and ``charsum``, their size from ``--seconds``); the library
only ever sees the generated inputs.  The report goes to the JSON file
named by ``--report``; for ``reproduce`` stdout is the CLI's own output.

Workloads (see README.md for why each was chosen):

- ``reproduce``: ``kummerlab.cli.main(["reproduce", "--json"])``, the
  console script's entry point.  One operation is one claim.
- ``factorize``: ``valuation.factorize`` with default bounds on sparse
  elements of Z[alpha] at lambda 7, 23 and 41.
- ``charsum``: ``charsum.reflection_identity`` for primes p of a few
  hundred and orders lam | p - 1, plus ``fundamental_congruence_check``
  for p <= 31.
"""

import argparse
import hashlib
import json
import random
import sys
import time

from gauge import Gauge

# Corpus size per second of --seconds.  At these rates a worker takes about
# --seconds on the seed commit (Python 3.11, 2 cores); a faster commit
# runs the same inputs in less time.
FACTORIZE_RATE = {7: 4.8, 23: 1.0, 41: 0.2}
# (number of nonzero terms, largest absolute coefficient) per conductor.
FACTORIZE_SHAPE = {7: (4, 20), 23: (3, 5), 41: (3, 1)}
# At lambda 23 and 41 an element's cost is set by the primes dividing its
# norm (each prime above the search limit costs a 22- or 40-dimensional
# kernel power), so a handful of freshly drawn elements varies by a third
# from seed to seed.  Their norms therefore come from one fixed draw, and
# the seed picks for each one a Galois conjugate times a signed root of
# unity: a different sparse element with the same norm and the same work.
FIXED_NORMS = {23, 41}
# Two lambda-41 inputs named in ROADMAP.md, once per worker, conjugated
# the same way: 2 + a, whose norm has the split prime 83 (the long
# uniformizer search), and 7 + 19a + 33a^3 - 5a^17 + 11a^30, whose norm
# keeps a 60-digit composite cofactor.  factorize fails on the latter
# today; such operations are counted as failed, not filtered out.
PINNED = [(41, {0: 2, 1: 1}), (41, {0: 7, 1: 19, 3: 33, 17: -5, 30: 11})]

CHARSUM_RATE = 450.0
CHARSUM_PRIMES = (200, 500)  # reflection identity primes p in [lo, hi)
FC_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)
FC_SHARE = 0.1  # share of operations that are fundamental-congruence checks


def _primes(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 2), hi) if all(n % d for d in range(2, int(n**0.5) + 1))]


def _sparse(rng, lam: int) -> list[int]:
    terms, cmax = FACTORIZE_SHAPE[lam]
    values = [v for v in range(-cmax, cmax + 1) if v]
    coeffs = [0] * (lam - 1)
    for pos in rng.sample(range(lam - 1), terms):
        coeffs[pos] = rng.choice(values)
    return coeffs


def _conjugate(rng, lam: int, coeffs: list[int]) -> list[int]:
    """+-alpha^j * sigma_k(x), with no term landing on alpha^(lam-1)."""
    support = [e for e, c in enumerate(coeffs) if c]
    while True:
        k, j = rng.randrange(1, lam), rng.randrange(lam)
        if all((k * e + j) % lam != lam - 1 for e in support):
            break
    sign = rng.choice((1, -1))
    out = [0] * (lam - 1)
    for e in support:
        out[(k * e + j) % lam] = sign * coeffs[e]
    return out


def factorize_inputs(seed: int, seconds: float) -> list[tuple[int, tuple[int, ...]]]:
    """(lambda, coefficients) pairs, shuffled so the conductors interleave."""
    rng = random.Random(f"factorize/{seed}")
    fixed = random.Random("factorize/fixed-norms")
    corpus = []
    for lam, rate in FACTORIZE_RATE.items():
        for _ in range(max(1, round(rate * seconds))):
            if lam in FIXED_NORMS:
                coeffs = _conjugate(rng, lam, _sparse(fixed, lam))
            else:
                coeffs = _sparse(rng, lam)
            corpus.append((lam, tuple(coeffs)))
    for lam, terms in PINNED:
        coeffs = [terms.get(e, 0) for e in range(lam - 1)]
        corpus.append((lam, tuple(_conjugate(rng, lam, coeffs))))
    rng.shuffle(corpus)
    return corpus


def charsum_inputs(seed: int, seconds: float) -> list[tuple]:
    """("refl", p, lam, i, k) and ("fc", p, i, k) cases."""
    rng = random.Random(f"charsum/{seed}")
    pool = [(p, [d for d in range(3, p) if (p - 1) % d == 0]) for p in _primes(*CHARSUM_PRIMES)]
    cases = []
    for _ in range(max(1, round(CHARSUM_RATE * seconds))):
        if rng.random() < FC_SHARE:
            p = rng.choice(FC_PRIMES)
            while True:
                i, k = rng.randrange(1, p - 1), rng.randrange(1, p - 1)
                if i + k != p - 1:
                    break
            cases.append(("fc", p, i, k))
        else:
            p, orders = rng.choice(pool)
            lam = rng.choice(orders)
            while True:
                i, k = rng.randrange(1, lam), rng.randrange(1, lam)
                if (i + k) % lam:
                    break
            cases.append(("refl", p, lam, i, k))
    return cases


def _stream(ops, consume, gauge):
    """Closed loop: the next operation starts when the previous one returns.

    Returns (work-clock start and end, work-clock (start, end) of every
    operation, failures).  Exceptions are caught here, at the client
    boundary, and named as failures.
    """
    clock = gauge.now
    spans = []
    failures = []
    start = clock()
    for index, op in enumerate(ops):
        t0 = clock()
        try:
            out, exc = op(), None
        except Exception as caught:
            out, exc = None, caught
        spans.append((t0, clock()))
        error = consume(index, out, exc)
        if error:
            failures.append(error)
    end = clock()
    gauge.finish()
    return (start, end), spans, failures


def _failure(index: int, kind: str, detail: str) -> dict:
    return {"op": index, "kind": kind, "detail": detail}


class Factorize:
    # A norm whose cofactor beyond trial division is composite cannot be
    # factored yet; such operations fail and are counted, and the run
    # stays correct.  Any other exception or a wrong norm is a defect.
    EXPECTED = ["FactorizationError"]

    def __init__(self, seed: int, seconds: float):
        from kummerlab import valuation
        from kummerlab.cyclotomic import cyclotomic_ring

        self.valuation = valuation
        self.elements = [
            cyclotomic_ring(lam).element(list(c)) for lam, c in factorize_inputs(seed, seconds)
        ]
        self.records = []
        self.norms = []

    def ops(self):
        # Looked up at call time, so that a traced run calls the wrapper.
        valuation = self.valuation
        return [lambda x=x: valuation.factorize(x) for x in self.elements]

    def consume(self, index, out, exc):
        if exc is not None:
            self.records.append(("error", type(exc).__name__))
            return _failure(index, type(exc).__name__, str(exc))
        self.records.append([(r.map.p, r.map.label(), r.mu) for r in out.records])
        self.norms.append((index, out.norm_value))
        return None

    def check(self) -> list[dict]:
        """Every norm must equal +-Res(Phi_lam, x), the independent route."""
        from kummerlab.polyint import cyclotomic_polynomial, resultant

        wrong = []
        for index, value in self.norms:
            x = self.elements[index]
            res = resultant(list(cyclotomic_polynomial(x.ring.n)), list(x.coeffs))
            if abs(res) != abs(value):
                wrong.append(_failure(index, "wrong", f"norm {value} != resultant {res}"))
        return wrong

    def digest(self) -> str:
        return hashlib.sha256(json.dumps(self.records).encode()).hexdigest()


class Charsum:
    EXPECTED = []

    def __init__(self, seed: int, seconds: float):
        from kummerlab import charsum

        self.charsum = charsum
        self.cases = charsum_inputs(seed, seconds)
        self.hash = hashlib.sha256()

    def ops(self):
        cs = self.charsum
        out = []
        for case in self.cases:
            if case[0] == "fc":
                out.append(lambda c=case: cs.fundamental_congruence_check(*c[1:]))
            else:
                _, p, lam, i, k = case
                out.append(lambda p=p, lam=lam, i=i, k=k: cs.reflection_identity(cs.character(p, lam), i, k))
        return out

    def consume(self, index, out, exc):
        if exc is not None:
            self.hash.update(f"{index}:error:{type(exc).__name__};".encode())
            return _failure(index, type(exc).__name__, f"{self.cases[index]}: {exc}")
        value = out["J"] if "J" in out else out["value"]
        self.hash.update(f"{index}:{value}:{out['holds']};".encode())
        if out["holds"] is not True:
            return _failure(index, "wrong", f"{self.cases[index]}: identity does not hold")
        return None

    def check(self) -> list[dict]:
        return []

    def digest(self) -> str:
        return self.hash.hexdigest()


WORKLOADS = {"factorize": Factorize, "charsum": Charsum}


def run_reproduce(args, tracer) -> dict:
    from kummerlab import cli, reports, reproduce

    ready = time.monotonic()
    if args.setup_only:
        return {"ready": ready}
    if tracer is None:
        # One operation is one claim of the report.  Claim 12 re-runs every
        # other claim twice, at other moments of the run, and a claim's
        # latency is its fastest execution: most claims take under a
        # millisecond, and one sample of them mostly measures how busy the
        # machine was at that instant.
        gauge = Gauge()
        spans = {}
        run_one = reproduce._run_one

        def timed(name, *a, **kw):
            t0 = gauge.now()
            try:
                return run_one(name, *a, **kw)
            finally:
                spans.setdefault(name, []).append((t0, gauge.now()))

        reproduce._run_one = timed
        start = gauge.now()
        code = cli.main(["reproduce", "--json"])
        end = gauge.now()
        gauge.finish()
        sys.stdout.flush()
        latencies = [min(gauge.scaled(*span) for span in runs) for runs in spans.values()]
        return {
            "ready": ready,
            "wall_s": end - start,
            "cal_wall_s": gauge.scaled(start, end),
            "speed": gauge.speed(),
            "latencies": latencies,
            "exit_code": code,
        }
    # Traced: one claim at a time, in sorted order in one process, so that
    # cache warmth matches the untraced run.
    tracer.install()
    cfg = reproduce.Config()
    claim_ids = sorted(name for name, _ in reproduce._CLAIMS)
    results = []
    claim_wall = {}
    clock = time.perf_counter
    start = clock()
    for claim_id in claim_ids:
        t0 = clock()
        with tracer.span(f"claim.{claim_id}"):
            got = reproduce.run_claims(cfg, name_filter=claim_id)
        claim_wall[claim_id] = clock() - t0
        # run_claims filters by substring, so the id must select itself only.
        if [r["claim"] for r in got] != [claim_id]:
            raise AssertionError(f"filter {claim_id!r} selected {[r['claim'] for r in got]}")
        results.extend(got)
    rendered = reports.render_json("reproduce", {"claims": results}).encode()
    wall = clock() - start
    return {
        "ready": ready,
        "wall_s": wall,
        "exit_code": 0 if all(r["status"] == "pass" for r in results) else 1,
        "statuses": {r["claim"]: r["status"] for r in results},
        "digest": hashlib.sha256(rendered).hexdigest(),
        "claim_wall_s": claim_wall,
    }


def run_workload(args, tracer) -> dict:
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    ready = time.monotonic()
    if args.setup_only:
        return {"ready": ready}
    ops = workload.ops()
    if tracer is not None:
        tracer.install()
    gauge = Gauge()
    (start, end), spans, failures = _stream(ops, workload.consume, gauge)
    failures += workload.check()
    return {
        "ready": ready,
        "wall_s": end - start,
        "cal_wall_s": gauge.scaled(start, end),
        "speed": gauge.speed(),
        "latencies": [gauge.scaled(*span) for span in spans],
        "failures": failures,
        "expected_failures": workload.EXPECTED,
        "digest": workload.digest(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["reproduce", *WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help="stop once the first operation could be issued")
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    if args.workload == "reproduce":
        report = run_reproduce(args, tracer)
    else:
        report = run_workload(args, tracer)
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        with open(args.spans, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start", "end"],
                    "spans": tracer.spans,
                    "stats": tracer.stats,
                    "counts": tracer.counts,
                },
                fh,
            )
    with open(args.report, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
