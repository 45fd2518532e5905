"""Acceptance gate: one test per criterion, all exact, no tolerances.

Each test drives the corresponding claim of the reproduce suite and prints
a single pass/fail line; criterion 12 certifies that two fresh processes
with different hash seeds print the same full JSON report, byte for byte,
with the golden sha256 and inside the runtime budget.
"""

import ast
import errno
import hashlib
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import kummerlab
from kummerlab import cli, cyclotomic, lattice, reproduce
from kummerlab.arith import DEFAULT_TRIAL_DIVISION_BOUND
from kummerlab.cli import main
from kummerlab.idealprimes import JacobiMap
from kummerlab.reproduce import _CLAIMS, Config

CFG = Config()
# sha256 of `kummerlab reproduce --json`; change it only together with an
# intended change of a reported value
GOLDEN_SHA256 = "3fb4a7f44860b32483557a59884e61f97d07d30d55454e1a7a29e7ef74d0e4a7"
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


def test_reflection_claim_reduces_nothing(monkeypatch):
    # the work count of claim 03: every case reads J sigma_{-1}(J) off the
    # autocorrelation's gcd classes, so no ring reduction is taken, and
    # each of the 560 rows of pairs with the same i is read at once by
    # lanes, the 12 rows of one pair (i = 1 and i = 2 at lambda = 3, six
    # primes) among them: no pair is read alone
    reductions = []
    residues = []
    lane_reads = []
    reduce = cyclotomic.CyclotomicRing._reduce
    residue = cyclotomic.CyclotomicRing.invariant_residue
    lanes = cyclotomic.CyclotomicRing.invariant_residues

    def counted(ring, coeffs):
        reductions.append(ring.n)
        return reduce(ring, coeffs)

    def counted_residue(ring, c):
        residues.append(ring.n)
        return residue(ring, c)

    def counted_lanes(ring, c):
        lane_reads.append(ring.n)
        return lanes(ring, c)

    monkeypatch.setattr(cyclotomic.CyclotomicRing, "_reduce", counted)
    monkeypatch.setattr(
        cyclotomic.CyclotomicRing, "invariant_residue", counted_residue
    )
    monkeypatch.setattr(
        cyclotomic.CyclotomicRing, "invariant_residues", counted_lanes
    )
    assert CLAIMS["acceptance/03-reflection-identity"](CFG) == {"cases": 11644}
    assert reductions == []
    assert residues == []
    assert len(lane_reads) == 560 and lane_reads.count(3) == 12


def test_singular_orders_claim_solves_once_per_fraction(monkeypatch):
    # the work count of claim 10: each of its 604 dichotomy checks takes
    # the colon rows of both directions from one relation solve
    solves = []
    solve = lattice._relations
    monkeypatch.setattr(
        lattice, "_relations", lambda *args: solves.append(args) or solve(*args)
    )
    detail = CLAIMS["acceptance/10-singular-orders"](CFG)
    assert detail == {"maximal_order_fractions": 600}
    assert len(solves) == 604


def test_completeness_checks_division_against_the_colon_lattice_only(monkeypatch):
    # claim 08 has two routes, exact division and the colon lattice; the
    # valuation route of divides is the valuation/divides claim's
    def refuse(*args, **kwargs):
        raise AssertionError("claim 08 called divides")

    monkeypatch.setattr(reproduce, "divides", refuse)
    assert CLAIMS["acceptance/08-completeness"](CFG) == {
        "pairs": 200,
        "divisible": 112,
    }


def test_definedness_builds_no_kernel_lattice(monkeypatch, capsys):
    # a map decides where it is defined from its own power rows; the kernel
    # HNF is built only for the maps reports
    def refuse(self):
        raise RuntimeError("kernel lattice built")

    monkeypatch.setattr(JacobiMap, "kernel", refuse)
    for claim_id in (
        "acceptance/08-completeness",
        "acceptance/10-singular-orders",
        "valuation/defined-at",
    ):
        CLAIMS[claim_id](CFG)
    argv = ["quad", "--theta", "0,3", "check-b2", "--p", "2", "1+t", "2", "--json"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["maps"][0]["dichotomy_holds"] is False


def test_config_takes_no_arguments():
    # the suite is one fixed configuration; a setting could only move its
    # output away from the golden report
    with pytest.raises(TypeError):
        Config(enum_cap=5)
    assert Config().trial_division_bound == DEFAULT_TRIAL_DIVISION_BOUND


def _reproduce_in_fresh_process(hash_seed: str) -> tuple[bytes, float]:
    # a fresh interpreter starts with cold caches, and another hash seed
    # changes str hashes and so the iteration order of sets of str; it
    # imports the same kummerlab package as this process
    package_root = str(Path(kummerlab.__file__).resolve().parents[1])
    path = [package_root, os.environ.get("PYTHONPATH", "")]
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=os.pathsep.join(filter(None, path)),
    )
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "kummerlab.cli", "reproduce", "--json"],
        env=env,
        capture_output=True,
        timeout=300,
    )
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout, elapsed


def test_acceptance_criterion_12_determinism():
    try:
        first, t_first = _reproduce_in_fresh_process("0")
        second, t_second = _reproduce_in_fresh_process("1")
        assert first == second
        assert hashlib.sha256(first).hexdigest() == GOLDEN_SHA256
        assert t_first <= 60, f"first run took {t_first:.1f}s"
        assert t_second <= 60, f"second run took {t_second:.1f}s"
    except (AssertionError, subprocess.TimeoutExpired):
        print("ACCEPTANCE 12 determinism: FAIL")
        raise
    print(
        f"ACCEPTANCE 12 determinism: PASS "
        f"{{'bytes': {len(first)}, 'runs': [{t_first:.1f}s, {t_second:.1f}s]}}"
    )


# Run in a fresh interpreter, with the package root as argv[1]: counts the
# JacobiMaps constructed and the Teichmueller lifts raised (the only
# gf_pow_mod of valuation) during a cold `reproduce --json`, the
# multiplicity and valuation_oracle calls made while claim 06 runs, and
# the entries built and reused by the caches of kummer_prime, _log_table,
# character and gaussian_periods.
_WORK_COUNTS = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from kummerlab import charsum, cli, cyclotomic, idealprimes, reproduce, valuation
counts = {"maps": 0, "lifts": 0, "06 multiplicity": 0, "06 valuation_oracle": 0}
construct, power = idealprimes.JacobiMap.__init__, valuation.gf_pow_mod
def counted_construct(self, *args):
    counts["maps"] += 1
    construct(self, *args)
def counted_power(*args):
    counts["lifts"] += 1
    return power(*args)
idealprimes.JacobiMap.__init__ = counted_construct
valuation.gf_pow_mod = counted_power
in_06 = [False]
def in_claim_06(name, route):
    def counted(*args):
        counts["06 " + name] += in_06[0]
        return route(*args)
    return counted
for name in ("multiplicity", "valuation_oracle"):
    counted = in_claim_06(name, getattr(valuation, name))
    setattr(valuation, name, counted)
    setattr(reproduce, name, counted)
def claim_06(run):
    def flagged(cfg):
        in_06[0] = True
        try:
            return run(cfg)
        finally:
            in_06[0] = False
    return flagged
reproduce._CLAIMS[:] = [
    (name, claim_06(run) if name == "acceptance/06-kummer-vs-oracle" else run)
    for name, run in reproduce._CLAIMS
]
with contextlib.redirect_stdout(io.StringIO()):
    counts["exit"] = cli.main(["reproduce", "--json"])
caches = (
    valuation.kummer_prime,
    charsum._log_table,
    charsum.character,
    cyclotomic.gaussian_periods,
)
for cache in caches:
    info = cache.cache_info()
    name = cache.__name__
    counts[name + " misses"], counts[name + " hits"] = info.misses, info.hits
print(json.dumps(counts))
"""


def test_cold_reproduce_builds_each_map_and_lift_once():
    # the maps of each (lambda, p) and the lift of each (map, mu) are built
    # once per process, every map of Z[alpha] off one power table; claim 06
    # screens its batches, so only the elements whose first read is 0 go
    # to multiplicity (32,779 calls without the screen) and only those a
    # map kills to valuation_oracle (13,600).  kummer_prime is the one
    # builder of a Kummer prime, so each of the 80 maps that a claim reads
    # it at is built once and every later read is a cache hit; likewise
    # the 14 primes' log tables, the 63 characters and the 10 period
    # systems, each of which holds its period polynomial.  The counts do
    # not depend on the machine's speed
    package_root = str(Path(kummerlab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _WORK_COUNTS, package_root],
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout) == {
        "maps": 896,
        "lifts": 131,
        "06 multiplicity": 3359,
        "06 valuation_oracle": 480,
        "kummer_prime misses": 80,
        "kummer_prime hits": 30,
        "_log_table misses": 14,
        "_log_table hits": 49,
        "character misses": 63,
        "character hits": 235,
        "gaussian_periods misses": 10,
        "gaussian_periods hits": 110,
        "exit": 0,
    }


# Run in a fresh interpreter, with the package root as argv[1]: the modules
# each import adds to sys.modules, and what the Stickelberger check adds.
_COLD_IMPORTS = """
import json, sys
sys.path.insert(0, sys.argv[1])
seen = set(sys.modules)

def added():
    new = set(sys.modules) - seen
    seen.update(new)
    return sorted(new)

import kummerlab
out = {"kummerlab": added()}
import kummerlab.charsum
out["kummerlab.charsum"] = added()
out["holds"] = kummerlab.charsum.stickelberger_check(3, 7)["holds"]
out["stickelberger_check"] = added()
import kummerlab.cli
out["kummerlab.cli"] = added()
print(json.dumps(out))
"""


def test_cold_imports_load_only_the_modules_they_use():
    # a fresh process compiles every package module it imports: the
    # package loads no submodule, the character sums need four, and the
    # Stickelberger check loads the maps and valuations on its first call.
    # The records of valuation are named tuples, so not even the command
    # line, which loads every module, pays for dataclasses and inspect
    package_root = str(Path(kummerlab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_IMPORTS, package_root],
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    out = json.loads(proc.stdout)
    holds = out.pop("holds")
    ours = {
        step: [m for m in modules if m.split(".")[0] == "kummerlab"]
        for step, modules in out.items()
    }
    assert ours == {
        "kummerlab": ["kummerlab"],
        "kummerlab.charsum": [
            "kummerlab.arith",
            "kummerlab.charsum",
            "kummerlab.cyclotomic",
            "kummerlab.polyint",
        ],
        "stickelberger_check": [
            "kummerlab.ffield",
            "kummerlab.idealprimes",
            "kummerlab.lattice",
            "kummerlab.polymod",
            "kummerlab.valuation",
        ],
        "kummerlab.cli": [
            "kummerlab.cli",
            "kummerlab.exprparse",
            "kummerlab.monoid",
            "kummerlab.quadorder",
            "kummerlab.reports",
            "kummerlab.reproduce",
        ],
    }
    assert holds is True
    assert not {"dataclasses", "inspect"} & set().union(*out.values())


def test_reproduce_trace_leaves_stdout_alone(tmp_path, capsys):
    # the trace is a side channel: stdout keeps the golden bytes, and the
    # file holds one line per claim, in the order the claims ran
    trace = tmp_path / "trace.jsonl"
    assert main(["reproduce", "--json", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == GOLDEN_SHA256
    lines = [json.loads(line) for line in trace.read_text().splitlines()]
    assert [line["claim"] for line in lines] == sorted(CLAIMS)
    assert len(lines) == 36
    for line in lines:
        assert list(line) == ["claim", "status", "wall_s"]
        assert line["status"] == "pass" and line["wall_s"] >= 0


def test_reproduce_trace_needs_a_writable_file(tmp_path, capsys):
    assert main(["reproduce", "--trace", str(tmp_path / "none" / "t.jsonl")]) == 2
    assert "cannot write trace file" in capsys.readouterr().err


def test_reproduce_trace_write_failure_is_a_usage_error(monkeypatch, capsys):
    # a full disk fails the trace write, not a claim: exit 2, no report
    class FullTrace(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    fake = lambda *args, **kwargs: FullTrace()
    monkeypatch.setattr(cli, "open", fake, raising=False)
    assert main(["reproduce", "--filter", "core/cyclo", "--trace", "t.jsonl"]) == 2
    captured = capsys.readouterr()
    assert "cannot write trace file" in captured.err
    assert "No space left on device" in captured.err
    assert captured.out == ""


def _tracer_list(name: str):
    """The literal value perfbench/tracer.py assigns to name."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text())
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == name for t in node.targets)
    )


def test_benchmark_tracer_modules_import():
    # perfbench/tracer.py imports every module in its MODULES list by name
    # before a traced run; a module missing from the package breaks that run
    modules = _tracer_list("MODULES")
    assert "idealprimes" in modules
    for name in modules:
        importlib.import_module(f"kummerlab.{name}")


def test_benchmark_tracer_names_that_no_longer_resolve():
    # the tracer skips a TARGETS function or method, or a CACHES lru_cache,
    # that the package no longer has, and its per-layer metrics then read
    # 0; this pins the set of such names, so a change that turns off
    # another declared metric shows up here
    unresolved = set()
    for _, module_name, qualname, _ in _tracer_list("TARGETS"):
        module = importlib.import_module(f"kummerlab.{module_name}")
        owner_name, _, name = qualname.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or name not in vars(owner):
            unresolved.add(qualname)
    for name, module_name in _tracer_list("CACHES").items():
        module = importlib.import_module(f"kummerlab.{module_name}")
        if not hasattr(getattr(module, name, None), "cache_info"):
            unresolved.add(name)
    assert unresolved == {
        "IntLattice.colon",
        "IntLattice.__contains__",
        "FieldElement.__mul__",
        "_mult_table",
        "_kernel_lattice",
        "_kummer_or_none",
        "find_uniformizer",
    }


# every lru_cache of the package, named by its defining module, with its
# maxsize: adding, removing or resizing a cache shows up as an edit here
PACKAGE_CACHES = {
    "arith._residue_degrees": 64,
    "charsum._log_table": 1024,
    "charsum.character": 1024,
    "cyclotomic.cyclotomic_ring": 1024,
    "cyclotomic.gaussian_periods": 1024,
    "idealprimes.enumerate_jacobi_maps": 512,
    "polyint.cyclotomic_polynomial": 1024,
    "valuation._lift_columns": 1024,
    "valuation.kummer_prime": 1024,
}


def test_every_package_cache_is_pinned_with_its_maxsize():
    found = {}
    for info in pkgutil.iter_modules(kummerlab.__path__):
        module = importlib.import_module(f"kummerlab.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_info"):
                name = f"{obj.__module__.removeprefix('kummerlab.')}.{obj.__qualname__}"
                found[name] = obj.cache_info().maxsize
    assert found == PACKAGE_CACHES
