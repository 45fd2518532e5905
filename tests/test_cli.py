"""Expression parsing, report rendering, and the command-line surface."""

import argparse
import ast
import hashlib
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummerlab import cli, exprparse, quadorder, reports, reproduce, valuation
from kummerlab.cli import _int_list, main
from kummerlab.cyclotomic import CyclotomicElement, cyclotomic_ring, norm
from kummerlab.exprparse import ElementParseError, parse_element, render_element
from kummerlab.quadorder import QuadOrder

R5 = cyclotomic_ring(5)


def test_parse_pinned():
    assert parse_element("1 - a + 2a^3", R5).coeffs == (1, -1, 0, 2)
    assert parse_element("a^5", R5) == R5.one()
    assert parse_element("2 + t", QuadOrder(0, 3)).coeffs == (2, 1)


def test_parse_whitespace_and_forms():
    assert parse_element("1-a+2a^3", R5) == parse_element(" 1 -  a + 2 a^3 ", R5)
    assert parse_element("3*a^2", R5) == parse_element("3a^2", R5)
    assert parse_element("-a", R5).coeffs == (0, -1, 0, 0)
    assert parse_element("0", R5) == R5.zero()
    assert parse_element("a + a", R5).coeffs == (0, 2, 0, 0)
    assert parse_element("a^7", R5) == parse_element("a^2", R5)


def test_parse_quadratic_power_reduction():
    order = QuadOrder(0, 3)
    assert parse_element("t^2", order).coeffs == (-3, 0)
    assert parse_element("1 + t - t^2", order).coeffs == (4, 1)


def test_parse_errors_carry_position():
    with pytest.raises(ElementParseError) as err:
        parse_element("1 + + 2", R5)
    assert err.value.position == 4
    with pytest.raises(ElementParseError):
        parse_element("a^", R5)
    with pytest.raises(ElementParseError):
        parse_element("2b", R5)
    with pytest.raises(ElementParseError):
        parse_element("1 ? 2", R5)
    with pytest.raises(ElementParseError):
        parse_element("", R5)


def test_render_pinned():
    assert render_element(R5.element([1, -1, 0, 2])) == "1 - a + 2a^3"
    assert render_element(R5.zero()) == "0"
    assert render_element(R5.element([0, 1])) == "a"
    assert render_element(R5.element([-1, 0, 0, -3])) == "-1 - 3a^3"
    assert render_element(QuadOrder(0, 3).element([2, 1])) == "2 + t"


def test_parse_exponent_cap():
    # exponents up to the cap reduce mod the conductor in Z[alpha] and
    # mod T^2 + uT + v in a quadratic order; above it the parse stops at
    # the exponent's position
    cap = exprparse.MAX_EXPONENT
    assert parse_element(f"a^{cap}", R5) == R5.alpha(cap % 5)
    assert parse_element(f"2a^{cap - 1} - a^{cap}", R5) == (
        2 * R5.alpha((cap - 1) % 5) - R5.alpha(cap % 5)
    )
    order = QuadOrder(0, 3)
    assert parse_element(f"t^{cap}", order) == order.element(-3) ** (cap // 2)
    for ring, text in [(R5, f"1 + a^{cap + 1}"), (order, f"1 + t^{cap + 1}")]:
        with pytest.raises(ElementParseError) as err:
            parse_element(text, ring)
        assert err.value.position == 6
        assert str(cap) in err.value.expected


def test_exprparse_has_one_path_for_every_ring():
    # exprparse knows no ring class: it reads the ring's symbol and element
    # constructor, so a ring it has never seen parses and renders too
    nodes = list(ast.walk(ast.parse(Path(exprparse.__file__).read_text())))
    imported = {a.name for n in nodes if isinstance(n, ast.Import) for a in n.names}
    imported |= {n.module for n in nodes if isinstance(n, ast.ImportFrom)}
    assert not {"kummerlab.cyclotomic", "kummerlab.quadorder"} & imported
    assert not any(isinstance(n, ast.Name) and n.id == "isinstance" for n in nodes)
    tree = ast.parse(Path(quadorder.__file__).read_text())
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    assert classes == ["QuadOrder"]

    class CubeRootOfTwo:
        """Z[z] with z^3 = 2: the element class reduces through _reduce."""

        symbol = "z"

        def element(self, coeffs):
            if isinstance(coeffs, int):
                coeffs = [coeffs]
            return CyclotomicElement(self, list(coeffs))

        def _reduce(self, coeffs):
            c = list(coeffs) + [0] * (3 - len(coeffs))
            for k in range(len(c) - 1, 2, -1):
                c[k - 3] += 2 * c[k]
            return tuple(c[:3])

    ring = CubeRootOfTwo()
    x = parse_element("1 - 3z^4 + z^2", ring)
    assert x.coeffs == (1, -6, 1)
    assert render_element(x) == "1 - 6z + z^2"


def test_render_parse_roundtrip():
    rng = random.Random(4409)
    for _ in range(200):
        x = R5.element([rng.randint(-9, 9) for _ in range(4)])
        text = render_element(x)
        assert render_element(parse_element(text, R5)) == text
        assert parse_element(text, R5) == x


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


# full stdout sha256 of the reports that read Jacobi maps: census rows, the
# circulant uniformizer branch at f > 1, a Galois-ring lift at mu = 2 and the
# quadratic-order maps and colon tests
MAP_READING_REPORTS = [
    (
        ["maps", "--lambda", "13", "--p", "3", "--json"],
        "616a0cb0942dddb970c1d34302a7baf56f66b5ae81793fafb7c46c4787b97e86",
    ),
    (
        ["maps", "--lambda", "31", "--p", "2", "--json"],
        "bfd554b235b0ef8bc988ec5144a37305d0977897ef60d8939d3a5f14e251910d",
    ),
    (
        ["factor", "--lambda", "31", "--json", "2"],
        "aa38075c4682ac7bb2e20ebdf1e19ea16254509b7e223b89de59ff066ce5e374",
    ),
    (
        ["factor", "--lambda", "13", "--json", "9 + 3a"],
        "94a0bd7f38513193fe9be3142f6f95be677a2d4b0eaca5370a3ecb0262f21d24",
    ),
    (
        ["valuation", "--lambda", "7", "--p", "2", "--xi", "0,0,1", "--json", "4"],
        "7562007e9ca1fc98d417878d199933b430af78bda90c940f9757c30bc4386809",
    ),
    (
        ["quad", "--theta", "0,3", "maps", "--p", "2", "--json"],
        "e52f7f1e237451dd87061fe4ca5cc5ae61322ad2c27c281875db786a5b863751",
    ),
    (
        ["quad", "--theta", "0,3", "check-b2", "--p", "2", "1+t", "2", "--json"],
        "648d0acadc272fd9561009b3e80b555f9b1defd9348bbdaf887c5bcf190ac34f",
    ),
]


@pytest.mark.parametrize("argv, digest", MAP_READING_REPORTS)
def test_map_reading_reports_keep_their_bytes(capsys, argv, digest):
    code, out = _run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _json_dump(command, result):
    # the reference layout of every JSON report
    document = reports._document(command, result)
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def test_json_reports_stream_the_rendered_bytes(monkeypatch, capsys):
    # --json writes the report piece by piece as json encodes it, never as
    # one string of the whole report; render_json is the same text joined
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    result = {"lambda": 5, "maps": [{"p": 11, "kernel_hnf": [[11, 0], [2, 1]]}]}
    reports.write_json("maps", result, Recorder())
    assert "".join(writes) == reports.render_json("maps", result)
    assert "".join(writes) == _json_dump("maps", result)
    assert len(writes) > 10
    # the CLI reaches the same bytes without calling render_json
    monkeypatch.setattr(cli, "render_json", None, raising=False)
    code, out = _run(capsys, ["maps", "--lambda", "5", "--p", "11", "--json"])
    assert code == 0 and out == _json_dump("maps", json.loads(out)["result"])


def _json_rows():
    # every admitted row of CAP_TABLE with --json but the three whose time is
    # arithmetic on a few printed lines (a scan to 10^8 and the maps at a
    # 1000-digit p), and the map-reading reports
    slow = ("--trial-div", str(10**1000 - 1769), str(10**1000 - 2227953))
    rows = [argv for argv, code, _ in CAP_TABLE if code == 0]
    rows = [argv + ["--json"] for argv in rows if not set(slow) & set(argv)]
    return rows + [argv for argv, _ in MAP_READING_REPORTS]


def test_json_writer_matches_json_dump(monkeypatch, capsys):
    # write_json's layout is json.dump's with sort_keys and indent=2, byte
    # for byte, on the reports of the cap rows and the map-reading reports
    documents = []
    write = cli.write_json

    def recorded(command, result, stream):
        documents.append(reports._document(command, result))
        write(command, result, stream)

    monkeypatch.setattr(cli, "write_json", recorded)
    for argv in _json_rows():
        documents.clear()
        code, out = _run(capsys, argv)
        assert code == 0 and len(documents) == 1, argv
        expected = json.dumps(documents[0], sort_keys=True, indent=2) + "\n"
        assert out == expected, argv


JSON_SCALARS = (
    st.integers(-(10**30), 10**30) | st.booleans() | st.none() | st.text(max_size=4)
)
JSON_KEYS = st.text(max_size=3) | st.integers(-5, 5)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    value=st.recursive(
        JSON_SCALARS,
        lambda inner: st.lists(inner, max_size=4)
        | st.tuples(inner, inner)
        | st.dictionaries(st.text(max_size=3), inner, max_size=4)
        | st.dictionaries(st.integers(-5, 5), inner, max_size=3),
        max_leaves=20,
    )
)
def test_json_writer_matches_json_dump_on_generated_values(value):
    # nested lists, tuples and dicts (str or int keys, never mixed, as
    # sort_keys needs), empty ones among them, and non-ASCII text
    pieces = []

    class Recorder:
        def write(self, text):
            pieces.append(text)

    reports.write_json("value", value, Recorder())
    assert "".join(pieces) == _json_dump("value", value)
    assert reports.render_json("value", value) == _json_dump("value", value)


def test_cli_maps_json(capsys):
    code, out = _run(capsys, ["maps", "--lambda", "5", "--p", "11", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "kummerlab/1"
    assert sorted(m["xi"] for m in doc["result"]["maps"]) == [3, 4, 5, 9]
    assert "." not in out.replace("kummerlab/1", "")  # no floats anywhere


def test_cli_maps_list_every_u_vector(capsys):
    # every map carries its images of the (lambda - 1) / f periods: all ones
    # at the ramified p = 5, [p - 1] at the inert p = 2, and at f = 1 the
    # images of alpha^(g^i), which start at the root xi
    expected = {"5": [[1, 1, 1, 1]], "2": [[1]], "19": [[4, 14], [14, 4]]}
    for p, vectors in expected.items():
        code, out = _run(capsys, ["maps", "--lambda", "5", "--p", p, "--json"])
        assert code == 0
        maps = json.loads(out)["result"]["maps"]
        assert sorted(m["u_vector"] for m in maps) == vectors
    code, out = _run(capsys, ["maps", "--lambda", "5", "--p", "11", "--json"])
    for m in json.loads(out)["result"]["maps"]:
        assert len(m["u_vector"]) == 4 and m["u_vector"][0] == m["xi"]


def test_cli_factor(capsys):
    code, out = _run(capsys, ["factor", "--lambda", "5", "2 + a", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["norm"] == 11
    nonzero = [r for r in doc["result"]["records"] if r["mu"]]
    assert nonzero == [
        {
            "p": 11,
            "f": 1,
            "xi": 9,
            "u": [9, 4, 5, 3],
            "psi": nonzero[0]["psi"],
            "mu": 1,
        }
    ]


def test_cli_factor_certifies_every_nonzero_record(capsys):
    # norm 211 * 44171: each nonzero record gets Kummer's psi and u-vector,
    # however large its prime; a record with mu = 0 gets none
    code, out = _run(capsys, ["factor", "--lambda", "5", "a - 55", "--json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["norm"] == 211 * 44171
    nonzero = [(r["p"], r["psi"], r["u"]) for r in result["records"] if r["mu"]]
    assert nonzero == [
        (211, "-55 + a", [55, 71, 188, 107]),
        (44171, "-55 + a", [55, 3025, 7228, 33862]),
    ]
    for r in result["records"]:
        if not r["mu"]:
            assert r["psi"] is None and r["u"] is None


def test_cli_factor_disagreement_exit_code(capsys, monkeypatch):
    real = cli.multiplicity
    monkeypatch.setattr(cli, "multiplicity", lambda x, K: real(x, K) + 1)
    assert main(["factor", "--lambda", "5", "2 + a"]) == 1
    assert "disagree" in capsys.readouterr().err


def test_cli_factor_refuses_a_norm_too_long_to_print(capsys, monkeypatch):
    # norm(2^7200) = 2^14400 at lambda 3 has 4,335 digits, past Python's
    # default limit of 4,300 for printing an int: refused before factoring
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
    monkeypatch.setattr(cli, "factorize", None)
    assert main(["factor", "--lambda", "3", str(2**7200)]) == 2
    err = capsys.readouterr().err
    assert "the norm has 4335 digits, more than the 4300" in err
    # the digits are counted exactly, at either sign
    for n in (10**4299, -(10**4300) + 1, 2**14284):  # 4,300 digits
        cli._check_printable_norm(n)
    for n in (10**4300, -(10**4300)):
        with pytest.raises(cli.UsageError, match="norm has 4301 digits"):
            cli._check_printable_norm(n)


def test_cli_valuation_and_divides(capsys):
    code, out = _run(
        capsys, ["valuation", "--lambda", "5", "--p", "11", "--xi", "9", "11"]
    )
    assert code == 0
    assert "mu: 1" in out
    code, out = _run(capsys, ["divides", "--lambda", "5", "1 - a", "5"])
    assert code == 0
    assert "divides: true" in out


def test_cli_valuation_large_split_prime(capsys):
    # 84 is a cube root of unity mod 193; its uniformizer a - 84 is built,
    # not searched for, so no coefficient bound can run out
    code, out = _run(
        capsys,
        ["valuation", "--lambda", "3", "--p", "193", "--xi", "84", "193", "--json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["psi"] == "-84 + a"
    assert doc["result"]["mu"] == 1
    assert doc["result"]["agree"] is True


def test_cli_valuation_inert_map_by_coefficients(capsys):
    # 2 is inert in Z[alpha_5]: one map of degree 4, labelled by the least
    # element X^3 of the Frobenius orbit of X in F_2[X]/(Phi_5); a label is
    # read mod p and without trailing zeros
    for xi in ("0,0,0,1", "0,0,0,3", "0,0,0,1,0"):
        argv = ["valuation", "--lambda", "5", "--p", "2", "--xi", xi, "2"]
        code, out = _run(capsys, argv)
        assert code == 0
        assert "mu: 1" in out
    argv[argv.index(xi)] = "0,1"
    assert main(argv) == 2
    assert "no Jacobi map with xi = 0,1 for lambda=5, p=2" in capsys.readouterr().err


def test_cli_valuation_degree_one_map_by_list(capsys):
    # a list that trims to one entry names the degree-1 map with that root
    outs = []
    for xi in ("9", "9,0", "9,0,0", "20"):
        argv = ["valuation", "--lambda", "5", "--p", "11", "--xi", xi, "11"]
        code, out = _run(capsys, argv)
        assert code == 0
        outs.append(out)
    assert "mu: 1" in outs[0]
    assert outs.count(outs[0]) == 4


def test_cli_caps_leave_the_cap_itself(capsys):
    # p - 1, (p - 2)^2 and (lambda - 1)^2 equal to --enum-cap still run
    argv = ["jacobi-sum", "--p", "13", "--order", "3", "--i", "1", "--k", "1"]
    assert _run(capsys, argv + ["--enum-cap", "12"])[0] == 0
    assert _run(capsys, ["fc-check", "--p", "13", "--all", "--enum-cap", "121"])[0] == 0
    argv = ["maps", "--lambda", "11", "--p", "23", "--enum-cap", "100"]
    assert _run(capsys, argv)[0] == 0


def test_cli_huge_conductor_fails_fast(capsys):
    # a ring of degree 1008 would take minutes to build maps for
    start = time.perf_counter()
    assert main(["maps", "--lambda", "1009", "--p", "3"]) == 2
    assert time.perf_counter() - start < 1.0
    message = "(lambda - 1)^2 = 1016064 matrix entries exceed --enum-cap 10000"
    assert message in capsys.readouterr().err


def test_cli_parse_error_exit_code(capsys):
    code = main(["factor", "--lambda", "5", "1 ++ a"])
    assert code == 2


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["maps", "--lambda", "5"])  # missing --p
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (["binomial", "--p", "25"], "25 is not prime"),
        (["binomial", "--p", "21"], "21 is not prime"),
        (["gauss-sum", "--p", "13", "--order", "0"], "order 0 must be at least 2"),
        (["divides", "--lambda", "9", "1+a", "2"], "conductor 9 must be an odd prime"),
        (["factor", "--lambda", "9", "1+a"], "conductor 9 must be an odd prime"),
        (
            ["jacobi-sum", "--p", "7", "--order", "1", "--i", "1", "--k", "1"],
            "order 1 must be at least 2",
        ),
        (
            ["jacobi-sum", "--p", "7", "--order", "0", "--i", "1", "--k", "1"],
            "order 0 must be at least 2",
        ),
        (["fc-check", "--p", "1", "--all"], "1 is not prime"),
        (["fc-check", "--p", "0", "--all"], "0 is not prime"),
        (["fc-check", "--p", "-7", "--all"], "-7 is not prime"),
        (["gauss-sum", "--p", "100003", "--order", "2"], "exceed --enum-cap 10000"),
        (
            ["gauss-sum", "--p", "13", "--order", "3", "--enum-cap", "11"],
            "order * p = 39 Gauss-sum coefficients exceed --enum-cap 11",
        ),
        (
            ["valuation", "--lambda", "5", "--p", "11", "--xi", "x", "11"],
            "--xi expects comma-separated integers, got 'x'",
        ),
        (
            ["valuation", "--lambda", "5", "--p", "11", "--xi", "1,x", "11"],
            "--xi expects comma-separated integers, got '1,x'",
        ),
        (
            ["monoid", "--subgroup", "x", "classgroup"],
            "--subgroup expects comma-separated integers, got 'x'",
        ),
        (
            ["quad", "--theta", "x,1", "conductor"],
            "--theta expects comma-separated integers, got 'x,1'",
        ),
        (["quad", "--theta", "1", "conductor"], "--theta expects 2 integers, got '1'"),
        (
            ["quad", "--theta", "1,2,3", "conductor"],
            "--theta expects 2 integers, got '1,2,3'",
        ),
        (
            ["valuation", "--lambda", "5", "--p", "11", "--xi", "", "11"],
            "--xi expects comma-separated integers, got ''",
        ),
        (
            ["jacobi-sum", "--p", "1000003", "--order", "3", "--i", "1", "--k", "1"],
            "p - 1 = 1000002 discrete-log entries exceed --enum-cap 10000",
        ),
        (
            ["jacobi-sum", "--p", "13", "--order", "3", "--i", "1", "--k", "1",
             "--enum-cap", "11"],
            "p - 1 = 12 discrete-log entries exceed --enum-cap 11",
        ),
        (
            ["quartic", "--p", "1000033"],
            "p - 1 = 1000032 discrete-log entries exceed --enum-cap 10000",
        ),
        (
            ["binomial", "--p", "1000033"],
            "p - 1 = 1000032 half-bits of C(2n, n) exceed --enum-cap 10000",
        ),
        (
            ["stickelberger", "--lambda", "3", "--p", "1000003"],
            "p - 1 = 1000002 discrete-log entries exceed --enum-cap 10000",
        ),
        (
            ["fc-check", "--p", "1000003", "--i", "1", "--k", "2"],
            "p - 1 = 1000002 discrete-log entries exceed --enum-cap 10000",
        ),
        (
            ["fc-check", "--p", "103", "--all"],
            "(p - 2)^2 = 10201 index pairs exceed --enum-cap 10000",
        ),
        (
            ["fc-check", "--p", "13", "--all", "--enum-cap", "120"],
            "(p - 2)^2 = 121 index pairs exceed --enum-cap 120",
        ),
        (["fc-check", "--p", "1000001", "--all"], "1000001 is not prime"),
        (
            ["quad", "--theta", "0,3", "check-b2", "--p", "2", "t^1000000", "2"],
            "exponent 1000000 is too large at position 2 "
            "(expected an exponent of at most 4096)",
        ),
        (
            ["quad", "--theta", "0,3", "check-b2", "--p", "2", "1", "1 + 2t^200000"],
            "exponent 200000 is too large at position 7",
        ),
        (
            ["quad", "--theta", "0,3", "gauss-lemma", "t, 1 - t^4097"],
            "exponent 4097 is too large at position 7",
        ),
        (
            ["factor", "--lambda", "5", "a^4097"],
            "exponent 4097 is too large at position 2",
        ),
        (
            ["divides", "--lambda", "7", "1 - a", "3a^99999999999999999999"],
            "exponent 99999999999999999999 is too large at position 3",
        ),
        (
            ["quad", "--theta", "0,3", "gauss-lemma", "1"],
            "gauss-lemma expects c1,c0 for T^2 + c1 T + c0, got '1'",
        ),
        (
            ["quad", "--theta", "0,3", "gauss-lemma", ""],
            "gauss-lemma expects c1,c0 for T^2 + c1 T + c0, got ''",
        ),
        (
            ["quad", "--theta", "0,1000000", "check-b2", "--p", "2", "t^4096", "1"],
            "expression 't^4096' has a coefficient of more than 4000 digits",
        ),
        (
            ["factor", "--lambda", "5", "1 + " + "9" * 4001],
            "integer of 4001 digits is too large at position 4",
        ),
        (
            ["quad", "--theta", "0," + "1" * 5000, "conductor"],
            "--theta takes integers of at most 4000 digits, "
            "got a part of 5000 characters: '111111111111'...",
        ),
        (
            ["quad", "--theta", "0,-" + "1" * 4001, "conductor"],
            "--theta takes integers of at most 4000 digits, "
            "got a part of 4002 characters: '-11111111111'...",
        ),
        (
            ["valuation", "--lambda", "5", "--p", "11", "--xi", "9" * 4001, "11"],
            "--xi takes integers of at most 4000 digits",
        ),
        (
            ["monoid", "--m", "4", "--subgroup", "1," + "3" * 4300, "factor", "9"],
            "--subgroup takes integers of at most 4000 digits",
        ),
        (
            ["quad", "--theta", "1," * 3000 + "x", "conductor"],
            "--theta expects comma-separated integers, got 6001 characters: "
            "'1,1,1,1,1,1,'...",
        ),
        (
            ["quad", "--theta", "1," * 3000, "conductor"],
            "--theta expects 2 integers, got 6000 characters: '1,1,1,1,1,1,'...",
        ),
        (
            ["factor", "--lambda", "4001", "a+2"],
            "(lambda - 1)^2 = 16000000 matrix entries exceed --enum-cap 10000",
        ),
        (
            ["valuation", "--lambda", "103", "--p", "3", "--xi", "1", "a"],
            "(lambda - 1)^2 = 10404 matrix entries exceed --enum-cap 10000",
        ),
        (
            ["divides", "--lambda", "11", "--enum-cap", "99", "1-a", "2"],
            "(lambda - 1)^2 = 100 matrix entries exceed --enum-cap 99",
        ),
        (
            ["stickelberger", "--lambda", "199", "--p", "797"],
            "(lambda - 1)^2 = 39204 matrix entries exceed --enum-cap 10000",
        ),
        (["fc-check", "--p", "2", "--all"], "fc-check --all needs p >= 5, got 2"),
        (["fc-check", "--p", "3", "--all"], "fc-check --all needs p >= 5, got 3"),
        (
            ["fc-check", "--p", "13", "--i", "3"],
            "fc-check requires --all or both --i and --k",
        ),
        (
            ["valuation", "--lambda", "5", "--p", "11", "--xi", "9", "0"],
            "valuation of 0 is infinite",
        ),
        (
            ["monoid", "--m", "4", "factor", "10001"],
            "a = 10001 candidate divisors exceed --enum-cap 10000",
        ),
        (
            ["quad", "--theta", "0,3", "check-b2", "--p", "2", "0", "1"],
            "error: zero numerator",
        ),
        (
            ["quad", "--theta", "0,3", "check-b2", "--p", "2", "1", "0"],
            "error: zero denominator",
        ),
        (
            ["jacobi-sum", "--p", "7", "--order", "-3", "--i", "1", "--k", "1"],
            "order -3 must be at least 2",
        ),
        (["gauss-sum", "--p", "12", "--order", "0"], "order 0 must be at least 2"),
        (
            ["jacobi-sum", "--p", "12", "--order", "0", "--i", "1", "--k", "1"],
            "order 0 must be at least 2",
        ),
        (["quartic", "--p", "7"], "order 4 must divide p - 1 = 6"),
        (
            ["stickelberger", "--lambda", "5", "--p", "7"],
            "order 5 must divide p - 1 = 6",
        ),
        (
            ["fc-check", "--p", "7", "--all", "--i", "3", "--k", "9"],
            "fc-check --all takes neither --i nor --k",
        ),
        (["binomial", "--p", "7"], "order 4 must divide p - 1 = 6"),
        (["binomial", "--p", "2"], "order 4 must divide p - 1 = 1"),
        (
            ["monoid", "--m", "4", "defined-at", "3", "0", "21"],
            "0 is not in HilbertMonoid(m=4, H=[1])",
        ),
    ],
)
def test_cli_out_of_range_input_exit_code(capsys, argv, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_cli_valuation_refuses_zero_before_building_a_map(capsys, monkeypatch):
    # a zero element is refused right after parsing, before any map is
    # enumerated: the xi given here matches no map at 29, and at a
    # 1000-digit p the maps alone took over a second
    def unreachable(*args):
        raise AssertionError("enumerate_jacobi_maps ran before the refusal")

    monkeypatch.setattr(cli, "enumerate_jacobi_maps", unreachable)
    argv = ["valuation", "--lambda", "7", "--p", "29", "--xi", "1", "0"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: valuation of 0 is infinite\n"


def test_cli_fc_check_single_pair(capsys):
    # fc-check --i --k checks one pair: J(chi^i, chi^k) at g against zero
    # below p - 1 and against the binomial coefficient above it
    argv = ["fc-check", "--p", "13", "--json", "--i"]
    code, out = _run(capsys, argv + ["3", "--k", "4"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["value"] == result["expected"] == 0
    assert result["branch"] == "zero" and result["holds"] is True
    code, out = _run(capsys, argv + ["8", "--k", "9"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["value"] == result["expected"] == 9
    assert result["branch"] == "binomial" and result["holds"] is True


def test_cli_assertion_exit_code(capsys):
    # a degenerate jacobi-sum is fine (exit 0) but carries no reflection
    code, out = _run(
        capsys,
        ["jacobi-sum", "--p", "7", "--order", "2", "--i", "1", "--k", "1", "--json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["degenerate"] is True
    assert doc["result"]["J"] == "-1"


def test_cli_fc_check_all(capsys):
    code, out = _run(capsys, ["fc-check", "--p", "5", "--all", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["all_hold"] and doc["result"]["cases"] == 6


def test_cli_monoid_classgroup_enum_cap(capsys):
    # phi(15) = 8 cosets make 64 products; the refusal comes from phi(M)
    # alone, so M = 100000 (40000 cosets) answers at once
    code, out = _run(
        capsys, ["monoid", "--m", "15", "classgroup", "--enum-cap", "64", "--json"]
    )
    assert code == 0
    assert json.loads(out)["result"]["isomorphic_to"] == "C2 x C4"
    assert main(["monoid", "--m", "15", "classgroup", "--enum-cap", "63"]) == 2
    assert "|Cl|^2 = 64 coset products exceed --enum-cap 63" in capsys.readouterr().err
    assert main(["monoid", "--m", "100000", "classgroup"]) == 2
    assert "1600000000 coset products" in capsys.readouterr().err


def test_cli_enum_cap_before_action(capsys):
    assert main(["monoid", "--m", "15", "--enum-cap", "63", "classgroup"]) == 2
    assert "exceed --enum-cap 63" in capsys.readouterr().err
    # a value written after the action still wins
    argv = ["monoid", "--enum-cap", "63", "--m", "15", "classgroup", "--enum-cap", "64"]
    assert main(argv) == 0


def test_cli_json_before_action(capsys):
    code, out = _run(capsys, ["monoid", "--json", "--m", "15", "factor", "16"])
    assert code == 0
    assert json.loads(out)["result"]["a"] == 16
    code, out = _run(capsys, ["quad", "--json", "--theta", "0,3", "conductor"])
    assert code == 0
    assert json.loads(out)["command"] == "quad"


def test_cli_trial_div_before_action(capsys):
    # monoid takes no --trial-div, before its action or after it:
    # classgroup factors m at the default bound
    for argv in (
        ["monoid", "--m", "25", "--trial-div", "1", "classgroup"],
        ["monoid", "--m", "25", "classgroup", "--trial-div", "1"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "unrecognized arguments: --trial-div" in capsys.readouterr().err
    assert main(["monoid", "--m", "25", "classgroup"]) == 0
    capsys.readouterr()
    # 1000003 * 1000033: both factors exceed the default bound
    start = time.perf_counter()
    assert main(["monoid", "--m", "1000036000099", "classgroup"]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "error: cofactor 1000036000099 is composite and exceeds the "
        "trial-division bound 1000000\n"
    )


@pytest.mark.parametrize(
    "argv,option",
    [
        (["quad", "--enum-cap", "7", "--theta", "0,3", "conductor"], "--enum-cap"),
        (["quad", "--foo", "7", "--theta", "0,3", "conductor"], "--foo"),
        (["monoid", "--trial-div", "1", "--m", "25", "classgroup"], "--trial-div"),
        (["quad", "-x", "7", "--theta", "0,3", "conductor"], "-x"),
    ],
)
def test_cli_unknown_option_before_action_is_named(capsys, argv, option):
    # argparse alone would read the option's value as the action
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert f"error: unrecognized arguments: {option}\n" in err_text
    assert "invalid choice" not in err_text


def test_cli_abbreviated_option_before_action_still_parses(capsys):
    # the unknown-option check accepts what argparse accepts
    argv = ["monoid", "--sub", "1,7", "--m", "8", "--js", "classgroup"]
    code, out = _run(capsys, argv)
    assert code == 0
    assert json.loads(out)["result"]["order"] == 2


def test_cli_stickelberger(capsys):
    code, out = _run(capsys, ["stickelberger", "--lambda", "3", "--p", "7"])
    assert code == 0
    assert "holds: true" in out


def test_cli_monoid_surfaces(capsys):
    code, out = _run(
        capsys, ["monoid", "--m", "4", "--subgroup", "1", "factor", "441", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["irreducible_factorizations"] == [[9, 49], [21, 21]]
    code, out = _run(
        capsys, ["monoid", "--m", "8", "--subgroup", "1", "classgroup", "--json"]
    )
    assert code == 0
    assert json.loads(out)["result"]["isomorphic_to"] == "C2 x C2"
    code, out = _run(
        capsys,
        ["monoid", "--m", "4", "--subgroup", "1", "defined-at", "3", "9", "9261"],
    )
    assert code == 0
    assert "defined: false" in out and "value: oo" in out
    code, out = _run(capsys, ["monoid", "demo-singular", "--json"])
    assert code == 0
    assert json.loads(out)["result"]["holds"] is True


def test_cli_quad_surfaces(capsys):
    code, out = _run(
        capsys,
        ["quad", "--theta", "0,3", "check-b2", "--p", "2", "1+t", "2", "--json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["maps"][0]["dichotomy_holds"] is False
    code, out = _run(capsys, ["quad", "--theta", "0,3", "maps", "--p", "2", "--json"])
    assert code == 0
    assert json.loads(out)["result"]["maps"][0]["theta_image"] == 1
    code, out = _run(capsys, ["quad", "--theta", "0,3", "conductor", "--json"])
    assert code == 0
    assert json.loads(out)["result"]["conductor"] == 2
    code, out = _run(capsys, ["quad", "--theta", "0,3", "gauss-lemma", "1,1", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["reducible_over_K"] and not doc["result"]["reducible_over_O"]


def test_cli_reproduce_filtered(capsys):
    code, out = _run(capsys, ["reproduce", "--filter", "monoid/defined-at"])
    assert code == 0
    assert "PASS monoid/defined-at" in out
    assert "1/1 claims passed" in out


def test_cli_reproduce_filter_matching_nothing_exits_2(capsys):
    # a typo in the filter must not report success after checking nothing
    assert main(["reproduce", "--filter", "nosuchclaim"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--filter 'nosuchclaim' matches no claim" in captured.err


@pytest.mark.parametrize("option", ["--enum-cap", "--trial-div"])
def test_cli_reproduce_takes_no_limits(option):
    # the suite is one fixed configuration: a limit could only move its
    # output away from the golden report
    with pytest.raises(SystemExit) as err:
        main(["reproduce", option, "5"])
    assert err.value.code == 2


def test_cli_reproduce_takes_json_from_the_shared_table(monkeypatch):
    # reproduce's --json is the shared option, as every other command's is
    assert _parse(["reproduce", "--json"]).json is True
    assert _parse(["reproduce"]).json is False
    shared = {**cli._SHARED_OPTIONS["--json"], "help": "shared help"}
    monkeypatch.setitem(cli._SHARED_OPTIONS, "--json", shared)
    parser = _subcommands(cli._build_parser())["reproduce"]
    (action,) = [a for a in parser._actions if "--json" in a.option_strings]
    assert action.help == "shared help"


def test_cli_factor_reports_a_composite_cofactor(capsys):
    # the pinned lambda-41 norm is 83 times a 60-digit composite that trial
    # division to 10^6 cannot split: exit 2, and the message names both
    assert main(["factor", "--lambda", "41", "7+19a+33a^3-5a^17+11a^30"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: cofactor 160385076307395329492289307784294318290372462207543"
        "558499843 is composite and exceeds the trial-division bound 1000000\n"
    )


# Arnault's composite that passes Miller-Rabin to all 13 prime bases up to
# 41, an element of Z[zeta_3] whose norm it is, and z^2 for Jacobi's
# z = 2^((n - 1)/3) mod n, a cube root of 1, as a --xi label
ARNAULT = 5443183882119677641412472432444739926992410014294629071132996995163
ARNAULT_NORM = "344551285311535517180367896094714a - 2141627378424049293827212477418747"
ARNAULT_XI = "3819784694119616419053384329807095393808358530782441610104794568456"


@pytest.mark.parametrize(
    "argv",
    [
        ["maps", "--lambda", "3", "--p", str(ARNAULT)],
        ["quad", "--theta", "0,1", "maps", "--p", str(ARNAULT)],
        ["quad", "--theta", "0,1", "check-b2", "--p", str(ARNAULT), "1+t", "2"],
        ["monoid", "--m", "4", "defined-at", str(ARNAULT), "9", "21"],
        ["valuation", "--lambda", "3", "--p", str(ARNAULT), "--xi", ARNAULT_XI,
         ARNAULT_NORM],
        ["factor", "--lambda", "3", ARNAULT_NORM],
    ],
)
def test_cli_refuses_a_composite_modulus_at_every_entry_point(capsys, argv):
    # each command that reads the modulus as a prime, or meets it as a
    # norm's cofactor, refuses it by name and prints no report
    assert norm(parse_element(ARNAULT_NORM, cyclotomic_ring(3))) == ARNAULT
    assert int(ARNAULT_XI) == pow(2, 2 * (ARNAULT - 1) // 3, ARNAULT)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and str(ARNAULT) in captured.err


@pytest.mark.parametrize("command", ["factor", "divides"])
def test_cli_refuses_a_trial_div_over_its_ceiling_before_factoring(
    capsys, monkeypatch, command
):
    def no_factoring(*args, **kwargs):
        raise AssertionError("a norm was factored")

    monkeypatch.setattr(valuation, "factorize_int", no_factoring)
    argv = [command, "--lambda", "3", "--trial-div", "100000001", "2 + a"]
    assert main(argv + ["1"] if command == "divides" else argv) == 2
    assert capsys.readouterr().err == "error: --trial-div '100000001' is over 10^8\n"


def test_cli_reproduce_reports_failed_and_broken_claims(
    capsys, monkeypatch, tmp_path
):
    # an AssertionError is a failed claim, any other exception a broken one;
    # both are reported, in sorted order, and both make the run exit 1
    def fails(cfg):
        raise AssertionError("the two routes disagree")

    def errs(cfg):
        raise ValueError("no such map")

    monkeypatch.setattr(reproduce, "_CLAIMS", [("z/errs", errs), ("a/fails", fails)])
    code, out = _run(capsys, ["reproduce"])
    assert code == 1
    assert out == "FAIL a/fails\nERROR z/errs\n0/2 claims passed\n"
    trace = tmp_path / "claims.jsonl"
    code, out = _run(capsys, ["reproduce", "--json", "--trace", str(trace)])
    assert code == 1
    claims = json.loads(out)["result"]["claims"]
    assert [(c["claim"], c["status"], c["detail"]) for c in claims] == [
        ("a/fails", "fail", {"error": "the two routes disagree"}),
        ("z/errs", "error", {"error": "ValueError: no such map"}),
    ]
    lines = [json.loads(line) for line in trace.read_text().splitlines()]
    assert [(line["claim"], line["status"]) for line in lines] == [
        ("a/fails", "fail"),
        ("z/errs", "error"),
    ]


def test_cli_monoid_defined_at_refuses_a_large_modulus(capsys):
    # defined-at scans up to 2m scales; at m = 10^7 with g = m - 1 the
    # fraction has no witness, so the scan would run the whole 2m
    m = 10**7
    g = m - 1
    a0 = pow(g, -1, m)
    argv = ["monoid", "--m", str(m), "--subgroup", "1", "defined-at", "3"]
    start = time.perf_counter()
    assert main(argv + [str(g * a0), str(g * (a0 + m))]) == 2
    assert time.perf_counter() - start < 1.0
    message = "2m = 20000000 scales exceed --enum-cap 10000"
    assert message in capsys.readouterr().err
    # 2m equal to the cap still runs
    argv = ["monoid", "--m", "4", "defined-at", "3", "9", "9261", "--enum-cap", "8"]
    assert main(argv) == 0
    assert main(argv[:-1] + ["7"]) == 2


def test_cli_monoid_refuses_a_large_subgroup_before_its_closure_check(capsys):
    # the closure check of H forms |H|^2 products; all of (Z/1009)^* is
    # 1008 residues, over a million products
    subgroup = ",".join(str(h) for h in range(1, 1009))
    start = time.perf_counter()
    assert main(["monoid", "--m", "1009", "--subgroup", subgroup, "classgroup"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "|H|^2 = 1016064 closure products exceed --enum-cap 10000" in err
    # residues are counted mod m: 1 and 16 are one residue mod 15
    argv = ["monoid", "--m", "15", "--subgroup", "1,16,4", "factor", "4"]
    assert main(argv + ["--enum-cap", "4"]) == 0
    capsys.readouterr()
    assert main(argv + ["--enum-cap", "3"]) == 2
    assert "|H|^2 = 4 closure products exceed --enum-cap 3" in capsys.readouterr().err


def test_json_reports_never_contain_floats(capsys):
    for argv in (
        ["maps", "--lambda", "5", "--p", "19", "--json"],
        ["quartic", "--p", "13", "--json"],
        ["binomial", "--p", "29", "--json"],
        ["gauss-sum", "--p", "7", "--order", "3", "--json"],
    ):
        code, out = _run(capsys, argv)
        assert code == 0

        def walk(node):
            assert not isinstance(node, float)
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)

        walk(json.loads(out))


def test_cli_signed_list_values(capsys):
    # a list value that starts with a minus sign may follow its option as
    # a separate argument, as any other value does
    spaced = _run(capsys, ["quad", "--theta", "-1,-1", "conductor", "--json"])
    joined = _run(capsys, ["quad", "--theta=-1,-1", "conductor", "--json"])
    assert spaced == joined
    assert json.loads(spaced[1])["result"]["conductor"] == 1
    code, out = _run(
        capsys, ["valuation", "--lambda", "5", "--p", "11", "--xi", "-2", "11"]
    )
    assert code == 0 and "mu: 1" in out
    inert = ["valuation", "--lambda", "5", "--p", "2", "--xi", "-2,0,0,1", "2"]
    assert main(inert) == 0


def test_cli_long_list_values_are_not_echoed(capsys):
    # a part past the digit cap, or a long malformed list, is named by its
    # length and a short prefix, never echoed whole; a part at the cap is
    # still read
    assert main(["quad", "--theta", "0," + "7" * 5000, "conductor"]) == 2
    err = capsys.readouterr().err
    assert "5000 characters" in err and len(err) < 120
    assert main(["quad", "--theta", "1," * 3000, "conductor"]) == 2
    assert len(capsys.readouterr().err) < 120
    assert _int_list("--theta", "0, -" + "7" * 4000) == [0, -int("7" * 4000)]


# One valid invocation of every command and every monoid and quad action,
# fc-check in both of its modes.
_INVOCATIONS = [
    ["maps", "--lambda", "5", "--p", "11"],
    ["factor", "--lambda", "5", "2 + a"],
    ["valuation", "--lambda", "5", "--p", "11", "--xi", "9", "11"],
    ["divides", "--lambda", "5", "1 - a", "5"],
    ["jacobi-sum", "--p", "13", "--order", "4", "--i", "1", "--k", "1"],
    ["gauss-sum", "--p", "7", "--order", "3"],
    ["fc-check", "--p", "5", "--all"],
    ["fc-check", "--p", "13", "--i", "3", "--k", "4"],
    ["stickelberger", "--lambda", "5", "--p", "11"],
    ["quartic", "--p", "13"],
    ["binomial", "--p", "29"],
    ["monoid", "--m", "4", "factor", "441"],
    ["monoid", "--m", "8", "classgroup"],
    ["monoid", "--m", "4", "defined-at", "3", "9", "9261"],
    ["monoid", "demo-singular"],
    ["quad", "--theta", "0,3", "maps", "--p", "2"],
    ["quad", "--theta", "0,3", "check-b2", "--p", "2", "1+t", "2"],
    ["quad", "--theta", "0,3", "conductor"],
    ["quad", "--theta", "0,3", "gauss-lemma", "1,1"],
    ["reproduce", "--filter", "monoid/defined-at"],
]
_SHARED_DESTS = ("json", "enum_cap", "trial_div")


def _parse(argv):
    return cli._build_parser().parse_args(cli._join_signed_lists(argv))


def _subcommands(parser):
    """The parsers of parser's subcommands by name; {} if it has none."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


class _ReadRecorder(argparse.Namespace):
    """A namespace that notes the name of every attribute read from it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def test_invocation_table_covers_every_command_and_action():
    covered = {
        (argv[0], getattr(_parse(argv), "action", None)) for argv in _INVOCATIONS
    }
    expected = set()
    for command, parser in _subcommands(cli._build_parser()).items():
        actions = _subcommands(parser) or [None]
        expected |= {(command, action) for action in actions}
    assert covered == expected
    assert {argv[0] for argv in _INVOCATIONS} == set(cli._DISPATCH)


def test_every_command_reads_the_shared_options_it_takes(capsys):
    # an option that a command parses and never reads is one that changes
    # nothing; over all its invocations, each command must read every
    # shared option it takes
    parsed, read = {}, {}
    for argv in _INVOCATIONS:
        args = _parse(argv)
        recorder = _ReadRecorder(**vars(args))
        recorder._reads = set()
        assert cli._DISPATCH[args.command](recorder) == 0, argv
        parsed.setdefault(args.command, set()).update(
            dest for dest in _SHARED_DESTS if hasattr(args, dest)
        )
        read.setdefault(args.command, set()).update(recorder._reads)
    capsys.readouterr()
    unread = {
        command: sorted(dests - read[command])
        for command, dests in parsed.items()
        if dests - read[command]
    }
    assert unread == {}


# The limit options each command and action takes.  With action None the
# option is written for the command itself: right after its name if it has
# actions, else at the end; with an action, after that action's arguments.
_LIMIT_SLOTS = [
    ("maps", None, {"--enum-cap"}),
    ("factor", None, {"--enum-cap", "--trial-div"}),
    ("valuation", None, {"--enum-cap"}),
    ("divides", None, {"--enum-cap", "--trial-div"}),
    ("jacobi-sum", None, {"--enum-cap"}),
    ("gauss-sum", None, {"--enum-cap"}),
    ("fc-check", None, {"--enum-cap"}),
    ("stickelberger", None, {"--enum-cap"}),
    ("quartic", None, {"--enum-cap"}),
    ("binomial", None, {"--enum-cap"}),
    ("monoid", None, {"--enum-cap"}),
    ("monoid", "factor", {"--enum-cap"}),
    ("monoid", "classgroup", {"--enum-cap"}),
    ("monoid", "defined-at", {"--enum-cap"}),
    ("monoid", "demo-singular", set()),
    ("quad", None, set()),
    ("quad", "maps", set()),
    ("quad", "check-b2", set()),
    ("quad", "conductor", set()),
    ("quad", "gauss-lemma", set()),
]


def _limit_argv(command, action, option):
    """A valid invocation with option 7 written at the slot."""
    for argv in _INVOCATIONS:
        if argv[0] == command and (action is None or action in argv):
            if action is None and command in ("monoid", "quad"):
                return [command, option, "7"] + argv[1:]
            return argv + [option, "7"]
    raise LookupError((command, action))


def _limit_cases(kept):
    return [
        pytest.param(
            _limit_argv(command, action, option),
            option,
            id=f"{command}-{action or 'before-action'}-{option.lstrip('-')}"
            if command in ("monoid", "quad")
            else f"{command}-{option.lstrip('-')}",
        )
        for command, action, takes in _LIMIT_SLOTS
        for option in ("--enum-cap", "--trial-div")
        if (option in takes) == kept
    ]


@pytest.mark.parametrize("argv,option", _limit_cases(True))
def test_cli_limit_is_taken_where_it_is_read(argv, option):
    dest = option.lstrip("-").replace("-", "_")
    assert getattr(_parse(argv), dest) == 7


@pytest.mark.parametrize("argv,option", _limit_cases(False))
def test_cli_limit_is_refused_where_nothing_reads_it(capsys, argv, option):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "usage: kummerlab" in capsys.readouterr().err


# Every CLI cap, the worst input it admits (exit 0, nothing on stderr) and
# the input just past it (exit 2 and the refusal text).  The admitted
# inputs are built to cost the most: the longest exponent and --theta, the
# largest printable norm and valuation, a conductor and primes at
# --enum-cap 10000.
_U = str(10**3999 + 1)  # a --theta coefficient of 4000 digits
_C = "9" * 4000  # the largest coefficient written
# in Z[i]: 5c + t + c t^2 - c t^4 + c t^6 - c t^8 + c t^10, its residue t and
# a carried pair 5c, as the parser sums the constant terms past 4000 digits
_FIVE_C = " + ".join([_C] * 5 + ["t"]) + "".join(
    f" {sign} {_C}t^{k}" for sign, k in zip("+-+-+", (2, 4, 6, 8, 10))
)
# c t^24 with theta^2 = -theta - 2 and the largest c whose residue stays below
# 10^4000: a carried pair exceeds 2S by 0.73 * 10^4000 (QuadOrder._reduce)
_T24 = (10**4000 - 1) // max(map(abs, QuadOrder(1, 2).element([0] * 24 + [1]).coeffs))
_TOO_LONG = "has a coefficient of more than 4000 digits"
_QUAD_B2 = ["quad", "--theta", f"{_U},7", "check-b2", "--p", "3"]
_FACTOR_3 = ["factor", "--lambda", "3"]
_BELOW_10_8 = str(99999971 * 99999989)
_BUDGET = "digits is over the budget of 1000 digits"
CAP_TABLE = [
    # MAX_EXPONENT and the computed coefficients: t^4096 reduces to 1
    (_QUAD_B2 + [f"t^4096 + {_U}t^4095 + 7t^4094 + 1", "t"], 0, ""),
    (["factor", "--lambda", "5", "a^4097"], 2, "exponent 4097 is too large"),
    # the largest carried pairs known: 5c = 5 * 10^4000 - 5, and 2S + 0.73 X
    (["quad", "--theta", "0,1", "check-b2", "--p", "3", _FIVE_C, "t"], 0, ""),
    (["quad", "--theta", "1,2", "check-b2", "--p", "3", f"{_T24}t^24", "t"], 0, ""),
    (_QUAD_B2 + ["t^4096", "t"], 2, f"expression 't^4096' {_TOO_LONG}"),
    (
        ["quad", "--theta", f"{10**500 + 1},7", "check-b2", "--p", "3", "t^4096", "t"],
        2,
        f"expression 't^4096' {_TOO_LONG}",
    ),
    # MAX_COEFFICIENT_DIGITS, written, and the --theta digits
    (["divides", "--lambda", "3", "1 - a", str(10**3999)], 0, ""),
    (["factor", "--lambda", "5", "9" * 4001], 2, "integer of 4001 digits is too large"),
    (
        ["quad", "--theta", f"0,{10**4000}", "conductor"],
        2,
        "--theta takes integers of at most 4000 digits",
    ),
    # the printable norm, at valuations of 2544 and 2149; one of 1000
    (["factor", "--lambda", "3", str(7**2544)], 0, ""),
    (["factor", "--lambda", "3", str(4 * 10**2149)], 0, ""),
    (["factor", "--lambda", "3", str(2**7200)], 2, "the norm has 4335 digits"),
    (["valuation", "--lambda", "5", "--p", "11", "--xi", "9", str(11**1000)], 0, ""),
    # the default trial-division bound 10^6: two primes below it, then past it
    (["factor", "--lambda", "3", str(999979 * 999983)], 0, ""),
    (
        ["factor", "--lambda", "3", str(1000003 * 1000033)],
        2,
        "is composite and exceeds the trial-division bound 1000000",
    ),
    # the --trial-div ceiling 10^8: the two largest primes below it, found by
    # a scan to the ceiling, then the same input one past it
    (_FACTOR_3 + ["--trial-div", str(10**8), _BELOW_10_8], 0, ""),
    (
        _FACTOR_3 + ["--trial-div", str(10**8 + 1), _BELOW_10_8],
        2,
        "--trial-div '100000001' is over 10^8",
    ),
    # --enum-cap: the conductor's (lambda - 1)^2
    (["stickelberger", "--lambda", "101", "--p", "607"], 0, ""),
    (["maps", "--lambda", "101", "--p", "607"], 0, ""),
    (["factor", "--lambda", "101", "a + 2"], 0, ""),
    (
        ["stickelberger", "--lambda", "103", "--p", "619"],
        2,
        "(lambda - 1)^2 = 10404 matrix entries exceed --enum-cap 10000",
    ),
    # --enum-cap: p - 1 discrete-log entries, order * p, (p - 2)^2 pairs
    (["jacobi-sum", "--p", "9901", "--order", "9900", "--i", "1", "--k", "2"], 0, ""),
    (
        ["jacobi-sum", "--p", "10007", "--order", "2", "--i", "1", "--k", "1"],
        2,
        "p - 1 = 10006 discrete-log entries exceed --enum-cap 10000",
    ),
    (["quartic", "--p", "9973"], 0, ""),
    (["quartic", "--p", "10009"], 2, "p - 1 = 10008 discrete-log entries exceed"),
    (["gauss-sum", "--p", "4999", "--order", "2"], 0, ""),
    (
        ["gauss-sum", "--p", "5003", "--order", "2"],
        2,
        "order * p = 10006 Gauss-sum coefficients exceed --enum-cap 10000",
    ),
    (["fc-check", "--p", "101", "--all"], 0, ""),
    (["fc-check", "--p", "103", "--all"], 2, "(p - 2)^2 = 10201 index pairs exceed"),
    (["binomial", "--p", "9973"], 0, ""),
    (
        ["binomial", "--p", "10007"],
        2,
        "p - 1 = 10006 half-bits of C(2n, n) exceed --enum-cap 10000",
    ),
    # --enum-cap in monoids: |H|^2, the number searched, 2m scales, |Cl|^2
    (
        ["monoid", "--m", "101", "--subgroup", ",".join(map(str, range(1, 101)))]
        + ["factor", "9998"],
        0,
        "",
    ),
    (
        ["monoid", "--m", "103", "--subgroup", ",".join(map(str, range(1, 103)))]
        + ["factor", "9998"],
        2,
        "|H|^2 = 10404 closure products exceed --enum-cap 10000",
    ),
    (["monoid", "--m", "4", "factor", "9997"], 0, ""),
    (
        ["monoid", "--m", "4", "factor", "10001"],
        2,
        "a = 10001 candidate divisors exceed --enum-cap 10000",
    ),
    (["monoid", "--m", "5000", "defined-at", "5003", "5001", "1"], 0, ""),
    (["monoid", "--m", "5001", "defined-at", "5003", "5002", "1"], 2, "2m = 10002"),
    (["monoid", "--m", "101", "classgroup"], 0, ""),
    (["monoid", "--m", "103", "classgroup"], 2, "|Cl|^2 = 10404 coset products"),
    # the primality budget of 1000 digits: the largest prime below 10^1000
    # runs all 13 Miller-Rabin bases, then 10^1000 + 9, which no prime up to
    # 41 divides, and two cofactors of 7996 digits past trial division
    (["maps", "--lambda", "3", "--p", str(10**1000 - 1769)], 0, ""),
    # there of order 2 mod 7: one root of the period cubic, no factoring
    (["maps", "--lambda", "7", "--p", str(10**1000 - 1769)], 0, ""),
    # the prime below 10^1000 nearest to it of order 2 mod 11: one root of
    # the period quintic
    (["maps", "--lambda", "11", "--p", str(10**1000 - 2227953)], 0, ""),
    (["maps", "--lambda", "3", "--p", str(10**1000 + 9)], 2, f"1001 {_BUDGET}"),
    (["quad", "--theta", f"{_U},7", "conductor"], 2, f"7996 {_BUDGET}"),
    (["divides", "--lambda", "3", str(10**3999 + 7), "1"], 2, f"7996 {_BUDGET}"),
]

# Run in a fresh interpreter, with the package root as argv[1]: each argv
# read from stdin goes through cli.main under a 10 s alarm, and one line
# [exit code or "hang", stderr] is printed per row.
_CAP_RUNNER = """
import contextlib, io, json, signal, sys
sys.path.insert(0, sys.argv[1])
from kummerlab import cli
def hang(signum, frame):
    raise TimeoutError
signal.signal(signal.SIGALRM, hang)
for argv in json.load(sys.stdin):
    err = io.StringIO()
    signal.alarm(10)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(err):
                code = cli.main(argv)
    except TimeoutError:
        code = "hang"
    signal.alarm(0)
    print(json.dumps([code, err.getvalue()]), flush=True)
"""


def test_every_cap_admits_its_worst_input_and_refuses_the_next():
    # a hang check, not a speed gate: the whole table takes a few seconds
    package_root = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _CAP_RUNNER, package_root],
        input=json.dumps([argv for argv, _, _ in CAP_TABLE]),
        capture_output=True,
        text=True,
        timeout=10 * len(CAP_TABLE),
    )
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == len(CAP_TABLE), proc.stderr
    for (argv, code, text), (got, err) in zip(CAP_TABLE, results):
        row = " ".join(argv)[:80]
        assert got == code, (row, err)
        assert text in err if code else err == "", (row, err)
