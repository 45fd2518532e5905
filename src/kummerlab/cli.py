"""Command-line front end.

Exit codes: 0 all assertions passed, 1 a mathematical assertion failed,
2 usage or expression parse error.  Every run is deterministic given argv;
reports render as aligned text or as versioned JSON with sorted keys and
no floating-point values.
"""

import argparse
import re
import sys
from itertools import takewhile
from math import gcd

from kummerlab import arith, charsum, monoid, quadorder
from kummerlab.arith import DEFAULT_TRIAL_DIVISION_BOUND, check_prime, factorize_int
from kummerlab.cyclotomic import cyclotomic_ring, norm
from kummerlab.exprparse import (
    MAX_COEFFICIENT_DIGITS,
    ElementParseError,
    parse_element,
    render_element,
)
from kummerlab.idealprimes import enumerate_jacobi_maps, map_for_root
from kummerlab.reports import render_text, write_json
from kummerlab.reproduce import reproduce_all
from kummerlab.valuation import (
    divides,
    factorize,
    kummer_prime,
    multiplicity,
    valuation_oracle,
)

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    pass


def _int_list(option: str, text: str, count: int | None = None) -> list[int]:
    """The comma-separated integers of an option, at least one; blank parts
    are skipped.

    With count, exactly that many must be given.  A part of more than
    MAX_COEFFICIENT_DIGITS digits is refused before int() reads it, and
    errors echo a long value by its length and a short prefix only.
    """
    parts = [c.strip() for c in text.split(",") if c.strip()]
    for part in parts:
        if len(part.lstrip("+-")) > MAX_COEFFICIENT_DIGITS:
            raise UsageError(
                f"{option} takes integers of at most {MAX_COEFFICIENT_DIGITS} "
                f"digits, got a part of {_excerpt(part)}"
            )
    try:
        values = [int(c) for c in parts]
    except ValueError:
        values = []
    if not values:
        raise UsageError(
            f"{option} expects comma-separated integers, got {_excerpt(text)}"
        )
    if count is not None and len(values) != count:
        raise UsageError(f"{option} expects {count} integers, got {_excerpt(text)}")
    return values


def _excerpt(text: str) -> str:
    """text quoted whole, or its length and first 12 characters if it is
    longer than 60."""
    if len(text) <= 60:
        return repr(text)
    return f"{len(text)} characters: {text[:12]!r}..."


# Options whose value is a comma-separated integer list, and such a value
# that starts with a negative number, e.g. "-1,-1".
_LIST_OPTIONS = ("--theta", "--xi", "--subgroup")
_SIGNED_LIST = re.compile(r"-\d[\d,\s+-]*")


def _join_signed_lists(argv: list[str]) -> list[str]:
    """Write "--theta -1,-1" as "--theta=-1,-1": argparse reads a separate
    value that starts with "-" and is not a single number as an option."""
    out = []
    for arg in argv:
        if out and out[-1] in _LIST_OPTIONS and _SIGNED_LIST.fullmatch(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _refuse_unknown_before_action(parser, argv: list[str]) -> None:
    """Name an unknown option written before a monoid or quad action:
    argparse would pass over it and report its value as a bad action."""
    commands = parser._subparsers._group_actions[0].choices
    command = commands.get(argv[0]) if argv else None
    if command is None or command._subparsers is None:
        return
    actions = command._subparsers._group_actions[0].choices
    for arg in takewhile(lambda arg: arg not in actions, argv[1:]):
        flag = arg.split("=", 1)[0]
        known = any(o.startswith(flag) for o in command._option_string_actions)
        if arg.startswith("-") and not _SIGNED_LIST.fullmatch(arg) and not known:
            command.error(f"unrecognized arguments: {arg}")


def _check_table_cap(args) -> None:
    """Refuse a prime whose p - 1 discrete-log entries exceed --enum-cap."""
    if args.p - 1 > args.enum_cap:
        raise UsageError(
            f"p - 1 = {args.p - 1} discrete-log entries exceed "
            f"--enum-cap {args.enum_cap}"
        )


def _check_conductor_cap(args) -> None:
    """Refuse a conductor whose (lambda - 1)^2 exceeds --enum-cap, before
    any ring is built.  That is the entry count of a map's kernel HNF in
    maps, of Psi's multiplication matrix (KummerPrime.psi_columns) in
    factor, valuation and stickelberger, and of the ring products that
    divides takes up the norm tower."""
    if (args.lam - 1) ** 2 > args.enum_cap:
        raise UsageError(
            f"--lambda {args.lam}: (lambda - 1)^2 = {(args.lam - 1) ** 2} "
            f"exceeds --enum-cap {args.enum_cap}"
        )


# The largest --trial-div.  A scan's cost grows linearly with the bound; one to
# 10^8 took 2.0 to 2.6 s in a fresh process (factor --lambda 3, 2-core x86-64).
_MAX_TRIAL_DIV = 10**8


def _check_trial_div(args) -> None:
    """Refuse a bound above _MAX_TRIAL_DIV before any norm is factored."""
    if args.trial_div > _MAX_TRIAL_DIV:
        raise UsageError(f"--trial-div {_excerpt(str(args.trial_div))} is over 10^8")


# The options shared by several commands, each given only to the commands
# that read it.
_SHARED_OPTIONS = {
    "--json": dict(action="store_true", default=False, help="emit JSON reports"),
    "--enum-cap": dict(
        type=int,
        default=10000,
        metavar="N",
        help="cap for exhaustive monoid enumerations, the |H|^2 closure "
        "products of a monoid subgroup H, the 2m scales of monoid defined-at, "
        "the conductor order * p of gauss-sum, the p - 1 discrete-log entries "
        "of jacobi-sum, quartic, stickelberger and fc-check, the p - 1 of "
        "binomial, the (p - 2)^2 index pairs of fc-check --all, and the "
        "(lambda - 1)^2 entries of a kernel HNF in maps, of Psi's "
        "multiplication matrix in factor, valuation and stickelberger, and "
        "of the norm-tower products of divides (default 10000)",
    ),
    "--trial-div": dict(
        type=int,
        default=DEFAULT_TRIAL_DIVISION_BOUND,
        metavar="N",
        help="trial-division bound for norm factorizations, <= 10^8 (default 10^6)",
    ),
}


def _shared(*flags: str, keep_earlier: bool = False) -> argparse.ArgumentParser:
    """A parent parser with the named shared options.

    With keep_earlier they have no defaults, so a monoid or quad action
    parser leaves a value written before the action in place.
    """
    parent = argparse.ArgumentParser(add_help=False)
    for flag in flags:
        spec = _SHARED_OPTIONS[flag]
        if keep_earlier:
            spec = {**spec, "default": argparse.SUPPRESS}
        parent.add_argument(flag, **spec)
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kummerlab",
        description="Exact ideal-prime arithmetic, character sums, and "
        "their failure modes in singular rings.",
    )
    plain = _shared("--json")
    capped = _shared("--json", "--enum-cap")
    full = _shared("--json", "--enum-cap", "--trial-div")
    sub = parser.add_subparsers(dest="command", required=True)

    p_maps = sub.add_parser("maps", parents=[capped], help="list Jacobi maps")
    p_maps.add_argument("--lambda", dest="lam", type=int, required=True)
    p_maps.add_argument("--p", type=int, required=True)

    p_factor = sub.add_parser(
        "factor", parents=[full], help="ideal prime factorization"
    )
    p_factor.add_argument("--lambda", dest="lam", type=int, required=True)
    p_factor.add_argument("expr")

    p_val = sub.add_parser(
        "valuation", parents=[capped], help="multiplicity at one ideal prime"
    )
    p_val.add_argument("--lambda", dest="lam", type=int, required=True)
    p_val.add_argument("--p", type=int, required=True)
    p_val.add_argument(
        "--xi", required=True, help="root label: residue, or comma list for f>1"
    )
    p_val.add_argument("expr")

    p_div = sub.add_parser("divides", parents=[full], help="divisibility test")
    p_div.add_argument("--lambda", dest="lam", type=int, required=True)
    p_div.add_argument("divisor")
    p_div.add_argument("element")

    p_js = sub.add_parser("jacobi-sum", parents=[capped], help="Jacobi sum")
    p_js.add_argument("--p", type=int, required=True)
    p_js.add_argument("--order", type=int, required=True)
    p_js.add_argument("--i", type=int, required=True)
    p_js.add_argument("--k", type=int, required=True)

    p_gs = sub.add_parser("gauss-sum", parents=[capped], help="Gauss-sum power descent")
    p_gs.add_argument("--p", type=int, required=True)
    p_gs.add_argument("--order", type=int, required=True)
    p_gs.add_argument("--i", type=int, default=1)

    p_fc = sub.add_parser("fc-check", parents=[capped], help="fundamental congruence")
    p_fc.add_argument("--p", type=int, required=True)
    p_fc.add_argument("--all", action="store_true")
    p_fc.add_argument("--i", type=int)
    p_fc.add_argument("--k", type=int)

    p_st = sub.add_parser(
        "stickelberger", parents=[capped], help="support of J(chi,chi)"
    )
    p_st.add_argument("--lambda", dest="lam", type=int, required=True)
    p_st.add_argument("--p", type=int, required=True)

    p_q = sub.add_parser(
        "quartic", parents=[capped], help="p = a^2 + b^2 via J(chi,chi)"
    )
    p_q.add_argument("--p", type=int, required=True)

    p_b = sub.add_parser("binomial", parents=[capped], help="Gauss binomial congruence")
    p_b.add_argument("--p", type=int, required=True)

    # argparse gives a command's options to every one of its actions, so
    # monoid takes --json and --enum-cap, and each action only the ones it reads
    action_plain = _shared("--json", keep_earlier=True)
    action_capped = _shared("--json", "--enum-cap", keep_earlier=True)
    p_mon = sub.add_parser("monoid", parents=[capped], help="Hilbert monoids")
    p_mon.add_argument("--m", type=int, default=4)
    p_mon.add_argument("--subgroup", default="1", help="comma-separated residues")
    mon_sub = p_mon.add_subparsers(dest="action", required=True)
    mon_factor = mon_sub.add_parser("factor", parents=[action_capped])
    mon_factor.add_argument("a", type=int)
    mon_sub.add_parser("classgroup", parents=[action_capped])
    mon_def = mon_sub.add_parser("defined-at", parents=[action_capped])
    mon_def.add_argument("p", type=int)
    mon_def.add_argument("a", type=int)
    mon_def.add_argument("b", type=int)
    mon_sub.add_parser("demo-singular", parents=[action_plain])

    p_quad = sub.add_parser("quad", parents=[plain], help="quadratic orders")
    p_quad.add_argument(
        "--theta", required=True, metavar="u,v", help="theta^2 + u theta + v = 0"
    )
    quad_sub = p_quad.add_subparsers(dest="action", required=True)
    quad_maps = quad_sub.add_parser("maps", parents=[action_plain])
    quad_maps.add_argument("--p", type=int, required=True)
    quad_b2 = quad_sub.add_parser("check-b2", parents=[action_plain])
    quad_b2.add_argument("--p", type=int, required=True)
    quad_b2.add_argument("numerator")
    quad_b2.add_argument("denominator")
    quad_sub.add_parser("conductor", parents=[action_plain])
    quad_gl = quad_sub.add_parser("gauss-lemma", parents=[action_plain])
    quad_gl.add_argument("poly", help="c1,c0 for T^2 + c1 T + c0")

    p_rep = sub.add_parser(
        "reproduce", parents=[plain], help="run the full claim suite"
    )
    p_rep.add_argument("--filter", default=None, help="substring claim filter")
    p_rep.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write one JSON line per claim to FILE: claim, status, wall_s",
    )

    return parser


def _map_report(phi) -> dict:
    return {
        "p": phi.p,
        "f": phi.f,
        "xi": phi.label(),
        "factor": list(phi.factor),
        "kernel_hnf": [list(r) for r in phi.kernel().rows],
        "u_vector": list(phi.period_residues()),
    }


def _emit(args, command: str, result, failed: bool = False) -> int:
    if args.json:
        write_json(command, result, sys.stdout)
    else:
        sys.stdout.write(render_text(result))
    return EXIT_ASSERTION if failed else EXIT_OK


def _cmd_maps(args) -> int:
    _check_conductor_cap(args)
    maps = [_map_report(phi) for phi in enumerate_jacobi_maps(args.lam, args.p)]
    return _emit(args, "maps", {"lambda": args.lam, "p": args.p, "maps": maps})


def _factor_record(x, r) -> dict:
    """A factorization record; a nonzero mu is certified by Kummer's route."""
    psi = u = None
    if r.mu:
        K = kummer_prime(r.map)
        if multiplicity(x, K) != r.mu:
            raise ArithmeticError(
                f"Kummer multiplicity and oracle disagree at {r.map!r}"
            )
        psi = render_element(K.psi)
        u = list(r.map.period_residues())
    return {
        "p": r.map.p,
        "f": r.map.f,
        "xi": r.map.label(),
        "u": u,
        "psi": psi,
        "mu": r.mu,
    }


def _check_printable_norm(n: int) -> None:
    """Refuse a norm too long for Python to print: more digits than
    sys.get_int_max_str_digits(), when that limit is set."""
    limit = sys.get_int_max_str_digits()
    digits = arith.decimal_digits(n)
    if limit and digits > limit:
        raise UsageError(
            f"the norm has {digits} digits, more than the {limit} that a "
            "report can print"
        )


def _cmd_factor(args) -> int:
    _check_conductor_cap(args)
    _check_trial_div(args)
    ring = cyclotomic_ring(args.lam)
    x = parse_element(args.expr, ring)
    _check_printable_norm(norm(x))
    fact = factorize(x, args.trial_div)
    records = [_factor_record(x, r) for r in fact.records]
    result = {
        "element": render_element(x),
        "norm": fact.norm_value,
        "records": records,
        "remark": "the records determine the element up to a unit multiple",
    }
    return _emit(args, "factor", result)


def _cmd_valuation(args) -> int:
    _check_conductor_cap(args)
    ring = cyclotomic_ring(args.lam)
    x = parse_element(args.expr, ring)
    maps = enumerate_jacobi_maps(args.lam, args.p)
    phi = map_for_root(maps, _int_list("--xi", args.xi))
    K = kummer_prime(phi)
    mu = multiplicity(x, K)
    oracle = valuation_oracle(x, phi)
    result = {
        "element": render_element(x),
        "p": args.p,
        "xi": phi.label(),
        "psi": render_element(K.psi),
        "mu": mu,
        "oracle": oracle,
        "agree": mu == oracle,
    }
    return _emit(args, "valuation", result, failed=mu != oracle)


def _cmd_divides(args) -> int:
    _check_conductor_cap(args)
    _check_trial_div(args)
    ring = cyclotomic_ring(args.lam)
    d = parse_element(args.divisor, ring)
    x = parse_element(args.element, ring)
    verdict = divides(d, x, args.trial_div)
    result = {
        "divisor": render_element(d),
        "element": render_element(x),
        "divides": verdict,
    }
    return _emit(args, "divides", result)


def _cmd_jacobi_sum(args) -> int:
    _check_table_cap(args)
    chi = charsum.character(args.p, args.order)
    degenerate = (
        args.i % args.order == 0
        or args.k % args.order == 0
        or (args.i + args.k) % args.order == 0
    )
    if degenerate:
        j = charsum.jacobi_sum(chi, args.i, args.k)
    else:
        rep = charsum.reflection_identity(chi, args.i, args.k)
        j = chi.ring.element(rep["J"])
    result = {
        "p": args.p,
        "order": args.order,
        "i": args.i,
        "k": args.k,
        "J": render_element(j),
        "psi": render_element(-j),
        "J_coeffs": list(j.coeffs),
    }
    if not degenerate:
        product = chi.ring.element(rep["product"])
        result["reflection_product"] = render_element(product)
        result["reflection_holds"] = rep["holds"]
        return _emit(args, "jacobi-sum", result, failed=not rep["holds"])
    result["degenerate"] = True
    return _emit(args, "jacobi-sum", result)


def _cmd_gauss_sum(args) -> int:
    # gauss_sum allocates one coefficient per residue mod order * p
    if args.order * args.p > args.enum_cap:
        raise UsageError(
            f"order * p = {args.order * args.p} Gauss-sum coefficients exceed "
            f"--enum-cap {args.enum_cap}"
        )
    report = charsum.gauss_power_descent(args.order, args.p, args.i)
    ring = cyclotomic_ring(args.order)
    report["element_expr"] = render_element(ring.element(report["element"]))
    return _emit(args, "gauss-sum", report)


def _cmd_fc_check(args) -> int:
    if args.all:
        check_prime(args.p)
        if args.p < 5:  # no pair 0 < i, k < p - 1 has i + k != p - 1
            raise UsageError(f"fc-check --all needs p >= 5, got {args.p}")
        cases = (args.p - 2) ** 2
        if cases > args.enum_cap:
            raise UsageError(
                f"(p - 2)^2 = {cases} index pairs exceed "
                f"--enum-cap {args.enum_cap}"
            )
        checks = []
        failed = False
        for i in range(1, args.p - 1):
            for k in range(1, args.p - 1):
                if i + k == args.p - 1:
                    continue
                rep = charsum.fundamental_congruence_check(args.p, i, k)
                failed = failed or not rep["holds"]
                checks.append(rep)
        result = {"p": args.p, "cases": len(checks), "all_hold": not failed}
        if failed:
            result["failures"] = [c for c in checks if not c["holds"]]
        return _emit(args, "fc-check", result, failed=failed)
    if args.i is None or args.k is None:
        raise UsageError("fc-check requires --all or both --i and --k")
    _check_table_cap(args)
    rep = charsum.fundamental_congruence_check(args.p, args.i, args.k)
    return _emit(args, "fc-check", rep, failed=not rep["holds"])


def _cmd_stickelberger(args) -> int:
    _check_table_cap(args)
    _check_conductor_cap(args)
    rep = charsum.stickelberger_check(args.lam, args.p)
    return _emit(args, "stickelberger", rep, failed=not rep["holds"])


def _cmd_quartic(args) -> int:
    _check_table_cap(args)
    rep = charsum.quartic_decomposition(args.p)
    return _emit(args, "quartic", rep, failed=not rep["congruence_holds"])


def _cmd_binomial(args) -> int:
    if args.p - 1 > args.enum_cap:
        raise UsageError(
            f"p - 1 = {args.p - 1} exceeds --enum-cap {args.enum_cap}: "
            f"C(2n, n) has about (p - 1)/2 bits"
        )
    rep = charsum.binomial_congruence(args.p)
    return _emit(args, "binomial", rep, failed=not rep["congruence_holds"])


def _cmd_monoid(args) -> int:
    if args.action == "demo-singular":
        rep = monoid.singular_monoid_report()
        return _emit(args, "monoid", rep, failed=not rep["holds"])
    residues = _int_list("--subgroup", args.subgroup)
    h = len({r % args.m for r in residues}) if args.m > 1 else 0
    if h * h > args.enum_cap:
        raise UsageError(
            f"{h} subgroup residues need {h * h} closure products, "
            f"over --enum-cap {args.enum_cap}"
        )
    if args.action == "defined-at" and 2 * args.m > args.enum_cap:
        raise UsageError(
            f"defined-at scans 2m = {2 * args.m} scales, "
            f"over --enum-cap {args.enum_cap}"
        )
    M = monoid.HilbertMonoid(args.m, residues)
    if args.action == "factor":
        if args.a > args.enum_cap:
            raise UsageError(
                f"{args.a} exceeds --enum-cap {args.enum_cap} for exhaustive "
                f"factorization search"
            )
        factorizations = monoid.factor_into_irreducibles(
            M, args.a, all_factorizations=True
        )
        ideal = (
            [[p, e] for p, e in monoid.ideal_factorization(M, args.a)]
            if gcd(args.a, M.m) == 1
            else None
        )
        result = {
            "monoid": repr(M),
            "a": args.a,
            "irreducible_factorizations": [list(f) for f in factorizations],
            "ideal_factorization": ideal,
        }
        return _emit(args, "monoid", result)
    if args.action == "classgroup":
        phi_m = 1
        for p, e in factorize_int(args.m).items():
            phi_m *= (p - 1) * p ** (e - 1)
        n = phi_m // len(M.subgroup)
        if n * n > args.enum_cap:
            raise UsageError(
                f"class group of order {n} needs {n * n} coset products, "
                f"over --enum-cap {args.enum_cap}"
            )
        return _emit(args, "monoid", monoid.class_group(M))
    # defined-at
    rep = monoid.defined_at(M, args.p, args.a, args.b)
    result = {
        "monoid": repr(M),
        "p": args.p,
        "fraction": f"{args.a}/{args.b}",
        **rep,
    }
    return _emit(args, "monoid", result)


def _cmd_quad(args) -> int:
    u, v = _int_list("--theta", args.theta, 2)
    order = quadorder.QuadOrder(u, v)
    if args.action == "maps":
        maps = [
            {
                "p": phi.p,
                "f": phi.f,
                "theta_image": phi.label(),
                "kernel_hnf": [list(r) for r in phi.kernel().rows],
            }
            for phi in quadorder.enumerate_quad_maps(order, args.p)
        ]
        return _emit(args, "quad", {"order": repr(order), "maps": maps})
    if args.action == "check-b2":
        num = parse_element(args.numerator, order)
        den = parse_element(args.denominator, order)
        maps = quadorder.enumerate_quad_maps(order, args.p)
        reports = [
            {
                "theta_image": phi.label(),
                "at_fraction": rep["at_fraction"],
                "at_inverse": rep["at_inverse"],
                "dichotomy_holds": rep["at_fraction"] or rep["at_inverse"],
            }
            for phi, rep in zip(maps, quadorder.dichotomy_check(maps, num, den))
        ]
        result = {
            "order": repr(order),
            "fraction": f"({render_element(num)}) / ({render_element(den)})",
            "maps": reports,
        }
        return _emit(args, "quad", result)
    if args.action == "conductor":
        c = quadorder.conductor(order)
        result = {"order": repr(order), "conductor": c, "integrally_closed": c == 1}
        return _emit(args, "quad", result)
    # gauss-lemma
    if "," not in args.poly:
        raise UsageError(
            f"gauss-lemma expects c1,c0 for T^2 + c1 T + c0, got {args.poly!r}"
        )
    left, right = args.poly.split(",", 1)
    b = parse_element(left, order)
    c = parse_element(right, order)
    rep = quadorder.gauss_lemma_check(order, b, c)
    rep["polynomial"] = f"T^2 + ({render_element(b)}) T + ({render_element(c)})"
    return _emit(args, "quad", rep)


def _cmd_reproduce(args) -> int:
    if args.trace is None:
        out, code = reproduce_all(args.filter, args.json)
    else:
        # the claims catch their own errors, so an OSError here comes from
        # opening, writing or closing the trace
        try:
            with open(args.trace, "w", encoding="utf-8") as trace:
                out, code = reproduce_all(args.filter, args.json, trace)
        except OSError as exc:
            raise UsageError(f"cannot write trace file: {exc}") from None
    sys.stdout.write(out)
    return code


_DISPATCH = {
    "maps": _cmd_maps,
    "factor": _cmd_factor,
    "valuation": _cmd_valuation,
    "divides": _cmd_divides,
    "jacobi-sum": _cmd_jacobi_sum,
    "gauss-sum": _cmd_gauss_sum,
    "fc-check": _cmd_fc_check,
    "stickelberger": _cmd_stickelberger,
    "quartic": _cmd_quartic,
    "binomial": _cmd_binomial,
    "monoid": _cmd_monoid,
    "quad": _cmd_quad,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    parser = _build_parser()
    argv = _join_signed_lists(sys.argv[1:] if argv is None else argv)
    _refuse_unknown_before_action(parser, argv)
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ElementParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
