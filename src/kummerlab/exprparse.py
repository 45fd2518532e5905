"""Element expressions: signed integer terms in a single ring symbol.

Grammar (whitespace-insensitive):

    expr  := ['+'|'-'] term (('+'|'-') term)*
    term  := INT | [INT ['*']] SYM ['^' INT]

The symbol is the ring's ``symbol``: ``a`` in cyclotomic rings and ``t`` in
quadratic orders.  Implicit multiplication ("3a^2") is allowed; exponents
may reach or exceed the conductor (the ring reduces them) but not
MAX_EXPONENT, which bounds the work of an expression.  Integers, written or
computed, keep to MAX_COEFFICIENT_DIGITS digits (a quadratic order checks
its residue as it reduces), so every parsed element renders back.  Parse
errors carry the offending position and what was expected there.
"""

import re

MAX_EXPONENT = 4096
MAX_COEFFICIENT_DIGITS = 4000
COEFFICIENT_BOUND = 10**MAX_COEFFICIENT_DIGITS


class ElementParseError(ValueError):
    def __init__(self, message: str, position: int, expected: str):
        self.position = position
        self.expected = expected
        super().__init__(f"{message} at position {position} (expected {expected})")


_TOKEN = re.compile(r"\s*(?:(\d+)|([a-zA-Z])|([+\-^*])|(.))")


def _tokenize(src: str, symbol: str):
    tokens = []
    for m in _TOKEN.finditer(src):
        pos = m.start(m.lastindex)
        if m.group(1):
            if len(m.group(1)) > MAX_COEFFICIENT_DIGITS:
                raise ElementParseError(
                    f"integer of {len(m.group(1))} digits is too large",
                    pos,
                    f"an integer of at most {MAX_COEFFICIENT_DIGITS} digits",
                )
            tokens.append(("int", int(m.group(1)), pos))
        elif m.group(2):
            if m.group(2) != symbol:
                raise ElementParseError(
                    f"unknown symbol {m.group(2)!r}", pos, f"the symbol {symbol!r}"
                )
            tokens.append(("sym", symbol, pos))
        elif m.group(3):
            tokens.append((m.group(3), m.group(3), pos))
        elif m.group(4) and m.group(4).strip():
            raise ElementParseError(
                f"unexpected character {m.group(4)!r}", pos, "a term"
            )
    tokens.append(("end", None, len(src)))
    return tokens


def _parse_terms(src: str, symbol: str) -> dict[int, int]:
    """Accumulated coefficients per power of the symbol."""
    tokens = _tokenize(src, symbol)
    powers: dict[int, int] = {}
    i = 0
    first = True

    def fail(expected: str):
        kind, _, pos = tokens[i]
        what = "end of input" if kind == "end" else f"{src[pos]!r}"
        raise ElementParseError(f"unexpected {what}", pos, expected)

    while True:
        sign = 1
        kind = tokens[i][0]
        if kind in ("+", "-"):
            sign = -1 if kind == "-" else 1
            i += 1
        elif not first:
            fail("'+' or '-'")
        first = False
        kind, value, pos = tokens[i]
        coeff = None
        if kind == "int":
            coeff = value
            i += 1
            if tokens[i][0] == "*":
                i += 1
                if tokens[i][0] != "sym":
                    fail(f"the symbol {symbol!r}")
        if tokens[i][0] == "sym":
            i += 1
            power = 1
            if tokens[i][0] == "^":
                i += 1
                if tokens[i][0] != "int":
                    fail("an exponent")
                power = tokens[i][1]
                if power > MAX_EXPONENT:
                    raise ElementParseError(
                        f"exponent {power} is too large",
                        tokens[i][2],
                        f"an exponent of at most {MAX_EXPONENT}",
                    )
                i += 1
            powers[power] = powers.get(power, 0) + sign * (
                1 if coeff is None else coeff
            )
        elif coeff is not None:
            powers[0] = powers.get(0, 0) + sign * coeff
        else:
            fail("an integer or a symbol term")
        if tokens[i][0] == "end":
            return powers


def parse_element(src: str, ring):
    """Parse an expression into an element of the given ring or order: its
    terms, summed per power, form one coefficient vector that the ring
    reduces once.

    Its reduced coefficients must keep to MAX_COEFFICIENT_DIGITS digits: a
    power within the exponent cap can still outgrow them in an order whose
    modulus has large coefficients, whose reduction refuses it on the way.
    """
    terms = _parse_terms(src, ring.symbol)
    try:
        out = ring.element([terms.get(k, 0) for k in range(max(terms) + 1)])
    except OverflowError:
        out = None
    if out is None or any(abs(c) >= COEFFICIENT_BOUND for c in out.coeffs):
        raise ValueError(
            f"expression {src!r} has a coefficient of more than "
            f"{MAX_COEFFICIENT_DIGITS} digits"
        )
    return out


def _render_terms(pairs, symbol: str) -> str:
    parts = []
    for power, coeff in pairs:
        if coeff == 0:
            continue
        mag = abs(coeff)
        if power == 0:
            body = str(mag)
        else:
            stem = symbol if power == 1 else f"{symbol}^{power}"
            body = stem if mag == 1 else f"{mag}{stem}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def render_element(x) -> str:
    """Canonical string form; parse(render(x)) reproduces x."""
    return _render_terms(enumerate(x.coeffs), x.ring.symbol)
