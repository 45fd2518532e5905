"""No library code that only the tests use.

Every function, class and method defined in src/kummerlab must be named
somewhere other than its own definition: in the package itself (an import,
the CLI dispatch table, a call) or in the benchmark harness under perfbench/.
A function registered by the @claim decorator counts as used.  A helper
that only tests call belongs in the tests.

Each input rule is refused in one place: only arith.check_prime raises
"is not prime", and only cyclotomic.check_ring raises "lives in".
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kummerlab"
HARNESS = ROOT / "perfbench"


class _Uses(ast.NodeVisitor):
    """Every definition, and every name used with the definitions around it."""

    def __init__(self, read_strings: bool):
        self.read_strings = read_strings
        self.stack = []
        self.definitions = []
        self.uses = []

    def _define(self, node):
        self.definitions.append(node)
        self.stack.append(node)
        self.generic_visit(node)
        self.stack.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define

    def _use(self, name: str):
        self.uses.append((name, tuple(self.stack)))

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._use(node.name.rsplit(".", 1)[-1])

    def visit_Constant(self, node):
        # the tracer names its targets in strings such as "JacobiMap.apply"
        if self.read_strings and isinstance(node.value, str):
            for part in node.value.split("."):
                self._use(part)


def _scan(paths, read_strings: bool) -> _Uses:
    uses = _Uses(read_strings)
    for path in paths:
        uses.visit(ast.parse(path.read_text(), filename=str(path)))
    return uses


def _registered_claim(node) -> bool:
    return any(
        isinstance(dec, ast.Call)
        and isinstance(dec.func, ast.Name)
        and dec.func.id == "claim"
        for dec in getattr(node, "decorator_list", ())
    )


def test_every_library_definition_is_used_outside_the_tests():
    package = _scan(sorted(PACKAGE.glob("*.py")), read_strings=False)
    harness = _scan(sorted(HARNESS.glob("*.py")), read_strings=True)
    harness_names = {name for name, _ in harness.uses}
    unused = []
    for node in package.definitions:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if _registered_claim(node) or name in harness_names:
            continue
        if not any(
            used == name and node not in around for used, around in package.uses
        ):
            unused.append(f"{name} (line {node.lineno})")
    assert unused == []


class _Raises(ast.NodeVisitor):
    """The literal text of every raise, with its module and the innermost
    function around it (None at module level)."""

    def __init__(self, module: str):
        self.module = module
        self.stack = []
        self.found = []

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Raise(self, node):
        text = "".join(
            part.value
            for part in ast.walk(node)
            if isinstance(part, ast.Constant) and isinstance(part.value, str)
        )
        where = (self.module, self.stack[-1] if self.stack else None)
        self.found.append((where, text))


def test_each_refusal_rule_is_raised_in_one_place():
    rules = {"is not prime": set(), "lives in": set()}
    for path in sorted(PACKAGE.glob("*.py")):
        raises = _Raises(path.stem)
        raises.visit(ast.parse(path.read_text(), filename=str(path)))
        for where, text in raises.found:
            for rule, places in rules.items():
                if rule in text:
                    places.add(where)
    assert rules == {
        "is not prime": {("arith", "check_prime")},
        "lives in": {("cyclotomic", "check_ring")},
    }
