"""Outside-in tracer: wraps kummerlab's public functions from outside the package.

The package itself carries no instrumentation.  For a traced run the
benchmark replaces each traced function or method with a wrapper that
times the call on a stack, so every span knows its parent and its self
time (duration minus the time covered by child spans).  Module functions
are replaced in every ``kummerlab`` module that bound them with
``from ... import``; methods are replaced on their class, under every
name that aliases them (``__rmul__ = __mul__``).

Coarse calls (one per claim, operation, uniformizer search, prime
factorization mod p) keep a span record (id, parent id, name, start, end)
in memory.  Calls made thousands of times per operation are aggregated
into calls and self time only: keeping a record for each would cost more
memory and time than the run being measured.  A
target that a later version of the package no longer has is skipped, and
its metrics read 0.
"""

import contextlib
import functools
import importlib
import inspect
import sys
import time

# The package modules, imported before patching so that every
# ``from ... import`` binding already exists when it is replaced.
MODULES = [
    "arith", "polyint", "polymod", "ffield", "lattice", "cyclotomic",
    "idealprimes", "valuation", "charsum", "monoid", "quadorder",
    "exprparse", "reports", "reproduce", "cli",
]

# (label, module, qualified name, keep span records)
TARGETS = [
    ("cyclotomic.norm", "cyclotomic", "norm", False),
    ("cyclotomic.conjugate", "cyclotomic", "conjugate", False),
    ("cyclotomic.mul", "cyclotomic", "CyclotomicElement.__mul__", False),
    ("lattice.colon", "lattice", "IntLattice.colon", False),
    ("lattice.kernel_mod", "lattice", "kernel_mod", False),
    ("lattice.contains", "lattice", "IntLattice.__contains__", False),
    ("lattice.hnf", "lattice", "IntLattice.__init__", False),
    ("lattice.product", "lattice", "IntLattice.product", True),
    ("polymod.factor_mod_p", "polymod", "factor_mod_p", True),
    ("ffield.mul", "ffield", "FieldElement.__mul__", False),
    ("idealprimes.enumerate_jacobi_maps", "idealprimes", "enumerate_jacobi_maps", True),
    ("idealprimes.apply", "idealprimes", "JacobiMap.apply", False),
    ("valuation.find_uniformizer", "valuation", "find_uniformizer", True),
    ("valuation.multiplicity", "valuation", "multiplicity", False),
    ("valuation.valuation_oracle", "valuation", "valuation_oracle", False),
    ("valuation.factorize", "valuation", "factorize", True),
    ("valuation.divides", "valuation", "divides", True),
    ("arith.factorize_int", "arith", "factorize_int", False),
    ("charsum.jacobi_sum", "charsum", "jacobi_sum", False),
    ("charsum.reflection_identity", "charsum", "reflection_identity", True),
    ("charsum.fundamental_congruence_check", "charsum", "fundamental_congruence_check", True),
    ("quadorder.dichotomy_check", "quadorder", "dichotomy_check", False),
    ("reports.render_json", "reports", "render_json", True),
]

# Package lru_caches, read with cache_info() after the run: name -> module.
CACHES = {
    "cyclotomic_ring": "cyclotomic",
    "_mult_table": "cyclotomic",
    "cyclotomic_polynomial": "polyint",
    "_kernel_lattice": "idealprimes",
    "kummer_prime": "valuation",
    "_kummer_or_none": "valuation",
    "character": "charsum",
}

# Parents under which a lattice-oracle call is a fallback from the
# uniformizer route rather than a deliberate second route.
FALLBACK_PARENTS = ("valuation.factorize", "valuation.divides")

REPORTED = [label for label, _, _, _ in TARGETS if label != "valuation.divides"]


def _module(name: str):
    return importlib.import_module(f"kummerlab.{name}")


def _patch(module, qualname: str, make_wrapper) -> None:
    """Replace a function or method everywhere the package binds it."""
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        cls = getattr(module, cls_name, None)
        original = vars(cls).get(attr) if cls is not None else None
        if original is None:
            return
        wrapper = make_wrapper(original)
        for name, value in list(vars(cls).items()):
            if value is original:
                setattr(cls, name, wrapper)
        return
    original = getattr(module, qualname, None)
    if original is None:
        return
    wrapper = make_wrapper(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "kummerlab" or mod_name.startswith("kummerlab."):
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)


def _hnf_dim(args, kwargs):
    """Dimension of an IntLattice built from generators, else None."""
    canonical = args[2] if len(args) > 2 else kwargs.get("_canonical", False)
    rows = args[1] if len(args) > 1 else kwargs.get("rows")
    if canonical or not rows:
        return None
    return len(rows[0])


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack = []  # open frames: [label, child seconds, span id]
        self.stats = {}  # label -> [calls, self seconds, calls that raised]
        self.spans = []  # (span id, parent id, label, start, end)
        self.counts = {}
        self.hnf_max_dim = 0
        self._uniformizer_depth = 0
        self._next_id = 1

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def _enter(self, label: str) -> list:
        frame = [label, 0.0, self._next_id]
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list, start: float, end: float, keep: bool, raised: bool) -> None:
        stack = self.stack
        stack.pop()
        duration = end - start
        st = self.stats.get(frame[0])
        if st is None:
            st = self.stats[frame[0]] = [0, 0.0, 0]
        st[0] += 1
        st[1] += duration - frame[1]
        st[2] += raised
        parent_id = 0
        if stack:
            stack[-1][1] += duration
            parent_id = stack[-1][2]
        if keep:
            self.spans.append((frame[2], parent_id, frame[0], start, end))

    @contextlib.contextmanager
    def span(self, label: str):
        """A span opened by the benchmark itself, such as one claim."""
        frame = self._enter(label)
        start = self.clock()
        raised = True
        try:
            yield
            raised = False
        finally:
            self._exit(frame, start, self.clock(), True, raised)

    def wrap(self, label: str, fn, keep: bool):
        tracer = self
        clock = self.clock
        hnf = label == "lattice.hnf"
        oracle = label == "valuation.valuation_oracle"
        search = label == "valuation.find_uniformizer"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hnf:
                dim = _hnf_dim(args, kwargs)
                if dim is None:
                    return fn(*args, **kwargs)
                tracer.hnf_max_dim = max(tracer.hnf_max_dim, dim)
            elif oracle and tracer.stack and tracer.stack[-1][0] in FALLBACK_PARENTS:
                tracer.count("valuation.oracle_fallbacks")
            frame = tracer._enter(label)
            tracer._uniformizer_depth += search
            raised = True
            start = clock()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                end = clock()
                tracer._uniformizer_depth -= search
                tracer._exit(frame, start, end, keep, raised)

        return traced

    def _counter(self, name: str, fn, only_in_search: bool = False):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not only_in_search or tracer._uniformizer_depth:
                tracer.count(name)
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Patch every target and counting hook into the loaded package."""
        for name in MODULES:
            _module(name)
        for label, module_name, qualname, keep in TARGETS:
            _patch(
                _module(module_name),
                qualname,
                lambda fn, label=label, keep=keep: self.wrap(label, fn, keep),
            )
        monoid = _module("monoid")
        for name, fn in list(vars(monoid).items()):
            if inspect.isfunction(fn) and fn.__module__ == monoid.__name__ and not name.startswith("_"):
                _patch(monoid, name, lambda f, label=f"monoid.{name}": self.wrap(label, f, False))
        cyclotomic = _module("cyclotomic")
        _patch(
            cyclotomic,
            "CyclotomicElement.__init__",
            lambda fn: self._counter("cyclotomic.element", fn),
        )
        _patch(
            cyclotomic,
            "PeriodSystem.combine",
            lambda fn: self._counter("valuation.candidates_normed", fn, only_in_search=True),
        )

    def layer_metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}; untouched layers read 0."""
        out = {}
        for label in REPORTED:
            calls, self_s, raised = self.stats.get(label, (0, 0.0, 0))
            if label != "reports.render_json":
                out[f"{label}.calls"] = (calls, "count")
            out[f"{label}.self_s"] = (self_s, "s")
            if label == "arith.factorize_int":
                out[f"{label}.failed"] = (raised, "count")
            elif label == "valuation.find_uniformizer":
                found = (calls - raised) / calls if calls else 0.0
                out["valuation.uniformizer_found_ratio"] = (found, "ratio")
        out["cyclotomic.element.calls"] = (self.counts.get("cyclotomic.element", 0), "count")
        out["lattice.hnf.max_dim"] = (self.hnf_max_dim, "count")
        for name in ("valuation.candidates_normed", "valuation.oracle_fallbacks"):
            out[name] = (self.counts.get(name, 0), "count")
        out["monoid.self_s"] = (
            sum((st[1] for label, st in self.stats.items() if label.startswith("monoid.")), 0.0),
            "s",
        )
        for name, module_name in CACHES.items():
            fn = getattr(_module(module_name), name, None)
            hits = misses = size = 0
            if hasattr(fn, "cache_info"):
                info = fn.cache_info()
                hits, misses, size = info.hits, info.misses, info.currsize
            lookups = hits + misses
            out[f"cache.{name}.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
            out[f"cache.{name}.size"] = (size, "count")
        powers = getattr(_module("valuation"), "_KERNEL_POWERS", {})
        out["cache.kernel_powers.entries"] = (sum(len(v) for v in powers.values()), "count")
        return out
