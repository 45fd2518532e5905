"""Exact arithmetic for ideal primes, valuations, and character sums.

Everything in this package computes over exact integers: cyclotomic ring
arithmetic, finite-field homomorphisms out of number rings ("Jacobi maps"),
discrete valuations built from uniformizers, Gauss/Jacobi sums, Hilbert
monoids, and quadratic orders.  No floating point is used anywhere.

Names are imported from their modules (kummerlab.cyclotomic,
kummerlab.valuation, ...); `import kummerlab` loads no submodule, so a
process compiles only the modules it uses.
"""

__version__ = "0.1.0"
