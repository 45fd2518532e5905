"""Exact arithmetic for ideal primes, valuations, and character sums.

Everything in this package computes over exact integers: cyclotomic ring
arithmetic, finite-field homomorphisms out of number rings ("Jacobi maps"),
discrete valuations built from uniformizers, Gauss/Jacobi sums, Hilbert
monoids, and quadratic orders.  No floating point is used anywhere.
"""

from kummerlab.cyclotomic import (
    CyclotomicElement,
    CyclotomicRing,
    PeriodSystem,
    conjugate,
    cyclotomic_ring,
    gaussian_periods,
    norm,
)
from kummerlab.idealprimes import JacobiMap, enumerate_jacobi_maps
from kummerlab.lattice import IntLattice
from kummerlab.valuation import (
    KummerPrime,
    divides,
    factorize,
    find_uniformizer,
    multiplicity,
    valuation_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "CyclotomicElement",
    "CyclotomicRing",
    "PeriodSystem",
    "conjugate",
    "cyclotomic_ring",
    "gaussian_periods",
    "norm",
    "JacobiMap",
    "enumerate_jacobi_maps",
    "IntLattice",
    "KummerPrime",
    "divides",
    "factorize",
    "find_uniformizer",
    "multiplicity",
    "valuation_oracle",
    "__version__",
]
