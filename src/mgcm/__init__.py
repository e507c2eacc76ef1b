"""mgcm: exact multigraded commutative algebra and a verification harness.

Layers, lowest first:

  graded_poly        fields, multidegrees, rings, polynomials
  groebner_engine    Buchberger, syzygies, kernels, colons, elimination
  homological        resolutions, Betti/depth/dim, duality, a-invariants
  cohomology         local and sheaf cohomology (duality + Koszul colimit)
  rees_constructions multi-Rees algebras/modules, diagonals, fiber cones
  theorem_harness    executable verdicts and reports
  cli_io             session DSL, cache, command line
"""

__version__ = "0.1.0"

from .graded_poly import (  # noqa: F401
    DEFAULT_PRIME,
    Degree,
    GradedRing,
    InputError,
    Polynomial,
    PrimeField,
    RationalField,
    ResourceLimit,
    field_for_char,
    parse_polynomial,
    poly_str,
)
