"""Shared numerical tolerances.

Everything that compares floating-point points or norms goes through these
constants so the drift budget lives in one place.
"""

# Point-equality granularity on the unit sphere and on SO(3).
EPS_POINT = 1e-9

# Matched-pair budget for multiset comparisons and the law-checking suites.
# Looser than EPS_POINT: a product of three points plus canonicalization
# compounds rounding error.
TOL_AXIOM = 1e-6

# No two so3 orbits are further apart than sqrt(2); so large a tol tests nothing.
MAX_TOL = 2.0**0.5

# Real-part preservation budget for conjugation.
TOL_RE = 1e-12
