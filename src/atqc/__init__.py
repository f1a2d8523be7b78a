"""Euclidean and hyperbolic asymmetric topological quantum codes.

Builds torus tessellation codes as CSS stabilizer codes over GF(2),
evaluates closed-form {p,q} parameter formulas, computes exact asymmetric
distances by homological cycle search, and certifies ingested hyperbolic
complexes.  Each name is imported from its module (``from atqc.distance
import certified_distances``); ``import atqc`` loads nothing else.
"""
