"""Closed-form metric and counting formulas for {p,q} tessellations.

Everything here is a pure function of (p, q, genus).  The census is exact
integer divisibility (census_counts states the rule); the hyperbolic
lengths are double precision with a snap guard where a ratio is provably
an exact integer.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import InputError, _Checked, _as_int

SPHERICAL = "spherical"
EUCLIDEAN = "euclidean"
HYPERBOLIC = "hyperbolic"

#: Ratios within this distance of an integer are snapped before the ceiling.
CEILING_GUARD = 1e-9


class SchlafliPair(_Checked, NamedTuple("SchlafliPair", [("p", int), ("q", int)])):
    """A {p,q} tessellation: p-gonal faces, q around each vertex."""

    __slots__ = ()

    def __new__(cls, p: int, q: int):
        if min(_as_int(p, "Schlafli p"), _as_int(q, "Schlafli q")) < 3:
            raise InputError(f"Schlafli symbol needs p, q >= 3, got {{{p},{q}}}")
        return super().__new__(cls, p, q)

    @property
    def dual(self) -> "SchlafliPair":
        return SchlafliPair(self.q, self.p)

    @property
    def indicator(self) -> int:
        """(p-2)(q-2); >4 hyperbolic, =4 Euclidean, <4 spherical."""
        return (self.p - 2) * (self.q - 2)

    def __str__(self) -> str:
        return f"{{{self.p},{self.q}}}"


class TessellationCensus(NamedTuple):
    """Exact face/vertex/edge counts for {p,q} on a genus-g surface."""

    n_f: Fraction
    n_f_star: Fraction
    n_edges: Fraction
    feasible: bool


def classify(pair: SchlafliPair) -> str:
    ind = pair.indicator
    if ind > 4:
        return HYPERBOLIC
    if ind == 4:
        return EUCLIDEAN
    return SPHERICAL


def _require_hyperbolic(pair: SchlafliPair) -> None:
    cls = classify(pair)
    if cls != HYPERBOLIC:
        raise InputError(f"{pair} is {cls}, not hyperbolic")


def edge_length(pair: SchlafliPair) -> float:
    """Edge length of a hyperbolic {p,q} tessellation."""
    _require_hyperbolic(pair)
    p, q = pair
    try:
        arg = (math.cos(math.pi / q) ** 2 + math.cos(2 * math.pi / p)) / math.sin(math.pi / q) ** 2
    except (OverflowError, ZeroDivisionError):  # p or q too large for a float
        arg = math.inf
    if arg == math.inf:
        raise InputError(f"{pair} is too large for a double-precision edge length")
    return math.acosh(arg)


def fundamental_diameter(g: int) -> float:
    """Distance between opposite edge-pairings of the regular 4g-gon, g >= 2."""
    if _as_int(g, "genus") < 2:
        raise InputError(f"fundamental diameter needs genus >= 2, got {g}")
    try:
        angle = math.pi / (4 * g)
    except OverflowError:
        raise InputError(f"genus {g} is too large for a double-precision diameter") from None
    return 2.0 * math.acosh(math.cos(angle) / math.sin(angle))


def census_counts(pair: SchlafliPair, g: int) -> tuple[int, int, int] | None:
    """Integer (n_f, n_f*, n) = (4q, 4p, 2pq)(g-1)/c, c = pq-2p-2q, or None if infeasible.

    Feasible iff c divides 4q(g-1) and 4p(g-1), which makes n an integer
    too (c is odd when p and q are, so 4 divides n_f).  The caller checks,
    as census does, that the pair is hyperbolic (c > 0) and g >= 2.
    """
    p, q = pair
    c, m = p * q - 2 * p - 2 * q, 4 * (g - 1)
    if q * m % c or p * m % c:
        return None
    return q * m // c, p * m // c, p * q * m // (2 * c)


def census(pair: SchlafliPair, g: int) -> TessellationCensus:
    """Exact tessellation census on genus g; requires a hyperbolic pair, g >= 2."""
    _require_hyperbolic(pair)
    if _as_int(g, "genus") < 2:
        raise InputError(f"census needs genus >= 2, got {g}")
    p, q = pair
    c, m = p * q - 2 * p - 2 * q, 4 * (g - 1)
    counts = Fraction(q * m, c), Fraction(p * m, c), Fraction(p * q * m, 2 * c)
    return TessellationCensus(*counts, feasible=census_counts(pair, g) is not None)


def guarded_ceil(ratio: float) -> int:
    """Ceiling with a snap for ratios within CEILING_GUARD of an integer."""
    nearest = round(ratio)
    if abs(ratio - nearest) < CEILING_GUARD:
        return int(nearest)
    return math.ceil(ratio)


def distance_bounds(pair: SchlafliPair, g: int) -> tuple[int, int]:
    """(d_x, d_z) by the paper's ceiling formula ceil(d_h / l) for {p,q} on genus g >= 2.

    Not a lower bound on the exact distances: some codes fall below it."""
    _require_hyperbolic(pair)
    if _as_int(g, "genus") < 2:
        raise InputError(f"distance bounds need genus >= 2, got {g}")
    d_h = fundamental_diameter(g)
    d_x = guarded_ceil(d_h / edge_length(pair))
    d_z = guarded_ceil(d_h / edge_length(pair.dual))
    return d_x, d_z
