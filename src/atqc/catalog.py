"""Code-family parameter tables, asymptotic rates, and curve data.

Two distinct limit conventions coexist and are exposed separately:
family rows take p -> infinity at fixed q (rates (q-2)/q), while a fixed
{p,q} pair takes g -> infinity (rate (pq-2p-2q)/pq).
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, sqrt
from typing import IO, Iterable, NamedTuple, Sequence

from .errors import InputError, _as_int
from .geometry import SchlafliPair, census, census_counts, distance_bounds, edge_length
from .geometry import fundamental_diameter, guarded_ceil
from .torus import APOTHEM, EDGE, HexTorusSpec

BOUND = "bound"


class CodeParams(NamedTuple):
    """An [[n, k, d_z/d_x]] record; its distances are bounds."""

    pair: SchlafliPair
    g: int
    n: int
    k: int
    d_x: int
    d_z: int
    exactness: str
    rate: Fraction

    def to_dict(self) -> dict:
        r = self.rate
        return {**self._asdict(), "pair": list(self.pair), "rate": f"{r.numerator}/{r.denominator}"}


def _infeasible(pair: SchlafliPair, g: int) -> InputError:
    cen = census(pair, g)
    return InputError(
        f"census for {pair} at genus {g} is infeasible: n_f = {cen.n_f}, "
        f"n_f* = {cen.n_f_star} must both be positive integers"
    )


def family_params(pair: SchlafliPair, g: int) -> CodeParams:
    """Parameters of the hyperbolic {p,q} code on genus g (distances are bounds)."""
    cen = census(pair, g)
    if not cen.feasible:
        raise _infeasible(pair, g)
    d_x, d_z = distance_bounds(pair, g)
    n = int(cen.n_edges)
    k = 2 * g
    return CodeParams(
        pair=pair, g=g, n=n, k=k, d_x=d_x, d_z=d_z, exactness=BOUND, rate=Fraction(k, n)
    )


def toric_family_params(spec: HexTorusSpec) -> CodeParams:
    """Closed-form parameters of the hexagonal torus families (genus 1).

    The distance entries are the ceiling bounds ceil(d_e / l); whether they
    are attained is checked against the exact search per instance, never
    assumed.
    """
    if not isinstance(spec, HexTorusSpec):
        raise InputError(f"toric params need a hex preset, {APOTHEM} or {EDGE}: got {spec!r}")
    a, _, c = spec.lattice
    n, s = 3 * a * c, spec.scale
    if spec.variant == APOTHEM:
        d_x, d_z = guarded_ceil(s * sqrt(3)), s
    else:
        d_x, d_z = s, guarded_ceil(s / sqrt(3))
    return CodeParams(
        pair=SchlafliPair(6, 3), g=1, n=n, k=2, d_x=d_x, d_z=d_z, exactness=BOUND, rate=Fraction(2, n)
    )


class FamilyRow(NamedTuple):
    """A fixed-q family {p,q}: symbolic census formulas and asymptotic rate."""

    q: int
    n_f_formula: str
    n_f_star_formula: str
    n_formula: str

    @property
    def asymptotic_rate(self) -> Fraction:
        """Limit of 2g/n as g and p grow within the family."""
        return Fraction(self.q - 2, self.q)


TABLE1_FAMILIES: dict[int, FamilyRow] = {
    3: FamilyRow(3, "12(g-1)/(p-6)", "4p(g-1)/(p-6)", "6p(g-1)/(p-6)"),
    4: FamilyRow(4, "8(g-1)/(p-4)", "2p(g-1)/(p-4)", "4p(g-1)/(p-4)"),
    5: FamilyRow(5, "20(g-1)/(3p-10)", "4p(g-1)/(3p-10)", "10p(g-1)/(3p-10)"),
    6: FamilyRow(6, "6(g-1)/(p-3)", "p(g-1)/(p-3)", "3p(g-1)/(p-3)"),
}

#: The nine tabulated hyperbolic pairs, in print order.
TABLE2_PAIRS: tuple[SchlafliPair, ...] = (
    SchlafliPair(7, 3),
    SchlafliPair(8, 3),
    SchlafliPair(9, 3),
    SchlafliPair(10, 3),
    SchlafliPair(12, 3),
    SchlafliPair(5, 4),
    SchlafliPair(6, 4),
    SchlafliPair(8, 4),
    SchlafliPair(10, 5),
)


def fixed_pair_rate(pair: SchlafliPair) -> Fraction:
    """Limit of k/n = 2g/(c(g-1)) as g -> infinity for a fixed hyperbolic pair."""
    p, q = pair
    denom = p * q - 2 * p - 2 * q
    if denom <= 0:
        raise InputError(f"{pair} is not hyperbolic")
    return Fraction(denom, p * q)


TABLE_COLUMNS = (
    "table,pair,n_f,n_f_star,n,k,d_z_bound,d_x_bound,rate,edge_length,dual_edge_length"
).split(",")


def emit_tables(sink: IO[str]) -> None:
    """Regenerate both printed tables as one CSV (RFC 4180, header row).

    Each row is one format, as in emit_curves: the fields that hold a comma
    (the pair and a family row's two distance formulas) are quoted, and the
    CSV is written in one call once every row is built.
    """
    rows = [",".join(TABLE_COLUMNS) + "\n"]
    for fam in sorted(TABLE1_FAMILIES.values()):  # (q, n_f, n_f*, n formulas), by q
        r = fam.asymptotic_rate
        rows.append('families,"{p,%d}",%s,%s,%s,2g,"ceil(d_h/l(q,p))","ceil(d_h/l(p,q))",%d/%d,,\n'
                    % (*fam, r.numerator, r.denominator))
    for pair in TABLE2_PAIRS:
        n_f, n_f_star, n = census_counts(pair, 2)
        l_pq, l_qp, r = edge_length(pair), edge_length(pair.dual), fixed_pair_rate(pair)
        rows.append('pairs,"%s",%d(g-1),%d(g-1),%d(g-1),2g,ceil(d_h/%.4f),ceil(d_h/%.4f),%d/%d,%.4f,%.4f\n'
                    % (pair, n_f, n_f_star, n, l_qp, l_pq, r.numerator, r.denominator, l_pq, l_qp))
    sink.write("".join(rows))


CURVE_COLUMNS = "pair,g,d_h,dx_raw,dz_raw,diff_raw,dx_bound,dz_bound,diff_bound,n,k,rate".split(",")


def emit_curves(pairs: Sequence[SchlafliPair], g_range: Iterable[int], sink: IO[str]) -> None:
    """Per-genus raw (unrounded) d_h/l ratios, ceilinged bounds, and rates.

    Each closed form is computed once per call: a pair's two edge lengths,
    a genus's d_h and its text.  A row's bounds are the guarded ceilings of
    the raw ratios it prints (the floats distance_bounds divides) and its n
    is the integer census, so no row builds a Fraction.  Each row is one
    format, and the pair's "{p,q}", its one field that holds a comma, is
    quoted once per pair.  The CSV is written in one call once every row is
    built, so a failing pair leaves the sink empty.  The first genus outside
    2..64 is rejected as the range is read.
    """
    genera = set()
    for g in g_range:
        if not 2 <= _as_int(g, "genus") <= 64:
            raise InputError(f"genus range must lie within 2..64, got genus {g}")
        genera.add(g)
    if not genera:
        raise InputError("empty genus range")
    diameters = [(g, d_h := fundamental_diameter(g), f"{d_h:.12g}") for g in sorted(genera)]
    rows = [",".join(CURVE_COLUMNS) + "\n"]
    for pair in pairs:
        l_pq, l_qp, name = edge_length(pair), edge_length(pair.dual), f'"{pair}"'
        for g, d_h, d_h_text in diameters:
            counts = census_counts(pair, g)
            if counts is None:
                raise _infeasible(pair, g)
            n, k = counts[2], 2 * g
            dx_raw, dz_raw = d_h / l_pq, d_h / l_qp
            d_x, d_z, r = guarded_ceil(dx_raw), guarded_ceil(dz_raw), gcd(k, n)
            rows.append("%s,%d,%s,%.12g,%.12g,%.12g,%d,%d,%d,%d,%d,%d/%d\n" % (
                name, g, d_h_text, dx_raw, dz_raw, dx_raw - dz_raw,
                d_x, d_z, d_x - d_z, n, k, k // r, n // r))
    sink.write("".join(rows))
