import csv
import io
import tracemalloc
from fractions import Fraction

import pytest

from atqc.catalog import (
    CURVE_COLUMNS,
    TABLE1_FAMILIES,
    TABLE2_PAIRS,
    emit_curves,
    emit_tables,
    family_params,
    fixed_pair_rate,
    toric_family_params,
)
from atqc.errors import InputError
from atqc.geometry import (
    SchlafliPair,
    TessellationCensus,
    census,
    census_counts,
    distance_bounds,
    edge_length,
    fundamental_diameter,
)
from atqc.torus import HexTorusSpec, SquareTorusSpec
from conftest import table1_value

FIXED_PAIR_RATES = {
    (7, 3): Fraction(1, 21),
    (8, 3): Fraction(1, 12),
    (9, 3): Fraction(1, 9),
    (10, 3): Fraction(2, 15),
    (12, 3): Fraction(1, 6),
    (5, 4): Fraction(1, 10),
    (6, 4): Fraction(1, 6),
    (8, 4): Fraction(1, 4),
    (10, 5): Fraction(2, 5),
}


def test_family_params_examples():
    p73 = family_params(SchlafliPair(7, 3), 2)
    assert (p73.n, p73.k, p73.d_x, p73.d_z) == (42, 4, 6, 3)
    p54 = family_params(SchlafliPair(5, 4), 4)
    assert (p54.n, p54.k, p54.d_x, p54.d_z) == (60, 8, 5, 4)
    p84 = family_params(SchlafliPair(8, 4), 16)
    assert (p84.n, p84.k, p84.d_x, p84.d_z) == (120, 32, 5, 4)
    p105 = family_params(SchlafliPair(10, 5), 3)
    assert p105.n == 10
    assert p73.exactness == "bound"
    assert p73.rate == Fraction(4, 42)


def test_family_params_infeasible():
    with pytest.raises(InputError, match="infeasible"):
        family_params(SchlafliPair(7, 4), 2)


def test_family_asymptotic_rates():
    assert TABLE1_FAMILIES[3].asymptotic_rate == Fraction(1, 3)
    assert TABLE1_FAMILIES[4].asymptotic_rate == Fraction(1, 2)
    assert TABLE1_FAMILIES[5].asymptotic_rate == Fraction(3, 5)
    assert TABLE1_FAMILIES[6].asymptotic_rate == Fraction(2, 3)


@pytest.mark.parametrize("pq,rate", sorted(FIXED_PAIR_RATES.items()))
def test_fixed_pair_rates(pq, rate):
    assert fixed_pair_rate(SchlafliPair(*pq)) == rate


@pytest.mark.parametrize("pq", [(6, 3), (4, 4), (3, 6)])
def test_fixed_pair_rate_rejects_a_euclidean_pair(pq):
    with pytest.raises(InputError) as raised:
        fixed_pair_rate(SchlafliPair(*pq))
    assert str(raised.value) == f"{{{pq[0]},{pq[1]}}} is not hyperbolic"


def test_table1_formulas_match_census():
    # the formulas as `atqc table` prints them, evaluated at each member
    representatives = {3: [7, 8, 9, 10, 12], 4: [5, 6, 8], 5: [10], 6: [4, 5, 9]}
    rows = {r["pair"]: r for r in table_rows() if r["table"] == "families"}
    for q, members in representatives.items():
        row = rows[f"{{p,{q}}}"]
        for p in members:
            for g in range(2, 11):
                cen = census(SchlafliPair(p, q), g)
                assert table1_value(row["n_f"], p, g) == cen.n_f
                assert table1_value(row["n_f_star"], p, g) == cen.n_f_star
                assert table1_value(row["n"], p, g) == cen.n_edges


def test_rate_monotone_and_convergent():
    for pair in TABLE2_PAIRS:
        limit = fixed_pair_rate(pair)
        rates = [family_params(pair, g).rate for g in (2, 10, 100)]
        assert rates[0] > rates[1] > rates[2] > limit
        assert rates[2] - limit < Fraction(1, 50)


def test_swap_dual_is_involution():
    # the dual tessellation gives the same code with d_x and d_z traded
    for p, q in [(7, 3), (8, 3), (5, 4), (10, 5), (6, 4), (12, 3)]:
        pair = SchlafliPair(p, q)
        for g in range(2, 20):
            if not census(pair, g).feasible:
                continue
            params, swapped = family_params(pair, g), family_params(pair.dual, g)
            assert swapped.pair.dual == pair
            assert (swapped.d_x, swapped.d_z) == (params.d_z, params.d_x)
            assert (swapped.n, swapped.k, swapped.rate) == (params.n, params.k, params.rate)


def test_swap_dual_enforces_z_heavy_protection():
    params = family_params(SchlafliPair(7, 3), 2)
    swapped = family_params(SchlafliPair(3, 7), 2)
    assert params.d_z < params.d_x
    assert swapped.d_z > swapped.d_x


def test_toric_family_params():
    a2 = toric_family_params(HexTorusSpec("apothem", 2))
    assert (a2.n, a2.k, a2.d_x, a2.d_z) == (12, 2, 4, 2)
    e3 = toric_family_params(HexTorusSpec("edge", 3))
    assert (e3.n, e3.k, e3.d_x, e3.d_z) == (9, 2, 3, 2)
    e6 = toric_family_params(HexTorusSpec("edge", 6))
    assert (e6.n, e6.k, e6.d_x, e6.d_z) == (36, 2, 6, 4)


def test_toric_family_params_rejects_the_square_preset():
    with pytest.raises(InputError) as exc:
        toric_family_params(SquareTorusSpec(4))
    assert str(exc.value) == (
        "toric params need a hex preset, apothem or edge: got SquareTorusSpec(side=4)"
    )


def test_pair_coefficients():
    assert census_counts(SchlafliPair(7, 3), 2) == (12, 28, 42)
    assert census_counts(SchlafliPair(10, 5), 2) == (1, 2, 5)


def table_rows():
    buf = io.StringIO()
    emit_tables(buf)
    buf.seek(0)
    return list(csv.DictReader(buf))


def test_emit_tables_family_rows():
    rows = [r for r in table_rows() if r["table"] == "families"]
    assert len(rows) == 4
    by_pair = {r["pair"]: r for r in rows}
    assert by_pair["{p,3}"]["n_f"] == "12(g-1)/(p-6)"
    assert by_pair["{p,3}"]["rate"] == "1/3"
    assert by_pair["{p,6}"]["rate"] == "2/3"
    assert by_pair["{p,5}"]["n"] == "10p(g-1)/(3p-10)"


def test_emit_tables_pair_rows():
    rows = [r for r in table_rows() if r["table"] == "pairs"]
    assert [r["pair"] for r in rows] == [str(p) for p in TABLE2_PAIRS]
    by_pair = {r["pair"]: r for r in rows}
    r73 = by_pair["{7,3}"]
    assert r73["n_f"] == "12(g-1)" and r73["n_f_star"] == "28(g-1)" and r73["n"] == "42(g-1)"
    assert r73["rate"] == "1/21"
    assert abs(float(r73["edge_length"]) - 0.5663) < 2e-4
    assert abs(float(r73["dual_edge_length"]) - 1.0906) < 2e-4
    r105 = by_pair["{10,5}"]
    assert r105["n"] == "5(g-1)" and r105["rate"] == "2/5"
    assert abs(float(by_pair["{8,4}"]["dual_edge_length"]) - 2.4485) < 2e-4


def curve_rows(pairs=("7,3", "5,4", "10,5"), g_from=2, g_to=10):
    buf = io.StringIO()
    emit_curves([SchlafliPair(*map(int, t.split(","))) for t in pairs], range(g_from, g_to + 1), buf)
    buf.seek(0)
    return list(csv.DictReader(buf))


def test_curves_reproduce_bounds():
    rows = curve_rows()
    for row in rows:
        p, q = map(int, row["pair"].strip("{}").split(","))
        g = int(row["g"])
        params = family_params(SchlafliPair(p, q), g)
        assert int(row["dx_bound"]) == params.d_x
        assert int(row["dz_bound"]) == params.d_z
        assert int(row["n"]) == params.n


def test_curve_asymmetry_ordering():
    # raw d_x - d_z of {7,3} strictly dominates {5,4} and {10,5} at every g
    rows = curve_rows()
    diff = {}
    for row in rows:
        diff[(row["pair"], int(row["g"]))] = float(row["diff_raw"])
    for g in range(2, 11):
        assert diff[("{7,3}", g)] > diff[("{5,4}", g)]
        assert diff[("{7,3}", g)] > diff[("{10,5}", g)]


def test_54_unequal_protection_exactly_at_g4():
    rows = curve_rows(pairs=("5,4",), g_from=2, g_to=5)
    unequal = [int(r["g"]) for r in rows if int(r["dx_bound"]) != int(r["dz_bound"])]
    assert unequal == [4]


def test_p3_fixed_bound_scan():
    # honest scan: the (6, 3) bound pair is first reached at these genera;
    # {10,3} also achieves it at g = 5 (non-minimally), {12,3} not until 6
    targets = {7: 2, 8: 3, 9: 4, 10: 4, 12: 6}
    for p, g in targets.items():
        pair = SchlafliPair(p, 3)
        assert next(h for h in range(2, 11) if distance_bounds(pair, h) == (6, 3)) == g
    assert distance_bounds(SchlafliPair(10, 3), 5) == (6, 3)
    assert distance_bounds(SchlafliPair(12, 3), 5) == (6, 2)


def test_curves_rejects_bad_range():
    with pytest.raises(InputError):
        emit_curves([SchlafliPair(7, 3)], range(0, 3), io.StringIO())
    with pytest.raises(InputError):
        emit_curves([SchlafliPair(7, 3)], [], io.StringIO())


@pytest.mark.parametrize("genus", ["3", 2.5, None, True])
def test_curves_reject_a_genus_that_is_not_an_integer(genus):
    sink = io.StringIO()
    with pytest.raises(InputError) as exc:
        emit_curves([SchlafliPair(7, 3)], [2, genus], sink)
    assert str(exc.value) == f"genus must be an integer, got {genus!r}"
    assert sink.getvalue() == ""


def test_curves_reject_a_long_range_as_they_read_it():
    sink = io.StringIO()
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="got genus 65"):
            emit_curves([SchlafliPair(7, 3)], range(2, 3_000_000), sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert sink.getvalue() == ""


TABLE2_N_COEFFICIENTS = {
    (7, 3): 42, (8, 3): 24, (9, 3): 18, (10, 3): 15, (12, 3): 12,
    (5, 4): 20, (6, 4): 12, (8, 4): 8, (10, 5): 5,
}


def test_table2_n_tracks_printed_coefficients():
    for (p, q), coeff in TABLE2_N_COEFFICIENTS.items():
        for g in range(2, 11):
            params = family_params(SchlafliPair(p, q), g)
            assert params.n == coeff * (g - 1)
            assert params.k == 2 * g


def reference_curves(pairs, g_range, sink):
    """Reference rows: family_params for every (pair, g), each closed form recomputed per row."""
    genera = set()
    for g in g_range:
        if not 2 <= g <= 64:
            raise InputError(f"genus range must lie within 2..64, got genus {g}")
        genera.add(g)
    gs = sorted(genera)
    if not gs:
        raise InputError("empty genus range")
    rows = []
    for pair in pairs:
        l_pq = edge_length(pair)
        l_qp = edge_length(pair.dual)
        for g in gs:
            d_h = fundamental_diameter(g)
            params = family_params(pair, g)
            dx_raw = d_h / l_pq
            dz_raw = d_h / l_qp
            rows.append(
                [
                    str(pair),
                    g,
                    f"{d_h:.12g}",
                    f"{dx_raw:.12g}",
                    f"{dz_raw:.12g}",
                    f"{dx_raw - dz_raw:.12g}",
                    params.d_x,
                    params.d_z,
                    params.d_x - params.d_z,
                    params.n,
                    params.k,
                    f"{params.rate.numerator}/{params.rate.denominator}",
                ]
            )
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(CURVE_COLUMNS)
    writer.writerows(rows)


def curves_outcome(emit, pairs, genera):
    """The bytes written, or the InputError text with whatever was written."""
    sink = io.StringIO()
    try:
        emit(pairs, genera, sink)
    except InputError as exc:
        return str(exc), sink.getvalue()
    return sink.getvalue()


HYPERBOLIC_PAIRS_TO_13 = [
    SchlafliPair(p, q) for p in range(3, 14) for q in range(3, 14) if (p - 2) * (q - 2) > 4
]


@pytest.mark.parametrize("g_from,g_to", [(2, 64), (2, 10), (5, 40)])
def test_curves_match_the_per_row_reference(g_from, g_to):
    genera = range(g_from, g_to + 1)
    written = 0
    for pair in HYPERBOLIC_PAIRS_TO_13:
        out = curves_outcome(emit_curves, [pair], genera)
        assert out == curves_outcome(reference_curves, [pair], genera), pair
        written += isinstance(out, str)
    assert written == 23  # the pairs whose census is feasible at every genus, {7,3} among them
    pairs = list(TABLE2_PAIRS) + [pair.dual for pair in TABLE2_PAIRS]
    both = curves_outcome(emit_curves, pairs, genera)
    assert both == curves_outcome(reference_curves, pairs, genera)
    assert both.count("\n") == 1 + len(pairs) * len(genera)


def test_curves_snap_a_ratio_within_the_guard():
    # {228,228} at genus 57: d_h = l exactly, but the doubles divide to 1 + 2**-52
    pair = SchlafliPair(228, 228)
    assert fundamental_diameter(57) / edge_length(pair) == 1 + 2**-52
    rows = curve_rows(pairs=("228,228",), g_from=57, g_to=57)
    assert [(r["dx_raw"], r["dx_bound"], r["dz_bound"], r["n"]) for r in rows] == [
        ("1", "1", "1", "114")
    ]
    genera = range(50, 65)
    assert curves_outcome(emit_curves, [pair], genera) == curves_outcome(reference_curves, [pair], genera)


def test_curves_name_the_first_infeasible_census():
    message = (
        "census for {11,3} at genus 2 is infeasible: n_f = 12/5, n_f* = 44/5 "
        "must both be positive integers"
    )
    for pairs in ([SchlafliPair(11, 3)], [SchlafliPair(7, 3), SchlafliPair(11, 3)]):
        assert curves_outcome(emit_curves, pairs, range(2, 11)) == (message, "")
        assert curves_outcome(reference_curves, pairs, range(2, 11)) == (message, "")
    with pytest.raises(InputError) as exc:
        family_params(SchlafliPair(11, 3), 2)
    assert str(exc.value) == message


def fraction_census(p, q, g):
    """The rational census rule: (n_f, n_f*, n) = (4q, 4p, 2pq)(g-1)/c, all positive integers."""
    c, m = p * q - 2 * p - 2 * q, g - 1
    counts = (Fraction(4 * q * m, c), Fraction(4 * p * m, c), Fraction(2 * p * q * m, c))
    return counts, all(x > 0 and x.denominator == 1 for x in counts)


def test_integer_census_matches_the_fraction_rule():
    feasible = 0
    for p in range(3, 31):
        for q in range(3, 31):
            if (p - 2) * (q - 2) <= 4:
                continue
            pair = SchlafliPair(p, q)
            for g in range(2, 201):
                counts, ok = fraction_census(p, q, g)
                assert census_counts(pair, g) == (counts if ok else None), (p, q, g)
                if g <= 20:
                    assert census(pair, g) == TessellationCensus(*counts, feasible=ok), (p, q, g)
                feasible += ok
    assert feasible > 10_000
