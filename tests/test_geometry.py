import math
from fractions import Fraction

import pytest

from atqc.catalog import family_params
from atqc.errors import InputError
from atqc.geometry import (
    EUCLIDEAN,
    HYPERBOLIC,
    SPHERICAL,
    SchlafliPair,
    census,
    classify,
    distance_bounds,
    edge_length,
    fundamental_diameter,
    guarded_ceil,
)

# (p, q) -> printed 4-decimal constants (l(p,q), l(q,p))
TABLE2_EDGE_LENGTHS = {
    (7, 3): (0.5663, 1.0906),
    (8, 3): (0.7270, 1.5286),
    (9, 3): (0.8192, 1.8551),
    (10, 3): (0.8792, 2.1226),
    (12, 3): (0.9516, 2.5534),
    (5, 4): (1.0612, 1.2537),
    (6, 4): (1.3170, 1.7628),
    (8, 4): (1.5286, 2.4485),
    (10, 5): (2.1226, 3.2338),
}


@pytest.mark.parametrize(
    "p,q,expected",
    [(4, 4, EUCLIDEAN), (6, 3, EUCLIDEAN), (3, 6, EUCLIDEAN), (7, 3, HYPERBOLIC), (3, 3, SPHERICAL), (3, 4, SPHERICAL), (3, 5, SPHERICAL)],
)
def test_classify(p, q, expected):
    assert classify(SchlafliPair(p, q)) == expected


@pytest.mark.parametrize("p,q", [(2, 9), (9, 2), (1, 1), (0, 5)])
def test_malformed_pairs_rejected(p, q):
    with pytest.raises(InputError):
        SchlafliPair(p, q)


@pytest.mark.parametrize("p,q", sorted(TABLE2_EDGE_LENGTHS))
def test_edge_lengths_match_printed_constants(p, q):
    printed = TABLE2_EDGE_LENGTHS[(p, q)]
    assert edge_length(SchlafliPair(p, q)) == pytest.approx(printed[0], abs=2e-4)
    assert edge_length(SchlafliPair(q, p)) == pytest.approx(printed[1], abs=2e-4)


def test_edge_length_closed_form_spot_checks():
    assert edge_length(SchlafliPair(6, 4)) == pytest.approx(math.acosh(2), abs=1e-12)
    assert edge_length(SchlafliPair(4, 6)) == pytest.approx(math.acosh(3), abs=1e-12)


@pytest.mark.parametrize("p,q", [(4, 4), (6, 3), (3, 3)])
def test_edge_length_rejects_non_hyperbolic(p, q):
    with pytest.raises(InputError):
        edge_length(SchlafliPair(p, q))


def test_fundamental_diameter_values():
    assert fundamental_diameter(2) == pytest.approx(3.05714, abs=1e-4)
    assert fundamental_diameter(3) == pytest.approx(3.98336, abs=1e-4)
    # exact identity: both reduce to 2*arccosh(cot(pi/8))
    assert abs(2 * edge_length(SchlafliPair(3, 8)) - fundamental_diameter(2)) < 1e-12


def test_fundamental_diameter_monotonic():
    values = [fundamental_diameter(g) for g in range(2, 33)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_fundamental_diameter_rejects_torus():
    with pytest.raises(InputError):
        fundamental_diameter(1)


@pytest.mark.parametrize(
    "p,q,g,n_f,n_f_star,n_edges",
    [
        (8, 3, 2, 6, 16, 24),
        (7, 3, 2, 12, 28, 42),
        (10, 5, 2, 1, 2, 5),
        (9, 3, 2, 4, 12, 18),
    ],
)
def test_census_examples(p, q, g, n_f, n_f_star, n_edges):
    cen = census(SchlafliPair(p, q), g)
    assert cen.feasible
    assert (cen.n_f, cen.n_f_star, cen.n_edges) == (n_f, n_f_star, n_edges)
    assert isinstance(cen.n_f, Fraction)


def test_census_rejects_genus_1():
    with pytest.raises(InputError, match="^census needs genus >= 2, got 1$"):
        census(SchlafliPair(8, 3), 1)


@pytest.mark.parametrize("call,message", [
    (lambda: SchlafliPair(7.5, 3), "Schlafli p must be an integer, got 7.5"),
    (lambda: SchlafliPair(7, True), "Schlafli q must be an integer, got True"),
    (lambda: SchlafliPair("7", 3), "Schlafli p must be an integer, got '7'"),
    (lambda: fundamental_diameter(2.5), "genus must be an integer, got 2.5"),
    (lambda: distance_bounds(SchlafliPair(7, 3), 2.5), "genus must be an integer, got 2.5"),
    (lambda: distance_bounds(SchlafliPair(7, 3), "3"), "genus must be an integer, got '3'"),
    (lambda: census(SchlafliPair(7, 3), 2.5), "genus must be an integer, got 2.5"),
    (lambda: family_params(SchlafliPair(7, 3), 2.5), "genus must be an integer, got 2.5"),
], ids=["p-float", "q-bool", "p-str", "diameter", "bounds", "bounds-str", "census", "params"])
def test_non_integers_rejected(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message


def test_census_rejects_euclidean():
    with pytest.raises(InputError):
        census(SchlafliPair(4, 4), 2)


def test_census_infeasible_flag():
    # {7,4}: n_f = 16(g-1)/6 is not an integer at g = 2
    cen = census(SchlafliPair(7, 4), 2)
    assert not cen.feasible
    assert cen.n_f == Fraction(8, 3)


@pytest.mark.parametrize(
    "p,q,g,expected",
    [
        (8, 3, 2, (5, 2)),
        (7, 3, 2, (6, 3)),
        (5, 4, 4, (5, 4)),
        (6, 4, 9, (5, 4)),
    ],
)
def test_distance_bounds_examples(p, q, g, expected):
    assert distance_bounds(SchlafliPair(p, q), g) == expected


def test_ceiling_guard_snaps_exact_hit():
    # d_h(2) / l(3,8) is exactly 2; the guard must not let it creep to 3
    ratio = fundamental_diameter(2) / edge_length(SchlafliPair(3, 8))
    assert abs(ratio - 2) < 1e-12
    assert guarded_ceil(ratio) == 2
    assert guarded_ceil(2.000000002) == 3  # outside the 1e-9 window
    assert guarded_ceil(1.5) == 2


def test_duality_asymmetry_over_table_rows():
    for (p, q) in TABLE2_EDGE_LENGTHS:
        if p > q:
            assert edge_length(SchlafliPair(p, q)) < edge_length(SchlafliPair(q, p))


@pytest.mark.parametrize("p,q", sorted(TABLE2_EDGE_LENGTHS))
def test_census_conservation_and_euler(p, q):
    pair = SchlafliPair(p, q)
    for g in range(2, 11):
        cen = census(pair, g)
        assert cen.feasible
        assert cen.n_f * p == cen.n_f_star * q == 2 * cen.n_edges
        assert cen.n_f_star - cen.n_edges + cen.n_f == 2 - 2 * g


@pytest.mark.parametrize("p,q", sorted(TABLE2_EDGE_LENGTHS))
def test_ceiling_monotonicity(p, q):
    pair = SchlafliPair(p, q)
    bounds = [distance_bounds(pair, g) for g in range(2, 33)]
    for (ax, az), (bx, bz) in zip(bounds, bounds[1:]):
        assert bx >= ax and bz >= az


def test_distance_bounds_reject_g1():
    with pytest.raises(InputError):
        distance_bounds(SchlafliPair(7, 3), 1)
