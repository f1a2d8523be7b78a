from dataclasses import dataclass
from fractions import Fraction

import pytest

from atqc.errors import IntegrityError, InputError
from atqc.torus import APOTHEM, HexTorusSpec, SquareTorusSpec, build_hex_torus, build_square_torus


def degrees(c):
    return {len(ring) for ring in c.rotations.values()}


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
def test_square_torus_counts(l):
    c = build_square_torus(SquareTorusSpec(l))
    assert (c.num_vertices, c.num_edges, c.num_faces) == (l * l, 2 * l * l, l * l)
    assert c.euler_characteristic == 0
    assert degrees(c) == {4}
    assert all(len(cy) == 4 for cy in c.faces.values())
    assert c.degenerate_faces == ()


def test_square_torus_rejects_degenerate_side():
    with pytest.raises(InputError):
        SquareTorusSpec(1)


@pytest.mark.parametrize("xi", [1, 2, 3, 4, 5, 6])
def test_hex_apothem_counts(xi):
    c = build_hex_torus(HexTorusSpec("apothem", xi))
    assert (c.num_vertices, c.num_edges, c.num_faces) == (2 * xi * xi, 3 * xi * xi, xi * xi)
    assert c.euler_characteristic == 0
    assert degrees(c) == {3}
    assert all(len(cy) == 6 for cy in c.faces.values())


@pytest.mark.parametrize("lam", [3, 6, 9])
def test_hex_edge_counts(lam):
    c = build_hex_torus(HexTorusSpec("edge", lam))
    assert (c.num_vertices, c.num_edges, c.num_faces) == (
        2 * lam * lam // 3,
        lam * lam,
        lam * lam // 3,
    )
    assert degrees(c) == {3}
    assert all(len(cy) == 6 for cy in c.faces.values())


def test_hex_edge_integrality_rejection():
    with pytest.raises(InputError, match="3 | lambda"):
        HexTorusSpec("edge", 4)
    with pytest.raises(InputError):
        HexTorusSpec("edge", 5)


def test_hex_apothem_degenerate_flagged_not_rejected():
    c = build_hex_torus(HexTorusSpec("apothem", 1))
    assert c.degenerate_faces == (0,)
    assert c.num_edges == 3
    # the single face traverses its 3 distinct edges twice each
    assert sorted(c.faces[0]) == [0, 0, 1, 1, 2, 2]


@pytest.mark.parametrize("xi", [2, 3, 4])
def test_hex_non_degenerate_at_scale_two_plus(xi):
    assert build_hex_torus(HexTorusSpec("apothem", xi)).degenerate_faces == ()


def test_unknown_variant_rejected():
    with pytest.raises(InputError):
        HexTorusSpec("radius", 2)
    with pytest.raises(InputError):
        HexTorusSpec("apothem", 0)


@dataclass(frozen=True)
class HexCensusReport:
    """Area bookkeeping (unit hexagon edge; areas as rational multiples of sqrt 3)."""

    spec: HexTorusSpec
    area_fundamental: Fraction
    area_face: Fraction
    area_dual_face: Fraction
    predicted_faces: Fraction
    predicted_dual_faces: Fraction
    built_faces: int
    built_vertices: int
    built_edges: int

    @property
    def ok(self) -> bool:
        return (
            self.predicted_faces == self.built_faces
            and self.predicted_dual_faces == self.built_vertices
        )


def hex_census_check(spec: HexTorusSpec) -> HexCensusReport:
    """Cross-check area-ratio face counts against the built complex."""
    area_face = Fraction(3, 2)       # regular hexagon, edge 1
    area_dual_face = Fraction(3, 4)  # equilateral triangle, edge 2a = sqrt(3)
    if spec.variant == APOTHEM:
        area_fundamental = Fraction(3, 2) * spec.scale**2
    else:
        area_fundamental = Fraction(spec.scale**2, 2)
    predicted_faces = area_fundamental / area_face
    predicted_dual = area_fundamental / area_dual_face
    built = build_hex_torus(spec)
    report = HexCensusReport(
        spec=spec,
        area_fundamental=area_fundamental,
        area_face=area_face,
        area_dual_face=area_dual_face,
        predicted_faces=predicted_faces,
        predicted_dual_faces=predicted_dual,
        built_faces=built.num_faces,
        built_vertices=built.num_vertices,
        built_edges=built.num_edges,
    )
    if not report.ok:
        raise IntegrityError(
            f"hex torus construction bug: area ratios predict "
            f"{predicted_faces} faces / {predicted_dual} dual faces, built "
            f"{built.num_faces} / {built.num_vertices}"
        )
    return report


@pytest.mark.parametrize("spec", [
    HexTorusSpec("apothem", 3),
    HexTorusSpec("edge", 6),
    HexTorusSpec("edge", 3),
])
def test_hex_census_check_examples(spec):
    report = hex_census_check(spec)
    assert report.ok
    if spec == HexTorusSpec("apothem", 3):
        assert report.predicted_faces == 9
    if spec == HexTorusSpec("edge", 6):
        assert report.predicted_faces == 12
    if spec == HexTorusSpec("edge", 3):
        assert report.predicted_dual_faces == 6


@pytest.mark.parametrize("xi", range(1, 9))
def test_hex_census_check_apothem_all_scales(xi):
    report = hex_census_check(HexTorusSpec("apothem", xi))
    assert report.ok
    assert report.predicted_faces == Fraction(xi * xi)


@pytest.mark.parametrize("lam", [3, 6])
def test_hex_census_check_edge_scales(lam):
    assert hex_census_check(HexTorusSpec("edge", lam)).ok


@pytest.mark.parametrize(
    "builder,expected_n",
    [
        (lambda s: build_square_torus(SquareTorusSpec(s)), lambda s: 2 * s * s),
        (lambda s: build_hex_torus(HexTorusSpec("apothem", s)), lambda s: 3 * s * s),
    ],
)
@pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
def test_edge_count_families(builder, expected_n, s):
    assert builder(s).num_edges == expected_n(s)


@pytest.mark.parametrize("lam", [3, 6])
def test_edge_scaled_length(lam):
    assert build_hex_torus(HexTorusSpec("edge", lam)).num_edges == lam * lam


def test_regular_incidence_identity():
    # |E| = |F| * p/2 = |V| * q/2 on regular builds
    for c, p, q in [
        (build_square_torus(SquareTorusSpec(4)), 4, 4),
        (build_hex_torus(HexTorusSpec("apothem", 3)), 6, 3),
        (build_hex_torus(HexTorusSpec("edge", 6)), 6, 3),
    ]:
        assert 2 * c.num_edges == c.num_faces * p == c.num_vertices * q
