import hashlib
import io
from dataclasses import dataclass
from fractions import Fraction

import pytest

from atqc.complexes import save_complex
from atqc.errors import IntegrityError, InputError
from atqc.torus import (
    APOTHEM,
    EDGE,
    HexTorusSpec,
    SquareTorusSpec,
    _cells,
    _check_edges,
    build_hex_torus,
    build_square_torus,
)


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


@pytest.mark.parametrize("make,message", [
    (lambda: SquareTorusSpec(2.5), "square torus side must be an integer, got 2.5"),
    (lambda: SquareTorusSpec("3"), "square torus side must be an integer, got '3'"),
    (lambda: SquareTorusSpec(True), "square torus side must be an integer, got True"),
    (lambda: HexTorusSpec(APOTHEM, True), "hex torus scale must be an integer, got True"),
    (lambda: HexTorusSpec(EDGE, 6.0), "hex torus scale must be an integer, got 6.0"),
], ids=["square-float", "square-str", "square-bool", "apothem-bool", "edge-float"])
def test_specs_reject_non_integers(make, message):
    with pytest.raises(InputError) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize("spec,lattice", [
    (SquareTorusSpec(5), (5, 0, 5)),
    (HexTorusSpec(APOTHEM, 4), (4, 0, 4)),
    (HexTorusSpec(EDGE, 9), (9, 3, 3)),
], ids=["square", "apothem", "edge"])
def test_specs_name_their_lattice(spec, lattice):
    assert spec.lattice == lattice


@pytest.mark.parametrize("lattice", [
    SquareTorusSpec(2).lattice, SquareTorusSpec(5).lattice,
    HexTorusSpec(APOTHEM, 1).lattice, HexTorusSpec(APOTHEM, 4).lattice,
    HexTorusSpec(EDGE, 3).lattice, HexTorusSpec(EDGE, 12).lattice,
    (5, 2, 1), (7, 2, 1), (13, 5, 1), (6, 3, 3), (4, 2, 2), (9, 4, 2),
], ids=str)
def test_cells_number_one_fundamental_domain(lattice):
    a, b, c = lattice
    cell = _cells(lattice, 1, "lattice")
    assert sorted(cell(i, j) for i in range(a) for j in range(c)) == list(range(a * c))
    for i in range(-a, 2 * a):
        for j in range(-c, 2 * c):
            assert cell(i + a, j) == cell(i, j) == cell(i + b, j + c)


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


# SHA-256 of ``save_complex`` output: pins every vertex, edge and face id the
# builders hand out (the reflected dual in test_surface.py names edge ids)
SAVED_SHA256 = [
    (SquareTorusSpec(2), "b1ec28c97f85ecf0340e0ae68c5c2619124363e5704fdbf46ceb7be00a85656e"),
    (SquareTorusSpec(3), "78757852373066ba0d27bc1076305b659993536396c210459aab9ff55a63c412"),
    (SquareTorusSpec(4), "7f78c148d086fe69857132638c26539ee83e51c8739c6ac2f55f5ed6c4c93a5b"),
    (SquareTorusSpec(5), "4536d7f692faf1f9f0b4f1a6b3a73ae3832ec3294d590ceebc194ccd5b9c8d8d"),
    (SquareTorusSpec(16), "919b7a7c9af13f294bb8010eb62ad6601616732371c1e67060c1c23ece92962e"),
    (SquareTorusSpec(48), "c052803edc0c4aea5d07ad8462cfc4455bec602fb218485e919c6665931f7315"),
    (HexTorusSpec("apothem", 1), "3a1a7c2b8fa38850fa4e0f92c705b3a28dcfdc40de12908ce57d20233bc05a4e"),
    (HexTorusSpec("apothem", 2), "041e877b4d44328ac275191ca1a66a6b113838b53872328df912a264d566e9a4"),
    (HexTorusSpec("apothem", 3), "e6d63bfd59f19562dbddd9ab637b7b16fb87e9365f3c7d7eadadb22f4ec55302"),
    (HexTorusSpec("apothem", 4), "5792360097990aacd168be495a77708856aa47682bf4dec9569136d94993b095"),
    (HexTorusSpec("apothem", 16), "d054072524441d9fb9b94f4a2451e2b785eb46613aa1b6ea6f17883a7b88eed8"),
    (HexTorusSpec("edge", 3), "dc9cf9050c91a23f9db61a31b92a595dcf1d3e0268e9aeaef40190318c828ff1"),
    (HexTorusSpec("edge", 6), "38b4efe401063ce1c157146e31e5696f6f8c0b7bfcc9808718a76a65d4022b43"),
    (HexTorusSpec("edge", 9), "dd14c4ca862b202921b9cd5b415c88573fa96130014d51aa4d3e45d0c8b3f17f"),
    (HexTorusSpec("edge", 24), "d06c0ec3e6a1efb48b774881ac753f47ea4b7718d41a1d82f24b5185dc86dc25"),
]


def spec_id(value):
    if isinstance(value, SquareTorusSpec):
        return f"square-{value.side}"
    return f"{value.variant}-{value.scale}" if isinstance(value, HexTorusSpec) else ""


@pytest.mark.parametrize("spec,digest", SAVED_SHA256, ids=spec_id)
def test_builders_number_ids_as_pinned(spec, digest):
    build = build_square_torus if isinstance(spec, SquareTorusSpec) else build_hex_torus
    buf = io.StringIO()
    save_complex(build(spec), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize("largest,past", [
    (2 * 181 * 181, 2 * 182 * 182),  # square l = 181, 182
    (3 * 147 * 147, 3 * 148 * 148),  # apothem xi = 147, 148
    (255 * 255, 258 * 258),          # edge lambda = 255, 258
], ids=["square", "apothem", "edge"])
def test_edge_limit_admits_the_largest_builds(largest, past):
    _check_edges(largest, "largest")
    with pytest.raises(InputError, match=f"past has n = {past} edges, above the build limit of 65536"):
        _check_edges(past, "past")


@pytest.mark.parametrize("build,spec,n", [
    (build_square_torus, SquareTorusSpec(182), 2 * 182 * 182),
    (build_hex_torus, HexTorusSpec("apothem", 148), 3 * 148 * 148),
    (build_hex_torus, HexTorusSpec("edge", 258), 258 * 258),
], ids=["square", "apothem", "edge"])
def test_builders_refuse_past_the_edge_limit(build, spec, n):
    with pytest.raises(InputError, match=f"n = {n} edges, above the build limit of 65536"):
        build(spec)
