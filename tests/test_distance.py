from dataclasses import dataclass

import pytest
from test_orbits import double_cover

from atqc.catalog import toric_family_params
from atqc.complexes import dual_complex
from atqc.distance import (
    DEFAULT_ORACLE_CEILING,
    certified_distances,
    code_distances,
    oracle_distances,
    shortest_nontrivial_cycle,
)
from atqc.errors import InputError, IntegrityError
from atqc.geometry import SchlafliPair, distance_bounds
from atqc.homology import cocycle_basis, edges_to_mask, homology_signature, is_cycle
from atqc.stabilizer import build_css
from atqc.torus import HexTorusSpec, SquareTorusSpec, build_hex_torus, build_square_torus


@pytest.mark.parametrize("l,expected", [(2, 2), (3, 3), (4, 4), (5, 5)])
def test_square_torus_distance(l, expected):
    weight, witness = shortest_nontrivial_cycle(build_square_torus(SquareTorusSpec(l)))
    assert weight == expected
    assert witness.bit_count() == expected


@pytest.mark.parametrize(
    "spec,expected",
    [
        (HexTorusSpec("apothem", 2), (4, 2)),
        (HexTorusSpec("apothem", 3), (6, 3)),
        (HexTorusSpec("edge", 3), (4, 2)),
        (HexTorusSpec("edge", 6), (8, 4)),
    ],
)
def test_hex_torus_distances(spec, expected):
    r = code_distances(build_hex_torus(spec))
    assert (r.d_x, r.d_z) == expected


def test_search_equals_oracle_on_corpus(corpus):
    for c in corpus:
        if c.num_edges > 30:
            continue
        r = code_distances(c)
        assert oracle_distances(build_css(c)) == (r.d_x, r.d_z), c.label


def test_witness_validity(corpus):
    for c in corpus:
        r = code_distances(c)
        wx = edges_to_mask(c, r.witness_x)
        assert is_cycle(c, wx)
        assert homology_signature(c, wx) != 0
        assert wx.bit_count() == r.d_x
        d = dual_complex(c)
        wz = edges_to_mask(d, r.witness_z)
        assert is_cycle(d, wz)
        assert homology_signature(d, wz) != 0
        assert wz.bit_count() == r.d_z


def test_distance_symmetry_under_dual(corpus):
    for c in corpus:
        if c.num_edges > 30:
            continue
        r = code_distances(c)
        rd = code_distances(dual_complex(c))
        assert (rd.d_x, rd.d_z) == (r.d_z, r.d_x)


def test_witness_determinism():
    a = code_distances(build_square_torus(SquareTorusSpec(3)))
    b = code_distances(build_square_torus(SquareTorusSpec(3)))
    assert a == b
    assert a.witness_x == (0, 1, 2)


def test_oracle_examples():
    assert oracle_distances(build_css(build_square_torus(SquareTorusSpec(2)))) == (2, 2)
    assert oracle_distances(build_css(build_hex_torus(HexTorusSpec("apothem", 2)))) == (4, 2)


def test_oracle_ingested(ingested_genus2):
    assert oracle_distances(build_css(ingested_genus2)) == (5, 2)


def test_oracle_certifies_the_covers_of_the_genus2_complex(ingested_genus2):
    # above the default ceiling: the genus-3 covers have n = 48, the genus-5 ones 96
    for cocycle in cocycle_basis(ingested_genus2):
        cover = double_cover(ingested_genus2, cocycle, interleave=False)
        genus5 = double_cover(cover, cocycle_basis(cover)[0], interleave=False)
        for c in (cover, genus5):
            r = code_distances(c)
            assert oracle_distances(build_css(c), c.num_edges) == (r.d_x, r.d_z), c.label


def test_a_certified_cover_falls_below_the_ceiling_formula(ingested_genus2):
    # the formula is the paper's, not a lower bound: a genus-3 Z2 cover of the
    # {8,3} complex is certified at (5, 2), under the formula's (6, 3)
    cover = double_cover(ingested_genus2, cocycle_basis(ingested_genus2)[0], interleave=False)
    assert (cover.genus, cover.num_edges) == (3, 48)
    r = certified_distances(cover, cover.num_edges)
    assert (r.d_x, r.d_z, r.method) == (5, 2, "both-agree")
    assert distance_bounds(SchlafliPair(8, 3), 3) == (6, 3)


def test_oracle_refuses_above_ceiling():
    code = build_css(build_square_torus(SquareTorusSpec(4)))  # n = 32
    with pytest.raises(InputError, match="ceiling"):
        oracle_distances(code, 30)
    # but a raised ceiling admits it
    assert oracle_distances(code, 32) == (4, 4)


def test_certified_distances_method(ingested_genus2):
    r = certified_distances(ingested_genus2)
    assert r.method == "both-agree"
    big = build_hex_torus(HexTorusSpec("edge", 6))
    assert certified_distances(big).method == "search"


def test_oracle_refuses_a_code_whose_k_disagrees_with_its_kernel(ingested_genus2):
    code = build_css(ingested_genus2)
    with pytest.raises(IntegrityError) as exc:
        oracle_distances(code._replace(k=code.k + 2))
    assert str(exc.value) == "kernel/rowspace quotient has dimension 4, expected 6"


@pytest.mark.parametrize("close, message", [
    (lambda c: lambda x, ends, up: 1 << x, "search witness is not a cycle"),
    (lambda c: lambda x, ends, up: build_css(c).hx.data[0], "search witness is homologically trivial"),
], ids=["one edge", "face 0's boundary"])
def test_the_search_checks_its_witness(monkeypatch, close, message):
    c = build_square_torus(SquareTorusSpec(3))
    monkeypatch.setattr("atqc.distance._close", close(c))
    with pytest.raises(IntegrityError) as exc:
        shortest_nontrivial_cycle(c)
    assert str(exc.value) == message


def test_certified_distances_rejects_a_negative_ceiling(ingested_genus2):
    with pytest.raises(InputError, match=r"oracle ceiling must be >= 0, got -1"):
        certified_distances(ingested_genus2, -1)
    # the oracle itself names the ceiling, not the input, as what is wrong
    with pytest.raises(InputError, match=r"^oracle ceiling must be >= 0, got -1$"):
        oracle_distances(build_css(ingested_genus2), -1)


@pytest.mark.parametrize("ceiling", ["3", 2.5, None, True])
def test_distances_reject_a_ceiling_that_is_not_an_integer(ingested_genus2, ceiling):
    message = f"^oracle ceiling must be an integer, got {ceiling!r}$"
    with pytest.raises(InputError, match=message):
        certified_distances(ingested_genus2, ceiling)
    with pytest.raises(InputError, match=message):
        oracle_distances(build_css(ingested_genus2), ceiling)


@dataclass(frozen=True)
class FormulaComparison:
    """Exact distances of a built hexagonal torus next to the ceiling formulas."""

    label: str
    formula: tuple[int, int]
    computed: tuple[int, int]

    @property
    def matches(self) -> bool:
        return self.formula == self.computed

    @property
    def finding(self) -> str | None:
        if self.matches:
            return None
        return (
            f"{self.label}: exact distances (d_x, d_z) = {self.computed} differ "
            f"from the ceiling formulas {self.formula}; the formulas are lower "
            "bounds here, not exact values"
        )


def compare_hex_distances(spec, ceiling: int = DEFAULT_ORACLE_CEILING) -> FormulaComparison:
    """Surface any gap between a hex torus's exact distances and the formulas."""
    params = toric_family_params(spec)
    built = build_hex_torus(spec)
    result = certified_distances(built, ceiling)
    return FormulaComparison(
        label=built.label,
        formula=(params.d_x, params.d_z),
        computed=(result.d_x, result.d_z),
    )


def test_ceiling_formula_matches_at_small_apothem_scales():
    for xi in (2, 3):
        cmp = compare_hex_distances(HexTorusSpec("apothem", xi))
        assert cmp.matches
        assert cmp.finding is None


def test_ceiling_formula_finding_at_apothem_four():
    # the ceiling formula predicts d_x = 7 but the honeycomb torus is
    # bipartite, so every cycle is even: the exact distance is 8
    cmp = compare_hex_distances(HexTorusSpec("apothem", 4))
    assert cmp.formula == (7, 4)
    assert cmp.computed == (8, 4)
    assert not cmp.matches
    assert "lower bounds" in cmp.finding


def test_ceiling_formula_finding_at_edge_scales():
    cmp3 = compare_hex_distances(HexTorusSpec("edge", 3))
    assert cmp3.formula == (3, 2)
    assert cmp3.computed == (4, 2)
    assert cmp3.finding is not None
    cmp6 = compare_hex_distances(HexTorusSpec("edge", 6))
    assert cmp6.formula == (6, 4)
    assert cmp6.computed == (8, 4)
    assert cmp6.finding is not None


def test_exact_distances_dominate_hyperbolic_bounds(ingested_genus2):
    r = code_distances(ingested_genus2)
    bx, bz = distance_bounds(SchlafliPair(8, 3), 2)
    assert r.d_x >= bx and r.d_z >= bz
