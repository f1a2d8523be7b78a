"""The Horton-set engine against the product-graph reference and the oracle."""
import pytest
from reference_search import reference_shortest_nontrivial_cycle
from test_irregular import one_vertex_torus, random_merges

from atqc.complexes import dual_complex
from atqc.distance import oracle_distances, shortest_nontrivial_cycle
from atqc.homology import homology_signature, is_cycle
from atqc.stabilizer import build_css
from atqc.torus import HexTorusSpec, SquareTorusSpec, build_hex_torus, build_square_torus


def assert_engine_matches(c):
    """Primal and dual weights equal the reference; witnesses are valid; oracle if n <= 30.

    The face-adjacency search of c gives the dual complex's weight and witness mask.
    """
    weights = []
    dual = dual_complex(c)
    assert shortest_nontrivial_cycle(c, dual=True) == shortest_nontrivial_cycle(dual), c.label
    for side in (c, dual):
        weight, witness = shortest_nontrivial_cycle(side)
        assert weight == reference_shortest_nontrivial_cycle(side)[0], side.label
        assert is_cycle(side, witness)
        assert homology_signature(side, witness) != 0
        assert witness.bit_count() == weight
        weights.append(weight)
    if c.num_edges <= 30:
        assert oracle_distances(build_css(c)) == tuple(weights), c.label


def test_engine_matches_reference_on_corpus(corpus):
    for c in corpus:
        assert_engine_matches(c)


@pytest.mark.parametrize(
    "build",
    [
        one_vertex_torus,  # loops only
        lambda: build_hex_torus(HexTorusSpec("apothem", 1)),  # degenerate faces
        lambda: build_square_torus(SquareTorusSpec(16)),
    ],
    ids=["one-vertex-torus", "hex-apothem-1", "square-16"],
)
def test_engine_matches_reference(build):
    assert_engine_matches(build())


@pytest.mark.parametrize("seed", [41, 42, 43, 44])
def test_engine_matches_reference_on_random_merges(seed):
    for c in random_merges(seed):
        assert_engine_matches(c)
