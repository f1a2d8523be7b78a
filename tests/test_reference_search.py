"""The Horton-set engine against the product-graph reference and the oracle;
the oracle against its Gray-code reference."""
import random

import pytest
from gluings import random_gluing
from reference_search import gray_code_min_coset_weight, reference_shortest_nontrivial_cycle
from test_irregular import one_vertex_torus, random_merges

from atqc.complexes import complex_from_dict, dual_complex
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


def assert_oracle_matches_gray_code(c):
    """Both oracle weights equal the Gray-code walk over the whole kernel."""
    code = build_css(c)
    reference = tuple(
        gray_code_min_coset_weight(kernel_of.kernel_basis(), list(modulo.data), code.k)
        for kernel_of, modulo in ((code.hz, code.hx), (code.hx, code.hz))
    )
    assert oracle_distances(code, code.n) == reference, c.label


def test_oracle_matches_gray_code_on_corpus(corpus):
    # the walk takes 2^(kernel dimension) steps: up to 2^19 at n <= 32 (hex
    # xi <= 3 included), 2^25 to 2^33 on square L = 5, hex xi = 4 and lambda = 6
    small = [c for c in corpus if c.num_edges <= 32]
    assert len(small) == 8
    for c in small:
        assert_oracle_matches_gray_code(c)


def test_oracle_matches_gray_code_on_gluings():
    rng = random.Random(20211)
    for _ in range(300):
        assert_oracle_matches_gray_code(complex_from_dict(random_gluing(rng)[0]))


def test_oracle_matches_gray_code_on_merges():
    for seed in range(41, 61):
        for c in random_merges(seed):
            assert_oracle_matches_gray_code(c)
