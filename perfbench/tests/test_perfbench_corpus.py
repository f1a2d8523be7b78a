"""The benchmark's inputs: relabelling invariance, cover invariants, checks."""
import random

import pytest

import corpus
from atqc.complexes import complex_from_dict
from atqc.distance import certified_distances
from atqc.stabilizer import build_css


@pytest.mark.parametrize("case", corpus.certify_small(), ids=lambda c: c.name)
def test_relabelling_keeps_distances_and_method(case):
    for seed in (1, 2, 3):
        doc = corpus.relabel(case.doc, random.Random(seed))
        result = certified_distances(complex_from_dict(doc))
        assert (result.d_x, result.d_z, result.method) == (case.d_x, case.d_z, case.method)
        errors = corpus.witness_errors(corpus.Surface(doc), result.witness_x, result.witness_z,
                                       case.d_x, case.d_z)
        assert errors == []


def test_relabel_is_a_function_of_the_seed():
    doc = corpus.square_torus(4)
    assert corpus.encode(corpus.relabel(doc, random.Random(7))) == corpus.encode(
        corpus.relabel(doc, random.Random(7)))
    assert corpus.relabel(doc, random.Random(7)) != corpus.relabel(doc, random.Random(8))


@pytest.mark.parametrize("name,doc", corpus.covers(), ids=lambda x: x if isinstance(x, str) else "")
def test_cover_invariants(name, doc):
    base_genus = 2 if name.startswith("cover-g3") else 3
    g = doc["genus"]
    assert g == 2 * base_genus - 1
    c = complex_from_dict(doc)  # validates Euler characteristic against the genus
    assert (c.num_vertices, c.num_edges, c.num_faces) == (16 * (g - 1), 24 * (g - 1), 6 * (g - 1))
    assert build_css(c).k == 2 * g


def test_double_cover_rejects_a_non_cocycle():
    base = corpus.genus2()
    one_edge = {base["edges"][0]["id"]}
    with pytest.raises(ValueError, match="not a cocycle"):
        corpus.double_cover(base, one_edge, "bad")


def test_witness_checks_catch_wrong_witnesses():
    doc = corpus.square_torus(4)
    s = corpus.Surface(doc)
    result = certified_distances(complex_from_dict(doc))
    wx, wz = list(result.witness_x), list(result.witness_z)
    assert corpus.witness_errors(s, wx, wz, 4, 4) == []
    assert corpus.witness_errors(s, wx[:-1], wz, 4, 4)  # short and open
    face = doc["faces"][0]["edge_cycle"]
    assert "witness_x is a boundary" in corpus.witness_errors(s, face, wz, 4, 4)
