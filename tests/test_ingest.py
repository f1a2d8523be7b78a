"""Certification of the shipped {8,3} genus-2 complex."""
from atqc.complexes import dual_complex
from atqc.distance import code_distances, oracle_distances
from atqc.geometry import SchlafliPair, census
from atqc.homology import betti1
from atqc.stabilizer import build_css, verify_stabilizers


def test_counts_match_census(ingested_genus2):
    c = ingested_genus2
    cen = census(SchlafliPair(8, 3), 2)
    assert (c.num_faces, c.num_vertices, c.num_edges) == (
        cen.n_f,
        cen.n_f_star,
        cen.n_edges,
    ) == (6, 16, 24)
    assert c.euler_characteristic == -2
    assert c.genus == 2


def test_regularity(ingested_genus2):
    c = ingested_genus2
    assert {len(ring) for ring in c.rotations.values()} == {3}
    assert all(len(cyc) == 8 for cyc in c.faces.values())
    assert all(len(set(cyc)) == 8 for cyc in c.faces.values())
    assert c.degenerate_faces == ()


def test_simple_graph(ingested_genus2):
    ends = [tuple(sorted(e)) for e in ingested_genus2.edges.values()]
    assert len(set(ends)) == len(ends)
    assert all(u != v for u, v in ends)


def test_homology_and_rank(ingested_genus2):
    assert betti1(ingested_genus2) == 4
    code = build_css(ingested_genus2)
    assert (code.n, code.k) == (24, 4)
    assert verify_stabilizers(code) == 16 + 6 - 2


def test_exact_distances(ingested_genus2):
    r = code_distances(ingested_genus2)
    assert (r.d_x, r.d_z) == (5, 2)
    assert oracle_distances(build_css(ingested_genus2)) == (5, 2)


def test_dual_is_triangulated(ingested_genus2):
    d = dual_complex(ingested_genus2)
    assert (d.num_vertices, d.num_edges, d.num_faces) == (6, 24, 16)
    assert all(len(cyc) == 3 for cyc in d.faces.values())
