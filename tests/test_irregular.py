"""Robustness checks on complexes the builders cannot produce: merged
(non-regular) faces and fully degenerate one-vertex gluings."""
import json
import random

import pytest

from atqc import cli
from atqc.complexes import (
    SurfaceComplex,
    complex_from_dict,
    complex_to_dict,
    dual_complex,
    save_complex,
)
from atqc.distance import code_distances, oracle_distances
from atqc.errors import ComplexError
from atqc.homology import betti1
from atqc.stabilizer import build_css, verify_stabilizers
from atqc.torus import HexTorusSpec, SquareTorusSpec, build_hex_torus, build_square_torus


def face_walk(c: SurfaceComplex, face: int) -> tuple[int, ...]:
    """Vertex sequence x_0..x_{k-1} of a face, edge t joining x_t and x_{t+1}."""
    cyc = c.faces[face]
    for start in c.edges[cyc[0]]:
        walk = [start]
        for e in cyc:
            u, v = c.edges[e]
            if walk[-1] not in (u, v):
                break
            walk.append(v if walk[-1] == u else u)
        else:
            if walk[-1] == start:
                return tuple(walk[:-1])
    raise AssertionError(f"face {face} is not a closed walk")


def edge_slots(c: SurfaceComplex) -> dict[int, list[tuple[int, int]]]:
    """Edge id -> its (face, position) slots, ascending, read off ``c.faces``."""
    slots: dict[int, list[tuple[int, int]]] = {e: [] for e in sorted(c.edges)}
    for f in sorted(c.faces):
        for t, e in enumerate(c.faces[f]):
            slots[e].append((f, t))
    return slots


def merge_across(c: SurfaceComplex, edge: int) -> SurfaceComplex:
    """Dissolve an edge between two distinct faces, splicing their cycles."""
    (f1, t1), (f2, t2) = edge_slots(c)[edge]
    assert f1 != f2, "pick an edge bordering two distinct faces"

    def rotated(face, t):
        cyc = c.faces[face]
        walk = face_walk(c, face)
        cyc = cyc[t:] + cyc[:t]  # edge first
        walk = walk[t:] + walk[:t]
        return cyc[1:], walk[1 % len(walk)], walk[0]  # path edges, path start, path end

    path1, start1, end1 = rotated(f1, t1)
    path2, start2, end2 = rotated(f2, t2)
    if start2 == start1:  # same orientation; reverse the second path
        path2 = path2[::-1]
    merged = path1 + path2
    faces = {f: cyc for f, cyc in c.faces.items() if f not in (f1, f2)}
    faces[f1] = merged
    edges = {e: ends for e, ends in c.edges.items() if e != edge}
    return SurfaceComplex(
        genus=c.genus, vertices=c.vertices, edges=edges, faces=faces,
        label=f"{c.label} minus edge {edge}",
    )


@pytest.mark.parametrize("edge", [0, 4, 9, 13])
def test_merged_square_torus(edge):
    c = merge_across(build_square_torus(SquareTorusSpec(3)), edge)
    assert c.euler_characteristic == 0
    assert betti1(c) == 2
    sizes = sorted(len(cyc) for cyc in c.faces.values())
    assert sizes == [4] * 7 + [6]
    r = code_distances(c)
    assert oracle_distances(build_css(c)) == (r.d_x, r.d_z)
    verify_stabilizers(build_css(c))


@pytest.mark.parametrize("edge", [0, 5, 11])
def test_merged_hex_torus(edge):
    c = merge_across(build_hex_torus(HexTorusSpec("apothem", 2)), edge)
    assert betti1(c) == 2
    assert sorted(len(cyc) for cyc in c.faces.values()) == [6, 6, 10]
    r = code_distances(c)
    assert oracle_distances(build_css(c)) == (r.d_x, r.d_z)
    rd = code_distances(dual_complex(c))
    assert (rd.d_x, rd.d_z) == (r.d_z, r.d_x)


def test_double_merge_stays_consistent():
    c = merge_across(build_square_torus(SquareTorusSpec(3)), 0)
    inner = [e for e, s in edge_slots(c).items() if s[0][0] != s[1][0]]
    c2 = merge_across(c, inner[3])
    assert betti1(c2) == 2
    r = code_distances(c2)
    assert oracle_distances(build_css(c2)) == (r.d_x, r.d_z)


def one_vertex_torus():
    return SurfaceComplex(
        genus=1,
        vertices=[0],
        edges={0: (0, 0), 1: (0, 0)},
        faces={0: (0, 1, 0, 1)},
        label="one-vertex torus",
    )


def test_one_vertex_torus_is_self_dual():
    c = one_vertex_torus()
    assert c.degenerate_faces == (0,)
    assert betti1(c) == 2
    d = dual_complex(c)
    assert (d.num_vertices, d.num_edges, d.num_faces) == (1, 2, 1)
    assert d.faces[0] == (0, 1, 0, 1)


def test_one_vertex_torus_distances():
    c = one_vertex_torus()
    r = code_distances(c)
    assert (r.d_x, r.d_z) == (1, 1)
    assert oracle_distances(build_css(c)) == (1, 1)


def test_one_vertex_torus_code():
    code = build_css(one_vertex_torus())
    assert (code.n, code.k) == (2, 2)  # both checks are trivial
    assert code.warnings
    verify_stabilizers(code)


def random_merges(seed: int):
    """Small tori with one or two random edges dissolved, reproducible per seed."""
    rng = random.Random(seed)
    bases = [
        lambda: build_square_torus(SquareTorusSpec(3)),
        lambda: build_hex_torus(HexTorusSpec("apothem", 2)),
        lambda: build_hex_torus(HexTorusSpec("edge", 3)),
    ]
    for _ in range(12):
        c = rng.choice(bases)()
        for _ in range(rng.randint(1, 2)):
            candidates = [e for e, s in edge_slots(c).items() if s[0][0] != s[1][0]]
            c = merge_across(c, rng.choice(candidates))
        yield c


def test_search_equals_oracle_on_random_merges():
    for c in random_merges(41):
        assert betti1(c) == 2
        r = code_distances(c)
        assert oracle_distances(build_css(c)) == (r.d_x, r.d_z), c.label


def test_dual_distances_swap_on_random_merges():
    # the dual's d_z runs on its own face adjacency, never on a dual of the dual
    for seed in range(41, 61):
        for c in random_merges(seed):
            r = code_distances(c)
            rd = code_distances(dual_complex(c))
            assert (rd.d_x, rd.d_z) == (r.d_z, r.d_x), c.label


def test_distance_cli_on_dual_of_first_merge(tmp_path, capsys):
    d = dual_complex(next(random_merges(41)))
    assert (d.num_vertices, d.num_edges, d.num_faces) == (2, 10, 8)
    path = tmp_path / "dual.json"
    with path.open("w") as fh:
        save_complex(d, fh)
    assert cli.main(["distance", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["d_x"], doc["d_z"], doc["method"]) == (1, 4, "both-agree")


def two_tori_sharing_two_vertices():
    """Two 3x3 tori glued at two vertex pairs: chi = -2, yet not a surface."""
    a = complex_to_dict(build_square_torus(SquareTorusSpec(3)))
    glue = {100: 0, 104: 4}

    def moved(v):
        return glue.get(v + 100, v + 100)

    return {
        "genus": 2,
        "label": "two tori",
        "vertices": a["vertices"] + [moved(v) for v in a["vertices"] if v + 100 not in glue],
        "edges": a["edges"] + [
            {"id": item["id"] + 100, "ends": [moved(v) for v in item["ends"]]}
            for item in a["edges"]
        ],
        "faces": a["faces"] + [
            {"id": item["id"] + 100, "edge_cycle": [e + 100 for e in item["edge_cycle"]]}
            for item in a["faces"]
        ],
    }


def test_two_tori_sharing_two_vertices_are_rejected(tmp_path, capsys):
    doc = two_tori_sharing_two_vertices()
    assert (len(doc["vertices"]), len(doc["edges"]), len(doc["faces"])) == (16, 36, 18)
    with pytest.raises(ComplexError, match="vertex [04] is pinched"):
        complex_from_dict(doc)
    path = tmp_path / "two-tori.json"
    path.write_text(json.dumps(doc))
    for command in ("check", "distance"):
        assert cli.main([command, str(path)]) == 2
        assert "pinched" in capsys.readouterr().err
