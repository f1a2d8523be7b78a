"""Validation reads every complex as an oriented combinatorial map.

Non-surfaces (pinched vertices, non-orientable gluings) are rejected; the
rotations of accepted complexes, their duals and their JSON round trips are
checked against random orientable gluings whose vertex cycles are known.
"""
import copy
import hashlib
import io
import itertools
import json
import random
import subprocess
import sys

import pytest
from gluings import pinch_two_pairs, random_gluing
from reference_search import reference_shortest_nontrivial_cycle
from test_complexes import normalize_cycle, roundtrip
from test_index import face_rows
from test_irregular import one_vertex_torus, random_merges, two_tori_sharing_two_vertices

from atqc import cli
from atqc.complexes import (
    SurfaceComplex,
    complex_from_dict,
    complex_to_dict,
    dual_complex,
    load_complex,
)
from atqc.distance import code_distances, oracle_distances, shortest_nontrivial_cycle
from atqc.errors import ComplexError
from atqc.stabilizer import build_css
from atqc.torus import SquareTorusSpec, build_square_torus


def pinched_torus_doc():
    """The 3x3 square torus with vertices 4 and 5 merged into 0 and 1: chi = -2."""
    doc = complex_to_dict(build_square_torus(SquareTorusSpec(3)))
    merge = {4: 0, 5: 1}
    doc["genus"] = 2
    doc["vertices"] = [v for v in doc["vertices"] if v not in merge]
    for item in doc["edges"]:
        item["ends"] = [merge.get(v, v) for v in item["ends"]]
    return doc


def twisted_grid_doc(side, twist=True):
    """An L x L square grid whose vertical wrap reverses the rows: a Klein bottle.

    Without the twist the same grid is the square torus.
    """

    def vertex(i, j):
        return (j % side) * side + i % side

    edges, faces = [], []
    for j in range(side):
        for i in range(side):
            wraps = twist and j == side - 1
            top = vertex(side - 1 - i, 0) if wraps else vertex(i, j + 1)
            edges.append({"id": 2 * vertex(i, j), "ends": [vertex(i, j), vertex(i + 1, j)]})
            edges.append({"id": 2 * vertex(i, j) + 1, "ends": [vertex(i, j), top]})
            above = 2 * vertex(side - 2 - i, 0) if wraps else 2 * vertex(i, j + 1)
            cycle = [2 * vertex(i, j), 2 * vertex(i + 1, j) + 1, above, 2 * vertex(i, j) + 1]
            faces.append({"id": vertex(i, j), "edge_cycle": cycle})
    return {"genus": 1, "label": f"twisted grid L={side}", "vertices": list(range(side**2)),
            "edges": edges, "faces": faces}


def assert_cli_rejects(doc, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    for command in ("check", "distance"):
        assert cli.main([command, str(path)]) == 2
        assert "error:" in capsys.readouterr().err


def test_pinched_torus_is_rejected(tmp_path, capsys):
    doc = pinched_torus_doc()
    assert (len(doc["vertices"]), len(doc["edges"]), len(doc["faces"])) == (7, 18, 9)
    with pytest.raises(ComplexError, match="vertex 0 is pinched"):
        complex_from_dict(doc)
    assert_cli_rejects(doc, tmp_path, capsys)


@pytest.mark.parametrize("side", [3, 4, 5, 6])
def test_twisted_grid_is_rejected(side, tmp_path, capsys):
    doc = twisted_grid_doc(side)
    with pytest.raises(ComplexError, match="not orientable"):
        complex_from_dict(doc)
    assert_cli_rejects(doc, tmp_path, capsys)


@pytest.mark.parametrize("side", [3, 4, 5, 6])
def test_untwisted_grid_is_accepted(side):
    c = complex_from_dict(twisted_grid_doc(side, twist=False))
    assert c.num_vertices == c.num_faces == side**2 and c.genus == 1
    assert {len(ring) for ring in c.rotations.values()} == {4}


def rotate_to_min(ring):
    return min(ring[k:] + ring[:k] for k in range(len(ring)))


def assert_same_surface(back, c, reflect=False):
    """Same ids, edge ends and face cycles (up to rotation, and reflection if asked)."""
    norm = normalize_cycle if reflect else rotate_to_min
    assert back.genus == c.genus
    assert sorted(back.vertices) == sorted(c.vertices)
    assert {e: sorted(ends) for e, ends in back.edges.items()} == {
        e: sorted(ends) for e, ends in c.edges.items()
    }
    assert {f: norm(cyc) for f, cyc in back.faces.items()} == {
        f: norm(cyc) for f, cyc in c.faces.items()
    }, c.label


def test_dual_of_dual_on_random_merges():
    count = 0
    for seed in range(41, 61):
        for c in random_merges(seed):
            assert_same_surface(dual_complex(dual_complex(c)), c, reflect=True)
            count += 1
    assert count == 240


# the dual of the fourth seed-43 merge as an earlier save_complex wrote it:
# every face reflected to its least form, which turned face 1, three loops
# tied to the rest only at vertex 0, against the faces around it
REFLECTED_DUAL = {
    "genus": 1,
    "label": "dual(hex-torus-apothem scale=2 minus edge 9 minus edge 10)",
    "vertices": [0, 2],
    "edges": [{"id": e, "ends": [0, 0] if e in (0, 5, 7, 11) else [0, 2]}
              for e in (0, 1, 2, 3, 4, 5, 6, 7, 8, 11)],
    "faces": [{"id": f, "edge_cycle": cycle} for f, cycle in enumerate(
        [[0, 1, 2], [0, 5, 7], [3, 4, 5], [2, 3], [6, 7, 8], [1, 6, 11], [11], [4, 8]]
    )],
}


def test_dual_saved_with_reflected_faces_loads(tmp_path, capsys):
    primal = list(random_merges(43))[3]
    assert REFLECTED_DUAL["label"] == f"dual({primal.label})"
    c = complex_from_dict(copy.deepcopy(REFLECTED_DUAL))
    assert sorted(c.rotations) == [0, 2]
    assert build_css(c).hx.data == face_rows(c) == face_rows(dual_complex(primal))
    r = code_distances(primal)
    path = tmp_path / "dual.json"
    path.write_text(json.dumps(REFLECTED_DUAL))
    assert cli.main(["check", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["distance", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["d_x"], out["d_z"]) == (r.d_z, r.d_x)


def test_duals_with_reflected_faces_load():
    # the earlier writer stored each face as its normalize_cycle form
    count = 0
    for seed in range(41, 61):
        for c in random_merges(seed):
            d = dual_complex(c)
            doc = complex_to_dict(d)
            for item in doc["faces"]:
                item["edge_cycle"] = list(normalize_cycle(item["edge_cycle"]))
            back = complex_from_dict(doc)
            assert build_css(back).hx.data == face_rows(back) == face_rows(d), c.label
            assert len(back.rotations) == back.num_vertices
            count += 1
    assert count == 240


GLUING_COUNT = 300


@pytest.fixture(scope="module")
def gluings():
    rng = random.Random(20211)
    return [random_gluing(rng) for _ in range(GLUING_COUNT)]


def test_gluings_cover_genus_loops_and_multi_edges(gluings):
    assert {doc["genus"] for doc, _ in gluings} == {1, 2, 3, 4}
    ends = [[tuple(sorted(item["ends"])) for item in doc["edges"]] for doc, _ in gluings]
    assert sum(any(u == v for u, v in e) for e in ends) > GLUING_COUNT // 4
    assert sum(len(set(e)) < len(e) for e in ends) > GLUING_COUNT // 4


def test_gluings_are_accepted_with_their_rotations(gluings):
    for doc, rings in gluings:
        c = complex_from_dict(doc)
        assert {v: rotate_to_min(r) for v, r in c.rotations.items()} == {
            v: rotate_to_min(r) for v, r in rings.items()
        }, doc["label"]


def test_gluings_dual_of_dual_and_roundtrip(gluings):
    for doc, _ in gluings:
        c = complex_from_dict(doc)
        assert_same_surface(dual_complex(dual_complex(c)), c)
        back = roundtrip(c)
        assert back.faces == c.faces and back.edges == c.edges and back.rotations == c.rotations
        assert complex_to_dict(back) == complex_to_dict(c)


def read_order(c):
    """Each face's edge cycle in the order validation read it: phi from its first dart."""
    ix, out, lo = c.index, {}, 0
    for f in ix.face_ids:
        cyc, d, walk = c.faces[f], lo, []
        while not walk or d != lo:
            walk.append(cyc[d - lo])
            d = ix.phi[d]
        out[f] = tuple(walk)
        lo += len(cyc)
    return out


def reflected(docs, rng):
    """Copies of the documents with faces reversed and ends swapped at random."""
    docs = copy.deepcopy(docs)
    for doc in docs:
        for item in doc["faces"]:
            if rng.random() < 0.5:
                item["edge_cycle"].reverse()
        for item in doc["edges"]:
            if rng.random() < 0.5:
                item["ends"].reverse()
    return docs


def test_faces_written_as_read_load_as_stored(gluings, corpus):
    # a face direction key would add nothing to a round trip: every accepted map,
    # written with each face in its read order, reads every face as stored and
    # keeps its rotations (up to the dart each ring starts at)
    reflected_gluings = reflected([doc for doc, _ in gluings], random.Random(5))
    merges = [c for seed in range(41, 61) for c in random_merges(seed)]
    maps = corpus + merges + [dual_complex(c) for c in merges]
    maps += [complex_from_dict(doc) for doc in reflected_gluings]
    assert len(maps) == len(corpus) + 2 * 240 + GLUING_COUNT
    assert sum(read_order(c) != c.faces for c in maps) > GLUING_COUNT // 10
    for c in maps:
        doc = complex_to_dict(c)
        read = read_order(c)
        for item in doc["faces"]:
            item["edge_cycle"] = list(read[item["id"]])
        back = complex_from_dict(doc)
        assert read_order(back) == back.faces == read, c.label
        assert {v: rotate_to_min(r) for v, r in back.rotations.items()} == {
            v: rotate_to_min(r) for v, r in c.rotations.items()
        }, c.label


def test_gluings_search_reference_and_oracle_agree(gluings):
    for doc, _ in gluings:
        c = complex_from_dict(doc)
        d = dual_complex(c)
        weights = (shortest_nontrivial_cycle(c)[0], shortest_nontrivial_cycle(c, dual=True)[0])
        assert weights[1] == shortest_nontrivial_cycle(d)[0], doc["label"]
        assert weights == (
            reference_shortest_nontrivial_cycle(c)[0],
            reference_shortest_nontrivial_cycle(d)[0],
        ), doc["label"]
        if c.num_edges <= 30:
            assert oracle_distances(build_css(c)) == weights, doc["label"]


def test_pinched_gluings_are_rejected(gluings, corpus):
    rng = random.Random(5)
    docs = [doc for doc, _ in gluings] + [complex_to_dict(c) for c in corpus] * 3
    pinched = [p for p in (pinch_two_pairs(doc, rng) for doc in docs) if p is not None]
    assert len(pinched) >= 20
    for doc in pinched:
        with pytest.raises(ComplexError, match="pinched"):
            complex_from_dict(doc)


def test_rotations_ignore_face_direction_and_end_order(corpus):
    rng = random.Random(7)
    for c in corpus:
        for _ in range(5):
            doc = complex_to_dict(c)
            for item in doc["faces"]:
                k = rng.randrange(len(item["edge_cycle"]))
                item["edge_cycle"] = item["edge_cycle"][k:] + item["edge_cycle"][:k]
                if rng.random() < 0.5:
                    item["edge_cycle"].reverse()
            for item in doc["edges"]:
                if rng.random() < 0.5:
                    item["ends"].reverse()
            back = complex_from_dict(doc)
            assert {v: normalize_cycle(r) for v, r in back.rotations.items()} == {
                v: normalize_cycle(r) for v, r in c.rotations.items()
            }, c.label


def test_one_vertex_torus_rotation():
    c = one_vertex_torus()
    assert c.rotations == {0: (0, 1, 0, 1)}
    # the same face with its loops side by side is a sphere with three vertices pinched
    with pytest.raises(ComplexError, match="pinched.*also read reversed"):
        SurfaceComplex(1, [0], {0: (0, 0), 1: (0, 0)}, {0: (0, 0, 1, 1)})


def bouquet_doc(k):
    """k one-vertex tori on one vertex, declared genus 1: every face is a piece
    and alternates, so the reading has 2k - 1 moves and vertex 0 stays pinched."""
    return {"genus": 1, "label": f"bouquet of {k} tori", "vertices": [0],
            "edges": [{"id": e, "ends": [0, 0]} for e in range(2 * k)],
            "faces": [{"id": i, "edge_cycle": [2 * i, 2 * i + 1] * 2} for i in range(k)]}


@pytest.mark.parametrize("k, message", [
    (8, "rotation; the faces no vertex orients were also read reversed$"),  # 15 moves, all tried
    (9, "rotation after 16 of the complex's 17 moves were tried reversed, the most the reading tries$"),
])
def test_a_bouquet_names_the_reversal_bound_only_past_it(k, message):
    with pytest.raises(ComplexError, match="^vertex 0 is pinched: it owns more than one " + message):
        complex_from_dict(bouquet_doc(k))


def test_check_rejects_a_large_bouquet_quickly(tmp_path):
    # 7,999 moves over 32,000 darts: trying every move walks every dart 7,999 times
    path = tmp_path / "bouquet.json"
    path.write_text(json.dumps(bouquet_doc(4000)))
    proc = subprocess.run([sys.executable, "-m", "atqc", "check", str(path)], capture_output=True,
                          text=True, timeout=20)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert "vertex 0 is pinched" in proc.stderr and "16 of the complex's 7999 moves" in proc.stderr


# -- malformed documents ---------------------------------------------------

JUNK = ["x", None, 1.5, True, [], {}, -1, 10**6, [0, 1, 2]]


def junk(rng, *extra):
    """A copy of a random junk value, so that later damage cannot alter JUNK."""
    return copy.deepcopy(rng.choice(JUNK + list(extra)))


def mutate(doc, rng):
    """One random damage: a wrong type, a missing or extra id, a reversed
    cycle or a deleted item, anywhere in the document."""
    key = rng.choice(["genus", "label", "vertices", "edges", "faces", "top"])
    if key == "top":
        if rng.random() < 0.5:
            doc.pop(rng.choice(sorted(doc)))
        else:
            doc["extra"] = 0
        return
    if key in ("genus", "label") or not isinstance(doc.get(key), list) or not doc[key]:
        doc[key] = junk(rng)
        return
    items = doc[key]
    i = rng.randrange(len(items))
    kind = rng.randrange(6)
    if kind == 0:
        del items[i]
    elif kind == 1:
        items.append(copy.deepcopy(items[i]))
    elif kind == 2 or key == "vertices" or not isinstance(items[i], dict):
        items[i] = junk(rng, rng.randrange(-2, 3 * len(items)))
    else:
        item = items[i]
        field = rng.choice(sorted(item) + ["extra"])
        value = item.get(field)
        if kind == 3 and isinstance(value, list):
            value.reverse()
        elif kind == 4 and isinstance(value, list) and value:
            value[rng.randrange(len(value))] = junk(rng, rng.randrange(-2, 100))
        elif kind == 5 and isinstance(value, list) and value:
            del value[rng.randrange(len(value))]
        elif rng.random() < 0.3:
            item.pop(field, None)
        else:
            item[field] = junk(rng, rng.randrange(-2, 100))


DOCUMENT_KEYS = {"genus", "label", "vertices", "edges", "faces"}


def reference_from_dict(doc):
    """complex_from_dict with its edge and face entries read one by one, as
    before the bulk type check: the messages that check must keep."""
    if not isinstance(doc, dict):
        raise ComplexError("complex document must be a JSON object")
    unknown = set(doc) - DOCUMENT_KEYS
    if unknown:
        raise ComplexError(f"unknown key {min(unknown)!r} in complex document")
    missing = DOCUMENT_KEYS - set(doc)
    if missing:
        raise ComplexError(f"missing key {min(missing)!r} in complex document")
    for key in ("vertices", "edges", "faces"):
        if not isinstance(doc[key], list):
            raise ComplexError(f"{key} must be a list")
    vertices = [reference_id(v, "vertex id") for v in doc["vertices"]]
    edges = {}
    for item in doc["edges"]:
        if not isinstance(item, dict) or set(item) != {"id", "ends"}:
            raise ComplexError("edge entries must have exactly the keys 'id' and 'ends'")
        eid = reference_id(item["id"], "edge id")
        if eid in edges:
            raise ComplexError(f"duplicate edge id {eid}")
        if not isinstance(item["ends"], list):
            raise ComplexError(f"edge {eid} must have exactly two ends")
        edges[eid] = [reference_id(v, "edge end") for v in item["ends"]]
    faces = {}
    for item in doc["faces"]:
        if not isinstance(item, dict) or set(item) != {"id", "edge_cycle"}:
            raise ComplexError("face entries must have exactly the keys 'id' and 'edge_cycle'")
        fid = reference_id(item["id"], "face id")
        if fid in faces:
            raise ComplexError(f"duplicate face id {fid}")
        if not isinstance(item["edge_cycle"], list):
            raise ComplexError(f"face {fid} edge_cycle must be a list")
        faces[fid] = [reference_id(e, "face edge") for e in item["edge_cycle"]]
    return SurfaceComplex(doc["genus"], vertices, edges, faces, doc["label"])


def reference_id(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ComplexError(f"{what} must be an integer, got {value!r}")
    return value


def outcome(load, doc):
    """The loaded complex's fields, or the message it was refused with."""
    try:
        c = load(doc)
    except ComplexError as exc:
        return str(exc)
    return c.genus, c.label, c.vertices, c.edges, c.faces, c.rotations


def test_bulk_entry_check_keeps_every_message(corpus):
    rng = random.Random(20)
    small = [c for c in corpus if c.num_edges <= 48] + [one_vertex_torus()]
    bases = [complex_to_dict(c) for c in small]
    rejected = 0
    for _ in range(4000):
        doc = copy.deepcopy(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            mutate(doc, rng)
        doc = json.loads(json.dumps(doc))
        expected = outcome(reference_from_dict, doc)
        assert outcome(complex_from_dict, doc) == expected
        rejected += isinstance(expected, str)
    assert rejected > 3000


def test_bulk_entry_check_keeps_the_message_of_each_junk_value():
    # mutate seldom puts junk in place of a whole list, so every field of the
    # first and last entry gets each junk value here, and each list member too
    base = complex_to_dict(build_square_torus(SquareTorusSpec(2)))
    fields = [("edges", "id"), ("edges", "ends"), ("faces", "id"), ("faces", "edge_cycle")]
    for (key, field), i, value, member in itertools.product(
        fields, (0, -1), JUNK, (False, True)
    ):
        doc = copy.deepcopy(base)
        if member and field != "id":
            doc[key][i][field][0] = copy.deepcopy(value)
        else:
            doc[key][i][field] = copy.deepcopy(value)
        assert outcome(complex_from_dict, doc) == outcome(reference_from_dict, doc)


class Entry(dict):
    pass


class Id(int):
    pass


@pytest.mark.parametrize(
    "change",
    [
        lambda doc: doc["edges"].__setitem__(0, Entry(doc["edges"][0])),
        lambda doc: doc["faces"].__setitem__(2, Entry(doc["faces"][2])),
        lambda doc: doc["edges"][3].update(id=Id(doc["edges"][3]["id"])),
        lambda doc: doc["faces"][1].update(id=Id(doc["faces"][1]["id"])),
        lambda doc: doc["edges"][5].update(ends=[Id(x) for x in doc["edges"][5]["ends"]]),
        lambda doc: doc["faces"][0].update(edge_cycle=[Id(e) for e in doc["faces"][0]["edge_cycle"]]),
        lambda doc: doc["vertices"].__setitem__(0, Id(doc["vertices"][0])),
    ],
)
def test_subclassed_entries_and_ids_are_accepted(change):
    doc = complex_to_dict(build_square_torus(SquareTorusSpec(3)))
    expected = outcome(complex_from_dict, doc)
    change(doc)
    assert outcome(complex_from_dict, doc) == expected == outcome(reference_from_dict, doc)


def test_mutated_documents_raise_only_complex_error(corpus):
    rng = random.Random(99)
    small = [c for c in corpus if c.num_edges <= 48] + [one_vertex_torus()]
    bases = [complex_to_dict(c) for c in small]
    rejected = 0
    for _ in range(4000):
        doc = copy.deepcopy(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            mutate(doc, rng)
        try:
            load_complex(io.StringIO(json.dumps(doc)))
        except ComplexError:
            rejected += 1
    assert rejected > 3000


# -- what validation reads ---------------------------------------------------


def reading(doc):
    """The dense index, rotations and degenerate faces a document loads as,
    or the message it is refused with."""
    try:
        c = complex_from_dict(doc)
    except ComplexError as exc:
        return str(exc)
    ix = c.index
    return (ix.edge_ids, ix.bit, ix.vertex_ids, ix.face_ids, ix.ends, ix.alpha, ix.phi,
            ix.dart_vertex, ix.dart_face, c.rotations, c.degenerate_faces)


def reading_corpus(gluings, corpus):
    """About 3,000 seeded documents: the test corpus, the hand-made faults,
    the gluings with reflected and pinched copies, merges with their duals,
    and damaged copies of the small ones."""
    rng = random.Random(24)
    docs = [complex_to_dict(c) for c in corpus + [one_vertex_torus()]]
    docs += [two_tori_sharing_two_vertices(), pinched_torus_doc()]
    docs += [twisted_grid_doc(side, twist) for side in (3, 4, 5) for twist in (True, False)]
    glued = [doc for doc, _ in gluings]
    small = [doc for doc in docs + glued if len(doc["edges"]) <= 48]
    docs += glued + reflected(glued, rng)
    docs += [p for p in (pinch_two_pairs(doc, rng) for doc in glued) if p is not None]
    merges = [c for seed in (41, 42, 43, 44) for c in random_merges(seed)]
    docs += [complex_to_dict(c) for c in merges + [dual_complex(c) for c in merges]]
    for _ in range(2300):
        doc = copy.deepcopy(rng.choice(small))
        for _ in range(rng.randint(1, 3)):
            mutate(doc, rng)
        docs.append(doc)
    return docs


# SHA-256 of every reading of reading_corpus, pinned when the reader moved to
# dense numbers and re-pinned, with the same readings, when the index's
# endpoint arrays replaced each edge's first dart; a change to any reading or
# message must update it on purpose
READINGS_SHA256 = "79fea289f565d8d24622018c24397d54e903caf069777cbe46a8d0a6e6fc475a"


def test_readings_are_pinned(gluings, corpus):
    docs = reading_corpus(gluings, corpus)
    readings = list(map(reading, docs))
    assert len(docs) > 3000 and sum(isinstance(r, str) for r in readings) > 1500
    digest = hashlib.sha256()
    for r in readings:
        digest.update(repr(r).encode())
    assert digest.hexdigest() == READINGS_SHA256


def relabelled(doc, new):
    """The document's complex with every id x renamed new(x)."""
    return SurfaceComplex(
        doc["genus"],
        [new(v) for v in doc["vertices"]],
        {new(item["id"]): tuple(map(new, item["ends"])) for item in doc["edges"]},
        {new(item["id"]): tuple(map(new, item["edge_cycle"])) for item in doc["faces"]},
        doc["label"],
    )


@pytest.mark.parametrize("new", [lambda x: f"id{x:06d}", lambda x: (x // 7, -1, x % 7)],
                         ids=["str", "tuple"])
def test_readings_ignore_order_preserving_relabelling(new, gluings, corpus):
    merges = [c for seed in (41, 42, 43) for c in random_merges(seed)]
    docs = [complex_to_dict(c) for c in corpus + merges]
    docs += reflected([doc for doc, _ in gluings], random.Random(6))
    for doc in docs:
        c, r = complex_from_dict(doc), relabelled(doc, new)
        a, b = c.index, r.index
        assert (b.ends, b.alpha, b.phi, b.dart_vertex, b.dart_face) == (
            a.ends, a.alpha, a.phi, a.dart_vertex, a.dart_face), doc["label"]
        assert (b.vertex_ids, b.edge_ids, b.face_ids) == tuple(
            tuple(map(new, ids)) for ids in (a.vertex_ids, a.edge_ids, a.face_ids))
        assert r.rotations == {
            new(v): tuple(map(new, ring)) for v, ring in c.rotations.items()}, doc["label"]
        assert r.degenerate_faces == tuple(map(new, c.degenerate_faces))


def test_the_one_vertex_torus_loads_with_its_vertex_named_none():
    # the one-vertex torus relabelled, in a child process with a timeout and an
    # address-space cap, so that an id read as the mark of an unowned dart
    # fails here instead of hanging
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
        "from atqc.complexes import SurfaceComplex\n"
        "c = SurfaceComplex(1, [None], {0: (None, None), 1: (None, None)}, {0: (0, 1, 0, 1)})\n"
        "print(c.rotations, c.index.dart_vertex, c.degenerate_faces)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stdout) == (0, "{None: (0, 1, 0, 1)} [0, 0, 0, 0] (0,)\n")
