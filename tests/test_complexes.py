import io
import json
from collections.abc import Mapping

import pytest

from atqc.complexes import (
    SurfaceComplex,
    complex_from_dict,
    complex_to_dict,
    dual_complex,
    load_complex,
    save_complex,
)
from atqc.errors import ComplexError
from atqc.torus import HexTorusSpec, SquareTorusSpec, build_hex_torus, build_square_torus


def normalize_cycle(cycle):
    """Lexicographically minimal rotation/reflection of a cyclic sequence."""
    seq = tuple(cycle)
    return min(
        (base[k:] + base[:k] for base in (seq, seq[::-1]) for k in range(len(seq))),
        default=seq,
    )


def roundtrip(c):
    buf = io.StringIO()
    save_complex(c, buf)
    buf.seek(0)
    return load_complex(buf)


def test_normalize_cycle():
    assert normalize_cycle((3, 1, 2)) == (1, 2, 3)
    assert normalize_cycle((1, 3, 2)) == (1, 2, 3)
    assert normalize_cycle(()) == ()


def test_constructor_keeps_the_ids_it_is_given():
    c = SurfaceComplex(1, [0], {0: (0, 0), 1.9: (0, 0)}, {0: (0, 1.9, 0, 1.9)})
    assert list(c.edges) == [0, 1.9] and c.faces == {0: (0, 1.9, 0, 1.9)}
    assert c.index.edge_ids == (0, 1.9)


class NoIterator:
    """Iterable by its type, but its ``__iter__`` returns no iterator."""

    def __iter__(self):
        return 0


class UnhashableKey(Mapping):
    """A mapping whose one key, ``[1]``, cannot be hashed."""

    def __getitem__(self, key):
        return (0, 0)

    def __iter__(self):
        return iter([[1]])

    def __len__(self):
        return 1


# the one-vertex torus, with one argument of the constructor replaced
ONE_VERTEX = {"genus": 1, "vertices": [0], "edges": {0: (0, 0), 1: (0, 0)},
              "faces": {0: (0, 1, 0, 1)}, "label": ""}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"genus": 1.9}, "genus must be an integer, got 1.9"),
        ({"genus": "x"}, "genus must be an integer, got 'x'"),
        ({"genus": True}, "genus must be an integer, got True"),
        ({"label": None}, "label must be a string"),
        ({"edges": {0: (0, 0), "a": (0, 0)}, "faces": {0: (0, "a", 0, "a")}},
         "edge ids do not sort together"),
        ({"vertices": [0, "v"]}, "vertex ids do not sort together"),
        ({"faces": {0: (0, 1, 0, 1), "f": (0, 1, 0, 1)}}, "face ids do not sort together"),
        ({"edges": {0: (0,), 1: (0, 0)}}, "edge 0 must have exactly two ends"),
        ({"edges": {0: (0, 0), 1: (0, 0, 0)}}, "edge 1 must have exactly two ends"),
        ({"faces": {0: (0, 1, 0, 1), 1: ()}}, "face 1 has an empty edge cycle"),
        ({"edges": {0: 5}, "faces": {0: (0,)}}, "edge 0 is not a sequence of ids"),
        ({"faces": {0: 7}}, "face 0 is not a sequence of ids"),
        ({"vertices": [[0]]}, "vertex ids must be hashable"),
        ({"faces": {0: (0, 1, 0, [1])}}, "face 0 references unknown edge [1]"),
        ({"edges": {0: ([0], 0), 1: (0, 0)}}, "edge 0 references unknown vertex"),
        ({"vertices": 5}, "vertices must be iterable"),
        ({"edges": [(0, 0), (0, 0)]}, "edges must be a mapping"),
        ({"edges": None}, "edges must be a mapping"),
        ({"faces": [(0, 1, 0, 1)]}, "faces must be a mapping"),
        ({"faces": None}, "faces must be a mapping"),
        ({"vertices": NoIterator()}, "vertices must be iterable"),
        ({"edges": {0: (0, 0), 1: NoIterator()}}, "edge 1 is not a sequence of ids"),
        ({"faces": {0: NoIterator()}}, "face 0 is not a sequence of ids"),
        ({"edges": UnhashableKey()}, "edges and faces must map hashable ids to sequences of ids"),
    ],
)
def test_constructor_rejects_with_complex_error(change, message):
    with pytest.raises(ComplexError) as exc:
        SurfaceComplex(**{**ONE_VERTEX, **change})
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda doc: doc["edges"][0].update(ends=[0]), "edge 0 must have exactly two ends"),
        (lambda doc: doc["edges"][0].update(ends="ab"), "edge 0 must have exactly two ends"),
        (lambda doc: doc["faces"][1].update(edge_cycle=[]), "face 1 has an empty edge cycle"),
    ],
)
def test_document_faults_keep_their_messages(change, message):
    doc = complex_to_dict(build_square_torus(SquareTorusSpec(2)))
    change(doc)
    with pytest.raises(ComplexError) as exc:
        complex_from_dict(doc)
    assert str(exc.value) == message


def test_roundtrip_square_torus():
    c = build_square_torus(SquareTorusSpec(3))
    back = roundtrip(c)
    assert back.genus == c.genus and back.label == c.label
    assert back.edges == c.edges
    assert {f: normalize_cycle(cy) for f, cy in back.faces.items()} == {
        f: normalize_cycle(cy) for f, cy in c.faces.items()
    }
    # serialization is bit-exact on a second pass
    buf1, buf2 = io.StringIO(), io.StringIO()
    save_complex(back, buf1)
    save_complex(roundtrip(back), buf2)
    assert buf1.getvalue() == buf2.getvalue()


def one_vertex_torus(vertex=0, edges=(0, 1), face=0, ends=None, cycle=None):
    """The one-vertex torus under the given ids; ``ends`` and ``cycle`` replace edge 0's
    ends and the face's edge cycle."""
    a, b = edges
    return SurfaceComplex(1, [vertex], {a: ends or (vertex, vertex), b: (vertex, vertex)},
                          {face: cycle or (a, b, a, b)})


@pytest.mark.parametrize("what, bad, ids", [
    ("vertex id", "id000", {"vertex": "id000"}),
    ("vertex id", (0,), {"vertex": (0,)}),
    ("vertex id", None, {"vertex": None}),
    ("vertex id", True, {"vertex": True}),
    ("edge id", "a", {"edges": ("a", "b")}),
    ("edge id", (0,), {"edges": ((0,), (1,))}),
    ("edge id", True, {"edges": (0, True)}),
    ("face id", "f", {"face": "f"}),
    ("face id", (0,), {"face": (0,)}),
    ("face id", None, {"face": None}),
    ("face id", True, {"face": True}),
    # an end or a face edge equal to an int id, but not an int itself
    ("edge end", False, {"ends": (0, False)}),
    ("face edge", True, {"cycle": (0, True, 0, 1)}),
    ("face edge", 1.0, {"cycle": (0, 1.0, 0, 1)}),
])
def test_save_refuses_what_load_refuses_and_writes_nothing(what, bad, ids):
    c = one_vertex_torus(**ids)
    sink = io.StringIO()
    with pytest.raises(ComplexError) as exc:
        save_complex(c, sink)
    assert str(exc.value) == f"{what} must be an integer, got {bad!r}"
    assert sink.getvalue() == ""
    with pytest.raises(ComplexError, match="must be an integer"):
        load_complex(io.StringIO(json.dumps(complex_to_dict(c))))


def test_unknown_key_rejected():
    doc = complex_to_dict(build_square_torus(SquareTorusSpec(2)))
    doc["extra"] = 1
    with pytest.raises(ComplexError, match="unknown key"):
        complex_from_dict(doc)


def test_missing_key_rejected():
    doc = complex_to_dict(build_square_torus(SquareTorusSpec(2)))
    del doc["vertices"]
    with pytest.raises(ComplexError, match="missing key"):
        complex_from_dict(doc)


def test_malformed_json_rejected():
    with pytest.raises(ComplexError, match="malformed JSON"):
        load_complex(io.StringIO("{not json"))


def test_wrong_typed_fields_rejected():
    doc = complex_to_dict(build_square_torus(SquareTorusSpec(2)))
    doc["genus"] = "one"
    with pytest.raises(ComplexError, match="integer"):
        complex_from_dict(doc)
    doc = complex_to_dict(build_square_torus(SquareTorusSpec(2)))
    doc["edges"][0]["ends"] = [0.5, 1]
    with pytest.raises(ComplexError, match="integer"):
        complex_from_dict(doc)
    doc = complex_to_dict(build_square_torus(SquareTorusSpec(2)))
    doc["label"] = 7
    with pytest.raises(ComplexError, match="string"):
        complex_from_dict(doc)
    doc = complex_to_dict(build_square_torus(SquareTorusSpec(2)))
    doc["vertices"] = 4
    with pytest.raises(ComplexError, match="list"):
        complex_from_dict(doc)
    for cycle in (5, None):
        doc = complex_to_dict(build_square_torus(SquareTorusSpec(2)))
        doc["faces"][0]["edge_cycle"] = cycle
        with pytest.raises(ComplexError, match="edge_cycle must be a list"):
            complex_from_dict(doc)
    doc = complex_to_dict(build_square_torus(SquareTorusSpec(2)))
    doc["faces"] = {"0": []}
    with pytest.raises(ComplexError, match="list"):
        complex_from_dict(doc)


BAD_ID_SITES = {
    "genus": lambda doc: (doc, "genus"),
    "vertex id": lambda doc: (doc["vertices"], 2),
    "edge id": lambda doc: (doc["edges"][2], "id"),
    "edge end": lambda doc: (doc["edges"][2]["ends"], 1),
    "face id": lambda doc: (doc["faces"][2], "id"),
    "face edge": lambda doc: (doc["faces"][2]["edge_cycle"], 2),
}


@pytest.mark.parametrize("bad", [True, False, 1.0, "1", None])
@pytest.mark.parametrize("what", sorted(BAD_ID_SITES))
def test_each_bad_id_is_named(what, bad):
    doc = complex_to_dict(build_square_torus(SquareTorusSpec(2)))
    holder, key = BAD_ID_SITES[what](doc)
    holder[key] = bad
    with pytest.raises(ComplexError) as exc:
        complex_from_dict(doc)
    assert str(exc.value) == f"{what} must be an integer, got {bad!r}"


@pytest.mark.parametrize("what", ["vertex id", "edge end", "face edge"])
def test_first_bad_id_in_a_list_is_named(what):
    doc = complex_to_dict(build_square_torus(SquareTorusSpec(2)))
    ids, key = BAD_ID_SITES[what](doc)
    ids[key - 1], ids[key] = 2.0, "x"
    with pytest.raises(ComplexError) as exc:
        complex_from_dict(doc)
    assert str(exc.value) == f"{what} must be an integer, got 2.0"


def test_edge_with_unknown_vertex_rejected():
    doc = complex_to_dict(build_square_torus(SquareTorusSpec(2)))
    doc["edges"][0]["ends"] = [0, 99]
    with pytest.raises(ComplexError, match="unknown vertex"):
        complex_from_dict(doc)


def test_face_with_unknown_edge_rejected():
    doc = complex_to_dict(build_square_torus(SquareTorusSpec(2)))
    doc["faces"][0]["edge_cycle"][0] = 777
    with pytest.raises(ComplexError, match="unknown edge"):
        complex_from_dict(doc)


def test_removed_face_slot_rejected():
    doc = complex_to_dict(build_square_torus(SquareTorusSpec(2)))
    doc["faces"][0]["edge_cycle"] = doc["faces"][0]["edge_cycle"][1:]
    with pytest.raises(ComplexError, match="face-slots"):
        complex_from_dict(doc)


@pytest.mark.parametrize(
    "change, count",
    [("append", 3), ("replace-one", 1), ("replace-all", 0)],
)
def test_edge_slot_counts_other_than_two_rejected(change, count):
    # 2E + 1 darts; 2E darts with one unpaired; 2E darts, all paired, one edge unmet
    c = build_square_torus(SquareTorusSpec(2))
    a, b = sorted(c.edges)[:2]
    faces = {f: list(cyc) for f, cyc in c.faces.items()}
    slots = [(f, t) for f, cyc in faces.items() for t, e in enumerate(cyc) if e == a]
    if change == "append":
        faces[slots[0][0]].append(a)
    for f, t in slots[: {"append": 0, "replace-one": 1, "replace-all": 2}[change]]:
        faces[f][t] = b
    message = f"^edge {a} borders {count} face-slots, expected exactly 2$"
    with pytest.raises(ComplexError, match=message):
        SurfaceComplex(c.genus, c.vertices, c.edges, faces)


def test_wrong_genus_rejected():
    doc = complex_to_dict(build_square_torus(SquareTorusSpec(2)))
    doc["genus"] = 2
    with pytest.raises(ComplexError, match="Euler characteristic"):
        complex_from_dict(doc)


def test_disconnected_rejected():
    a = complex_to_dict(build_square_torus(SquareTorusSpec(2)))
    b = complex_to_dict(build_square_torus(SquareTorusSpec(2)))
    merged = {
        "genus": 1,
        "label": "two tori",
        "vertices": a["vertices"] + [v + 100 for v in b["vertices"]],
        "edges": a["edges"]
        + [{"id": e["id"] + 100, "ends": [v + 100 for v in e["ends"]]} for e in b["edges"]],
        "faces": a["faces"]
        + [
            {"id": f["id"] + 100, "edge_cycle": [e + 100 for e in f["edge_cycle"]]}
            for f in b["faces"]
        ],
    }
    with pytest.raises(ComplexError, match="connected"):
        complex_from_dict(merged)


def test_broken_face_chain_rejected():
    # a 2x2 torus face cycle reordered so consecutive edges cannot chain
    doc = complex_to_dict(build_square_torus(SquareTorusSpec(3)))
    cyc = doc["faces"][0]["edge_cycle"]
    doc["faces"][0]["edge_cycle"] = [cyc[0], cyc[2], cyc[1], cyc[3]]
    with pytest.raises(ComplexError, match="closed edge path"):
        complex_from_dict(doc)


@pytest.mark.parametrize(
    "builder,arg",
    [
        (lambda v: build_square_torus(SquareTorusSpec(v)), 2),
        (lambda v: build_square_torus(SquareTorusSpec(v)), 3),
        (lambda v: build_hex_torus(HexTorusSpec("apothem", v)), 1),
        (lambda v: build_hex_torus(HexTorusSpec("apothem", v)), 2),
        (lambda v: build_hex_torus(HexTorusSpec("edge", v)), 3),
    ],
)
def test_dual_is_involution_on_edges(builder, arg):
    c = builder(arg)
    d = dual_complex(c)
    assert sorted(d.edges) == sorted(c.edges)
    assert d.num_vertices == c.num_faces and d.num_faces == c.num_vertices
    assert d.genus == c.genus
    dd = dual_complex(d)
    assert sorted(dd.edges) == sorted(c.edges)
    assert sorted(dd.vertices) == sorted(c.vertices)
    assert sorted(dd.faces) == sorted(c.faces)
    # incidences are fully restored
    assert {e: tuple(sorted(ends)) for e, ends in dd.edges.items()} == {
        e: tuple(sorted(ends)) for e, ends in c.edges.items()
    }


def test_dual_of_hex2():
    d = dual_complex(build_hex_torus(HexTorusSpec("apothem", 2)))
    assert d.num_faces == 8 and d.num_vertices == 4 and d.num_edges == 12
    assert all(len(cy) == 3 for cy in d.faces.values())


def test_dual_of_square3_self_dual_shape():
    d = dual_complex(build_square_torus(SquareTorusSpec(3)))
    assert (d.num_vertices, d.num_edges, d.num_faces) == (9, 18, 9)
    assert all(len(cy) == 4 for cy in d.faces.values())


def test_ingested_file_roundtrip(ingested_genus2):
    back = roundtrip(ingested_genus2)
    assert back.edges == ingested_genus2.edges
    assert back.genus == 2
