"""The per-complex index against a recomputation that does not use it.

Every reference value below is rebuilt from ``c.edges``/``c.faces`` alone,
with formulas that differ from the index's own (counts mod 2 instead of
running XORs, a scan of every face slot instead of one pass per face).
"""
import io
import random
import sys
import threading
import tracemalloc

import pytest

from atqc import cli
from atqc.binmat import BinaryMatrix
from atqc.complexes import SurfaceComplex, dual_complex, load_complex, save_complex
from atqc.distance import code_distances
from atqc.homology import (
    betti1,
    boundary_matrices,
    cocycle_basis,
    cycle_cocycle_bases,
    edges_to_mask,
    mask_to_edges,
)
from atqc.stabilizer import build_css
from atqc.torus import HexTorusSpec, SquareTorusSpec, build_hex_torus, build_square_torus
from test_irregular import edge_slots, merge_across, one_vertex_torus


def merged_complexes():
    """The merged complexes test_irregular.py checks, in the same order."""
    out = [merge_across(build_square_torus(SquareTorusSpec(3)), e) for e in (0, 4, 9, 13)]
    out += [merge_across(build_hex_torus(HexTorusSpec("apothem", 2)), e) for e in (0, 5, 11)]
    rng = random.Random(41)
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
        out.append(c)
    return out


def face_rows(c):
    """Each face's boundary, bit by edge position in ascending id order: the
    edges it runs an odd number of times."""
    order = sorted(c.edges)
    return [
        sum(1 << order.index(e) for e in set(c.faces[f]) if c.faces[f].count(e) % 2)
        for f in sorted(c.faces)
    ]


def star_rows(c):
    """Each vertex's star: the edges with it at an odd number of ends."""
    order = sorted(c.edges)
    return [
        sum(1 << order.index(e) for e, ends in c.edges.items() if ends.count(v) % 2)
        for v in sorted(c.vertices)
    ]


@pytest.fixture(scope="module")
def complexes(corpus):
    extra = [one_vertex_torus(), build_hex_torus(HexTorusSpec("apothem", 1))]
    return corpus + extra + merged_complexes()


def test_index_equals_recomputation(complexes):
    for c in complexes:
        ix = c.index
        order, vertices, faces = sorted(c.edges), sorted(c.vertices), sorted(c.faces)
        assert ix.edge_ids == tuple(order), c.label
        assert ix.bit == {e: order.index(e) for e in c.edges}
        assert ix.vertex_ids == tuple(vertices)
        assert ix.face_ids == tuple(faces)
        code = build_css(c)
        assert code.hx.data == face_rows(c)
        assert code.hz.data == star_rows(c)
        # dart d is the d-th face slot in (face id, position) order
        darts = [(f, t) for f in faces for t in range(len(c.faces[f]))]
        assert len(ix.alpha) == len(ix.dart_vertex) == len(ix.dart_face) == len(darts)
        # ends: each edge's stored ends as dense vertices, and the dense faces
        # of its two slots in (face id, position) order
        assert tuple(map(len, ix.ends)) == (len(order), len(order))
        dart_of = {slot: d for d, slot in enumerate(darts)}
        for e, (u, v), face_pair in zip(order, *ix.ends):
            assert (ix.vertex_ids[u], ix.vertex_ids[v]) == c.edges[e], (c.label, e)
            slots = sorted(
                (f, t) for f, cyc in c.faces.items() for t, x in enumerate(cyc) if x == e
            )
            assert [ix.face_ids[i] for i in face_pair] == [f for f, _ in slots], (c.label, e)
            pair = [dart_of[slot] for slot in slots]
            assert ix.alpha[pair[0]] == pair[1] and ix.alpha[pair[1]] == pair[0]
            assert sorted(ix.vertex_ids[ix.dart_vertex[x]] for x in pair) == sorted(c.edges[e])
        for d, (f, t) in enumerate(darts):
            assert 0 <= ix.dart_vertex[d] < len(vertices)
            assert ix.vertex_ids[ix.dart_vertex[d]] in c.edges[c.faces[f][t]]
            assert ix.dart_face[d] == faces.index(f)
        every = (1 << len(order)) - 1
        assert edges_to_mask(c, order) == every
        assert mask_to_edges(c, every) == tuple(order)


def test_dual_shares_the_edge_order(complexes):
    for c in complexes:
        assert dual_complex(c).index.edge_ids == c.index.edge_ids


def test_algebra_is_cached_on_the_index(complexes):
    for c in complexes:
        assert cocycle_basis(c) is cocycle_basis(c)
        assert cycle_cocycle_bases(c)[1] is cocycle_basis(c)
        assert build_css(c).hz == boundary_matrices(c).d1


def test_no_rank_and_no_dual_per_complex(monkeypatch):
    # betti1, k and both distances rest on the tree/co-tree certificate alone
    c = build_square_torus(SquareTorusSpec(4))
    calls = []
    rank = BinaryMatrix.rank

    def counting_rank(self):
        calls.append("rank")
        return rank(self)

    def counting_dual(c):
        calls.append("dual_complex")
        return dual_complex(c)

    monkeypatch.setattr(BinaryMatrix, "rank", counting_rank)
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "atqc"]:
        if hasattr(module, "dual_complex"):
            monkeypatch.setattr(module, "dual_complex", counting_dual)
    validate = SurfaceComplex._validate

    def counting_validate(self):  # any new complex, a dual built by other means too
        calls.append("complex")
        validate(self)

    monkeypatch.setattr(SurfaceComplex, "_validate", counting_validate)
    assert betti1(c) == betti1(c) == 2
    assert build_css(c).k == 2
    cocycle_basis(c)
    r = code_distances(c)
    assert (r.d_x, r.d_z) == (4, 4)
    assert calls == []


def test_export_builds_no_bases_and_check_no_product(monkeypatch, tmp_path, capsys):
    # build_css builds both check matrices from the darts; verify_stabilizers
    # reads each as its columns, with no product and no transpose
    path = str(tmp_path / "square4.json")
    assert cli.main(["build", "--square", "4", "--out", path]) == 0
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("__matmul__", "transpose"):
        monkeypatch.setattr(BinaryMatrix, name, counting(name, getattr(BinaryMatrix, name)))
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "atqc"]:
        for name in ("cycle_cocycle_bases", "boundary_matrices"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for format in ("alist", "dense-text", "json"):
        assert cli.main(["export", path, "--format", format, "--out", str(tmp_path / format)]) == 0
    assert calls == []
    assert cli.main(["check", path]) == 0
    assert '"ok": true' in capsys.readouterr().out
    assert (calls.count("__matmul__"), calls.count("transpose")) == (0, 0)
    assert "boundary_matrices" not in calls


def test_racing_threads_fill_equal_values():
    # more threads than cores, switching as often as the interpreter allows
    reference = build_hex_torus(HexTorusSpec("apothem", 3))
    expected = (
        boundary_matrices(reference).d2, betti1(reference), cycle_cocycle_bases(reference),
        reference.index.sides,
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            c = build_hex_torus(HexTorusSpec("apothem", 3))
            results = []
            start = threading.Barrier(8)

            def work():
                start.wait(timeout=10)
                # the sides are set before the bases: whoever sees the bases sees them
                results.append(
                    (boundary_matrices(c).d2, betti1(c), cycle_cocycle_bases(c), c.index.sides)
                )

            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert results == [expected] * 8
            assert cycle_cocycle_bases(c) == expected[2]
    finally:
        sys.setswitchinterval(interval)


def test_load_and_distances_grow_linearly():
    # the index and the search hold O(n) words: doubling the side (n x 4)
    # may not multiply the traced peak by more than 5; n-bit rows held per
    # face and per vertex multiply it by about 6.7
    peaks = []
    for side in (48, 96):
        buf = io.StringIO()
        save_complex(build_square_torus(SquareTorusSpec(side)), buf)
        text = buf.getvalue()
        tracemalloc.start()
        try:
            r = code_distances(load_complex(io.StringIO(text)))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (r.d_x, r.d_z) == (side, side)
    assert peaks[1] < 5 * peaks[0], peaks
