import functools
import itertools
import operator
import random

import pytest
from gluings import random_gluing

from atqc import homology
from atqc.binmat import BinaryMatrix, RowBasis
from atqc.complexes import complex_from_dict, dual_complex
from atqc.errors import InputError, IntegrityError
from atqc.homology import (
    betti1,
    boundary_matrices,
    cocycle_basis,
    cycle_cocycle_bases,
    edges_to_mask,
    homology_signature,
    is_cycle,
    mask_to_edges,
)
from atqc.torus import HexTorusSpec, SquareTorusSpec, build_hex_torus, build_square_torus
from test_binmat import parity
from test_index import face_rows, star_rows
from test_irregular import one_vertex_torus, random_merges


def test_d1_d2_zero_everywhere(corpus):
    for c in corpus:
        cc = boundary_matrices(c)
        assert (cc.d1 @ cc.d2).is_zero()


def test_degenerate_hex_has_zero_d2():
    cc = boundary_matrices(build_hex_torus(HexTorusSpec("apothem", 1)))
    assert cc.d2.is_zero()


def test_square3_column_weights():
    cc = boundary_matrices(build_square_torus(SquareTorusSpec(3)))
    d2_cols = cc.d2.transpose()
    assert all(row.bit_count() == 4 for row in d2_cols.data)
    d1_cols = cc.d1.transpose()
    assert all(row.bit_count() == 2 for row in d1_cols.data)


def test_global_rank_dependencies(corpus):
    # the premise of the rank-free betti1: rank(d1) = |V| - 1 and rank(d2) =
    # |F| - 1 on every valid complex, degenerate faces and loops included, so
    # elimination and the tree/co-tree certificate agree
    merges = [c for seed in range(41, 45) for c in random_merges(seed)]
    for c in corpus + [one_vertex_torus()] + merges:
        cc = boundary_matrices(c)
        r1, r2 = cc.d1.rank(), cc.d2.rank()
        assert (r1, r2) == (c.num_vertices - 1, c.num_faces - 1), c.label
        assert c.num_edges - r1 - r2 == betti1(c) == 2 * c.genus, c.label


@pytest.mark.parametrize(
    "build,expected",
    [
        (lambda: build_square_torus(SquareTorusSpec(4)), 2),
        (lambda: build_hex_torus(HexTorusSpec("apothem", 2)), 2),
        (lambda: build_hex_torus(HexTorusSpec("apothem", 1)), 2),
    ],
)
def test_betti1_examples(build, expected):
    assert betti1(build()) == expected


def test_betti1_ingested(ingested_genus2):
    assert betti1(ingested_genus2) == 4


def test_betti1_equals_2g_everywhere(corpus):
    for c in corpus:
        assert betti1(c) == 2 * c.genus


def test_cocycle_properties(corpus):
    for c in corpus:
        cocycles = cocycle_basis(c)
        assert len(cocycles) == 2 * c.genus
        faces = face_rows(c)
        for coc in cocycles:
            assert all(parity(b & coc) == 0 for b in faces)
        cycles, cocycles2 = cycle_cocycle_bases(c)
        assert cocycles2 == cocycles
        for i, cyc in enumerate(cycles):
            assert is_cycle(c, cyc)
            for j, coc in enumerate(cocycles):
                assert parity(cyc & coc) == (1 if i == j else 0)


def test_signature_words_hold_the_bases(corpus):
    # bit i of words[0][e]: cocycle i holds edge e; of words[1][e]: cycle i does
    for c in corpus:
        bases = cocycle_basis(c), cocycle_basis(c, dual=True)  # fills c.index.sides
        for (_, word), basis in zip(c.index.sides, bases):
            assert len(word) == c.num_edges
            for i, m in enumerate(basis):
                for e in range(c.num_edges):
                    assert (word[e] >> i) & 1 == (m >> e) & 1


def _open_walks(monkeypatch, tree_nodes: int) -> None:
    """Each walk over a tree on ``tree_nodes`` nodes drops its leftover edge, so
    it closes no cycle (primal tree) or cocycle (co-tree)."""
    close = homology._close

    def open_walk(x, ends, up):
        mask = close(x, ends, up)
        if len(up) == tree_nodes:
            mask ^= 1 << x
        return mask

    monkeypatch.setattr(homology, "_close", open_walk)


def _certificate_fails(c, message: str) -> None:
    with pytest.raises(IntegrityError, match=message):
        cycle_cocycle_bases(c)
    assert (c.index.sides, c.index.bases) == (None, None)  # nothing half-checked is kept


def test_certificate_rejects_a_cocycle_odd_on_a_face(monkeypatch):
    c = build_hex_torus(HexTorusSpec("apothem", 2))  # |V| = 2|F| tells the trees apart
    _open_walks(monkeypatch, c.num_faces)
    _certificate_fails(c, r"^cocycle [01] meets face \d+ boundary an odd number of times$")


def test_certificate_rejects_a_pairing_that_is_not_the_identity(monkeypatch):
    c = build_hex_torus(HexTorusSpec("apothem", 2))
    _open_walks(monkeypatch, c.num_vertices)
    _certificate_fails(c, "^cycle/cocycle pairing matrix is not the identity$")


def test_certificate_rejects_a_wrong_leftover_count(monkeypatch):
    c = build_hex_torus(HexTorusSpec("apothem", 2))
    monkeypatch.setattr(c, "genus", 2)
    _certificate_fails(c, "^tree/co-tree leaves 2 edges, expected 4$")


@pytest.mark.parametrize(
    "co_tree, message",
    [
        (False, "^primal graph is not connected$"),
        (True, "^dual graph minus the spanning tree is not connected$"),
    ],
)
def test_bases_reject_a_tree_that_does_not_span(monkeypatch, co_tree, message):
    # the co-tree call is the one that skips the primal tree's edges
    bfs_tree = homology._bfs_tree

    def short_tree(adjacency, skip=()):
        up = bfs_tree(adjacency, skip)
        if bool(skip) == co_tree:
            up[-1] = None
        return up

    monkeypatch.setattr(homology, "_bfs_tree", short_tree)
    _certificate_fails(build_hex_torus(HexTorusSpec("apothem", 2)), message)


def test_boundary_matrices_reject_a_nonzero_product(monkeypatch):
    build_css = homology.build_css

    def flipped(c):
        code = build_css(c)
        hz = code.hz
        return code._replace(hz=BinaryMatrix(hz.rows, hz.cols, [hz.data[0] ^ 1, *hz.data[1:]]))

    monkeypatch.setattr(homology, "build_css", flipped)
    with pytest.raises(IntegrityError, match=r"^d1 \. d2 != 0; boundary construction is broken$"):
        boundary_matrices(build_square_torus(SquareTorusSpec(3)))


def test_square3_cocycles_are_parallel_edge_cuts():
    c = build_square_torus(SquareTorusSpec(3))
    cocs = [mask_to_edges(c, m) for m in cocycle_basis(c)]
    # one cut of 3 parallel horizontal edges, one of 3 parallel vertical edges
    assert sorted(map(len, cocs)) == [3, 3]
    h_edges = {e for e in c.edges if e < 9}
    assert any(set(coc) <= h_edges for coc in cocs)
    assert any(set(coc) & h_edges == set() for coc in cocs)


def test_face_boundaries_lie_in_check_row_space():
    from atqc.binmat import RowBasis

    cc = boundary_matrices(build_square_torus(SquareTorusSpec(2)))
    d2t = cc.d2.transpose()
    rows = RowBasis(d2t.data)
    for row in d2t.data:
        assert rows.contains(row)


def test_signature_of_face_boundary_is_zero(corpus):
    for c in corpus:
        for b in face_rows(c):
            assert homology_signature(c, b) == 0


def test_signature_of_horizontal_row_nonzero():
    c = build_square_torus(SquareTorusSpec(3))
    row = edges_to_mask(c, [0, 1, 2])  # the horizontal loop through row 0
    assert is_cycle(c, row)
    assert homology_signature(c, row) != 0


def test_signature_additive_on_homologous_cycles():
    c = build_square_torus(SquareTorusSpec(3))
    row0 = edges_to_mask(c, [0, 1, 2])
    row1 = edges_to_mask(c, [3, 4, 5])  # homologous horizontal loop
    assert homology_signature(c, row0) == homology_signature(c, row1)
    assert homology_signature(c, row0 ^ row1) == 0


def test_signature_rejects_non_cycles():
    c = build_square_torus(SquareTorusSpec(3))
    with pytest.raises(InputError):
        homology_signature(c, edges_to_mask(c, [0]))


def test_signature_zero_iff_boundary_exhaustive(corpus):
    # enumerate all of ker(d1) for every corpus complex with |E| <= 14
    for c in corpus:
        if c.num_edges > 14:
            continue
        cc = boundary_matrices(c)
        boundary_space = RowBasis(cc.d2.transpose().data)
        kernel = cc.d1.kernel_basis()
        for picks in itertools.product([0, 1], repeat=len(kernel)):
            v = 0
            for take, vec in zip(picks, kernel):
                if take:
                    v ^= vec
            trivial = boundary_space.contains(v)
            assert (homology_signature(c, v) == 0) == trivial


def signature_by_parity(c, cycle, dual):
    """The per-cocycle loop homology_signature ran before it read the signature
    words: bit i is the cycle's parity against cocycle i."""
    sig = 0
    for i, coc in enumerate(cocycle_basis(c, dual)):
        if parity(cycle & coc):
            sig |= 1 << i
    return sig


def test_signature_equals_the_parity_against_each_cocycle(corpus):
    # each basis cycle, then seeded sums of them plus boundaries (face rows on
    # the primal side, vertex stars on the dual side)
    rng = random.Random(25)
    for c in corpus:
        for dual, boundaries in ((False, face_rows(c)), (True, star_rows(c))):
            basis = cycle_cocycle_bases(c)[1 if dual else 0]
            sums = []
            for _ in range(20):
                picked = [m for m in (*basis, *boundaries) if rng.getrandbits(1)]
                sums.append(functools.reduce(operator.xor, picked, 0))
            seen = set()
            for cycle in (*basis, *sums):
                sig = homology_signature(c, cycle, dual)
                assert sig == signature_by_parity(c, cycle, dual), (c.label, dual, cycle)
                seen.add(sig)
            assert len(seen) > len(basis), (c.label, dual)


def test_cocycle_basis_of_dual_pairs_with_dual_cycles():
    c = build_hex_torus(HexTorusSpec("apothem", 2))
    d = dual_complex(c)
    assert len(cocycle_basis(d)) == 2


def odd_cells(c, mask, dual):
    """Vertices (faces if dual) an edge set meets an odd number of times, by
    counting ends (face slots) mod 2; bit i of mask is the i-th smallest edge id."""
    order = sorted(c.edges)
    edges = [e for i, e in enumerate(order) if mask >> i & 1]
    if dual:
        return [f for f, cyc in c.faces.items() if sum(map(cyc.count, edges)) % 2]
    return [v for v in c.vertices if sum(c.edges[e].count(v) for e in edges) % 2]


def test_is_cycle_against_counted_ends(corpus):
    # loops, multi-edges and faces that run an edge twice: gluings, merges,
    # the one-vertex torus and hex apothem 1
    rng = random.Random(2105)
    gluings = [complex_from_dict(random_gluing(rng)[0]) for _ in range(300)]
    merges = [c for seed in range(41, 61) for c in random_merges(seed)]
    extra = [one_vertex_torus(), build_hex_torus(HexTorusSpec("apothem", 1))]
    seen = set()
    for c in corpus + gluings + merges + extra:
        n = c.num_edges
        cycles = (*cycle_cocycle_bases(c)[0], *face_rows(c))  # closed on the primal side
        for _ in range(4):
            closed = rng.choice(cycles) ^ rng.choice(cycles)
            for mask in (rng.getrandbits(n), closed, closed ^ 1 << rng.randrange(n)):
                for dual in (False, True):
                    expected = not odd_cells(c, mask, dual)
                    assert is_cycle(c, mask, dual) == expected, (c.label, mask, dual)
                    seen.add((dual, expected))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_edge_masks_and_ids_outside_the_complex_are_input_errors():
    c = build_square_torus(SquareTorusSpec(3))  # n = 18
    w = edges_to_mask(c, [0, 1, 2])
    for mask in (-1, 1 << 18, w | 1 << 18):
        with pytest.raises(InputError, match=r"not a set of the complex's edges 0\.\.17"):
            mask_to_edges(c, mask)
        for dual in (False, True):
            with pytest.raises(InputError, match="not a set"):
                is_cycle(c, mask, dual)
            with pytest.raises(InputError, match="not a set"):
                homology_signature(c, mask, dual)
    assert mask_to_edges(c, (1 << 18) - 1) == tuple(range(18))
    for ids, bad in (([999], "999"), ([0, 1, "x"], "'x'"), ([[0]], r"\[0\]")):
        with pytest.raises(InputError, match=f"^edge {bad} is not an edge of the complex$"):
            edges_to_mask(c, ids)


def test_a_float_edge_mask_is_an_input_error():
    c = build_square_torus(SquareTorusSpec(3))
    with pytest.raises(InputError, match="not a set of the complex's edges"):
        mask_to_edges(c, 3.0)
    for dual in (False, True):
        with pytest.raises(InputError, match="not a set of the complex's edges"):
            is_cycle(c, 3.0, dual)
        with pytest.raises(InputError, match="not a set of the complex's edges"):
            homology_signature(c, 3.0, dual)


def test_a_bool_edge_mask_is_an_input_error():
    # True == 1, but a bool names no set of edges
    c = build_square_torus(SquareTorusSpec(3))
    for mask in (True, False):
        with pytest.raises(InputError, match="not a set of the complex's edges"):
            mask_to_edges(c, mask)
        with pytest.raises(InputError, match="not a set of the complex's edges"):
            is_cycle(c, mask)
    assert mask_to_edges(c, 1) == (0,)


def test_edges_to_mask_of_a_non_iterable_is_an_input_error():
    c = build_square_torus(SquareTorusSpec(3))
    for ids in (5, None, 2.5):
        with pytest.raises(InputError, match=f"^edge ids must be an iterable of ids, got {ids}$"):
            edges_to_mask(c, ids)
    assert edges_to_mask(c, iter([0, 2])) == 0b101
