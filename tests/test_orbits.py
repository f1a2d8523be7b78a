"""One BFS root per orbit: the orbit search against the all-roots search.

The automorphisms ``map_orbits`` finds are checked as dart permutations
that commute with alpha and phi, its roots against the orbits those
automorphisms generate, and the search over those roots against the
all-roots reference, on both sides.  A canonical walk, which shares no
code with ``map_orbits``, finds every automorphism of the shipped genus-2
complex, to show why the sweep stops there without one.
"""
import random

import pytest
from gluings import random_gluing
from reference_search import all_roots_shortest_nontrivial_cycle
from test_irregular import face_walk, random_merges

from atqc.complexes import SurfaceComplex, complex_from_dict
from atqc.distance import map_orbits, shortest_nontrivial_cycle
from atqc.errors import IntegrityError
from atqc.homology import cocycle_basis, homology_signature, is_cycle, mask_to_edges
from atqc.torus import HexTorusSpec, SquareTorusSpec, build_hex_torus, build_square_torus


def orbit_minima(generators, cell):
    """Smallest cell index of each orbit of the group the dart permutations generate."""
    images = [{cell[x]: cell[p[x]] for x in range(len(p))} for p in generators]
    seen, minima = set(), []
    for start in sorted(set(cell)):
        if start in seen:
            continue
        minima.append(start)
        seen.add(start)
        stack = [start]
        while stack:
            i = stack.pop()
            for image in images:
                if image[i] not in seen:
                    seen.add(image[i])
                    stack.append(image[i])
    return minima


def assert_orbits_sound(c):
    """Every automorphism found commutes with alpha and phi; roots are their orbit minima.

    The sweep tried every dart at the cell that ended it, so no automorphism
    takes cell 0 to the second root (faces only if the face sweep ran).
    """
    ix = c.index
    found, vertex_roots, face_roots = map_orbits(c)
    for psi in found:
        assert sorted(psi) == list(range(len(ix.alpha)))
        for perm in (ix.alpha, ix.phi):
            assert [psi[x] for x in perm] == [perm[y] for y in psi], c.label
    assert vertex_roots == orbit_minima(found, ix.dart_vertex)
    assert face_roots == orbit_minima(found, ix.dart_face)
    sides = ((ix.dart_vertex, vertex_roots), (ix.dart_face, face_roots if found else []))
    for cell, roots in sides:
        if len(roots) > 1:
            walk = canonical_walk(ix.alpha, ix.phi, cell.index(0))[1:]
            at_root = [d for d, i in enumerate(cell) if i == roots[1]]
            assert all(canonical_walk(ix.alpha, ix.phi, d)[1:] != walk for d in at_root), c.label


def differing_witnesses(c):
    """Both sides weigh as in the all-roots search; count witnesses that differ from it."""
    assert_orbits_sound(c)
    differ = 0
    for dual in (False, True):
        weight, witness = shortest_nontrivial_cycle(c, dual)
        reference_weight, reference_witness = all_roots_shortest_nontrivial_cycle(c, dual)
        assert weight == reference_weight == witness.bit_count(), (c.label, dual)
        assert is_cycle(c, witness, dual)
        assert homology_signature(c, witness, dual=dual) != 0
        differ += witness != reference_witness
    return differ


def report(what, complexes):
    differ = sum(map(differing_witnesses, complexes))
    print(f"{what}: {differ} of {2 * len(complexes)} witnesses differ from the all-roots search")


def test_orbit_search_matches_all_roots_on_corpus(corpus):
    report("corpus", corpus)


def test_orbit_search_matches_all_roots_on_gluings():
    rng = random.Random(20211)
    report("gluings", [complex_from_dict(random_gluing(rng)[0]) for _ in range(300)])


def test_orbit_search_matches_all_roots_on_merges():
    merges = [c for seed in range(41, 61) for c in random_merges(seed)]
    assert len(merges) == 240
    report("merges", merges)


@pytest.mark.parametrize(
    "build",
    [lambda l=l: build_square_torus(SquareTorusSpec(l)) for l in (2, 3, 5, 8, 16)]
    + [lambda xi=xi: build_hex_torus(HexTorusSpec("apothem", xi)) for xi in (1, 2, 4, 12)]
    + [lambda lam=lam: build_hex_torus(HexTorusSpec("edge", lam)) for lam in (3, 6, 9)],
    ids=[f"square-{l}" for l in (2, 3, 5, 8, 16)]
    + [f"hex-apothem-{xi}" for xi in (1, 2, 4, 12)]
    + [f"hex-edge-{lam}" for lam in (3, 6, 9)],
)
def test_torus_has_one_vertex_root_and_one_face_root(build):
    # relabelling changes the dense order, and with it the sweep's path
    for seed in range(8):
        c = relabelled(build(), random.Random(seed))
        assert map_orbits(c)[1:] == ([0], [0]), seed
        assert_orbits_sound(c)


def relabelled(c, rng):
    """c with its vertex, edge and face ids permuted at random, leaving gaps."""
    def new_ids(ids):
        return dict(zip(ids, rng.sample(range(3 * len(ids)), len(ids))))

    v, e, f = new_ids(c.vertices), new_ids(list(c.edges)), new_ids(list(c.faces))
    return SurfaceComplex(
        c.genus,
        [v[x] for x in c.vertices],
        {e[k]: (v[a], v[b]) for k, (a, b) in c.edges.items()},
        {f[k]: [e[x] for x in cycle] for k, cycle in c.faces.items()},
        label=c.label,
    )


def test_search_runs_from_the_orbit_roots():
    c = build_square_torus(SquareTorusSpec(4))
    c.index.orbits = ([], [5], [])
    assert shortest_nontrivial_cycle(c)[0] == 4
    with pytest.raises(IntegrityError, match="no nontrivial cycle"):
        shortest_nontrivial_cycle(c, dual=True)


def canonical_walk(alpha, phi, d):
    """The darts in the order a fixed walk from d meets them, and alpha and phi renumbered so.

    Two darts have equal renumberings exactly when an automorphism takes
    one to the other, and the two orders pair each dart with its image.
    """
    order, label = [d], {d: 0}
    for x in order:
        for y in (alpha[x], phi[x]):
            if y not in label:
                label[y] = len(order)
                order.append(y)
    return order, [label[alpha[x]] for x in order], [label[phi[x]] for x in order]


def double_cover(c, cocycle, interleave):
    """The Z2 cover of a loop-free complex along a cocycle.

    The lift of id x to sheet s is 2x + s if ``interleave``, else x on sheet
    0 and x + top on sheet 1, with top above every id.
    """
    top = 1 + max(*c.vertices, *c.edges, *c.faces)

    def lift(x, s):
        return 2 * x + s if interleave else x + top * s

    voltage = set(mask_to_edges(c, cocycle))
    edges = {
        lift(e, s): (lift(u, s), lift(v, s ^ (e in voltage)))
        for e, (u, v) in c.edges.items()
        for s in (0, 1)
    }
    faces = {}
    for f, cycle in c.faces.items():
        for start in (0, 1):
            s, lifted = start, []
            for x, e in zip(face_walk(c, f), cycle):
                lifted.append(lift(e, s if x == c.edges[e][0] else s ^ (e in voltage)))
                s ^= e in voltage
            faces[lift(f, start)] = lifted
    vertices = [lift(v, s) for v in c.vertices for s in (0, 1)]
    return SurfaceComplex(2 * c.genus - 1, vertices, edges, faces, label=f"cover of {c.label}")


def test_genus2_complex_gives_no_reduction(ingested_genus2):
    # its map has one automorphism besides the identity, but that one does
    # not take vertex 0 to vertex 1, so the sweep stops at vertex 1
    ix = ingested_genus2.index
    walks = [canonical_walk(ix.alpha, ix.phi, d) for d in range(len(ix.alpha))]
    identity, other = [w[0] for w in walks if w[1:] == walks[0][1:]]
    psi = dict(zip(identity, other))
    d = ix.dart_vertex.index(0)
    assert 1 not in {ix.dart_vertex[d], ix.dart_vertex[psi[d]]}
    found, vertex_roots, face_roots = map_orbits(ingested_genus2)
    assert found == []
    assert vertex_roots == list(range(ingested_genus2.num_vertices))
    assert face_roots == list(range(ingested_genus2.num_faces))


def test_covers_numbered_by_sheet_give_no_reduction(ingested_genus2):
    # vertex 1 is not in vertex 0's orbit, so the sweep stops at once
    for cocycle in cocycle_basis(ingested_genus2):
        cover = double_cover(ingested_genus2, cocycle, interleave=False)
        genus5 = double_cover(cover, cocycle_basis(cover)[0], interleave=False)
        for c in (cover, genus5):
            assert map_orbits(c) == ([], list(range(c.num_vertices)), list(range(c.num_faces)))
            assert differing_witnesses(c) == 0


def test_interleaved_cover_finds_its_deck_transformation(ingested_genus2):
    # vertex 1 is vertex 0 on the other sheet: the sheet swap is found, and
    # each vertex and face pairs with its twin
    for cocycle in cocycle_basis(ingested_genus2):
        cover = double_cover(ingested_genus2, cocycle, interleave=True)
        ix = cover.index
        (swap,), vertex_roots, face_roots = map_orbits(cover)
        assert [ix.dart_vertex[x] ^ 1 for x in range(len(swap))] == [
            ix.dart_vertex[y] for y in swap
        ]
        assert [swap[y] for y in swap] == list(range(len(swap)))
        assert vertex_roots == list(range(0, cover.num_vertices, 2))
        assert face_roots == list(range(0, cover.num_faces, 2))
        differing_witnesses(cover)
