"""Seeded random orientable polygon gluings, for checking validation and the dual.

A gluing is a pair of permutations of the darts 0..2m-1: phi, whose
cycles are the faces (each a run of consecutive darts), and alpha, a
fixed-point-free involution whose cycles are the edges.  The vertices are
the cycles of sigma = phi . alpha, so the surface is orientable by
construction and its genus follows from Euler's formula.  Loops and
multi-edges arise freely.

The document is written in one presentation: faces in phi order, face ids
ascending with their darts, and each edge's ``ends`` running along its
first slot (tail, then head).  Vertex and edge ids are shuffled, with gaps.
"""
from __future__ import annotations

import random


def _cycles(perm: list[int]) -> list[list[int]]:
    seen, out = set(), []
    for d in range(len(perm)):
        if d not in seen:
            cyc = []
            while d not in seen:
                seen.add(d)
                cyc.append(d)
                d = perm[d]
            out.append(cyc)
    return out


def random_gluing(rng: random.Random, genus=(1, 4), max_edges=12, max_faces=8):
    """(document, sigma-cycles as vertex id -> edge-id ring) of a random connected gluing."""
    while True:
        m = rng.randint(2, max_edges)
        n_faces = rng.randint(1, min(max_faces, 2 * m))
        cuts = sorted(rng.sample(range(1, 2 * m), n_faces - 1))
        bounds = list(zip([0] + cuts, cuts + [2 * m]))
        phi = [0] * (2 * m)
        for lo, hi in bounds:
            for d in range(lo, hi):
                phi[d] = d + 1 if d + 1 < hi else lo
        order = list(range(2 * m))
        rng.shuffle(order)
        alpha = [0] * (2 * m)
        for a, b in zip(order[0::2], order[1::2]):
            alpha[a], alpha[b] = b, a
        sigma = [phi[alpha[d]] for d in range(2 * m)]
        rings = _cycles(sigma)
        g, odd = divmod(2 - len(rings) + m - n_faces, 2)
        if odd or not genus[0] <= g <= genus[1] or not _connected(phi, alpha):
            continue
        vertex_ids = rng.sample(range(3 * len(rings)), len(rings))
        edge_ids = rng.sample(range(3 * m), m)
        tail = {d: vertex_ids[k] for k, ring in enumerate(rings) for d in ring}
        edge_of, edges = {}, {}
        for d in range(2 * m):
            if d < alpha[d]:  # the first slot: faces and positions ascend with d
                e = edge_ids[len(edges)]
                edge_of[d] = edge_of[alpha[d]] = e
                edges[e] = (tail[d], tail[phi[d]])
        doc = {
            "genus": g,
            "label": f"gluing m={m} F={n_faces} g={g}",
            "vertices": sorted(vertex_ids),
            "edges": [{"id": e, "ends": list(ends)} for e, ends in edges.items()],
            "faces": [
                {"id": f, "edge_cycle": [edge_of[d] for d in range(lo, hi)]}
                for f, (lo, hi) in enumerate(bounds)
            ],
        }
        return doc, {tail[ring[0]]: tuple(edge_of[d] for d in ring) for ring in rings}


def _connected(phi: list[int], alpha: list[int]) -> bool:
    seen, stack = {0}, [0]
    while stack:
        d = stack.pop()
        for x in (phi[d], alpha[d]):
            if x not in seen:
                seen.add(x)
                stack.append(x)
    return len(seen) == len(phi)


def pinch_two_pairs(doc: dict, rng: random.Random) -> dict | None:
    """Identify two disjoint pairs of vertices and add 1 to the genus.

    No face holds both vertices of a pair, so every face walk keeps its
    shape and each merged vertex owns two rotations in every reading of the
    faces, while Euler's formula still holds.  Returns None when the
    document has no two such pairs.
    """
    ends = {item["id"]: item["ends"] for item in doc["edges"]}
    cofacial = set()
    for item in doc["faces"]:
        on_face = {v for e in item["edge_cycle"] for v in ends[e]}
        cofacial |= {frozenset((a, b)) for a in on_face for b in on_face}
    vertices = list(doc["vertices"])
    pairs = [
        (a, b) for i, a in enumerate(vertices) for b in vertices[i + 1:]
        if frozenset((a, b)) not in cofacial
    ]
    rng.shuffle(pairs)
    for i, (a, b) in enumerate(pairs):
        for c, d in pairs[i + 1:]:
            if len({a, b, c, d}) == 4:
                merge = {b: a, d: c}
                return {
                    "genus": doc["genus"] + 1,
                    "label": f"{doc['label']} pinched",
                    "vertices": [v for v in vertices if v not in merge],
                    "edges": [
                        {"id": item["id"], "ends": [merge.get(v, v) for v in item["ends"]]}
                        for item in doc["edges"]
                    ],
                    "faces": doc["faces"],
                }
    return None
