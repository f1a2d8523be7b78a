"""Independent references for the distance engine.

:func:`reference_shortest_nontrivial_cycle` is the product-graph BFS: a
breadth-first search over the product of the graph with the Z2^{2g}
signature space (the Z2 homology cover): traversing an edge flips the bits
of the cocycles containing it, and the shortest closed walk returning to
its start with a nonzero signature is the distance (a minimal such walk
never repeats an edge, so walk length equals cycle weight).  It visits
V * 2^(2g) states from every root, so it serves only as a cross-check on
small inputs.

:func:`all_roots_shortest_nontrivial_cycle` is the Horton-set search as it
ran before orbit reduction: one signature-carrying BFS from every vertex
(every face with ``dual=True``), in ascending dense order.  It checks that
one root per orbit of the map's automorphisms loses nothing.

:func:`gray_code_min_coset_weight` is the distance oracle as it ran
before the size bound: every vector of every nontrivial coset of the
row space in the kernel, walked in Gray-code order, 2^(kernel dimension)
steps.  It checks that stopping at the best weight loses nothing.
"""
from __future__ import annotations

from collections import deque
from typing import Sequence

from atqc.binmat import RowBasis, support
from atqc.complexes import SurfaceComplex
from atqc.errors import InputError, IntegrityError
from atqc.homology import betti1, cocycle_basis, homology_signature, is_cycle


def all_roots_shortest_nontrivial_cycle(c: SurfaceComplex, dual: bool = False) -> tuple[int, int]:
    """(weight, witness mask) of the shortest nontrivial cycle, one BFS per node."""
    basis = cocycle_basis(c, dual)
    ix = c.index
    sig_delta = [0] * len(ix.edge_ids)
    for j, coc in enumerate(basis):
        for i in support(coc):
            sig_delta[i] |= 1 << j
    if dual:
        faces_of: dict[int, list[int]] = {e: [] for e in ix.edge_ids}
        for f in ix.face_ids:
            for e in c.faces[f]:
                faces_of[e].append(f)
        nodes, ends = ix.face_ids, list(faces_of.values())
    else:
        nodes, ends = ix.vertex_ids, [c.edges[e] for e in ix.edge_ids]
    vindex = {v: i for i, v in enumerate(nodes)}
    adjacency: list[list[tuple[int, int]]] = [[] for _ in vindex]
    for i, (u, v) in enumerate(ends):
        adjacency[vindex[u]].append((i, vindex[v]))
        if u != v:
            adjacency[vindex[v]].append((i, vindex[u]))

    n_v = len(vindex)
    best_weight = len(ix.edge_ids) + 1
    best_witness = None
    for root in range(n_v):
        depth = [-1] * n_v
        sig = [0] * n_v
        up_edge = [-1] * n_v
        up_vertex = [-1] * n_v
        depth[root] = 0
        frontier = [root]
        d = 0
        while frontier and 2 * d + 1 < best_weight:
            nxt = []
            for u in frontier:
                su = sig[u]
                for eidx, w in adjacency[u]:
                    dw = depth[w]
                    if dw < 0:
                        depth[w] = d + 1
                        sig[w] = su ^ sig_delta[eidx]
                        up_edge[w], up_vertex[w] = eidx, u
                        nxt.append(w)
                    elif dw >= d and d + dw + 1 < best_weight and su ^ sig[w] ^ sig_delta[eidx]:
                        best_witness = 1 << eidx
                        for x in (u, w):
                            while up_edge[x] >= 0:
                                best_witness ^= 1 << up_edge[x]
                                x = up_vertex[x]
                        best_weight = best_witness.bit_count()
            frontier = nxt
            d += 1
    if best_witness is None:
        raise IntegrityError("no nontrivial cycle found despite betti1 > 0")
    if not is_cycle(c, best_witness, dual):
        raise IntegrityError("search witness is not a cycle")
    if homology_signature(c, best_witness, dual=dual) == 0:
        raise IntegrityError("search witness is homologically trivial")
    return best_weight, best_witness


def reference_shortest_nontrivial_cycle(
    c: SurfaceComplex, basis: Sequence[int] | None = None
) -> tuple[int, int]:
    """(weight, witness mask) of the shortest homologically nontrivial cycle."""
    two_g = betti1(c)
    if two_g == 0:
        raise InputError("complex has trivial first homology; no nontrivial cycle exists")
    if basis is None:
        basis = cocycle_basis(c)
    ix = c.index
    sig_delta = []
    for i in range(len(ix.edge_ids)):
        bit = 1 << i
        sig_delta.append(sum(1 << j for j, coc in enumerate(basis) if coc & bit))
    vindex = {v: i for i, v in enumerate(ix.vertex_ids)}
    adjacency: list[list[tuple[int, int]]] = [[] for _ in vindex]
    for i, e in enumerate(ix.edge_ids):
        u, v = c.edges[e]
        adjacency[vindex[u]].append((i, vindex[v]))
        if u != v:
            adjacency[vindex[v]].append((i, vindex[u]))

    n_states = len(vindex) << two_g
    best_weight = None
    best_witness = None
    for start in range(len(vindex)):
        dist = [-1] * n_states
        parent = [(-1, -1)] * n_states  # (previous state, edge index)
        s0 = start << two_g
        dist[s0] = 0
        queue = deque([s0])
        while queue:
            state = queue.popleft()
            d = dist[state]
            if best_weight is not None and d + 1 > best_weight:
                break
            v, sig = state >> two_g, state & ((1 << two_g) - 1)
            for eidx, w in adjacency[v]:
                nxt = (w << two_g) | (sig ^ sig_delta[eidx])
                if dist[nxt] == -1:
                    dist[nxt] = d + 1
                    parent[nxt] = (state, eidx)
                    queue.append(nxt)
        for sig in range(1, 1 << two_g):
            state = (start << two_g) | sig
            d = dist[state]
            if d == -1 or (best_weight is not None and d >= best_weight):
                continue
            # XOR of the walk edges: a repeated bridge edge cancels, leaving a
            # (possibly lighter) nontrivial cycle, still a valid candidate
            mask = 0
            cur = state
            while cur != s0:
                cur, eidx = parent[cur]
                mask ^= 1 << eidx
            weight = mask.bit_count()
            if best_weight is None or weight < best_weight:
                best_weight = weight
                best_witness = mask
    if best_weight is None:
        raise IntegrityError("no nontrivial cycle found despite betti1 > 0")
    if not is_cycle(c, best_witness):
        raise IntegrityError("search witness is not a cycle")
    if homology_signature(c, best_witness) == 0:
        raise IntegrityError("search witness is homologically trivial")
    return best_weight, best_witness


def gray_code_min_coset_weight(
    kernel_of: list[int], modulo_rows: list[int], k_expected: int
) -> int:
    """Min weight over ker \\ rowspace, by Gray-code walks of each nontrivial coset."""
    span = RowBasis(modulo_rows)
    basis = list(span.vectors)
    coset_gens = [vec for vec in kernel_of if span.add(vec)]
    if len(coset_gens) != k_expected:
        raise IntegrityError(
            f"kernel/rowspace quotient has dimension {len(coset_gens)}, expected {k_expected}"
        )
    r = len(basis)
    gray_deltas = [(i & -i).bit_length() - 1 for i in range(1, 1 << r)]
    best = None
    for t in range(1, 1 << len(coset_gens)):
        acc = 0
        tt = t
        while tt:
            acc ^= coset_gens[(tt & -tt).bit_length() - 1]
            tt &= tt - 1
        w = acc.bit_count()
        if best is None or w < best:
            best = w
        for delta in gray_deltas:
            acc ^= basis[delta]
            w = acc.bit_count()
            if w < best:
                best = w
    return best
