"""Z2 chain-complex machinery for surface complexes.

Everything here reads the complex's :class:`~atqc.complexes.ComplexIndex`.
Edge sets are packed as integers over its dense edge order (ascending
edge ids); :func:`edges_to_mask`/:func:`mask_to_edges` convert at the
boundary.  The homology bases are computed on first use, checked once, and
cached on that index.  :func:`boundary_matrices` builds d1 and d2 on each
request and caches nothing: no library code uses them, they are the
reference the tests eliminate against.
The bases come from the tree/co-tree construction: a spanning
tree of the primal graph plus a spanning tree of the dual graph on the
remaining edges leave exactly 2g edges; each leftover edge closes one
primal cycle (through the tree) and one dual cycle (through the co-tree),
and the two bases pair as the identity matrix by construction.

The same construction certifies b1 = dim ker(d1) - rank(d2) = 2g with no
rank.  Validation guarantees two face slots per edge and |V| - |E| + |F| =
2 - 2g.  The tree shows the graph is connected: rank(d1) = |V| - 1.  The
co-tree shows the dual graph is connected.  A face set in ker(d2) meets
each edge evenly, so it holds both faces of an edge or neither: it is
empty or all faces (which are in ker(d2), two slots per edge), and
rank(d2) = |F| - 1.  So b1 = |E| - |V| - |F| + 2 = 2g, which is also the
number of leftover edges; the identity pairing shows 2g from below.

With ``dual=True``, :func:`cocycle_basis`, :func:`is_cycle` and
:func:`homology_signature` answer for the dual complex without building
it: its cycles are even on every face boundary, its cocycle basis is the
primal cycle basis.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .binmat import BinaryMatrix, parity, support
from .complexes import SurfaceComplex
from .errors import IntegrityError, InputError


def edges_to_mask(c: SurfaceComplex, edge_ids: Iterable[int]) -> int:
    bit = c.index.bit
    mask = 0
    for e in edge_ids:
        mask ^= 1 << bit[e]
    return mask


def mask_to_edges(c: SurfaceComplex, mask: int) -> tuple[int, ...]:
    order = c.index.edge_ids
    return tuple(order[i] for i in support(mask))


@dataclass(frozen=True)
class ChainComplexZ2:
    """Boundary operators d2: C2 -> C1 and d1: C1 -> C0 over Z2.

    d2 is |E| x |F| (column f = boundary of face f); d1 is |V| x |E|
    (column e = endpoints of e, zero for a self-loop).  Row/column order
    follows the sorted id tuples carried alongside.
    """

    d2: BinaryMatrix
    d1: BinaryMatrix
    vertex_ids: tuple[int, ...]
    edge_ids: tuple[int, ...]
    face_ids: tuple[int, ...]


def boundary_matrices(c: SurfaceComplex) -> ChainComplexZ2:
    """d1 and d2 from the index's masks, checked d1 . d2 = 0."""
    ix = c.index
    n = len(ix.edge_ids)
    d2 = BinaryMatrix(len(ix.face_ids), n, [ix.face_masks[f] for f in ix.face_ids]).transpose()
    d1 = BinaryMatrix(len(ix.vertex_ids), n, [ix.star_masks[v] for v in ix.vertex_ids])
    if not (d1 @ d2).is_zero():
        raise IntegrityError("d1 . d2 != 0; boundary construction is broken")
    return ChainComplexZ2(
        d2=d2, d1=d1, vertex_ids=ix.vertex_ids, edge_ids=ix.edge_ids, face_ids=ix.face_ids
    )


def betti1(c: SurfaceComplex) -> int:
    """dim ker(d1) - rank(d2) = 2 * genus; IntegrityError unless the bases certify it."""
    cycle_cocycle_bases(c)
    return 2 * c.genus


def _bfs_parents(incidence: dict, root: int) -> dict[int, tuple[int, int]]:
    """Breadth-first spanning tree as node -> (edge, parent node)."""
    parent: dict[int, tuple[int, int]] = {}
    frontier = [root]
    seen = {root}
    while frontier:
        nxt = []
        for u in frontier:
            for e, w in incidence[u]:
                if w not in seen:
                    seen.add(w)
                    parent[w] = (e, u)
                    nxt.append(w)
        frontier = nxt
    return parent


def _tree_cotree(c: SurfaceComplex):
    """Tree parents, dual co-tree parents, and the 2g leftover edge ids."""
    # primal spanning tree (BFS, edges in ascending id order)
    ix = c.index
    incidence: dict[int, list[tuple[int, int]]] = {v: [] for v in c.vertices}
    for e in ix.edge_ids:
        u, v = c.edges[e]
        if u != v:
            incidence[u].append((e, v))
            incidence[v].append((e, u))
    parent_edge = _bfs_parents(incidence, ix.vertex_ids[0])
    if len(parent_edge) != c.num_vertices - 1:
        raise IntegrityError("primal graph is not connected")
    tree = {e for e, _ in parent_edge.values()}

    # dual spanning tree on the remaining edges
    dual_incidence: dict[int, list[tuple[int, int]]] = {f: [] for f in c.faces}
    for e in ix.edge_ids:
        (f1, _), (f2, _) = ix.slots[e]
        if e not in tree and f1 != f2:
            dual_incidence[f1].append((e, f2))
            dual_incidence[f2].append((e, f1))
    dual_parent = _bfs_parents(dual_incidence, ix.face_ids[0])
    if len(dual_parent) != c.num_faces - 1:
        raise IntegrityError("dual graph minus the spanning tree is not connected")
    cotree = {e for e, _ in dual_parent.values()}

    leftover = [e for e in ix.edge_ids if e not in tree and e not in cotree]
    if len(leftover) != 2 * c.genus:
        raise IntegrityError(
            f"tree/co-tree leaves {len(leftover)} edges, expected {2 * c.genus}"
        )
    return parent_edge, dual_parent, leftover


def cycle_cocycle_bases(c: SurfaceComplex) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Paired bases: 2g primal cycles and 2g cocycles with identity pairing.

    Built and checked once per complex: every cocycle must vanish on every
    face boundary and the pairing matrix must be the identity.
    """
    ix = c.index
    if ix.bases is not None:
        return ix.bases
    parent_edge, dual_parent, leftover = _tree_cotree(c)

    def path_mask(x: int, parent: dict[int, tuple[int, int]]) -> int:
        mask = 0
        while x in parent:
            e, x = parent[x]
            mask ^= 1 << ix.bit[e]
        return mask

    cycles = []
    cocycles = []
    for x in leftover:
        u, v = c.edges[x]
        cycles.append((1 << ix.bit[x]) ^ path_mask(u, parent_edge) ^ path_mask(v, parent_edge))
        (f1, _), (f2, _) = ix.slots[x]
        cocycles.append((1 << ix.bit[x]) ^ path_mask(f1, dual_parent) ^ path_mask(f2, dual_parent))
    for k, coc in enumerate(cocycles):
        bad = [f for f, b in ix.face_masks.items() if parity(b & coc)]
        if bad:
            raise IntegrityError(
                f"cocycle {k} meets face {bad[0]} boundary an odd number of times"
            )
    for i, cyc in enumerate(cycles):
        for j, coc in enumerate(cocycles):
            if parity(cyc & coc) != (1 if i == j else 0):
                raise IntegrityError("cycle/cocycle pairing matrix is not the identity")
    ix.bases = (tuple(cycles), tuple(cocycles))
    return ix.bases


def cocycle_basis(c: SurfaceComplex, dual: bool = False) -> tuple[int, ...]:
    """2g edge sets that vanish on boundaries and induce a basis dual to H1."""
    betti1(c)
    return cycle_cocycle_bases(c)[0 if dual else 1]


def is_cycle(c: SurfaceComplex, mask: int, dual: bool = False) -> bool:
    closers = c.index.face_masks if dual else c.index.star_masks
    return all(parity(m & mask) == 0 for m in closers.values())


def homology_signature(
    c: SurfaceComplex, cycle: int, basis: Sequence[int] | None = None, dual: bool = False
) -> int:
    """Pairing bits of a cycle against the cocycle basis; 0 iff a boundary."""
    if not is_cycle(c, cycle, dual):
        raise InputError("edge set is not a cycle (odd incidence at a vertex, or a face if dual)")
    if basis is None:
        basis = cocycle_basis(c, dual)
    sig = 0
    for i, coc in enumerate(basis):
        if parity(cycle & coc):
            sig |= 1 << i
    return sig
