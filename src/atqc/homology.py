"""Z2 chain-complex machinery for surface complexes.

Everything here reads the complex's :class:`~atqc.complexes.ComplexIndex`.
Edge sets are packed as integers over its dense edge order (ascending
edge ids); :func:`edges_to_mask`/:func:`mask_to_edges` convert at the
boundary, and an unknown id or a mask bit outside that order is an
InputError.  Both graphs and :func:`is_cycle` read the index's endpoint
arrays: ``ends[0][e]`` holds edge e's two vertices, ``ends[1][e]`` its two
faces.  The homology bases are computed on first use, checked once,
and cached on that index with both graphs and their signature words
(``sides``), which the distance search and :func:`homology_signature`
read.  :func:`boundary_matrices` takes d1 = hz and d2 = hx^T from
:func:`~atqc.stabilizer.build_css` on each request and caches nothing: no
library code uses them, they are the reference the tests eliminate against.
The bases come from the tree/co-tree construction: a spanning
tree of the primal graph plus a spanning tree of the dual graph on the
remaining edges leave exactly 2g edges; each leftover edge closes one
primal cycle (through the tree) and one dual cycle (through the co-tree),
and the two bases pair as the identity matrix by construction.
Bit i of an edge's signature word says cocycle i (primal side) or cycle i
(dual side) holds it.  The certificate is checked by columns, in O(E) word
operations: each face's XOR of the cocycle words over its boundary must be
0, and cycle i's XOR of them must be ``1 << i``.  Each edge's word goes to
the faces at both its ends: an edge with both slots on one face, a loop of
the face adjacency (listed there once), bounds that face twice and cancels,
as it does in that face's X-check row.

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

from functools import reduce
from itertools import compress
from operator import xor
from typing import Iterable, NamedTuple

from .binmat import BinaryMatrix, support
from .complexes import SurfaceComplex
from .errors import IntegrityError, InputError
from .stabilizer import build_css


def edges_to_mask(c: SurfaceComplex, edge_ids: Iterable[int]) -> int:
    bit, mask = c.index.bit, 0
    try:
        edge_ids = iter(edge_ids)
    except TypeError:
        raise InputError(f"edge ids must be an iterable of ids, got {edge_ids!r}") from None
    for e in edge_ids:
        try:  # KeyError: an unknown id; TypeError: one that cannot be hashed
            mask ^= 1 << bit[e]
        except (KeyError, TypeError):
            raise InputError(f"edge {e!r} is not an edge of the complex") from None
    return mask


def _edge_set(c: SurfaceComplex, mask: int) -> int:
    """``mask`` itself if it is an int (not a bool) naming a set of edges, else InputError."""
    n = len(c.index.edge_ids)
    if type(mask) is not int or mask < 0 or mask >> n:
        raise InputError(f"edge mask is not a set of the complex's edges 0..{n - 1}")
    return mask


def mask_to_edges(c: SurfaceComplex, mask: int) -> tuple[int, ...]:
    order = c.index.edge_ids
    return tuple(order[i] for i in support(_edge_set(c, mask)))


class ChainComplexZ2(NamedTuple):
    """Boundary operators d2: C2 -> C1 and d1: C1 -> C0 over Z2.

    d2 is |E| x |F| (column f = boundary of face f); d1 is |V| x |E|
    (column e = endpoints of e, zero for a self-loop).  Rows and columns
    follow the index's dense order.
    """

    d2: BinaryMatrix
    d1: BinaryMatrix


def boundary_matrices(c: SurfaceComplex) -> ChainComplexZ2:
    """d1 = hz and d2 = hx^T from :func:`~atqc.stabilizer.build_css`, checked d1 . d2 = 0."""
    code = build_css(c)
    d2, d1 = code.hx.transpose(), code.hz
    if not (d1 @ d2).is_zero():
        raise IntegrityError("d1 . d2 != 0; boundary construction is broken")
    return ChainComplexZ2(d2=d2, d1=d1)


def betti1(c: SurfaceComplex) -> int:
    """dim ker(d1) - rank(d2) = 2 * genus; IntegrityError unless the bases certify it."""
    cycle_cocycle_bases(c)
    return 2 * c.genus


def _graph(ends: list, nodes: int) -> list:
    """node -> [(edge, neighbour)] of the edges with these ``ends``; edges ascending, a loop once."""
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(nodes)]
    for e, (u, v) in enumerate(ends):
        adjacency[u].append((e, v))
        if u != v:
            adjacency[v].append((e, u))
    return adjacency


def _bfs_tree(adjacency: list, skip=()) -> list:
    """Breadth-first spanning tree from node 0 off the edges in ``skip``:
    node x's edge towards node 0, -1 at node 0 and None if unreached."""
    up: list = [None] * len(adjacency)
    up[0] = -1
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for e, w in adjacency[u]:
                if up[w] is None and e not in skip:
                    up[w] = e
                    nxt.append(w)
        frontier = nxt
    return up


def _close(x: int, ends: list, up: list) -> int:
    """Edge x closed by the tree paths from its two ends up to the root, where
    ``up`` is -1, as a mask (a shared prefix cancels)."""
    mask = 1 << x
    for y in ends[x]:
        while (e := up[y]) >= 0:
            mask ^= 1 << e
            u, v = ends[e]
            y ^= u ^ v  # the other end of a tree edge, never a loop
    return mask


def cycle_cocycle_bases(c: SurfaceComplex) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Paired bases: 2g primal cycles and 2g cocycles with identity pairing.

    Built and checked once per complex, with both sides' graphs and
    signature words, kept as ``ComplexIndex.sides``.  The certificate is
    checked by columns: every face's XOR of the cocycle words over its
    boundary must be 0 (a face-adjacency loop bounds its face twice and
    cancels); cycle i's XOR of them must be ``1 << i``.
    """
    ix = c.index
    if ix.bases is not None:
        return ix.bases
    ends, dual_ends = ix.ends
    graph, dual_graph = _graph(ends, len(ix.vertex_ids)), _graph(dual_ends, len(ix.face_ids))
    tree = _bfs_tree(graph)
    if None in tree:
        raise IntegrityError("primal graph is not connected")
    cotree = _bfs_tree(dual_graph, set(tree))
    if None in cotree:
        raise IntegrityError("dual graph minus the spanning tree is not connected")
    n = len(ix.edge_ids)
    leftover = sorted(set(range(n)).difference(tree, cotree))
    if len(leftover) != 2 * c.genus:
        raise IntegrityError(
            f"tree/co-tree leaves {len(leftover)} edges, expected {2 * c.genus}"
        )

    cocycles, cycles = bases = [[_close(x, *side) for x in leftover]
                                for side in ((dual_ends, cotree), (ends, tree))]
    # words[0][e] bit i: cocycle i holds edge e; words[1][e] bit i: cycle i does
    words = ([0] * n, [0] * n)
    for word, basis in zip(words, bases):
        for i, mask in enumerate(basis):
            for e in support(mask):
                word[e] ^= 1 << i
    sums = [0] * len(dual_graph)
    for (f, g), word in compress(zip(dual_ends, words[0]), words[0]):
        sums[f] ^= word
        sums[g] ^= word  # a face-adjacency loop (f == g) cancels, as in its check row
    for f, odd in enumerate(sums):
        if odd:
            raise IntegrityError(
                f"cocycle {(odd & -odd).bit_length() - 1} meets face {ix.face_ids[f]} "
                "boundary an odd number of times"
            )
    for i, cycle in enumerate(cycles):
        if reduce(xor, map(words[0].__getitem__, support(cycle)), 0) != 1 << i:
            raise IntegrityError("cycle/cocycle pairing matrix is not the identity")
    # sides before bases: a thread that sees the bases sees the sides
    ix.sides = ((graph, words[0]), (dual_graph, words[1]))
    ix.bases = (tuple(cycles), tuple(cocycles))
    return ix.bases


def cocycle_basis(c: SurfaceComplex, dual: bool = False) -> tuple[int, ...]:
    """2g edge sets that vanish on boundaries and induce a basis dual to H1."""
    betti1(c)
    return cycle_cocycle_bases(c)[0 if dual else 1]


def is_cycle(c: SurfaceComplex, mask: int, dual: bool = False) -> bool:
    """Even at every vertex (face if dual), as named by each edge's two ends."""
    odd = set()
    for u, v in map(c.index.ends[1 if dual else 0].__getitem__, support(_edge_set(c, mask))):
        odd ^= {u} ^ {v}
    return not odd


def homology_signature(c: SurfaceComplex, cycle: int, dual: bool = False) -> int:
    """Pairing bits of a cycle against the cocycle basis, its edges' words XORed; 0 iff a boundary."""
    if not is_cycle(c, cycle, dual):
        raise InputError("edge set is not a cycle (odd incidence at a vertex, or a face if dual)")
    cocycle_basis(c, dual)  # certifies the bases, and fills ix.sides with their words
    return reduce(xor, map(c.index.sides[1 if dual else 0][1].__getitem__, support(cycle)), 0)
