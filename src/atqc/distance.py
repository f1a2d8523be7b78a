"""Exact asymmetric distances by homological cycle search.

Two independent routes:

* :func:`shortest_nontrivial_cycle` searches the Horton set.  From each
  root x it grows one breadth-first (so shortest-path) tree, each vertex
  carrying the 2g-bit homology signature of its tree path (its pairings
  with the cocycle basis).  A non-tree edge e = (u, w) closes the
  fundamental cycle P(x,u) + e + P(x,w), nontrivial iff
  sig(u) ^ sig(w) ^ sig(e) != 0.  The minimum over one root per orbit is
  exact.  Take a shortest nontrivial cycle, of weight L, through a vertex
  y.  A map automorphism is a homeomorphism of the surface, so it carries
  that cycle to a nontrivial cycle C of weight L through the root x of
  y's orbit.  C is the Z2 sum of the fundamental cycles of its non-tree
  edges (the rest would be a cycle inside a tree) and signatures add, so
  some non-tree edge (u, w) of C closes a nontrivial one; walking C from x
  either way reaches u and w in a and L - 1 - a steps, so that
  candidate's walk has dist(x,u) + dist(x,w) + 1 <= L edges.  XOR-ing
  two tree paths that share a prefix drops the shared edges twice: what
  is left is a cycle of the same class (each dropped edge meets every
  cocycle twice) and no heavier than the walk, so it cannot hurt, and
  nothing undercuts L.  A root stops at depth d once 2d + 1 >= best,
  since every edge met later closes a walk that long; a witness mask is
  built only when a walk beats the best.  Each root costs O(E) with O(V) state, no 2^(2g) factor.
  Roots (the smallest dense index of each orbit) go in ascending order and
  edges in ascending dense index, so witnesses are deterministic.  d_x
  runs on the graph of the complex, d_z on its face adjacency (the dual's
  graph; ``dual=True``, face orbits) with signatures against the primal
  cycle basis: nothing above depends on the graph.

  :func:`map_orbits` finds the orbits.  A map is rigid: an automorphism
  (psi commutes with alpha and phi) is fixed by one dart's image, so
  whether dart d0 at vertex 0 goes to d is one O(E) walk.  Vertices not
  yet in vertex 0's orbit are visited in dense order and each dart at one
  is tried; an automorphism found is read once as its vertex and face
  images, and the orbits are the closure of all images found so far.
  The first vertex with no extending dart ends the sweep; faces follow
  likewise if anything was found.  Any subgroup is sound.  A
  vertex-transitive torus costs a few walks and one root per side; a map
  with no symmetry, deg(v) failed walks and all V roots.
* :func:`oracle_distances` takes the minimum weight of ker(hz) outside
  rowspace(hx), and the reverse, from the check matrices alone.  It sums
  j kernel basis vectors for j = 1, 2, ... and stops once j reaches the
  best weight: each vector owns a free column, so a sum of j weighs at
  least j (the information-set bound of Brouwer-Zimmermann), and only
  subsets of fewer than d vectors are visited.  It is the ground truth
  the search is accepted against, and refuses n above the edge ceiling.
"""
from __future__ import annotations

from functools import partial, reduce
from itertools import combinations, compress
from typing import NamedTuple

from .binmat import RowBasis
from .complexes import SurfaceComplex
from .errors import DiscrepancyError, InputError, IntegrityError, _as_int
from .homology import _close, cocycle_basis, homology_signature, is_cycle, mask_to_edges
from .stabilizer import CssCode, build_css

DEFAULT_ORACLE_CEILING = 30

SEARCH = "search"
BOTH_AGREE = "both-agree"


class DistanceResult(NamedTuple):
    d_x: int
    d_z: int
    witness_x: tuple[int, ...]
    witness_z: tuple[int, ...]
    method: str


def _extend(alpha: list[int], phi: list[int], d0: int, d: int) -> list[int] | None:
    """The automorphism taking dart d0 to d, or None.

    alpha and phi reach every dart, so a map that commutes with both is
    onto, hence a permutation, once it is defined everywhere.
    """
    psi, stack = [-1] * len(alpha), [(d0, d)]
    while stack:
        x, y = stack.pop()
        while psi[x] < 0:  # map x's face onto y's, then cross each of its edges
            psi[x] = y
            stack.append((alpha[x], alpha[y]))
            x, y = phi[x], phi[y]
        if psi[x] != y:
            return None
    return psi


def _orbit_minima(images: list[list[int]], m: int) -> list[int]:
    """Each of cells 0..m-1 mapped to the least cell of its orbit under ``images``."""
    low = [-1] * m
    for i in range(m):
        if low[i] < 0:
            low[i], orbit = i, [i]
            for x in orbit:  # reads what it appends, so it runs until the orbit is closed
                for image in images:
                    if low[y := image[x]] < 0:
                        low[y] = i
                        orbit.append(y)
    return low


def map_orbits(c: SurfaceComplex) -> tuple[list[list[int]], list[int], list[int]]:
    """(automorphisms found as dart permutations, vertex roots, face roots), roots ascending."""
    ix = c.index
    if ix.orbits is None:
        alpha, phi, n = ix.alpha, ix.phi, len(ix.alpha)
        cells = (ix.dart_vertex, ix.dart_face)
        # reps[0][i] is a dart at vertex i, reps[1][i] one on face i
        reps = [list(map(dict(zip(cell, range(n))).__getitem__, range(len(ids))))
                for cell, ids in zip(cells, (ix.vertex_ids, ix.face_ids))]
        # images[side][k][i] is the cell that found[k] takes cell i to
        images, found = ([], []), []
        for side, (cell, rep, imgs) in enumerate(zip(cells, reps, images)):
            if side and not found:
                break
            low = _orbit_minima(imgs, len(rep))
            for i in range(1, len(rep)):
                if low[i] == 0:
                    continue
                darts = compress(range(n), map(i.__eq__, cell))  # the darts at cell i
                psi = next(filter(None, (_extend(alpha, phi, rep[0], d) for d in darts)), None)
                if psi is None:
                    break  # no dart at cell i extends: the sweep ends
                found.append(psi)
                for of, r, side_imgs in zip(cells, reps, images):
                    side_imgs.append(list(map(of.__getitem__, map(psi.__getitem__, r))))
                low = _orbit_minima(imgs, len(rep))
        ix.orbits = (found, *([i for i, m in enumerate(_orbit_minima(imgs, len(r))) if m == i]
                              for imgs, r in zip(images, reps)))
    return ix.orbits


def shortest_nontrivial_cycle(c: SurfaceComplex, dual: bool = False) -> tuple[int, int]:
    """(weight, witness mask) of the shortest nontrivial cycle, of the dual if ``dual``."""
    cocycle_basis(c, dual)  # certifies the bases, and fills ix.sides with them
    ix = c.index
    (adjacency, sig_delta), ends = ix.sides[dual], ix.ends[dual]
    n_v = len(adjacency)
    best_weight = len(ix.edge_ids) + 1  # heavier than any cycle
    best_witness = None
    for root in map_orbits(c)[1 + dual]:
        depth = [-1] * n_v
        sig = [0] * n_v  # homology signature of the tree path from the root
        up_edge = [-1] * n_v
        depth[root] = 0
        frontier = [root]
        d = 0
        # an edge first met at depth d closes a walk of at least 2d + 1 edges
        while frontier and 2 * d + 1 < best_weight:
            nxt = []
            for u in frontier:
                su = sig[u]
                for eidx, w in adjacency[u]:
                    dw = depth[w]
                    if dw < 0:
                        depth[w] = d + 1
                        sig[w] = su ^ sig_delta[eidx]
                        up_edge[w] = eidx
                        nxt.append(w)
                    # a non-tree edge closes a fundamental cycle; an edge back to a
                    # shallower vertex is u's tree edge or was met from that end
                    elif dw >= d and d + dw + 1 < best_weight and su ^ sig[w] ^ sig_delta[eidx]:
                        # the tree paths may share a prefix, which XOR cancels, so
                        # the mask is no heavier than its walk: strictly lighter
                        best_witness = _close(eidx, ends, up_edge)
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


def code_distances(c: SurfaceComplex) -> DistanceResult:
    """Exact d_x (primal graph) and d_z (face adjacency) with validated witnesses."""
    d_x, wx = shortest_nontrivial_cycle(c)
    d_z, wz = shortest_nontrivial_cycle(c, dual=True)
    return DistanceResult(d_x, d_z, mask_to_edges(c, wx), mask_to_edges(c, wz), SEARCH)


def _min_coset_weight(kernel_of: list[int], modulo_rows: list[int], k_expected: int) -> int:
    """Min weight over ker \\ rowspace, by sums of j = 1, 2, ... kernel basis vectors.

    Every kernel vector is such a sum, and a sum of j weighs at least j
    (:meth:`BinaryMatrix.kernel_basis`): once j reaches the best weight
    found, nothing lighter is left."""
    span = RowBasis(modulo_rows)
    quotient = RowBasis(modulo_rows + kernel_of).rank - span.rank
    if quotient != k_expected:
        raise IntegrityError(
            f"kernel/rowspace quotient has dimension {quotient}, expected {k_expected}"
        )
    best = 1 + max(map(int.bit_length, kernel_of), default=0)  # heavier than any kernel vector
    for j in range(1, len(kernel_of) + 1):
        if j >= best:
            break
        for acc in map(partial(reduce, int.__xor__), combinations(kernel_of, j)):
            if acc.bit_count() < best and not span.contains(acc):
                best = acc.bit_count()
    return best


def _check_ceiling(ceiling: int) -> None:
    if _as_int(ceiling, "oracle ceiling") < 0:
        raise InputError(f"oracle ceiling must be >= 0, got {ceiling}")


def oracle_distances(code: CssCode, ceiling: int = DEFAULT_ORACLE_CEILING) -> tuple[int, int]:
    """Ground-truth (d_x, d_z) by exhaustive kernel enumeration; n <= ceiling only."""
    _check_ceiling(ceiling)
    if code.n > ceiling:
        raise InputError(
            f"oracle refused: n={code.n} exceeds the {ceiling}-edge ceiling "
            "(cost: every sum of fewer than d kernel basis vectors)"
        )
    d_x = _min_coset_weight(code.hz.kernel_basis(), list(code.hx.data), code.k)
    d_z = _min_coset_weight(code.hx.kernel_basis(), list(code.hz.data), code.k)
    return d_x, d_z


def certified_distances(c: SurfaceComplex, ceiling: int = DEFAULT_ORACLE_CEILING) -> DistanceResult:
    """Search distances, cross-checked against the oracle whenever n fits.

    A search/oracle mismatch raises :class:`DiscrepancyError`: discrepancies
    are findings, never silenced.  A negative ceiling raises
    :class:`InputError`; a ceiling of 0 never runs the oracle.
    """
    _check_ceiling(ceiling)
    result = code_distances(c)
    if c.num_edges <= ceiling:
        d_x, d_z = oracle_distances(build_css(c), ceiling)
        if (d_x, d_z) != (result.d_x, result.d_z):
            raise DiscrepancyError(
                f"search found (d_x, d_z) = ({result.d_x}, {result.d_z}) but the "
                f"oracle found ({d_x}, {d_z}) on {c.label!r}"
            )
        return result._replace(method=BOTH_AGREE)
    return result
