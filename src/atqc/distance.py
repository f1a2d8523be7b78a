"""Exact asymmetric distances by homological cycle search.

Two independent routes:

* :func:`shortest_nontrivial_cycle` runs a breadth-first search over the
  product of the graph with the Z2^{2g} signature space: traversing an
  edge flips the bits of the cocycles containing it, and the shortest
  closed walk returning to its start with a nonzero signature is the
  distance (a minimal such walk never repeats an edge, so walk length
  equals cycle weight).
* :func:`oracle_distances` exhaustively enumerates ker(hz) (organized as
  cosets of rowspace(hx), walked in Gray-code order) and takes the
  minimum weight outside the stabilizer row space.  It is the ground
  truth the search is accepted against, and refuses instances above the
  configured edge ceiling.
"""
from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .binmat import RowBasis
from .complexes import SurfaceComplex, dual_complex
from .errors import DiscrepancyError, InputError, IntegrityError
from .homology import betti1, cocycle_basis, homology_signature, is_cycle, mask_to_edges
from .stabilizer import CssCode, build_css

DEFAULT_ORACLE_CEILING = 30

SEARCH = "search"
ORACLE = "oracle"
BOTH_AGREE = "both-agree"


@dataclass(frozen=True)
class DistanceResult:
    d_x: int
    d_z: int
    witness_x: tuple[int, ...]
    witness_z: tuple[int, ...]
    method: str


def oracle_ceiling_from_env(default: int = DEFAULT_ORACLE_CEILING) -> int:
    raw = os.environ.get("ATQC_ORACLE_CEILING")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"ATQC_ORACLE_CEILING must be an integer, got {raw!r}") from exc


def shortest_nontrivial_cycle(
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
    if homology_signature(c, best_witness, basis) == 0:
        raise IntegrityError("search witness is homologically trivial")
    return best_weight, best_witness


def code_distances(c: SurfaceComplex) -> DistanceResult:
    """Exact d_x (primal) and d_z (dual) with validated witnesses."""
    d_x, wx = shortest_nontrivial_cycle(c)
    dual = dual_complex(c)
    d_z, wz = shortest_nontrivial_cycle(dual)
    return DistanceResult(
        d_x=d_x,
        d_z=d_z,
        witness_x=mask_to_edges(c, wx),
        witness_z=mask_to_edges(dual, wz),
        method=SEARCH,
    )


def _min_coset_weight(kernel_of: list[int], modulo_rows: list[int], k_expected: int) -> int:
    """Min weight over ker \\ rowspace, by Gray-code walks of each nontrivial coset."""
    span = RowBasis(modulo_rows)
    coset_gens = []
    probe = RowBasis(modulo_rows)
    for vec in kernel_of:
        if probe.add(vec):
            coset_gens.append(vec)
    if len(coset_gens) != k_expected:
        raise IntegrityError(
            f"kernel/rowspace quotient has dimension {len(coset_gens)}, expected {k_expected}"
        )
    basis = list(span.vectors)
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


def oracle_distances(code: CssCode, ceiling: int | None = None) -> tuple[int, int]:
    """Ground-truth (d_x, d_z) by exhaustive kernel enumeration; n <= ceiling only."""
    if ceiling is None:
        ceiling = oracle_ceiling_from_env()
    if code.n > ceiling:
        raise InputError(
            f"oracle refused: n={code.n} exceeds the {ceiling}-edge ceiling "
            "(cost 2^(kernel dimension))"
        )
    d_x = _min_coset_weight(code.hz.kernel_basis(), list(code.hx.data), code.k)
    d_z = _min_coset_weight(code.hx.kernel_basis(), list(code.hz.data), code.k)
    return d_x, d_z


@dataclass(frozen=True)
class FormulaComparison:
    """Exact distances of a built hexagonal torus next to the ceiling formulas."""

    label: str
    formula: tuple[int, int]
    computed: tuple[int, int]

    @property
    def matches(self) -> bool:
        return self.formula == self.computed

    @property
    def finding(self) -> str | None:
        if self.matches:
            return None
        return (
            f"{self.label}: exact distances (d_x, d_z) = {self.computed} differ "
            f"from the ceiling formulas {self.formula}; the formulas are lower "
            "bounds here, not exact values"
        )


def compare_hex_distances(spec, ceiling: int | None = None) -> FormulaComparison:
    """Surface any gap between a hex torus's exact distances and the formulas."""
    from .catalog import toric_family_params
    from .torus import build_hex_torus

    params = toric_family_params(spec)
    built = build_hex_torus(spec)
    if ceiling is None:
        ceiling = oracle_ceiling_from_env()
    result = certified_distances(built, ceiling)
    return FormulaComparison(
        label=built.label,
        formula=(params.d_x, params.d_z),
        computed=(result.d_x, result.d_z),
    )


def certified_distances(c: SurfaceComplex, ceiling: int | None = None) -> DistanceResult:
    """Search distances, cross-checked against the oracle whenever n fits.

    A search/oracle mismatch raises :class:`DiscrepancyError`: discrepancies
    are findings, never silenced.
    """
    if ceiling is None:
        ceiling = oracle_ceiling_from_env()
    result = code_distances(c)
    if c.num_edges <= ceiling:
        d_x, d_z = oracle_distances(build_css(c), ceiling)
        if (d_x, d_z) != (result.d_x, result.d_z):
            raise DiscrepancyError(
                f"search found (d_x, d_z) = ({result.d_x}, {result.d_z}) but the "
                f"oracle found ({d_x}, {d_z}) on {c.label!r}"
            )
        return DistanceResult(
            d_x=result.d_x,
            d_z=result.d_z,
            witness_x=result.witness_x,
            witness_z=result.witness_z,
            method=BOTH_AGREE,
        )
    return result
