"""CSS stabilizer codes assembled from surface complexes.

Convention: X-type checks sit on faces (row f of hx = face boundary) and
Z-type checks on vertices (row v of hz = vertex star), so d_x is the
primal-graph distance and d_z the dual-graph distance.  Logical X
operators are primal cycles, logical Z operators dual cycles, both over
the shared edge index, normalized so the symplectic pairing matrix is the
identity.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import reduce
from operator import xor
from typing import IO

from .binmat import BinaryMatrix, support
from .complexes import SurfaceComplex
from .errors import IntegrityError, InputError
from .homology import boundary_matrices, cycle_cocycle_bases

ALIST = "alist"
DENSE_TEXT = "dense-text"
JSON_FORMAT = "json"
EXPORT_FORMATS = (ALIST, DENSE_TEXT, JSON_FORMAT)


@dataclass(frozen=True)
class CssCode:
    """Hx/Hz parity-check pair with logical operator bases.

    ``logical_x``/``logical_z`` are bitmasks over the dense edge index
    (``edge_ids`` gives the id for each bit position).
    """

    n: int
    k: int
    genus: int
    hx: BinaryMatrix
    hz: BinaryMatrix
    logical_x: tuple[int, ...]
    logical_z: tuple[int, ...]
    edge_ids: tuple[int, ...]
    vertex_ids: tuple[int, ...]
    face_ids: tuple[int, ...]
    source_label: str = ""
    warnings: tuple[str, ...] = field(default=())

    def logical_x_edges(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(self.edge_ids[i] for i in support(m)) for m in self.logical_x)

    def logical_z_edges(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(self.edge_ids[i] for i in support(m)) for m in self.logical_z)


def build_css(c: SurfaceComplex) -> CssCode:
    """Face checks from the face masks, vertex checks from d1, logicals from tree/co-tree."""
    cc = boundary_matrices(c)
    ix = c.index
    hx = BinaryMatrix(len(ix.face_ids), len(ix.edge_ids), [ix.face_masks[f] for f in ix.face_ids])
    # k = n - rank(hx) - rank(hz) = betti1 = 2g, certified by the bases themselves
    cycles, cocycles = cycle_cocycle_bases(c)
    warnings = []
    zero_rows = [f for f, row in zip(cc.face_ids, hx.data) if row == 0]
    if zero_rows:
        warnings.append(
            f"degenerate complex: face(s) {zero_rows} have zero X-check rows"
        )
    return CssCode(
        n=len(cc.edge_ids),
        k=len(cycles),
        genus=c.genus,
        hx=hx,
        hz=cc.d1,
        logical_x=cycles,
        logical_z=cocycles,
        edge_ids=cc.edge_ids,
        vertex_ids=cc.vertex_ids,
        face_ids=cc.face_ids,
        source_label=c.label,
        warnings=tuple(warnings),
    )


CHECKS = ("commutation", "face_product", "vertex_product", "edge_incidence", "generator_count")


@dataclass(frozen=True)
class StabilizerReport:
    n: int
    k: int
    independent_generators: int
    expected_generators: int
    checks: tuple[str, ...] = CHECKS


def incidence_rank(m: BinaryMatrix, edge_ids: tuple[int, ...]) -> int:
    """GF(2) rank of a matrix whose columns have weight 0 or 2, the incidence
    matrix of a multigraph on its rows: rows minus components (zero rows count),
    since the only relations are the component sums.  A heavier column raises."""
    # end[j] is -1 until column j meets a row, then that row, then -2 once it has two
    root, end = list(range(m.rows)), [-1] * m.cols
    rank = 0
    for i, word in enumerate(m.data):
        while word:
            j = (word & -word).bit_length() - 1
            word &= word - 1
            a = end[j]
            if a == -1:
                end[j] = i
                continue
            if a == -2:
                weight = sum((w >> j) & 1 for w in m.data)
                raise IntegrityError(f"edge {edge_ids[j]} is in {weight} checks, expected 0 or 2")
            end[j] = -2
            while root[a] != a:
                root[a] = a = root[root[a]]
            root[a] = i  # only the current row is ever linked to, so row i is a root
            rank += a != i
    return rank


def verify_stabilizers(code: CssCode) -> StabilizerReport:
    """Check the stabilizer algebra; any failure is a hard error with a witness."""
    for i, row in enumerate((code.hx @ code.hz.transpose()).data):
        if row:
            j = (row & -row).bit_length() - 1
            raise IntegrityError(
                f"X check on face {code.face_ids[i]} anticommutes with Z check "
                f"on vertex {code.vertex_ids[j]}"
            )
    if reduce(xor, code.hx.data, 0):
        raise IntegrityError("product of all face operators is not the identity")
    if reduce(xor, code.hz.data, 0):
        raise IntegrityError("product of all vertex operators is not the identity")
    independent = incidence_rank(code.hx, code.edge_ids) + incidence_rank(code.hz, code.edge_ids)
    expected = len(code.vertex_ids) + len(code.face_ids) - 2
    if independent != expected:
        raise IntegrityError(
            f"{independent} independent generators, expected |V|+|F|-2 = {expected}"
        )
    return StabilizerReport(
        n=code.n,
        k=code.k,
        independent_generators=independent,
        expected_generators=expected,
    )


# -- parity-check serialization ---------------------------------------------


def _select_matrix(code: CssCode, matrix: str) -> BinaryMatrix:
    if matrix == "hx":
        return code.hx
    if matrix == "hz":
        return code.hz
    raise InputError(f"matrix must be 'hx' or 'hz', got {matrix!r}")


def write_alist(m: BinaryMatrix, sink: IO[str]) -> None:
    """MacKay alist: columns first, 1-indexed, zero-padded to the max weight."""
    cols = [[] for _ in range(m.cols)]
    rows = []
    for i, word in enumerate(m.data):
        row = support(word)
        rows.append(row)
        for j in row:
            cols[j].append(i)
    max_col = max((len(c) for c in cols), default=0)
    max_row = max((len(r) for r in rows), default=0)
    lines = [
        f"{m.cols} {m.rows}",
        f"{max_col} {max_row}",
        " ".join(str(len(c)) for c in cols),
        " ".join(str(len(r)) for r in rows),
    ]
    for c in cols:
        padded = [i + 1 for i in c] + [0] * (max_col - len(c))
        lines.append(" ".join(map(str, padded)))
    for r in rows:
        padded = [j + 1 for j in r] + [0] * (max_row - len(r))
        lines.append(" ".join(map(str, padded)))
    sink.write("\n".join(lines) + "\n")


def read_alist(source: IO[str]) -> BinaryMatrix:
    tokens = source.read().split()
    it = iter(tokens)

    def take() -> int:
        return int(next(it))

    n, m_rows = take(), take()
    take(), take()  # max weights, implied by the index lists
    col_wts = [take() for _ in range(n)]
    row_wts = [take() for _ in range(m_rows)]
    data = [0] * m_rows
    max_col = max(col_wts, default=0)
    max_row = max(row_wts, default=0)
    for j in range(n):
        entries = [take() for _ in range(max_col)] if max_col else []
        for i in entries[: col_wts[j]]:
            data[i - 1] |= 1 << j
    # the row section repeats the column section; read it for validation
    for i in range(m_rows):
        entries = [take() for _ in range(max_row)] if max_row else []
        for j in entries[: row_wts[i]]:
            data[i] |= 1 << (j - 1)
    return BinaryMatrix(m_rows, n, data)


def _row_bits(word: int, cols: int) -> str:
    """One row as 0/1 text, column 0 first; the sentinel bit at ``cols``
    keeps leading zeros (and a 0-column row empty) and is cut off."""
    return format(word | 1 << cols, "b")[:0:-1]


def write_dense_text(m: BinaryMatrix, sink: IO[str]) -> None:
    for word in m.data:
        sink.write(_row_bits(word, m.cols) + "\n")


def read_dense_text(source: IO[str]) -> BinaryMatrix:
    lines = [line.strip() for line in source if line.strip()]
    if not lines:
        raise InputError("empty dense-text matrix")
    width = len(lines[0])
    words = []
    for line in lines:
        if len(line) != width or set(line) - {"0", "1"}:
            raise InputError("dense-text rows must be equal-length strings of 0/1")
        words.append(int(line[::-1], 2))
    return BinaryMatrix(len(words), width, words)


def _write_json(code: CssCode, sink: IO[str]) -> None:
    """The layout of ``json.dump(doc, indent=1, sort_keys=True)`` plus a
    newline, streamed one matrix row at a time."""
    sink.write(f'{{\n "genus": {json.dumps(code.genus)},\n')
    for key, m in (("hx", code.hx), ("hz", code.hz)):
        sink.write(f' "{key}": [')
        sep = "\n"
        for word in m.data:
            bits = _row_bits(word, m.cols)
            sink.write(sep + ("  [\n   " + ",\n   ".join(bits) + "\n  ]" if bits else "  []"))
            sep = ",\n"
        sink.write("\n ],\n" if m.rows else "],\n")
    sink.write(
        f' "k": {json.dumps(code.k)},\n "label": {json.dumps(code.source_label)},\n'
        f' "n": {json.dumps(code.n)}\n}}\n'
    )


def export_checks(code: CssCode, format: str, sink: IO[str], matrix: str = "hz") -> None:
    """Serialize parity checks; alist/dense-text take one matrix, json both."""
    if format == ALIST:
        write_alist(_select_matrix(code, matrix), sink)
    elif format == DENSE_TEXT:
        write_dense_text(_select_matrix(code, matrix), sink)
    elif format == JSON_FORMAT:
        _write_json(code, sink)
    else:
        raise InputError(f"unknown export format {format!r}; choose from {EXPORT_FORMATS}")
