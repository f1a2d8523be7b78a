"""CSS stabilizer codes assembled from surface complexes.

Convention: X-type checks sit on faces (row f of hx = face boundary) and
Z-type checks on vertices (row v of hz = vertex star), so d_x is the
primal-graph distance and d_z the dual-graph distance.  :func:`build_css`
builds both matrices from the index's endpoint arrays, and nothing else
builds check rows; :func:`verify_stabilizers` reads their columns through
:func:`atqc.binmat.columns_of`.  The code carries no logical operators:
:func:`atqc.homology.cycle_cocycle_bases` gives them, primal cycles for
logical X and dual cycles for logical Z, paired as the identity.
"""
from __future__ import annotations

import json
from collections import Counter
from itertools import chain, product
from typing import IO, NamedTuple

from .binmat import BinaryMatrix, columns_of, support
from .complexes import SurfaceComplex
from .errors import IntegrityError, InputError

ALIST = "alist"
DENSE_TEXT = "dense-text"
JSON_FORMAT = "json"
EXPORT_FORMATS = (ALIST, DENSE_TEXT, JSON_FORMAT)


class CssCode(NamedTuple):
    """Hx/Hz parity-check pair over the dense edge index of one complex."""

    n: int
    k: int
    genus: int
    hx: BinaryMatrix
    hz: BinaryMatrix
    edge_ids: tuple[int, ...]
    vertex_ids: tuple[int, ...]
    face_ids: tuple[int, ...]
    source_label: str = ""
    warnings: tuple[str, ...] = ()


def build_css(c: SurfaceComplex) -> CssCode:
    """X checks on the faces, Z checks on the vertices; no other code builds
    check rows.  Edge b's bit is toggled in the rows of its two ends on each
    side of the index's ``ends``: a loop cancels in its vertex's row, and an
    edge that a face runs twice cancels in that face's row.

    k = 2g: validation proved a closed, connected, orientable surface with
    Euler characteristic 2 - 2g, and :func:`verify_stabilizers` re-derives
    k from the count of independent generators.
    """
    ix = c.index
    n = len(ix.edge_ids)
    hx, hz = BinaryMatrix(len(ix.face_ids), n), BinaryMatrix(len(ix.vertex_ids), n)
    xs, zs = hx.data, hz.data
    for b, ((u, v), (f, g)) in enumerate(zip(*ix.ends)):
        m = 1 << b
        xs[f] ^= m
        xs[g] ^= m
        zs[u] ^= m
        zs[v] ^= m
    zero_rows = [f for f, row in zip(ix.face_ids, xs) if row == 0]
    warnings = (f"degenerate complex: face(s) {zero_rows} have zero X-check rows",)
    return CssCode(n=n, k=2 * c.genus, genus=c.genus, hx=hx, hz=hz, edge_ids=ix.edge_ids,
                   vertex_ids=ix.vertex_ids, face_ids=ix.face_ids, source_label=c.label,
                   warnings=warnings if zero_rows else ())


CHECKS = ("commutation", "face_product", "vertex_product", "edge_incidence", "generator_count")


def _find(up: list[int], i: int) -> int:
    while up[i] != i:
        up[i] = i = up[up[i]]
    return i


def incidence_rank(columns: list[list[int]], edge_ids: tuple[int, ...]) -> int:
    """GF(2) rank of a matrix given as its ``columns``.  Columns of weight 0 or 2
    make it the incidence matrix of a multigraph on its rows: rows minus
    components (zero rows count), since the only relations are the component
    sums.  A heavier column raises."""
    up, rank = list(range(max(map(max, filter(None, columns)), default=-1) + 1)), 0
    for e, col in enumerate(columns):
        if len(col) == 2:
            a, b = _find(up, col[0]), _find(up, col[1])
            up[a] = b
            rank += a != b
        elif len(col) > 2:
            raise IntegrityError(f"edge {edge_ids[e]} is in {len(col)} checks, expected 0 or 2")
    return rank


def verify_stabilizers(code: CssCode) -> int:
    """Run the CHECKS in order and return the number of independent generators;
    any failure is a hard error with a witness.  Every check runs edge by edge
    from each matrix's columns, read once: no product and no transpose."""
    xcols, zcols = columns_of(code.hx), columns_of(code.hz)
    shared = Counter(chain.from_iterable(map(product, xcols, zcols)))  # (face, vertex): edges
    odd = [pair for pair, count in shared.items() if count & 1]
    if odd:
        i, j = min(odd)
        raise IntegrityError(
            f"X check on face {code.face_ids[i]} anticommutes with Z check "
            f"on vertex {code.vertex_ids[j]}"
        )
    for cols, what in ((xcols, "face"), (zcols, "vertex")):  # identity iff no column is odd
        if any(len(col) & 1 for col in cols):
            raise IntegrityError(f"product of all {what} operators is not the identity")
    independent = incidence_rank(xcols, code.edge_ids) + incidence_rank(zcols, code.edge_ids)
    expected = len(code.vertex_ids) + len(code.face_ids) - 2
    if independent != expected:
        raise IntegrityError(
            f"{independent} independent generators, expected |V|+|F|-2 = {expected}"
        )
    if code.n - independent != code.k:
        raise IntegrityError(
            f"n - {independent} generators = {code.n - independent}, not k = {code.k}"
        )
    return independent


# -- parity-check serialization ---------------------------------------------


def write_alist(m: BinaryMatrix, sink: IO[str]) -> None:
    """MacKay alist: columns first, 1-indexed, zero-padded to the max weight.
    Each line is one ``" ".join`` over a list read from one number table."""
    rows = [support(word) for word in m.data]
    num = [str(i) for i in range(max(m.rows, m.cols) + 1)]
    cols = [[] for _ in range(m.cols)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].append(num[i + 1])
    max_col, max_row = max(map(len, cols), default=0), max(map(len, rows), default=0)
    zeros = ["0"] * max(max_col, max_row)
    lines = [f"{m.cols} {m.rows}", f"{max_col} {max_row}",
             " ".join([num[len(c)] for c in cols]), " ".join([num[len(r)] for r in rows])]
    lines += [" ".join(c + zeros[len(c):max_col]) for c in cols]
    lines += [" ".join([num[j + 1] for j in r] + zeros[len(r):max_row]) for r in rows]
    sink.write("\n".join(lines) + "\n")


def read_alist(source: IO[str]) -> BinaryMatrix:
    """Parse a MacKay alist; InputError unless it is well formed and its row
    section lists exactly the entries of its column section."""
    try:
        numbers = [int(token) for token in source.read().split()]
    except ValueError as exc:
        raise InputError(f"alist holds a non-integer token: {exc}") from None
    pos = 0

    def take(count: int) -> list[int]:
        nonlocal pos
        if pos + count > len(numbers):
            raise InputError("alist ends early")
        pos += count
        return numbers[pos - count : pos]

    n, m_rows, max_col, max_row = take(4)
    if min(n, m_rows) < 0:
        raise InputError(f"alist dimensions {n} x {m_rows} are negative")
    col_wts, row_wts = take(n), take(m_rows)
    for weights, declared in ((col_wts, max_col), (row_wts, max_row)):
        if min(weights, default=0) < 0 or max(weights, default=0) != declared:
            raise InputError(f"alist weights must lie in 0..{declared} and reach it")

    def section(weights: list[int], width: int, bound: int) -> list[list[int]]:
        """One index list per line: distinct 1-based indices up to bound, then 0 padding."""
        out = []
        for w in weights:
            line = take(width)
            entries, padding = line[:w], line[w:]
            if any(padding) or len(set(entries)) != w or not all(0 < x <= bound for x in entries):
                raise InputError(f"alist list {line} is not {w} distinct indices in 1..{bound}")
            out.append(entries)
        return out

    data = [0] * m_rows
    for j, entries in enumerate(section(col_wts, max_col, m_rows)):
        for i in entries:
            data[i - 1] |= 1 << j
    rows = [sum(1 << (j - 1) for j in entries) for entries in section(row_wts, max_row, n)]
    if pos != len(numbers):
        raise InputError(f"alist has {len(numbers) - pos} numbers past its row section")
    if rows != data:
        i = next(i for i, (a, b) in enumerate(zip(rows, data)) if a != b)
        raise InputError(f"alist row {i + 1} disagrees with the column section")
    return BinaryMatrix(m_rows, n, data)


def _row_bits(word: int, cols: int) -> str:
    """One row as 0/1 text, column 0 first; the sentinel bit at ``cols``
    keeps leading zeros (and a 0-column row empty) and is cut off."""
    return format(word | 1 << cols, "b")[:0:-1]


def write_dense_text(m: BinaryMatrix, sink: IO[str]) -> None:
    """One 0/1 line per row; with no header, an empty shape could not read back."""
    if not (m.rows and m.cols):
        raise InputError(f"dense-text cannot hold a {m.rows} x {m.cols} matrix; use alist or json")
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
    newline, streamed one matrix row at a time.  One ``str.replace`` puts the
    separator before, between and after a row's bits; the ends are cut off."""
    sink.write(f'{{\n "genus": {json.dumps(code.genus)},\n')
    for key, m in (("hx", code.hx), ("hz", code.hz)):
        sink.write(f' "{key}": [')
        sep = "\n"
        for word in m.data:
            bits = _row_bits(word, m.cols).replace("", ",\n   ")[5:-5]
            sink.write(sep + ("  [\n   " + bits + "\n  ]" if bits else "  []"))
            sep = ",\n"
        sink.write("\n ],\n" if m.rows else "],\n")
    sink.write(
        f' "k": {json.dumps(code.k)},\n "label": {json.dumps(code.source_label)},\n'
        f' "n": {json.dumps(code.n)}\n}}\n'
    )


def export_checks(code: CssCode, format: str, sink: IO[str], matrix: str = "hz") -> None:
    """Serialize parity checks; alist/dense-text take one matrix, json both."""
    if format == JSON_FORMAT:
        return _write_json(code, sink)
    if format not in (ALIST, DENSE_TEXT):
        raise InputError(f"unknown export format {format!r}; choose from {EXPORT_FORMATS}")
    if matrix not in ("hx", "hz"):
        raise InputError(f"matrix must be 'hx' or 'hz', got {matrix!r}")
    (write_alist if format == ALIST else write_dense_text)(getattr(code, matrix), sink)
