"""Dense GF(2) matrices with bit-packed rows.

Rows are stored as Python integers (bit j = column j), which keeps all
arithmetic exact and makes XOR-heavy kernels cheap at desk scale.  Each walk
exists once: :func:`columns_of` (``transpose``, ``kernel_basis``), :func:`support`
(``@``) and :class:`RowBasis`'s elimination (``rank``, ``kernel_basis``).
"""
from __future__ import annotations

from typing import Iterable, Sequence


def parity(x: int) -> int:
    return x.bit_count() & 1


class BinaryMatrix:
    """A rows x cols matrix over GF(2)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Sequence[int] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [0] * rows
        else:
            if len(data) != rows:
                raise ValueError(f"expected {rows} row words, got {len(data)}")
            mask = (1 << cols) - 1
            self.data = [int(r) & mask for r in data]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BinaryMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"BinaryMatrix({self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        return not any(self.data)

    def transpose(self) -> "BinaryMatrix":
        return BinaryMatrix(self.cols, self.rows, [sum(1 << i for i in col) for col in columns_of(self)])

    def __matmul__(self, other: "BinaryMatrix") -> "BinaryMatrix":
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.cols} vs {other.rows}")
        out = []
        for w in self.data:
            acc = 0
            for j in support(w):
                acc ^= other.data[j]
            out.append(acc)
        return BinaryMatrix(self.rows, other.cols, out)

    def rank(self) -> int:
        return RowBasis(self.data).rank

    def kernel_basis(self) -> list[int]:
        """Basis of {v : M v = 0}, packed over the column index.  Each vector is the only
        one set at its own free (non-pivot) column, so a sum of j weighs at least j."""
        echelon = RowBasis(self.data)
        reduced, pivots = echelon.vectors, echelon.pivots
        # back-substitute so each pivot column appears in exactly one row
        for idx in range(len(reduced)):
            for jdx in range(idx):
                if (reduced[jdx] >> pivots[idx]) & 1:
                    reduced[jdx] ^= reduced[idx]
        # a free column's vector: its own bit and the pivot of each row set there
        pivot_set, columns = set(pivots), columns_of(BinaryMatrix(len(reduced), self.cols, reduced))
        return [1 << col | sum(1 << pivots[i] for i in rows)
                for col, rows in enumerate(columns) if col not in pivot_set]


class RowBasis:
    """Incremental echelon basis for a GF(2) row space."""

    __slots__ = ("vectors", "pivots")

    def __init__(self, rows: Iterable[int] = ()):
        self.vectors: list[int] = []
        self.pivots: list[int] = []
        for w in rows:
            self.add(w)

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def reduce(self, v: int) -> int:
        for w, p in zip(self.vectors, self.pivots):
            if (v >> p) & 1:
                v ^= w
        return v

    def add(self, v: int) -> bool:
        """Insert v; returns True if it enlarged the span."""
        v = self.reduce(v)
        if v == 0:
            return False
        self.vectors.append(v)
        self.pivots.append(v.bit_length() - 1)
        return True

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0


def columns_of(m: BinaryMatrix) -> list[list[int]]:
    """Each column of m as its rows, ascending: linear in the entries, unlike a transpose."""
    out = [[] for _ in range(m.cols)]
    for i, word in enumerate(m.data):
        while word:  # top bit first: clearing it shortens word
            j = word.bit_length() - 1
            out[j].append(i)
            word ^= 1 << j
    return out


def support(v: int) -> tuple[int, ...]:
    """Indices of the set bits, ascending; ValueError for a negative int (infinitely many)."""
    if v < 0:
        raise ValueError(f"a negative int has no finite support: {v}")
    out = []
    while v:
        j = (v & -v).bit_length() - 1
        out.append(j)
        v &= v - 1
    return tuple(out)
