import itertools
import random
import subprocess
import sys

import pytest

from atqc.binmat import BinaryMatrix, RowBasis, columns_of, parity, support
from atqc.homology import boundary_matrices
from atqc.torus import SquareTorusSpec, build_square_torus


def test_identity_rank_and_kernel():
    m = BinaryMatrix(4, 4, [0b0001, 0b0010, 0b0100, 0b1000])
    assert m.rank() == 4
    assert m.kernel_basis() == []


def dense(m):
    """The 0/1 rows of m, bit j of a row word in column j."""
    return [[(w >> j) & 1 for j in range(m.cols)] for w in m.data]


def annihilates(m, v):
    return not any(parity(w & v) for w in m.data)


def test_constructor_masks_row_words_to_the_column_count():
    m = BinaryMatrix(2, 3, [0b101 | 1 << 7, 0b110])
    assert (m.rows, m.cols) == (2, 3)
    assert dense(m) == [[1, 0, 1], [0, 1, 1]]
    with pytest.raises(ValueError, match="expected 2 row words, got 1"):
        BinaryMatrix(2, 3, [0b101])


def edge_shapes():
    """No rows, no columns, 1 x 1, and seeded random matrices of up to 7 x 9."""
    rng = random.Random(23)
    out = [BinaryMatrix(0, 4), BinaryMatrix(3, 0), BinaryMatrix(0, 0)]
    out += [BinaryMatrix(1, 1, [0]), BinaryMatrix(1, 1, [1])]
    for _ in range(40):
        rows, cols = rng.randint(0, 7), rng.randint(0, 9)
        out.append(BinaryMatrix(rows, cols, [rng.getrandbits(cols) for _ in range(rows)]))
    return out


def dense_columns(m):
    """The rows set in each column of m, ascending, read off its 0/1 rows."""
    rows = dense(m)
    return [[i for i in range(m.rows) if rows[i][j]] for j in range(m.cols)]


def test_transpose_involution():
    m = BinaryMatrix(2, 4, [0b1011, 0b1100])
    assert m.transpose().transpose() == m
    assert dense(m.transpose())[3] == [1, 1]
    assert columns_of(m) == [[0], [0], [1], [0, 1]]
    for m in edge_shapes():
        t = m.transpose()
        assert (t.rows, t.cols) == (m.cols, m.rows)
        assert dense(t) == [[int(i in col) for i in range(m.rows)] for col in dense_columns(m)]
        assert t.transpose() == m
        assert columns_of(m) == dense_columns(m)


def test_matmul_against_dense_arithmetic():
    a = BinaryMatrix(2, 3, [0b101, 0b111])
    b = BinaryMatrix(3, 2, [0b11, 0b10, 0b01])
    rng = random.Random(29)
    pairs = [(a, b)]
    for left in edge_shapes():
        k = rng.choice([0, 1, rng.randint(2, 8)])
        right = BinaryMatrix(left.cols, k, [rng.getrandbits(k) for _ in range(left.cols)])
        pairs.append((left, right))
    for a, b in pairs:
        product = a @ b
        dense_a, dense_b = dense(a), dense(b)
        expected = [
            [sum(dense_a[i][k] * dense_b[k][j] for k in range(a.cols)) % 2 for j in range(b.cols)]
            for i in range(a.rows)
        ]
        assert (product.rows, product.cols) == (a.rows, b.cols)
        assert dense(product) == expected
    with pytest.raises(ValueError, match="dimension mismatch"):
        BinaryMatrix(2, 3) @ BinaryMatrix(2, 3)


def test_kernel_vectors_annihilate():
    for m in [BinaryMatrix(3, 5, [0b10011, 0b01110, 0b11101])] + edge_shapes():
        basis = m.kernel_basis()
        assert len(basis) == m.cols - m.rank()
        for v in basis:
            assert annihilates(m, v)
        assert RowBasis(basis).rank == len(basis)
        # and the kernel is all of {v : M v = 0}, counted by enumeration
        assert len(brute_force_span(basis)) == sum(annihilates(m, v) for v in range(1 << m.cols))


def test_square_torus_d2_rank_by_subset_enumeration():
    # independent oracle: XOR every subset of face-boundary columns and count
    # the dependencies directly; the all-faces sum is the unique one
    c = build_square_torus(SquareTorusSpec(2))
    d2t = boundary_matrices(c).d2.transpose()
    zero_subsets = []
    for r in range(len(d2t.data) + 1):
        for subset in itertools.combinations(range(len(d2t.data)), r):
            acc = 0
            for i in subset:
                acc ^= d2t.data[i]
            if acc == 0 and subset:
                zero_subsets.append(subset)
    assert zero_subsets == [(0, 1, 2, 3)]
    assert d2t.rank() == 3


def test_in_row_space():
    m = BinaryMatrix(2, 3, [0b011, 0b110])
    assert RowBasis(m.data).contains(0b101)
    assert not RowBasis(m.data).contains(0b001)
    assert RowBasis(m.data).contains(0)


def test_row_basis_reduce():
    basis = RowBasis([0b011, 0b110])
    assert basis.rank == 2
    assert basis.contains(0b101)
    assert not basis.add(0b101)
    assert basis.add(0b100)
    # after adding an independent vector the span is all of GF(2)^3
    assert all(basis.contains(v) for v in range(8))


def test_support():
    assert support(0b101001) == (0, 3, 5)
    assert support(0) == ()


def test_support_of_a_negative_int_is_a_value_error():
    # in a child process with a timeout, so a regression to the endless loop fails here
    code = "from atqc.binmat import support\ntry: support(-1)\nexcept ValueError as e: print(e)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stdout) == (0, "a negative int has no finite support: -1\n")
    with pytest.raises(ValueError, match="negative"):
        support(-(1 << 70))


def brute_force_span(rows):
    span = {0}
    for r in rows:
        span |= {v ^ r for v in span}
    return span


def test_rank_kernel_membership_against_enumeration():
    rng = random.Random(7)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        mat = BinaryMatrix(m, n, [rng.getrandbits(n) for _ in range(m)])
        span = brute_force_span(mat.data)
        assert 2 ** mat.rank() == len(span)
        kernel = mat.kernel_basis()
        assert len(kernel) == n - mat.rank()
        kernel_span = brute_force_span(kernel)
        assert len(kernel_span) == 2 ** len(kernel)
        assert all(annihilates(mat, v) for v in kernel_span)
        rows = RowBasis(mat.data)
        for v in range(1 << n):
            assert rows.contains(v) == (v in span)


def test_kernel_basis_vectors_each_own_one_free_column():
    # the oracle's size bound: a sum of j basis vectors weighs at least j
    rng = random.Random(12)
    mats = edge_shapes()
    for _ in range(200):
        m, n = rng.randint(1, 10), rng.randint(1, 16)
        mats.append(BinaryMatrix(m, n, [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(m)]))
    for mat in mats:
        n = mat.cols
        # column c is a pivot when a row-space vector has its highest bit there
        ranks = [RowBasis(w >> c for w in mat.data).rank for c in range(n + 1)]
        pivots = sum(1 << c for c in range(n) if ranks[c] > ranks[c + 1])
        free = [v & ~pivots for v in mat.kernel_basis()]
        assert all(f.bit_count() == 1 for f in free)
        assert len(set(free)) == len(free) == n - mat.rank()
