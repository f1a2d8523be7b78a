import hashlib
import io
import json
import random
import re

import pytest
from gluings import random_gluing
from test_binmat import parity
from test_irregular import random_merges

from atqc.binmat import BinaryMatrix, RowBasis
from atqc.complexes import complex_from_dict, complex_to_dict, dual_complex, load_complex
from atqc.errors import IntegrityError, InputError
from atqc.homology import (
    boundary_matrices,
    cycle_cocycle_bases,
    homology_signature,
    mask_to_edges,
)
from atqc.stabilizer import (
    CssCode,
    build_css,
    columns_of,
    export_checks,
    incidence_rank,
    read_alist,
    read_dense_text,
    verify_stabilizers,
    write_alist,
    write_dense_text,
)
from atqc.torus import HexTorusSpec, SquareTorusSpec, build_hex_torus, build_square_torus


@pytest.mark.parametrize(
    "build,n,k",
    [
        (lambda: build_square_torus(SquareTorusSpec(3)), 18, 2),
        (lambda: build_hex_torus(HexTorusSpec("apothem", 2)), 12, 2),
    ],
)
def test_build_css_parameters(build, n, k):
    code = build_css(build())
    assert (code.n, code.k) == (n, k)


def test_build_css_ingested(ingested_genus2):
    code = build_css(ingested_genus2)
    assert (code.n, code.k) == (24, 4)


def test_hx_rows_are_face_boundaries(corpus):
    for c in corpus:
        assert build_css(c).hx == boundary_matrices(c).d2.transpose()


def test_commutation_everywhere(corpus):
    for c in corpus:
        code = build_css(c)
        assert (code.hx @ code.hz.transpose()).is_zero()
        assert code.k == 2 * c.genus == code.n - code.hx.rank() - code.hz.rank()


def test_column_weight_law(corpus):
    for c in corpus:
        code = build_css(c)
        if c.degenerate_faces:
            continue
        hx_cols = code.hx.transpose()
        assert all(col.bit_count() == 2 for col in hx_cols.data)
        hz_cols = code.hz.transpose()
        assert all(col.bit_count() in (0, 2) for col in hz_cols.data)


def test_verify_stabilizers_square2():
    code = build_css(build_square_torus(SquareTorusSpec(2)))
    assert verify_stabilizers(code) == 4 + 4 - 2 == 6
    assert code.k == 8 - 6 == 2


def test_verify_stabilizers_hex2():
    code = build_css(build_hex_torus(HexTorusSpec("apothem", 2)))
    assert verify_stabilizers(code) == 8 + 4 - 2 == 10
    assert code.k == 12 - 10 == 2


def test_verify_stabilizers_corpus(corpus):
    for c in corpus:
        assert verify_stabilizers(build_css(c)) == c.num_vertices + c.num_faces - 2


def test_verify_rejects_broken_commutation():
    code = build_css(build_square_torus(SquareTorusSpec(2)))
    hx = BinaryMatrix(code.hx.rows, code.hx.cols, list(code.hx.data))
    hx.data[0] ^= 1  # delete one face slot
    with pytest.raises(IntegrityError, match="anticommutes"):
        verify_stabilizers(code._replace(hx=hx))


def test_verify_rederives_k():
    code = build_css(build_square_torus(SquareTorusSpec(2)))
    with pytest.raises(IntegrityError, match="not k = 4"):
        verify_stabilizers(code._replace(k=4))


def test_verify_names_the_first_anticommuting_pair(corpus):
    # the single product hx . hz^T against the face-by-vertex parity loop
    for c in corpus:
        if c.num_faces < 2:
            continue  # both flips would land in one row and could cancel
        code = build_css(c)
        hx = BinaryMatrix(code.hx.rows, code.hx.cols, list(code.hx.data))
        hx.data[len(hx.data) // 2] ^= 1 << (code.n - 1)
        hx.data[-1] ^= 1
        i, j = next(
            (i, j)
            for i, x in enumerate(hx.data)
            for j, z in enumerate(code.hz.data)
            if parity(x & z)
        )
        message = (
            f"X check on face {code.face_ids[i]} anticommutes with Z check "
            f"on vertex {code.vertex_ids[j]}"
        )
        with pytest.raises(IntegrityError, match=f"^{re.escape(message)}$"):
            verify_stabilizers(code._replace(hx=hx))


def assert_incidence_rank_is_elimination_rank(c):
    code = build_css(c)
    for m in (code.hx, code.hz):
        assert incidence_rank(columns_of(m), code.edge_ids) == RowBasis(m.data).rank, c.label


def test_incidence_rank_equals_elimination_on_corpus(corpus):
    for c in corpus:
        assert_incidence_rank_is_elimination_rank(c)


def test_incidence_rank_equals_elimination_on_gluings():
    rng = random.Random(20211)
    for _ in range(300):
        assert_incidence_rank_is_elimination_rank(complex_from_dict(random_gluing(rng)[0]))


def test_incidence_rank_equals_elimination_on_merges():
    for seed in range(41, 61):
        for c in random_merges(seed):
            assert_incidence_rank_is_elimination_rank(c)


def square2_code_with(**rows):
    """The L = 2 square torus code with a matrix's rows replaced by the picked
    ones; its faces and vertices are 0..3 = (row, column) (0,0) (0,1) (1,0) (1,1)."""
    code = build_css(build_square_torus(SquareTorusSpec(2)))
    picked = {}
    for key, pick in rows.items():
        m = getattr(code, key)
        picked[key] = BinaryMatrix(m.rows, m.cols, [m.data[i] for i in pick])
    return code._replace(**picked)


@pytest.mark.parametrize("key", ["hx", "hz"])
def test_duplicated_rows_lower_the_generator_count(key):
    # each diagonal check twice: every edge still in two checks, both products
    # trivial, commutation kept, but the rows split into two components
    code = square2_code_with(**{key: (0, 0, 3, 3)})
    m = getattr(code, key)
    assert incidence_rank(columns_of(m), code.edge_ids) == RowBasis(m.data).rank == 2
    message = "5 independent generators, expected |V|+|F|-2 = 6"
    with pytest.raises(IntegrityError, match=f"^{re.escape(message)}$"):
        verify_stabilizers(code)


@pytest.mark.parametrize("key", ["hx", "hz"])
def test_edge_in_four_checks_is_named(key):
    # two vertically adjacent checks, each twice: their two shared edges sit
    # in four checks, which the product checks cannot see
    code = square2_code_with(**{key: (0, 0, 2, 2)})
    m = getattr(code, key)
    shared = m.data[0] & m.data[2]
    edge = code.edge_ids[(shared & -shared).bit_length() - 1]
    message = f"edge {edge} is in 4 checks, expected 0 or 2"
    with pytest.raises(IntegrityError, match=f"^{re.escape(message)}$"):
        verify_stabilizers(code)
    with pytest.raises(IntegrityError, match="is in 4 checks"):
        incidence_rank(columns_of(m), code.edge_ids)


def test_product_checks_fire_before_edge_incidence():
    # adding one check to another keeps commutation but leaves edges in one
    # or three checks; test_verify_rejects_broken_commutation shows that
    # commutation fires before both
    code = build_css(build_square_torus(SquareTorusSpec(2)))
    for key, what in (("hx", "face"), ("hz", "vertex")):
        m = getattr(code, key)
        rows = [m.data[0] ^ m.data[1]] + m.data[1:]
        bent = code._replace(**{key: BinaryMatrix(m.rows, m.cols, rows)})
        with pytest.raises(IntegrityError, match=f"^product of all {what} operators"):
            verify_stabilizers(bent)


def test_degenerate_build_warns():
    code = build_css(build_hex_torus(HexTorusSpec("apothem", 1)))
    assert code.warnings and "degenerate" in code.warnings[0]
    assert code.k == 2


def test_dual_covariance(corpus):
    # the code of the dual complex swaps hx and hz over the same edge ids
    for c in corpus:
        code = build_css(c)
        dual_code = build_css(dual_complex(c))
        assert dual_code.edge_ids == code.edge_ids
        assert sorted(dual_code.hx.data) == sorted(code.hz.data)
        assert sorted(dual_code.hz.data) == sorted(code.hx.data)


def test_logical_bases(corpus):
    for c in corpus:
        code = build_css(c)
        lx, lz = cycle_cocycle_bases(c)
        assert len(lx) == len(lz) == 2 * c.genus
        x_checks, z_checks = RowBasis(code.hx.data), RowBasis(code.hz.data)
        for x in lx:
            # commutes with Z checks, outside the X-check row space
            assert all(parity(x & row) == 0 for row in code.hz.data)
            assert not x_checks.contains(x)
            assert homology_signature(c, x) != 0
        for z in lz:
            assert all(parity(z & row) == 0 for row in code.hx.data)
            assert not z_checks.contains(z)
        for i, x in enumerate(lx):
            for j, z in enumerate(lz):
                assert parity(x & z) == (1 if i == j else 0)


def test_square3_logicals_are_straight_loops():
    c = build_square_torus(SquareTorusSpec(3))
    lx = [mask_to_edges(c, m) for m in cycle_cocycle_bases(c)[0]]
    assert (0, 1, 2) in lx  # the weight-3 horizontal loop through row 0
    assert all(len(op) == 3 for op in lx)


def test_alist_export_square2_hx():
    code = build_css(build_square_torus(SquareTorusSpec(2)))
    buf = io.StringIO()
    export_checks(code, "alist", buf, matrix="hx")
    lines = buf.getvalue().splitlines()
    assert lines[0] == "8 4"
    assert lines[3] == "4 4 4 4"  # row weights
    buf.seek(0)
    assert read_alist(buf) == code.hx


def test_alist_export_square3_hz_column_weights():
    code = build_css(build_square_torus(SquareTorusSpec(3)))
    buf = io.StringIO()
    export_checks(code, "alist", buf, matrix="hz")
    lines = buf.getvalue().splitlines()
    assert lines[0] == "18 9"
    assert lines[2] == " ".join(["2"] * 18)  # column weights
    buf.seek(0)
    assert read_alist(buf) == code.hz


# a 2 x 3 matrix, rows {1, 2} and {2, 3}: header, weights, columns, rows
VALID_ALIST = ["3 2", "2 2", "1 2 1", "2 2", "1 0", "1 2", "2 0", "1 2", "2 3"]


def test_read_alist_hand_written():
    m = read_alist(io.StringIO("\n".join(VALID_ALIST)))
    assert m == BinaryMatrix(2, 3, [0b011, 0b110])


@pytest.mark.parametrize(
    "line,text",
    [
        (8, "1 3"),  # the row section disagrees with the column section
        (4, "0 0"),  # a 0 index inside a column's weight
        (7, "0 2"),  # a 0 index inside a row's weight
        (6, "3 0"),  # row index past the 2 rows
        (8, "2 4"),  # column index past the 3 columns
        (4, "-1 0"),  # negative index
        (4, "1 2"),  # nonzero padding
        (5, "1 1"),  # repeated index
        (2, "1 3 1"),  # weight above the declared maximum
        (1, "3 2"),  # declared maximum above every weight
        (0, "3 -2"),  # negative dimension
        (5, "1 x"),  # non-integer token
        (8, None),  # truncated
        (9, "1"),  # numbers past the row section
    ],
)
def test_read_alist_rejects_malformed(line, text):
    lines = list(VALID_ALIST)
    if line == len(lines):
        lines.append(text)
    elif text is None:
        del lines[line]
    else:
        lines[line] = text
    with pytest.raises(InputError):
        read_alist(io.StringIO("\n".join(lines)))


def test_dense_text_roundtrip(corpus):
    for c in corpus[:4]:
        code = build_css(c)
        buf = io.StringIO()
        write_dense_text(code.hz, buf)
        buf.seek(0)
        assert read_dense_text(buf) == code.hz


@pytest.mark.parametrize("rows,cols", [(3, 0), (0, 4)])
def test_dense_text_refuses_shapes_it_cannot_read_back(rows, cols):
    # with no header, 3 x 0 would be three empty lines and 0 x 4 nothing
    m = BinaryMatrix(rows, cols)
    with pytest.raises(InputError, match="alist or json"):
        write_dense_text(m, io.StringIO())
    buf = io.StringIO()
    write_alist(m, buf)
    buf.seek(0)
    assert read_alist(buf) == m


def test_alist_roundtrip(corpus):
    for c in corpus:
        code = build_css(c)
        for m in (code.hx, code.hz):
            buf = io.StringIO()
            write_alist(m, buf)
            buf.seek(0)
            assert read_alist(buf) == m


def test_json_export_carries_metadata(ingested_genus2):
    code = build_css(ingested_genus2)
    buf = io.StringIO()
    export_checks(code, "json", buf)
    doc = json.loads(buf.getvalue())
    assert doc["n"] == 24 and doc["k"] == 4 and doc["genus"] == 2
    assert doc["label"] == ingested_genus2.label
    assert doc["hx"] == dense(code.hx) and doc["hz"] == dense(code.hz)


def test_export_rejects_unknown_format():
    code = build_css(build_square_torus(SquareTorusSpec(2)))
    with pytest.raises(InputError):
        export_checks(code, "yaml", io.StringIO())


@pytest.mark.parametrize("format", ["alist", "dense-text"])
def test_export_rejects_unknown_matrix(format):
    code = build_css(build_square_torus(SquareTorusSpec(2)))
    with pytest.raises(InputError, match="matrix must be 'hx' or 'hz', got 'hq'"):
        export_checks(code, format, io.StringIO(), matrix="hq")


# -- byte identity against the per-bit writers ------------------------------


def dense(m: BinaryMatrix) -> list[list[int]]:
    """The 0/1 rows of m, bit j of a row word in column j."""
    return [[(w >> j) & 1 for j in range(m.cols)] for w in m.data]


def reference_dense_text(m: BinaryMatrix) -> str:
    return "".join(
        "".join("1" if (word >> j) & 1 else "0" for j in range(m.cols)) + "\n"
        for word in m.data
    )


def reference_json(code: CssCode) -> str:
    doc = {
        "n": code.n,
        "k": code.k,
        "genus": code.genus,
        "hx": dense(code.hx),
        "hz": dense(code.hz),
        "label": code.source_label,
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def reference_alist(m: BinaryMatrix) -> str:
    """MacKay alist, bit by bit: column lists first, then row lists, each
    1-based and padded with 0 to the largest weight."""
    rows = dense(m)
    col_lists = [[i + 1 for i in range(m.rows) if rows[i][j]] for j in range(m.cols)]
    row_lists = [[j + 1 for j in range(m.cols) if row[j]] for row in rows]
    max_col = max((len(c) for c in col_lists), default=0)
    max_row = max((len(r) for r in row_lists), default=0)
    lines = [[m.cols, m.rows], [max_col, max_row],
             [len(c) for c in col_lists], [len(r) for r in row_lists]]
    lines += [c + [0] * (max_col - len(c)) for c in col_lists]
    lines += [r + [0] * (max_row - len(r)) for r in row_lists]
    return "".join(" ".join(str(x) for x in line) + "\n" for line in lines)


def reference_export(code: CssCode, format: str, matrix: str) -> str:
    m = code.hx if matrix == "hx" else code.hz
    if format == "alist":
        return reference_alist(m)
    if format == "dense-text":
        return reference_dense_text(m)
    return reference_json(code)


def assert_exports_match_reference(code: CssCode) -> None:
    for format in ("alist", "dense-text", "json"):
        for matrix in ("hx", "hz"):
            buf = io.StringIO()
            m = code.hx if matrix == "hx" else code.hz
            if format == "dense-text" and not (m.rows and m.cols):
                # no header to carry an empty shape: refused, not written
                with pytest.raises(InputError, match="alist or json"):
                    export_checks(code, format, buf, matrix=matrix)
                continue
            export_checks(code, format, buf, matrix=matrix)
            assert buf.getvalue() == reference_export(code, format, matrix), (format, matrix)


def test_exports_byte_identical_on_corpus(corpus):
    # the corpus ends with the ingested {8,3} complex
    for c in corpus:
        assert_exports_match_reference(build_css(c))


def test_json_export_escapes_label_like_json_dump():
    doc = complex_to_dict(build_square_torus(SquareTorusSpec(2)))
    doc["label"] = 'caf\u00e9 "quoted" back\\slash\nsecond line'
    code = build_css(load_complex(io.StringIO(json.dumps(doc, ensure_ascii=False))))
    assert code.source_label == doc["label"]
    assert_exports_match_reference(code)


@pytest.mark.parametrize("rows,cols", [(0, 5), (3, 0), (0, 0), (1, 64), (5, 2)])
def test_exports_byte_identical_on_edge_shapes(rows, cols):
    code = build_css(build_square_torus(SquareTorusSpec(2)))
    m = BinaryMatrix(rows, cols, [(1 << cols) - 1 - (i % 2) for i in range(rows)])
    assert_exports_match_reference(code._replace(hx=m, hz=m))


# SHA-256 of every export, taken from the per-bit writers before the bulk ones
EXPORT_DIGESTS = {
    "genus2": {
        ("alist", "hx"): "e2d0d5abb5bf979b89176248bd8e9b55c4963b1dbabaf8d7ddd317252c18a1ca",
        ("alist", "hz"): "9805e68cfa57dbcea474d8b9fff14385a5f0d18573ff79934aa3cada1eb52a02",
        ("dense-text", "hx"): "d5b310ef164f5c50f1aac9fc2c6572ed3046e175fc937c03804b10788b67bc75",
        ("dense-text", "hz"): "2bbe77a5fe83b2cf340d036a0d469b5c5c61f9b3e9b6b6fc16f5b760ce96e05f",
        ("json", "hz"): "71a3d0e6b2dd19b8cab318a2b869f7297ecf85373ad142b54f91529c2c2fa02b",
    },
    "square3": {
        ("alist", "hx"): "15334305bd2a0c20429234ef5339880efe1f1da5ea0680a6f6a27eed813d02ae",
        ("alist", "hz"): "7d2d9e517527a661bf05e16453db90384da75f85f3a08b674667b7b9fb0d47e0",
        ("dense-text", "hx"): "02c64b1f4efcac72e413ff807ccbb25b0c911d7dadc513e8fd48e232eb006fe4",
        ("dense-text", "hz"): "82fb9f5e3fa88ecc6cce965887efebd0e179948d708f4fd54f243358dbfa29b9",
        ("json", "hz"): "f9d1e12a65226494b1554e9021c3192085ed57293a825b908181a711dcc3bc88",
    },
    "hex-edge9": {
        ("alist", "hx"): "e29a8865f02ba5e4fff1cce82cec5e229d91140f51a73cd22085c45eae7122c1",
        ("alist", "hz"): "4ac9332bc032d8f96f74220a02ce6b4bcd987de09e731613f04449096da73e6b",
        ("dense-text", "hx"): "87e9898af6dde3e75bfa414c6dcc395118a8d7f0dda451d2718f7373a07340da",
        ("dense-text", "hz"): "2643103df3424145249bfe635b3e6b77726a959b9375879ecf17fb72a4553df4",
        ("json", "hz"): "17f5cce606af4cd0894f79696ec7894b89361115790f522f541615449120a99c",
    },
}


@pytest.mark.parametrize("name", sorted(EXPORT_DIGESTS))
def test_export_digests_are_pinned(name, ingested_genus2):
    c = {
        "genus2": ingested_genus2,
        "square3": build_square_torus(SquareTorusSpec(3)),
        "hex-edge9": build_hex_torus(HexTorusSpec("edge", 9)),
    }[name]
    code = build_css(c)
    for (format, matrix), digest in EXPORT_DIGESTS[name].items():
        buf = io.StringIO()
        export_checks(code, format, buf, matrix=matrix)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest, (format, matrix)
        assert buf.getvalue() == reference_export(code, format, matrix), (format, matrix)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty dense-text matrix"),
        ("\n  \n", "empty dense-text matrix"),
        ("101\n10\n", "equal-length strings of 0/1"),
        ("101\n1x1\n", "equal-length strings of 0/1"),
        ("121\n", "equal-length strings of 0/1"),
    ],
    ids=["empty", "blank-lines", "ragged", "letter", "digit-2"],
)
def test_read_dense_text_rejects_malformed_input(text, message):
    with pytest.raises(InputError, match=message):
        read_dense_text(io.StringIO(text))
