"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Two kinds of expected value are asserted side by side:

* stated values, the paper's printed parameters.  Its distances are the
  ceiling bounds ceil(d_h / l), so they are asserted against the closed-form
  formulas that produce them, never against a built code's exact distance;
* certified exact values, the distances of a built code, asserted through
  the search and the exhaustive oracle.  Where they differ from the stated
  bound, the value behind them rests on a proof or an independent
  computation in the test itself.

A gap between a stated value and an exact or recomputed one is asserted
and printed as a ``finding`` line under the criterion's PASS line.  Every
value is asserted at its stated tolerance; comparison failures are
reported, never suppressed.
"""
import csv
import io
import math
import time
from fractions import Fraction

from atqc.catalog import (
    TABLE1_FAMILIES,
    emit_curves,
    family_params,
    fixed_pair_rate,
    toric_family_params,
)
from atqc.distance import code_distances, oracle_distances
from atqc.errors import InputError
from atqc.geometry import SchlafliPair, census, edge_length
from atqc.homology import betti1, boundary_matrices, homology_signature
from atqc.binmat import RowBasis
from atqc.stabilizer import build_css, verify_stabilizers
from atqc.torus import HexTorusSpec, SquareTorusSpec, build_hex_torus, build_square_torus
from conftest import corpus_complexes, table1_value
from test_distance import compare_hex_distances

# Table row order: {7,3} {8,3} {9,3} {10,3} {12,3} {5,4} {6,4} {8,4} {10,5}
PRINTED_EDGE_LENGTHS = [
    0.5663, 1.0906, 0.7270, 1.5286, 0.8192, 1.8551, 0.8792, 2.1226,
    0.9516, 2.5534, 1.0612, 1.2537, 1.3170, 1.7628, 1.5286, 2.4485,
    2.1226, 3.2338,
]
TABLE_PAIRS = [(7, 3), (8, 3), (9, 3), (10, 3), (12, 3), (5, 4), (6, 4), (8, 4), (10, 5)]


class Criterion:
    def __init__(self, number, description, limit_seconds):
        self.number = number
        self.description = description
        self.limit = limit_seconds
        self.failures = []
        self.findings = []
        self.t0 = time.perf_counter()

    def check(self, condition, message):
        if not condition:
            self.failures.append(message)

    def finding(self, message):
        """Record an asserted gap between a stated value and an exact one."""
        self.findings.append(message)

    def finish(self):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if not self.failures else "FAIL"
        print(f"ACCEPTANCE {self.number} [{self.description}]: {status} ({elapsed:.2f}s)")
        for msg in self.findings:
            print(f"  finding: {msg}")
        for msg in self.failures:
            print(f"  - {msg}")
        assert not self.failures, f"criterion {self.number}: " + "; ".join(self.failures)
        assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s"


def test_criterion_1_edge_length_reproduction():
    crit = Criterion(1, "edge-length table reproduction", 1.0)
    values = []
    for p, q in TABLE_PAIRS:
        values.append(edge_length(SchlafliPair(p, q)))
        values.append(edge_length(SchlafliPair(q, p)))
    for got, printed in zip(values, PRINTED_EDGE_LENGTHS):
        crit.check(abs(got - printed) < 2e-4, f"{got:.6f} vs printed {printed}")
    crit.finish()


def test_criterion_2_octagonal_genus2_instance(ingested_genus2):
    crit = Criterion(2, "{8,3} genus-2 instance", 10.0)
    params = family_params(SchlafliPair(8, 3), 2)
    crit.check(
        (params.n, params.k, params.d_z, params.d_x) == (24, 4, 2, 5),
        f"family params gave [[{params.n},{params.k},{params.d_z}/{params.d_x}]]",
    )
    c = ingested_genus2
    crit.check(
        (c.num_vertices, c.num_edges, c.num_faces) == (16, 24, 6),
        f"ingested counts V={c.num_vertices} E={c.num_edges} F={c.num_faces}",
    )
    code = build_css(c)
    crit.check((code.n, code.k) == (24, 4), f"rank gave n={code.n}, k={code.k}")
    crit.check(betti1(c) == 4, f"betti1 = {betti1(c)}")
    oracle = oracle_distances(code)
    crit.check(oracle == (5, 2), f"oracle distances {oracle} != (5, 2)")
    crit.finish()


def test_criterion_3_final_case_studies():
    crit = Criterion(3, "fixed-protection case studies", 1.0)
    cases = [
        ((7, 3), 2, (6, 3), None),
        ((8, 3), 3, (6, 3), None),
        ((9, 3), 4, (6, 3), None),
        ((10, 3), 5, (6, 3), None),
        ((12, 3), 5, (6, 3), None),
        ((5, 4), 4, (5, 4), (60, 8)),
        ((6, 4), 9, (5, 4), (96, 18)),
        ((8, 4), 16, (5, 4), (120, 32)),
    ]
    # The stated {12,3} g=5 row is not what the closed forms give there:
    # d_h(5) / l(3,12) = 1.9813, so d_z = 2.  Asserted against the ratio
    # recomputed below; the stated (6, 3) is first reached at g = 6.
    formula_gives = {((12, 3), 5): (6, 2)}
    for (p, q), g, stated, nk in cases:
        params = family_params(SchlafliPair(p, q), g)
        got = (params.d_x, params.d_z)
        expected = formula_gives.get(((p, q), g), stated)
        crit.check(
            got == expected,
            f"{{{p},{q}}} g={g}: got (d_x,d_z)={got}, expected {expected} (stated {stated})",
        )
        if nk is not None:
            crit.check(
                (params.n, params.k) == nk,
                f"{{{p},{q}}} g={g}: got [[{params.n},{params.k}]], stated {nk}",
            )

    # Independent of atqc.geometry: cosh(l/2) = cos(pi/p) / sin(pi/q) for the
    # {p,q} edge, cosh(d_h/2) = cot(pi/4g) across the regular 4g-gon.
    def edge(p, q):
        return 2 * math.acosh(math.cos(math.pi / p) / math.sin(math.pi / q))

    d_h5 = 2 * math.acosh(1 / math.tan(math.pi / 20))
    ratio_x, ratio_z = d_h5 / edge(12, 3), d_h5 / edge(3, 12)
    crit.check(1.98 < ratio_z < 1.99, f"{{12,3}} g=5: d_h/l(3,12) = {ratio_z:.6f}")
    buf = io.StringIO()
    emit_curves([SchlafliPair(12, 3)], [5], buf)
    buf.seek(0)
    (row,) = csv.DictReader(buf)
    crit.check(
        abs(float(row["dx_raw"]) - ratio_x) < 1e-9 and abs(float(row["dz_raw"]) - ratio_z) < 1e-9,
        f"{{12,3}} g=5: curve ratios ({row['dx_raw']}, {row['dz_raw']}) "
        f"vs recomputed ({ratio_x:.12g}, {ratio_z:.12g})",
    )
    recomputed = (math.ceil(ratio_x), math.ceil(ratio_z))
    by_genus = {g: family_params(SchlafliPair(12, 3), g) for g in range(2, 11)}
    got5 = (by_genus[5].d_x, by_genus[5].d_z)
    crit.check(
        got5 == recomputed == (6, 2),
        f"{{12,3}} g=5: family_params {got5}, recomputed {recomputed}",
    )
    first = min((g for g, prm in by_genus.items() if (prm.d_x, prm.d_z) == (6, 3)), default=None)
    crit.check(first == 6, f"{{12,3}}: stated (6, 3) first reached at g={first}, not 6")
    crit.finding(
        f"{{12,3}} g=5: stated (6, 3), but d_h(5)/l(3,12) = {ratio_z:.4f} gives "
        "d_z = 2; the closed forms first reach (6, 3) at g = 6"
    )
    crit.finish()


def test_criterion_4_square_torus_family():
    crit = Criterion(4, "square-torus family", 30.0)
    for l in (2, 3, 4, 5):
        c = build_square_torus(SquareTorusSpec(l))
        code = build_css(c)
        crit.check((code.hx @ code.hz.transpose()).is_zero(), f"l={l}: hx.hz^T != 0")
        crit.check(
            code.k == 2 * l * l - 2 * (l * l - 1) == 2,
            f"l={l}: k = {code.k}",
        )
        r = code_distances(c)
        crit.check((r.d_x, r.d_z) == (l, l), f"l={l}: search distances ({r.d_x},{r.d_z})")
        if l <= 3:
            oracle = oracle_distances(code)
            crit.check(oracle == (l, l), f"l={l}: oracle {oracle}")
    crit.finish()


def test_criterion_5_hex_apothem_family():
    crit = Criterion(5, "hex apothem-scaled family", 60.0)
    expected = {2: (4, 2), 3: (6, 3)}
    for xi, target in expected.items():
        c = build_hex_torus(HexTorusSpec("apothem", xi))
        code = build_css(c)
        crit.check(code.n == 3 * xi * xi, f"xi={xi}: n = {code.n}")
        crit.check(code.k == 2, f"xi={xi}: k = {code.k}")
        r = code_distances(c)
        crit.check(
            (r.d_x, r.d_z) == target, f"xi={xi}: search distances ({r.d_x},{r.d_z})"
        )
        oracle = oracle_distances(code)
        crit.check(oracle == target, f"xi={xi}: oracle {oracle}")
        comparison = compare_hex_distances(HexTorusSpec("apothem", xi))
        crit.check(
            comparison.matches,
            f"xi={xi}: finding: {comparison.finding}",
        )
    crit.finish()


def honeycomb_edge_exact(lam):
    """Exact (d_x, d_z) of the edge-scaled {6,3} torus, 3 | lambda.

    The shortest periods have length lambda along hexagon-edge directions;
    the next ones have length sqrt(3)*lambda.  Along an edge direction a
    honeycomb edge advances 1 if parallel, else 1/2, and no two consecutive
    edges are parallel, so a period 3m costs at least 4m edges, which the
    armchair path attains.  Any other period costs at least 2*lambda.  The
    dual triangular lattice has edges of length sqrt(3) that advance at most
    3/2 along the period, so the period costs 2*lambda/3 dual edges, and
    any other period at least lambda.
    """
    return 4 * lam // 3, 2 * lam // 3


def test_criterion_6_hex_edge_family():
    crit = Criterion(6, "hex edge-scaled family", 60.0)
    # lambda = 3: stated [[9,2,2/3]] are the ceiling bounds (lambda, ceil(lambda/sqrt 3))
    params3 = toric_family_params(HexTorusSpec("edge", 3))
    crit.check(
        (params3.n, params3.k, params3.d_z, params3.d_x) == (9, 2, 2, 3),
        f"lambda=3 params [[{params3.n},{params3.k},{params3.d_z}/{params3.d_x}]]",
    )
    # the lambda = 3 graph is K_{3,3}: bipartite, so no 3-cycle exists
    oracle3 = oracle_distances(build_css(build_hex_torus(HexTorusSpec("edge", 3))))
    crit.check(
        oracle3 == honeycomb_edge_exact(3) == (4, 2),
        f"lambda=3: oracle found {oracle3}, exact {honeycomb_edge_exact(3)}",
    )
    crit.check(
        oracle3[0] >= params3.d_x and oracle3[1] >= params3.d_z,
        f"lambda=3: exact {oracle3} below the stated bounds ({params3.d_x}, {params3.d_z})",
    )
    # lambda = 4 must be rejected with the integrality diagnostic
    try:
        HexTorusSpec("edge", 4)
        crit.check(False, "lambda=4 was not rejected")
    except InputError as exc:
        crit.check("3 | lambda" in str(exc), f"lambda=4 diagnostic: {exc}")
    # lambda = 6: stated (d_x, d_z) = (6, 4) bounds; exact by search and oracle
    params6 = toric_family_params(HexTorusSpec("edge", 6))
    crit.check(
        (params6.d_x, params6.d_z) == (6, 4),
        f"lambda=6 params (d_x,d_z)=({params6.d_x},{params6.d_z}), stated (6, 4)",
    )
    c6 = build_hex_torus(HexTorusSpec("edge", 6))
    code6 = build_css(c6)
    crit.check((code6.n, code6.k) == (36, 2), f"lambda=6: [[{code6.n},{code6.k}]]")
    r6 = code_distances(c6)
    oracle6 = oracle_distances(code6, 36)
    crit.check(
        (r6.d_x, r6.d_z) == oracle6 == honeycomb_edge_exact(6) == (8, 4),
        f"lambda=6: search found ({r6.d_x}, {r6.d_z}), oracle {oracle6}, "
        f"exact {honeycomb_edge_exact(6)}",
    )
    crit.check(
        oracle6[0] >= params6.d_x and oracle6[1] >= params6.d_z,
        f"lambda=6: exact {oracle6} below the stated bounds ({params6.d_x}, {params6.d_z})",
    )
    for lam, stated in ((3, (3, 2)), (6, (6, 4))):
        cmp = compare_hex_distances(HexTorusSpec("edge", lam))
        crit.check(
            (cmp.formula, cmp.computed) == (stated, honeycomb_edge_exact(lam))
            and cmp.finding is not None,
            f"lambda={lam}: comparison {cmp.formula} vs {cmp.computed}, finding {cmp.finding!r}",
        )
        if cmp.finding is not None:
            crit.finding(cmp.finding)
    crit.finish()


def test_criterion_7_homology_invariants(ingested_genus2):
    crit = Criterion(7, "homology invariant suite", 60.0)
    corpus = corpus_complexes() + [ingested_genus2]
    for c in corpus:
        cc = boundary_matrices(c)
        crit.check((cc.d1 @ cc.d2).is_zero(), f"{c.label}: d1.d2 != 0")
        crit.check(betti1(c) == 2 * c.genus, f"{c.label}: betti1 != 2g")
        crit.check(
            verify_stabilizers(build_css(c)) == c.num_vertices + c.num_faces - 2,
            f"{c.label}: generator count",
        )
        if c.num_edges <= 14:
            boundaries = RowBasis(cc.d2.transpose().data)
            kernel = cc.d1.kernel_basis()
            for bits in range(1 << len(kernel)):
                v = 0
                t = bits
                while t:
                    v ^= kernel[(t & -t).bit_length() - 1]
                    t &= t - 1
                sig_zero = homology_signature(c, v) == 0
                crit.check(
                    sig_zero == boundaries.contains(v),
                    f"{c.label}: signature/boundary mismatch on {v:b}",
                )
    crit.finish()


def test_criterion_8_family_formulas():
    crit = Criterion(8, "family formulas and rates", 1.0)
    representatives = {3: [7, 8, 9, 10, 12], 4: [5, 6, 8], 5: [10], 6: [4, 5, 9]}
    for q, fam in TABLE1_FAMILIES.items():
        # the printed Table 1 strings, the text `atqc table` prints
        printed = (fam.n_f_formula, fam.n_f_star_formula, fam.n_formula)
        for p in representatives[q]:
            pair = SchlafliPair(p, q)
            for g in range(2, 11):
                cen = census(pair, g)
                crit.check(
                    tuple(table1_value(text, p, g) for text in printed)
                    == (cen.n_f, cen.n_f_star, cen.n_edges),
                    f"{{p,{q}}} at p={p}, g={g}: printed formula != census",
                )
    stated_family_rates = {3: "1/3", 4: "1/2", 5: "3/5", 6: "2/3"}
    for q, text in stated_family_rates.items():
        crit.check(
            TABLE1_FAMILIES[q].asymptotic_rate == Fraction(text),
            f"{{p,{q}}} asymptotic rate",
        )
    stated_pair_rates = ["1/21", "1/12", "1/9", "2/15", "1/6", "1/10", "1/6", "1/4", "2/5"]
    for (p, q), text in zip(TABLE_PAIRS, stated_pair_rates):
        crit.check(
            fixed_pair_rate(SchlafliPair(p, q)) == Fraction(text),
            f"{{{p},{q}}} fixed-pair rate != {text}",
        )
    crit.finish()


def test_criterion_9_curve_regeneration():
    crit = Criterion(9, "curve regeneration", 1.0)
    buf = io.StringIO()
    emit_curves(
        [SchlafliPair(7, 3), SchlafliPair(5, 4), SchlafliPair(10, 5)], range(2, 11), buf
    )
    buf.seek(0)
    rows = list(csv.DictReader(buf))
    diff = {(r["pair"], int(r["g"])): float(r["diff_raw"]) for r in rows}
    for g in range(2, 11):
        crit.check(
            diff[("{7,3}", g)] > diff[("{5,4}", g)]
            and diff[("{7,3}", g)] > diff[("{10,5}", g)],
            f"g={g}: {{7,3}} asymmetry does not dominate",
        )
    unequal = [
        int(r["g"])
        for r in rows
        if r["pair"] == "{5,4}" and 2 <= int(r["g"]) <= 5 and r["dx_bound"] != r["dz_bound"]
    ]
    crit.check(unequal == [4], f"{{5,4}} unequal-protection genera in 2..5: {unequal}")
    crit.finish()
