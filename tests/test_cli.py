import hashlib
import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from atqc import cli
from atqc.complexes import load_complex
from atqc.distance import certified_distances
from atqc.errors import DiscrepancyError

DATA = Path(__file__).resolve().parent.parent / "data" / "hyperbolic_octagonal_genus2.json"


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "atqc", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_classify_hyperbolic():
    proc = run_cli("classify", "--p", "7", "--q", "3")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc == {"class": "hyperbolic", "indicator": 5}


def test_classify_euclidean():
    doc = json.loads(run_cli("classify", "--p", "4", "--q", "4").stdout)
    assert doc["class"] == "euclidean"


def test_classify_rejects_small_p():
    proc = run_cli("classify", "--p", "2", "--q", "9")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error" in proc.stderr


def test_params_examples():
    doc = json.loads(run_cli("params", "--p", "8", "--q", "3", "--g", "2").stdout)
    assert (doc["n"], doc["k"], doc["d_x"], doc["d_z"]) == (24, 4, 5, 2)
    doc = json.loads(run_cli("params", "--p", "7", "--q", "3", "--g", "2").stdout)
    assert (doc["d_x"], doc["d_z"]) == (6, 3)


def test_params_rejects_euclidean():
    proc = run_cli("params", "--p", "6", "--q", "3", "--g", "2")
    assert proc.returncode == 2
    assert "not hyperbolic" in proc.stderr


def test_build_check_distance_pipeline():
    built = run_cli("build", "--hex-apothem", "2")
    assert built.returncode == 0
    checked = run_cli("check", "-", stdin=built.stdout)
    assert checked.returncode == 0
    report = json.loads(checked.stdout)
    assert report["ok"] and report["betti1"] == 2 and report["n"] == 12
    dist = run_cli("distance", "-", stdin=built.stdout)
    assert dist.returncode == 0
    doc = json.loads(dist.stdout)
    assert (doc["d_x"], doc["d_z"], doc["method"]) == (4, 2, "both-agree")


def test_check_lists_the_checks_that_ran(capsys):
    assert cli.main(["check", str(DATA)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"] == [
        "commutation",
        "face_product",
        "vertex_product",
        "edge_incidence",
        "generator_count",
    ]
    assert doc["ok"] is True and doc["independent_generators"] == 16 + 6 - 2


def test_build_requires_exactly_one_spec():
    proc = run_cli("build", "--square", "3", "--hex-apothem", "2")
    assert proc.returncode == 2


def test_build_without_a_spec_exits_2():
    proc = run_cli("build")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "one of the arguments --square --hex-apothem --hex-edge is required" in proc.stderr


def test_build_rejects_bad_lambda():
    proc = run_cli("build", "--hex-edge", "4")
    assert proc.returncode == 2
    assert "3 | lambda" in proc.stderr


def test_export_alist_hz_default():
    built = run_cli("build", "--square", "3")
    exported = run_cli("export", "-", "--format", "alist", stdin=built.stdout)
    assert exported.returncode == 0
    lines = exported.stdout.splitlines()
    assert lines[0] == "18 9"
    assert lines[2] == " ".join(["2"] * 18)


def test_export_roundtrip_formats(tmp_path):
    built = run_cli("build", "--square", "2")
    for fmt in ("alist", "dense-text", "json"):
        matrix = () if fmt == "json" else ("--matrix", "hx")
        proc = run_cli("export", "-", "--format", fmt, *matrix, stdin=built.stdout)
        assert proc.returncode == 0 and proc.stdout


def test_export_rejects_matrix_with_json():
    built = run_cli("build", "--square", "2")
    for matrix in ("hx", "hz"):
        proc = run_cli("export", "-", "--format", "json", "--matrix", matrix, stdin=built.stdout)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "--matrix" in proc.stderr


def test_distance_on_data_file():
    proc = run_cli("distance", str(DATA))
    doc = json.loads(proc.stdout)
    assert (doc["d_x"], doc["d_z"], doc["method"]) == (5, 2, "both-agree")


DISTANCE_ON_DATA = """{
 "d_x": 5,
 "d_z": 2,
 "method": "both-agree",
 "oracle": {
  "ceiling": 30,
  "n": 24,
  "ran": true
 },
 "witness_x": [
  7,
  11,
  12,
  14,
  19
 ],
 "witness_z": [
  0,
  4
 ]
}
"""


def test_distance_on_data_file_writes_these_bytes():
    proc = run_cli("distance", str(DATA))
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", DISTANCE_ON_DATA)


def test_check_rejects_corrupted_file(tmp_path):
    doc = json.loads(DATA.read_text())
    doc["faces"][0]["edge_cycle"] = doc["faces"][0]["edge_cycle"][1:]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    proc = run_cli("check", str(bad))
    assert proc.returncode == 2
    assert "face-slots" in proc.stderr


@pytest.mark.parametrize(
    "command, data",
    [
        ("check", b"\xff\xfe{}\n"),
        ("distance", b"[" * 100000),
        ("check", b'{"genus": 1' + b"0" * 5000 + b"}"),
    ],
    ids=["not-utf8", "nested-100000-deep", "5001-digit-integer"],
)
@pytest.mark.parametrize("via", ["path", "stdin"])
def test_undecodable_json_exits_2_without_a_traceback(tmp_path, command, data, via):
    # json.load raises UnicodeDecodeError, RecursionError and, past the interpreter's
    # integer digit limit, a plain ValueError on these, not JSONDecodeError
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    args, stdin = ([str(bad)], None) if via == "path" else (["-"], data)
    proc = subprocess.run(
        [sys.executable, "-m", "atqc", command, *args], input=stdin, capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: ")
    assert b"Traceback" not in proc.stderr


def test_missing_file_is_io_error():
    proc = run_cli("check", "/nonexistent/nope.json")
    assert proc.returncode == 4


def test_table_csv():
    proc = run_cli("table")
    assert proc.returncode == 0
    header = proc.stdout.splitlines()[0]
    assert header.startswith("table,pair,n_f,n_f_star,n,k,")
    assert "{7,3}" in proc.stdout and "{p,5}" in proc.stdout


def test_curves_csv(tmp_path):
    out = tmp_path / "curves.csv"
    proc = run_cli(
        "curves", "--pair", "7,3", "--pair", "5,4", "--g-from", "2", "--g-to", "4",
        "--out", str(out),
    )
    assert proc.returncode == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 3


# The same two digests are pinned by the "Closed-form bytes" step of
# .github/workflows/tests.yml; a change to either output must update both.
TABLE2_PAIR_ARGS = [a for pq in ("7,3", "8,3", "9,3", "10,3", "12,3", "5,4", "6,4", "8,4", "10,5")
                    for a in ("--pair", pq)]
CLOSED_FORM_SHA256 = {
    ("table",): "74fde0e6c754d5e85ae7512949fa321cc78c534f7214a730013f4f2762bd9f67",
    ("curves", *TABLE2_PAIR_ARGS, "--g-from", "2", "--g-to", "64"):
        "cf7bf2f9d30eb6f595538974136ac1a81ad80557b4d8e79bf3752a0079cffa9b",
}


@pytest.mark.parametrize("argv", CLOSED_FORM_SHA256, ids=lambda argv: argv[0])
def test_closed_form_csv_bytes_are_pinned(tmp_path, argv):
    out = tmp_path / "out.csv"
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CLOSED_FORM_SHA256[argv]


def test_curves_failing_pair_writes_nothing():
    # {7,3} is valid, {6,3} is not: no header or {7,3} rows may escape first
    proc = run_cli("curves", "--pair", "7,3", "--pair", "6,3", "--g-from", "2", "--g-to", "4")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "euclidean" in proc.stderr


def test_failing_command_keeps_existing_out_file(tmp_path):
    out = tmp_path / "keep.csv"
    out.write_text("kept line\n")
    proc = run_cli("curves", "--pair", "6,3", "--out", str(out))
    assert proc.returncode == 2
    assert out.read_text() == "kept line\n"


def test_curves_requires_pair():
    assert run_cli("curves").returncode == 2


def test_discrepancy_exit_code(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise DiscrepancyError("forced")

    monkeypatch.setattr(cli, "certified_distances", boom)
    rc = cli.main(["distance", str(DATA)])
    assert rc == 3
    assert "discrepancy" in capsys.readouterr().err


def test_a_search_oracle_mismatch_is_a_discrepancy(monkeypatch, capsys):
    """The comparison in certified_distances itself, with only the oracle's answer changed."""
    monkeypatch.setattr("atqc.distance.oracle_distances", lambda code, ceiling: (6, 2))
    message = ("search found (d_x, d_z) = (5, 2) but the oracle found (6, 2) "
               "on '{8,3} genus-2 hyperbolic complex'")
    with DATA.open() as fh:
        c = load_complex(fh)
    with pytest.raises(DiscrepancyError) as exc:
        certified_distances(c)
    assert str(exc.value) == message
    assert cli.main(["distance", str(DATA)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"discrepancy: {message}\n"


def test_oracle_ceiling_flag():
    built = run_cli("build", "--square", "4")  # n = 32 above the default ceiling
    doc = json.loads(run_cli("distance", "-", stdin=built.stdout).stdout)
    assert doc["method"] == "search"
    doc = json.loads(
        run_cli("distance", "-", "--oracle-ceiling", "32", stdin=built.stdout).stdout
    )
    assert doc["method"] == "both-agree"


def test_distance_reports_the_oracle_from_either_ceiling_source(capsys):
    # the shipped file has n = 24
    cases = [
        ([], 30),
        (["--oracle-ceiling", "23"], 23),
        (["--oracle-ceiling", "24"], 24),
        (["--oracle-ceiling", "0"], 0),
    ]
    for flag, ceiling in cases:
        assert cli.main(["distance", str(DATA), *flag]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["oracle"] == {"ran": ceiling >= 24, "n": 24, "ceiling": ceiling}
        assert doc["oracle"]["ran"] == (doc["method"] == "both-agree")
        assert (doc["d_x"], doc["d_z"]) == (5, 2)


SUBCOMMANDS = ("classify", "params", "build", "check", "distance", "export", "table", "curves")


def in_process(capsys, argv):
    """Exit code, stdout and stderr of one in-process command."""
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


HUGE = str(10**400)  # past the largest double


@pytest.mark.parametrize(
    "argv,error",
    [
        (["params", "--p", "7", "--q", "3", "--g", HUGE], f"genus {HUGE} is too large"),
        (["curves", "--pair", f"7,{HUGE}", "--g-from", "2", "--g-to", "3"], f"{{7,{HUGE}}} is too large"),
    ],
    ids=["params-g", "curves-q"],
)
def test_numbers_too_large_for_a_float_are_input_errors(capsys, argv, error):
    rc, out, err = in_process(capsys, argv)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {error}")
    assert "Traceback" not in err


def test_negative_oracle_ceiling_is_rejected(capsys):
    rc, out, err = in_process(capsys, ["distance", str(DATA), "--oracle-ceiling", "-1"])
    assert rc == 2 and out == ""
    assert "oracle ceiling must be >= 0, got -1" in err


@pytest.mark.parametrize("flag", ["--square", "--hex-apothem", "--hex-edge"])
def test_build_past_the_edge_limit_is_an_input_error(capsys, flag):
    rc, out, err = in_process(capsys, ["build", flag, "3000"])
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and "above the build limit of 65536" in err


def test_the_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_every_subcommand_repeats_byte_identically(capsys, tmp_path):
    export_out = tmp_path / "hz.alist"
    curves_out = tmp_path / "curves.csv"
    commands = {
        "classify": (["classify", "--p", "7", "--q", "3"], None),
        "params": (["params", "--p", "8", "--q", "3", "--g", "2"], None),
        "build": (["build", "--square", "2"], None),
        "check": (["check", str(DATA)], None),
        "distance": (["distance", str(DATA)], None),
        "export": (["export", str(DATA), "--format", "alist", "--out", str(export_out)], export_out),
        "table": (["table"], None),
        "curves": (["curves", "--pair", "7,3", "--g-to", "4", "--out", str(curves_out)], curves_out),
    }
    assert tuple(commands) == SUBCOMMANDS
    for argv, out_file in commands.values():
        runs = []
        for _ in range(2):
            rc, out, err = in_process(capsys, argv)
            runs.append((rc, out, err, out_file.read_bytes() if out_file else out.encode()))
        assert runs[0] == runs[1], argv
        rc, _, err, result = runs[0]
        assert rc == 0 and err == "" and result, argv


def test_curves_pairs_do_not_carry_over_between_calls(capsys):
    assert cli.main(["curves", "--pair", "7,3", "--g-to", "3"]) == 0
    assert '"{7,3}"' in capsys.readouterr().out
    assert cli.main(["curves", "--pair", "5,4", "--g-to", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 2
    assert all(row.startswith('"{5,4}",') for row in rows)


def test_failed_calls_leave_the_next_call_unchanged(capsys):
    good = ["distance", str(DATA)]
    before = in_process(capsys, good)
    assert before[0] == 0
    with pytest.raises(SystemExit) as usage:
        cli.main(["distance", str(DATA), "--oracle-ceiling", "many"])
    assert usage.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert in_process(capsys, good) == before
    rc, out, err = in_process(capsys, ["curves", "--pair", "6,3"])
    assert rc == 2 and out == "" and "euclidean" in err
    assert in_process(capsys, good) == before


def test_help_exits_0_and_repeats(capsys):
    texts = []
    for argv in (["--help"], ["distance", "--help"]) * 2:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[2:] == texts[:2]
    top, distance = texts[:2]
    for name in SUBCOMMANDS:
        assert name in top
    assert "--oracle-ceiling" in distance


def test_racing_threads_parse_with_the_shared_parser():
    # more threads than cores, switching as often as the interpreter allows
    argvs = [
        ["classify", "--p", "7", "--q", "3"],
        ["params", "--p", "8", "--q", "3", "--g", "2"],
        ["build", "--hex-edge", "6", "--out", "x.json"],
        ["check", "-"],
        ["distance", "f.json", "--oracle-ceiling", "12"],
        ["export", "f.json", "--format", "dense-text", "--matrix", "hx"],
        ["curves", "--pair", "7,3", "--pair", "5,4", "--g-from", "3"],
        ["curves", "--pair", "10,5"],
    ]
    expected = [cli.build_parser().parse_args(argv) for argv in argvs]
    results = [None] * len(argvs)
    start = threading.Barrier(len(argvs))

    def work(i):
        start.wait(timeout=10)
        results[i] = [cli.build_parser().parse_args(argvs[i]) for _ in range(200)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(argvs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for namespaces, want in zip(results, expected):
        assert namespaces == [want] * 200
    # append copies the shared default before it appends
    assert cli.build_parser().parse_args(["curves"]).pair == []


@pytest.mark.parametrize("doc", ["[]", "3", '"x"', "null"])
def test_check_rejects_a_document_that_is_not_an_object(tmp_path, capsys, doc):
    path = tmp_path / "doc.json"
    path.write_text(doc)
    assert cli.main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: complex document must be a JSON object\n"
