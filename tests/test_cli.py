import json
import subprocess
import sys
from pathlib import Path

from atqc import cli
from atqc.errors import DiscrepancyError

DATA = Path(__file__).resolve().parent.parent / "data" / "hyperbolic_octagonal_genus2.json"


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "atqc", *args],
        input=stdin,
        capture_output=True,
        text=True,
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


def test_check_rejects_corrupted_file(tmp_path):
    doc = json.loads(DATA.read_text())
    doc["faces"][0]["edge_cycle"] = doc["faces"][0]["edge_cycle"][1:]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    proc = run_cli("check", str(bad))
    assert proc.returncode == 2
    assert "face-slots" in proc.stderr


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
    ]
    for flag, ceiling in cases:
        assert cli.main(["distance", str(DATA), *flag]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["oracle"] == {"ran": ceiling >= 24, "n": 24, "ceiling": ceiling}
        assert doc["oracle"]["ran"] == (doc["method"] == "both-agree")
        assert (doc["d_x"], doc["d_z"]) == (5, 2)
