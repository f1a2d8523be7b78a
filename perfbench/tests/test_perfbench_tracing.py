"""Span arithmetic and the install/restore cycle of the tracer."""
import io
import json
import sys
from contextlib import redirect_stdout

import atqc
import atqc.cli
import corpus
import run
import tracing


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("b", 1, 2.0, 3.0),
        ("c", 0, 5.0, 9.0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert tracing.roots(spans) == [0, 0, 0, 0]
    assert tracing.roots(spans + [("d", -1, 11.0, 12.0)])[-1] == 4


def _bindings():
    """Every attribute of every atqc module and of the traced classes."""
    holders = [m for k, m in sys.modules.items() if k.split(".")[0] == "atqc"]
    holders += [atqc.binmat.BinaryMatrix]
    return {(id(h), k): v for h in holders for k, v in list(vars(h).items())}


def test_install_wraps_every_binding_and_restore_puts_them_back(tmp_path):
    before = _bindings()
    path = tmp_path / "torus.json"
    path.write_bytes(corpus.encode(corpus.square_torus(3)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert atqc.cli.betti1 is atqc.homology.betti1 is not before[(id(atqc.homology), "betti1")]
        assert atqc.distance.RowBasis is atqc.binmat.RowBasis
        with tracer.span("command.distance"), redirect_stdout(io.StringIO()) as out:
            assert atqc.cli.main(["distance", str(path)]) == 0
    finally:
        tracer.restore()
    assert _bindings() == before
    assert json.loads(out.getvalue())["d_x"] == 3

    layer = run.per_layer(tracer.take())
    assert layer["homology.betti1.per_distance"] == 4
    assert layer["distance.search.calls"] == 2
    assert layer["distance.oracle.calls"] == 1
    assert layer["cli.main.calls"] == 1
    assert layer["trace.unattributed_s"] >= 0
    assert set(layer) == {f"{n}.{k}" for n in tracing.span_names() for k in ("self_s", "calls")} | {
        "homology.betti1.per_distance", "trace.unattributed_s"}
