"""Spans around the calls into atqc's layers, recorded from outside the package.

:class:`Tracer` replaces each traced function with a wrapper that records
one span per call, in the module that defines the function and in every
atqc module that imported it by name, and puts every original back on
:meth:`Tracer.restore`.  Nothing under ``src/`` changes.

A span is ``(name, parent, start, end)``; its id is its index in
``Tracer.spans`` and ``parent`` is the id of the enclosing span, or -1.
Per-element helpers (``parity``, ``support``, ``RowBasis.add/reduce``) are
left alone: a wrapper would cost more than the call.
"""
from __future__ import annotations

import functools
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, attribute path, span name); one span name per traced function
TARGETS = (
    ("atqc.distance", "shortest_nontrivial_cycle", "distance.search"),
    ("atqc.distance", "code_distances", "distance.code_distances"),
    ("atqc.distance", "certified_distances", "distance.certified_distances"),
    ("atqc.distance", "oracle_distances", "distance.oracle"),
    ("atqc.complexes", "dual_complex", "complexes.dual_complex"),
    ("atqc.complexes", "load_complex", "complexes.load_complex"),
    ("atqc.homology", "betti1", "homology.betti1"),
    ("atqc.homology", "cocycle_basis", "homology.cocycle_basis"),
    ("atqc.homology", "boundary_matrices", "homology.boundary_matrices"),
    ("atqc.homology", "cycle_cocycle_bases", "homology.cycle_cocycle_bases"),
    ("atqc.homology", "is_cycle", "homology.is_cycle"),
    ("atqc.homology", "homology_signature", "homology.homology_signature"),
    ("atqc.stabilizer", "build_css", "stabilizer.build_css"),
    ("atqc.stabilizer", "verify_stabilizers", "stabilizer.verify_stabilizers"),
    ("atqc.stabilizer", "export_checks", "stabilizer.export_checks"),
    ("atqc.binmat", "BinaryMatrix.rank", "binmat.rank"),
    ("atqc.binmat", "BinaryMatrix.transpose", "binmat.transpose"),
    ("atqc.binmat", "BinaryMatrix.__matmul__", "binmat.matmul"),
    ("atqc.binmat", "BinaryMatrix.kernel_basis", "binmat.kernel_basis"),
    ("atqc.binmat", "RowBasis", "binmat.row_basis"),
    ("atqc.cli", "main", "cli.main"),
    ("atqc.catalog", "emit_tables", "catalog.emit_tables"),
    ("atqc.catalog", "emit_curves", "catalog.emit_curves"),
)

#: every public function of this module is traced under one span name
AGGREGATED_MODULES = (("atqc.geometry", "geometry"),)


def span_names() -> list[str]:
    return [name for _, _, name in TARGETS] + [name for _, name in AGGREGATED_MODULES]


def _targets():
    """(owner object, attribute, span name) for every traced binding."""
    out = []
    for module, path, name in TARGETS:
        owner = sys.modules[module]
        *head, attr = path.split(".")
        for part in head:
            owner = getattr(owner, part)
        out.append((owner, attr, name))
    for module, name in AGGREGATED_MODULES:
        mod = sys.modules[module]
        for attr, fn in sorted(vars(mod).items()):
            if inspect.isfunction(fn) and fn.__module__ == module and not attr.startswith("_"):
                out.append((mod, attr, name))
    return out


class Tracer:
    """Records spans while installed; single-threaded use only."""

    def __init__(self):
        self.spans: list[tuple[str, int, float, float]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append((name, -1, 0.0, 0.0))
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            self.spans[sid] = (name, parent, start, perf_counter())
            self._stack.pop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items()) if key.split(".")[0] == "atqc"]
        for owner, attr, name in _targets():
            original = vars(owner)[attr]
            traced = self._wrap(original, name)
            holders = [owner] + [m for m in modules if m is not owner and vars(m).get(attr) is original]
            for holder in holders:
                self._saved.append((holder, attr, original))
                setattr(holder, attr, traced)

    def restore(self) -> None:
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    def take(self) -> list[tuple[str, int, float, float]]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("take() inside an open span")
        out = self.spans[:]
        self.spans.clear()
        return out


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def roots(spans) -> list[int]:
    """Id of the outermost span enclosing each span (parents precede children)."""
    out = []
    for sid, (_, parent, _, _) in enumerate(spans):
        out.append(sid if parent < 0 else out[parent])
    return out
