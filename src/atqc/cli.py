"""Command-line front end.

All results go to stdout as JSON (or CSV for the table/curve commands);
diagnostics go to stderr.  Exit codes: 0 ok, 2 bad usage or input,
3 search/oracle discrepancy, 4 I/O failure.  Commands compose over the
complex JSON schema, e.g.::

    atqc build --hex-apothem 2 | atqc distance -
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from dataclasses import asdict
from functools import cache, partial
from typing import IO, Callable

from .catalog import emit_curves, emit_tables, family_params
from .complexes import load_complex, save_complex
from .distance import BOTH_AGREE, DEFAULT_ORACLE_CEILING, certified_distances
from .errors import AtqcError, DiscrepancyError, InputError
from .geometry import SchlafliPair, classify
from .homology import betti1
from .stabilizer import CHECKS, EXPORT_FORMATS, JSON_FORMAT, build_css, export_checks, verify_stabilizers
from .torus import HexTorusSpec, SquareTorusSpec, build_hex_torus, build_square_torus

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DISCREPANCY = 3
EXIT_IO = 4


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


def _deliver(path: str | None, render: Callable[[IO[str]], object]) -> int:
    """Stream to stdout, or render into an unnamed temporary file and open
    --out (truncating it) only once rendering succeeded."""
    if path is None or path == "-":
        render(sys.stdout)
        return EXIT_OK
    with tempfile.TemporaryFile() as tmp:
        # write-only text layer: over a readable one, each write resets a decoder
        with open(tmp.fileno(), "w", encoding="utf-8", closefd=False) as text:
            render(text)
        tmp.seek(0)
        with open(path, "wb") as sink:
            shutil.copyfileobj(tmp, sink)
    return EXIT_OK


def _load(path: str):
    if path == "-":
        return load_complex(sys.stdin)
    with open(path, "r", encoding="utf-8") as src:
        return load_complex(src)


def cmd_classify(args) -> int:
    pair = SchlafliPair(args.p, args.q)
    _emit({"class": classify(pair), "indicator": pair.indicator})
    return EXIT_OK


def cmd_params(args) -> int:
    params = family_params(SchlafliPair(args.p, args.q), args.g)
    _emit(params.to_dict())
    return EXIT_OK


def cmd_build(args) -> int:
    chosen = [x for x in (args.square, args.hex_apothem, args.hex_edge) if x is not None]
    if len(chosen) != 1:
        raise InputError("choose exactly one of --square/--hex-apothem/--hex-edge")
    if args.square is not None:
        c = build_square_torus(SquareTorusSpec(args.square))
    elif args.hex_apothem is not None:
        c = build_hex_torus(HexTorusSpec("apothem", args.hex_apothem))
    else:
        c = build_hex_torus(HexTorusSpec("edge", args.hex_edge))
    return _deliver(args.out, partial(save_complex, c))


def cmd_check(args) -> int:
    c = _load(args.file)
    code = build_css(c)
    independent = verify_stabilizers(code)
    _emit(
        {
            "label": c.label,
            "genus": c.genus,
            "vertices": c.num_vertices,
            "edges": c.num_edges,
            "faces": c.num_faces,
            "euler_characteristic": c.euler_characteristic,
            "betti1": betti1(c),
            "n": code.n,
            "k": code.k,
            "independent_generators": independent,
            "checks": list(CHECKS),
            "degenerate_faces": list(c.degenerate_faces),
            "warnings": list(code.warnings),
            "ok": True,
        }
    )
    return EXIT_OK


def cmd_distance(args) -> int:
    c = _load(args.file)
    result = certified_distances(c, args.oracle_ceiling)
    oracle = {"ran": result.method == BOTH_AGREE, "n": c.num_edges, "ceiling": args.oracle_ceiling}
    _emit({**asdict(result), "oracle": oracle})
    return EXIT_OK


def cmd_export(args) -> int:
    if args.matrix is not None and args.format == JSON_FORMAT:
        raise InputError("--matrix applies to alist and dense-text; json carries both matrices")
    code = build_css(_load(args.file))
    render = partial(export_checks, code, args.format, matrix=args.matrix or "hz")
    return _deliver(args.out, render)


def cmd_table(args) -> int:
    return _deliver(args.out, emit_tables)


def _parse_pair(text: str) -> SchlafliPair:
    try:
        p, q = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"pair must look like '7,3', got {text!r}") from exc
    return SchlafliPair(p, q)


def cmd_curves(args) -> int:
    pairs = [_parse_pair(text) for text in args.pair]
    if not pairs:
        raise InputError("at least one --pair is required")
    return _deliver(args.out, partial(emit_curves, pairs, range(args.g_from, args.g_to + 1)))


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``atqc`` parser, built once per process on first use and shared.

    Each subcommand's ``func`` default is the ``cmd_*`` function it named
    when the parser was built, so a ``cmd_*`` replaced after the first call
    is not seen; patch what a command calls instead.
    """
    parser = argparse.ArgumentParser(
        prog="atqc",
        description="Construct, verify, and characterize asymmetric topological quantum codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify a {p,q} tessellation")
    p_classify.add_argument("--p", type=int, required=True)
    p_classify.add_argument("--q", type=int, required=True)
    p_classify.set_defaults(func=cmd_classify)

    p_params = sub.add_parser("params", help="[[n,k,d_z/d_x]] of a hyperbolic family member")
    p_params.add_argument("--p", type=int, required=True)
    p_params.add_argument("--q", type=int, required=True)
    p_params.add_argument("--g", type=int, required=True)
    p_params.set_defaults(func=cmd_params)

    p_build = sub.add_parser("build", help="build a torus complex as JSON")
    p_build.add_argument("--square", type=int, metavar="L")
    p_build.add_argument("--hex-apothem", type=int, metavar="XI")
    p_build.add_argument("--hex-edge", type=int, metavar="LAMBDA")
    p_build.add_argument("--out", metavar="FILE")
    p_build.set_defaults(func=cmd_build)

    p_check = sub.add_parser("check", help="integrity report for a complex file")
    p_check.add_argument("file", help="complex JSON path, or - for stdin")
    p_check.set_defaults(func=cmd_check)

    p_distance = sub.add_parser("distance", help="exact d_x/d_z with oracle cross-check")
    p_distance.add_argument("file", help="complex JSON path, or - for stdin")
    p_distance.add_argument(
        "--oracle-ceiling",
        type=int,
        default=DEFAULT_ORACLE_CEILING,
        help="skip the exhaustive oracle above this many edges (default %(default)s)",
    )
    p_distance.set_defaults(func=cmd_distance)

    p_export = sub.add_parser("export", help="serialize parity-check matrices")
    p_export.add_argument("file", help="complex JSON path, or - for stdin")
    p_export.add_argument("--format", choices=EXPORT_FORMATS, required=True)
    p_export.add_argument("--matrix", choices=("hx", "hz"), help="alist/dense-text; default hz")
    p_export.add_argument("--out", metavar="FILE")
    p_export.set_defaults(func=cmd_export)

    p_table = sub.add_parser("table", help="regenerate the family/pair tables as CSV")
    p_table.add_argument("--out", metavar="FILE")
    p_table.set_defaults(func=cmd_table)

    p_curves = sub.add_parser("curves", help="per-genus distance/rate curve data as CSV")
    p_curves.add_argument(
        "--pair", action="append", default=[], metavar="P,Q", help="repeatable, e.g. --pair 7,3"
    )
    p_curves.add_argument("--g-from", type=int, default=2)
    p_curves.add_argument("--g-to", type=int, default=10)
    p_curves.add_argument("--out", metavar="FILE")
    p_curves.set_defaults(func=cmd_curves)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one ``atqc`` command and return its exit code.

    It may be called repeatedly in one process: every call parses with the
    same shared parser and leaves no state behind for the next.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DiscrepancyError as exc:
        print(f"discrepancy: {exc}", file=sys.stderr)
        return EXIT_DISCREPANCY
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except AtqcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
