"""atqc's benchmark: CLI commands over a seeded corpus, timed end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload torus-scale --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload certify-small --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each operation is one ``atqc`` command, run in-process through
``atqc.cli.main(argv)`` with stdout captured and checked, except ``cli_s``,
which starts ``python -m atqc distance`` as a fresh process.  The loop is
closed, in one process and one thread.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones (see README.md).  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import tracing  # noqa: E402

GROUPS = ("check", "export", "distance", "tables", "cli")
IN_PROCESS = GROUPS[:-1]
# passes per round, so that a group whose pass is short gets more samples
REPEATS = {
    "torus-scale": {"check": 1, "export": 1, "distance": 1, "tables": 8, "cli": 2},
    "hyperbolic-genus": {"check": 4, "export": 1, "distance": 1, "tables": 6, "cli": 1},
    "certify-small": {"check": 4, "export": 2, "distance": 2, "tables": 4, "cli": 1},
}
SETUP_REPEATS = 21
# str hashes are salted per process unless this is set, and the salt alone
# moved a command's median by up to 20% from one process to the next; the
# run and its subprocesses all use this one salt
HASH_SEED = "0"
SUBPROCESS_TIMEOUT = 120

TABLE2_PAIRS = ("7,3", "8,3", "9,3", "10,3", "12,3", "5,4", "6,4", "8,4", "10,5")
CURVE_GENERA = range(2, 65)
TABLE_HEADER = ["table", "pair", "n_f", "n_f_star", "n", "k", "d_z_bound", "d_x_bound",
                "rate", "edge_length", "dual_edge_length"]
CURVE_HEADER = ["pair", "g", "d_h", "dx_raw", "dz_raw", "diff_raw", "dx_bound", "dz_bound",
                "diff_bound", "n", "k", "rate"]

END_TO_END_UNITS = {
    "setup_s": "s", "check_s": "s", "export_s": "s", "distance_s": "s",
    "tables_s": "s", "cli_s": "s", "peak_rss_mb": "MB",
}


class Mismatch(Exception):
    """An atqc command answered, but not what the benchmark expects."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def subprocess_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ATQC_ORACLE_CEILING"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_atqc():
    """Import atqc afresh from this checkout's src/, never from anywhere else."""
    if not (SRC / "atqc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no atqc sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m.split(".")[0] == "atqc"]:
        del sys.modules[name]
    import atqc.cli
    import atqc.stabilizer

    if SRC.resolve() not in Path(atqc.__file__).resolve().parents:
        sys.exit(f"perfbench: imported atqc from {atqc.__file__}, not from {SRC}")
    return atqc


class Input:
    """One relabelled corpus case: its bytes, digest and independent index."""

    def __init__(self, case: corpus.Case, doc: dict, path: Path):
        self.case = case
        self.path = path
        self.data = corpus.encode(doc)
        self.sha256 = hashlib.sha256(self.data).hexdigest()
        self.surface = corpus.Surface(doc)
        s = self.surface
        self.V, self.E, self.F = len(s.vertices), len(s.ends), len(s.faces)
        self.g = s.genus


def prepare(workload: str, seed: int, workdir: Path) -> tuple[list[Input], Input]:
    """Generate, relabel and write the corpus, plus the cli_s genus-2 input."""
    rng = random.Random(seed)
    inputs = [
        Input(case, corpus.relabel(case.doc, rng), workdir / f"{case.name}.json")
        for case in corpus.CORPORA[workload]()
    ]
    g2 = corpus.Case("cli-genus2", corpus.genus2(), 5, 2, "oracle (shipped complex)")
    cli_input = Input(g2, corpus.relabel(g2.doc, rng), workdir / "cli-genus2.json")
    for i in inputs + [cli_input]:
        i.path.write_bytes(i.data)
    return inputs, cli_input


class RoundClock:
    """Decides, before each round, whether another round should end within the
    time; the next round is predicted to take as long as the longer of the
    last two."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.perf_counter()
        self.last: float | None = None
        self.rounds: list[float] = []

    def another(self) -> bool:
        now = time.perf_counter()
        if self.last is not None:
            self.rounds.append(now - self.last)
        self.last = now
        return now - self.start + max(self.rounds[-2:], default=0.0) <= self.seconds


class Bench:
    def __init__(self, atqc, workload: str, inputs: list[Input], cli_input: Input, workdir: Path):
        self.atqc = atqc
        self.workload = workload
        self.inputs = inputs
        self.cli_input = cli_input
        self.workdir = workdir
        self.env = subprocess_env()
        self.tracer: tracing.Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.last_spans: list = []

    # -- one command ---------------------------------------------------------

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        if self.failed <= 20:
            print(f"perfbench: FAILED {what}: {why}", file=sys.stderr)

    def command(self, argv: list[str], check) -> float:
        """Run ``atqc <argv>`` in-process; check its stdout; return its wall time."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        root = self.tracer.span(f"command.{argv[0]}") if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), root:
                code = self.atqc.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed command
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        what = "atqc " + " ".join(argv)
        if code != 0:
            self.fail(what, f"exit {code}; {err.getvalue().strip()}")
            return elapsed
        try:
            check(out.getvalue())
        except Exception as exc:  # any wrong or unreadable answer
            self.fail(what, f"{type(exc).__name__}: {exc}")
        return elapsed

    # -- answer checks -------------------------------------------------------

    @staticmethod
    def check_report(inp: Input):
        def check(stdout: str) -> None:
            doc = json.loads(stdout)
            two_g = 2 * inp.g
            expect(doc["ok"] is True, "ok is not true")
            expect((doc["vertices"], doc["edges"], doc["faces"]) == (inp.V, inp.E, inp.F),
                   "wrong V/E/F")
            expect(doc["n"] == inp.E, f"n = {doc['n']}, expected {inp.E}")
            expect(doc["k"] == two_g, f"k = {doc['k']}, expected {two_g}")
            expect(doc["betti1"] == two_g, f"betti1 = {doc['betti1']}, expected {two_g}")
            expect(doc["independent_generators"] == inp.V + inp.F - 2,
                   "independent_generators != V+F-2")
        return check

    @staticmethod
    def check_distance(inp: Input, stdout: str) -> None:
        doc = json.loads(stdout)
        case = inp.case
        got = (doc["d_x"], doc["d_z"], doc["method"])
        expect(got == (case.d_x, case.d_z, case.method),
               f"{got} != expected {(case.d_x, case.d_z, case.method)}")
        errors = corpus.witness_errors(inp.surface, doc["witness_x"], doc["witness_z"],
                                       case.d_x, case.d_z)
        expect(not errors, "; ".join(errors))

    @staticmethod
    def check_matrix(reader, out: Path, rows: int, cols: int):
        def check(_stdout: str) -> None:
            with out.open() as fh:
                m = reader(fh)
            expect((m.rows, m.cols) == (rows, cols),
                   f"{out.name} is {m.rows}x{m.cols}, expected {rows}x{cols}")
        return check

    @staticmethod
    def check_code_json(inp: Input, out: Path):
        def check(_stdout: str) -> None:
            doc = json.loads(out.read_text())
            expect((doc["n"], doc["k"], doc["genus"]) == (inp.E, 2 * inp.g, inp.g),
                   "wrong n/k/genus")
            expect(len(doc["hx"]) == inp.F and len(doc["hz"]) == inp.V, "wrong row counts")
            expect(all(len(row) == inp.E for row in doc["hx"] + doc["hz"]), "wrong row width")
        return check

    @staticmethod
    def check_csv(path: Path, header: list[str], body_rows: int, genus_column: int | None):
        def check(_stdout: str) -> None:
            with path.open(newline="") as fh:
                rows = list(csv.reader(fh))
            expect(rows[0] == header, f"{path.name} header is {rows[0]}")
            expect(len(rows) == 1 + body_rows, f"{path.name} has {len(rows) - 1} rows")
            if genus_column is not None:
                k = header.index("k")
                expect(all(int(r[k]) == 2 * int(r[genus_column]) for r in rows[1:]),
                       f"{path.name}: k != 2g")
        return check

    # -- passes --------------------------------------------------------------

    # A pass runs one group's commands once over the corpus and returns each
    # command's wall time, keyed by what it ran.

    def pass_check(self) -> list[tuple[str, float]]:
        return [(i.case.name, self.command(["check", str(i.path)], self.check_report(i)))
                for i in self.inputs]

    def pass_export(self) -> list[tuple[str, float]]:
        stabilizer = self.atqc.stabilizer
        times = []
        for i in self.inputs:
            out = self.workdir / f"{i.case.name}.export"
            times.append((f"{i.case.name}.alist", self.command(
                ["export", str(i.path), "--format", "alist", "--matrix", "hz", "--out", str(out)],
                self.check_matrix(stabilizer.read_alist, out, i.V, i.E))))
            times.append((f"{i.case.name}.dense", self.command(
                ["export", str(i.path), "--format", "dense-text", "--matrix", "hx", "--out", str(out)],
                self.check_matrix(stabilizer.read_dense_text, out, i.F, i.E))))
            times.append((f"{i.case.name}.json", self.command(
                ["export", str(i.path), "--format", "json", "--out", str(out)],
                self.check_code_json(i, out))))
        return times

    def pass_distance(self) -> list[tuple[str, float]]:
        return [(i.case.name, self.command(["distance", str(i.path)],
                                           lambda out, i=i: self.check_distance(i, out)))
                for i in self.inputs]

    def pass_tables(self) -> list[tuple[str, float]]:
        table, curves = self.workdir / "table.csv", self.workdir / "curves.csv"
        pairs = [arg for p in TABLE2_PAIRS for arg in ("--pair", p)]
        genera = ["--g-from", str(CURVE_GENERA[0]), "--g-to", str(CURVE_GENERA[-1])]
        return [
            ("table", self.command(
                ["table", "--out", str(table)],
                self.check_csv(table, TABLE_HEADER, 4 + len(TABLE2_PAIRS), None))),
            ("curves", self.command(
                ["curves", *pairs, *genera, "--out", str(curves)],
                self.check_csv(curves, CURVE_HEADER, len(TABLE2_PAIRS) * len(CURVE_GENERA), 1))),
        ]

    def run_process(self, argv: list[str]) -> tuple[float, subprocess.CompletedProcess | None]:
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                                  env=self.env, cwd=self.workdir, timeout=SUBPROCESS_TIMEOUT)
        except subprocess.TimeoutExpired as exc:
            self.fail(" ".join(argv), f"timed out: {exc}")
            proc = None
        return time.perf_counter() - start, proc

    def pass_cli(self) -> list[tuple[str, float]]:
        self.attempted += 1
        inp = self.cli_input
        argv = ["-m", "atqc", "distance", str(inp.path)]
        elapsed, proc = self.run_process(argv)
        if proc is not None:
            try:
                expect(proc.returncode == 0, f"exit {proc.returncode}; {proc.stderr.strip()}")
                self.check_distance(inp, proc.stdout)
            except Exception as exc:  # any wrong or unreadable answer
                self.fail("python " + " ".join(argv), f"{type(exc).__name__}: {exc}")
        return [("cli-genus2", elapsed)]

    # -- runs ----------------------------------------------------------------

    def measure(self, seconds: float) -> tuple[dict[str, float], dict[str, list[float]]]:
        """Run every group's passes once per round while another round fits.

        Returns, per group, the sum over its commands of each command's
        median time (the typical pass time), and the time of every pass.
        A median per command discards a slow command in one round without
        discarding the rest of that round's pass.
        """
        times: dict[tuple[str, str], list[float]] = {}
        passes: dict[str, list[float]] = {g: [] for g in GROUPS}
        clock = RoundClock(seconds)
        while clock.another():
            gc.collect()  # start each round from the same heap, untimed
            for g in GROUPS:
                for _ in range(REPEATS[self.workload][g]):
                    timed = getattr(self, f"pass_{g}")()
                    passes[g].append(sum(t for _, t in timed))
                    for key, t in timed:
                        times.setdefault((g, key), []).append(t)
        typical = {g: sum(statistics.median(v) for (group, _), v in times.items() if group == g)
                   for g in GROUPS}
        return typical, passes

    def measure_traced(self, seconds: float) -> dict[str, list[float]]:
        """Alternate untraced and traced passes; per-layer figures per traced pass."""
        layer: dict[str, list[float]] = {}
        untraced, traced = [], []
        probes = {"cli.python_s": [], "cli.import_atqc_s": []}
        clock = RoundClock(seconds)
        tracer = tracing.Tracer()
        for n in itertools.count():
            if not clock.another() and n >= 2:
                break
            on = n % 2 == 1
            try:
                if on:
                    self.tracer = tracer
                    tracer.install()
                elapsed = sum(t for g in IN_PROCESS for _, t in getattr(self, f"pass_{g}")())
            finally:
                tracer.restore()
                self.tracer = None
            spans = tracer.take()
            (traced if on else untraced).append(elapsed)
            if on:
                for name, value in per_layer(spans).items():
                    layer.setdefault(name, []).append(value)
                self.last_spans = spans
            for name, code in (("cli.python_s", "pass"), ("cli.import_atqc_s", "import atqc")):
                self.attempted += 1
                dt, proc = self.run_process(["-c", code])
                if proc is not None and proc.returncode != 0:
                    self.fail(f"python -c {code!r}", proc.stderr.strip())
                probes[name].append(dt)
        layer["trace.overhead_s"] = [statistics.median(traced) - statistics.median(untraced)]
        layer["cli.python_s"] = probes["cli.python_s"]
        layer["cli.import_s"] = [
            statistics.median(probes["cli.import_atqc_s"]) - statistics.median(probes["cli.python_s"])
        ]
        return layer


def per_layer(spans) -> dict[str, float]:
    """Self time and calls per traced function over one pass of every command."""
    names = tracing.span_names()
    out = {f"{name}.self_s": 0.0 for name in names} | {f"{name}.calls": 0 for name in names}
    own = tracing.self_times(spans)
    root = tracing.roots(spans)
    unattributed = 0.0
    distance_commands = betti_in_distance = 0
    for sid, (name, _, _, _) in enumerate(spans):
        if name.startswith("command."):
            unattributed += own[sid]
            distance_commands += name == "command.distance"
            continue
        out[f"{name}.self_s"] += own[sid]
        out[f"{name}.calls"] += 1
        if name == "homology.betti1" and spans[root[sid]][0] == "command.distance":
            betti_in_distance += 1
    out["trace.unattributed_s"] = unattributed
    out["homology.betti1.per_distance"] = betti_in_distance / distance_commands
    return out


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".per_distance"):
        return "calls/cmd"
    return "s"


def summary(values: list[float], unit: str) -> tuple[float, float, float]:
    """(median, first quartile, third quartile); a count's median is a sample."""
    median = (statistics.median_low if unit == "count" else statistics.median)(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def run_workload(args) -> int:
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        # set-up is an import of atqc plus the corpus, repeated; the first
        # repetition may also compile bytecode, which the median discounts
        setups, digests = [], set()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            atqc = import_atqc()
            inputs, cli_input = prepare(args.workload, args.seed, workdir)
            setups.append(time.perf_counter() - start)
            digests.add(tuple(i.sha256 for i in inputs + [cli_input]))
        if len(digests) != 1:
            sys.exit("perfbench: set-up is not deterministic for this seed")

        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        for i in inputs + [cli_input]:
            c = i.case
            print(f"input {c.name} sha256={i.sha256} V={i.V} E={i.E} F={i.F} g={i.g} "
                  f"expect=({c.d_x},{c.d_z},{c.method}) [{c.provenance}]")

        bench = Bench(atqc, args.workload, inputs, cli_input, workdir)
        values: dict[str, float] = {}
        if args.trace:
            samples = bench.measure_traced(args.seconds)
            units = {name: layer_unit(name) for name in samples}
            spans_file = WORK / f"{args.workload}-spans.json"
            spans_file.write_text(json.dumps(bench.last_spans))
        else:
            typical, passes = bench.measure(args.seconds)
            samples = {f"{g}_s": passes[g] for g in GROUPS}
            values = {f"{g}_s": typical[g] for g in GROUPS}
            samples["setup_s"] = setups
            samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
            units = END_TO_END_UNITS

        metrics = {}
        for name in sorted(samples):
            median, q1, q3 = summary(samples[name], units[name])
            value = values.get(name, median)
            print(f"metric {name} {value!r} {units[name]} "
                  f"samples={len(samples[name])} q1={q1!r} q3={q3!r}")
            metrics[name] = {"value": value, "unit": units[name]}
        ratio = bench.failed / bench.attempted
        print(f"metric fail_ratio {ratio!r} ratio attempted={bench.attempted} failed={bench.failed}")
        print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                          "failed": bench.failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*corpus.CORPORA, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.pop("ATQC_ORACLE_CEILING", None)
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, __file__, *sys.argv[1:]])
    if args.workload != "all":
        return run_workload(args)
    status = 0
    for workload in corpus.CORPORA:
        child = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(child).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
