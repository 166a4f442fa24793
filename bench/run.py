"""Benchmark of grpext: one workload, one process, one caller, entries back to back.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/ and
from nowhere else. The run writes the workload's input files for the seed
(bench/ladder.py, in a child process so its memory does not count), times
loading them (setup_s), then runs passes over the entries until S seconds
have gone by. Each pass checks every answer against the one fixed by
construction, and every pass must give the same answers and oracle counts.

With --trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
--trace 1 it alternates untraced and traced passes and prints the per-layer
metrics, writing the spans to bench/out/trace-NAME.jsonl. The last line of
output is one JSON object: correct, attempted, failed, metrics. `--workload
all` runs every workload in its own process and prints a summary.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import ladder
from clock import CalibratedClock
from spans import Tracer, mul_us

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
WALL_TIME = re.compile(r"^wall-time-ms \d+\n", re.MULTILINE)


def load_package():
    """Import grpext from the checkout's src/, or stop without a result."""
    src = (ROOT / "src").resolve()
    if not (src / "grpext" / "__init__.py").is_file():
        raise SystemExit(f"error: no grpext sources under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("grpext")
    importlib.import_module("grpext.cli")
    if not Path(pkg.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: grpext was imported from {pkg.__file__}, not {src}")
    return pkg


@dataclass
class Pass:
    seconds: float = 0.0  # calibrated, see clock.py
    raw_seconds: float = 0.0
    oracle_calls: int = 0
    failures: list[str] = field(default_factory=list)
    answers: list = field(default_factory=list)


class Runner:
    def __init__(self, pkg, items: list[ladder.Prepared], clock: CalibratedClock):
        self.pkg = pkg
        self.items = items
        self.clock = clock
        self.texts = {
            (item.entry.id, side): path.read_text(encoding="utf-8")
            for item in items
            for side, path in item.files.items()
            if path.suffix in (".grp", ".mat")
        }

    def setup_seconds(self) -> tuple[float, float]:
        """Median calibrated and raw time to parse, validate and build every input file."""
        load_group = self.pkg.blackbox.load_group
        parse_matrix = self.pkg.autring.parse_matrix_file
        texts = list(self.texts.values())
        calibrated, raw = [], []
        started = time.perf_counter()
        while len(raw) < SETUP_MIN_REPEATS or time.perf_counter() - started < SETUP_MIN_SECONDS:
            gc.collect()
            began, clock_began = time.perf_counter(), self.clock.now()
            for text in texts:
                if text.startswith("ptype"):
                    parse_matrix(text)
                else:
                    load_group(text)
            raw.append(time.perf_counter() - began)
            calibrated.append(self.clock.now() - clock_began)
        return statistics.median(calibrated), statistics.median(raw)

    def run_pass(self, tracer: Tracer | None = None) -> Pass:
        result = Pass()
        for item in self.items:
            gc.collect()  # garbage of the previous entry must not set this one's peak memory
            if tracer is not None:
                tracer.begin_entry(item.entry.id)
            try:
                answer, seconds, calibrated, calls, problem = self._run_item(item)
            except Exception as exc:  # an entry that raises is a failed entry, not a crash
                answer, seconds, calibrated, calls = None, 0.0, 0.0, 0
                problem = f"raised {type(exc).__name__}: {exc}"
            result.raw_seconds += seconds
            result.seconds += calibrated
            result.oracle_calls += calls
            result.answers.append((item.entry.id, answer, calls))
            if problem is not None:
                result.failures.append(f"{item.entry.id}: {problem}")
        return result

    def _run_item(self, item: ladder.Prepared):
        entry = item.entry
        pkg = self.pkg
        if isinstance(entry, ladder.Pair) and not entry.cli:
            G = pkg.blackbox.load_group(self.texts[entry.id, "g"], name=f"{entry.id}-g")
            H = pkg.blackbox.load_group(self.texts[entry.id, "h"], name=f"{entry.id}-h")
            began, clock_began = time.perf_counter(), self.clock.now()
            res = pkg.iso.isomorphic(G, H)
            w = res.witness
            answer = ladder.Decision(
                res.is_isomorphic,
                res.failed_condition,
                w.k if w else None,
                (w.source.gamma, w.target.gamma) if w else (),
                (w.source.a_basis.orders, w.target.a_basis.orders) if w else (),
            )
            problem = ladder.check_decision(item, answer)
            seconds, calibrated = time.perf_counter() - began, self.clock.now() - clock_began
            return answer, seconds, calibrated, G.operation_count + H.operation_count, problem
        if "dir" in item.files:
            shutil.rmtree(item.files["dir"], ignore_errors=True)
        out, err = io.StringIO(), io.StringIO()
        began, clock_began = time.perf_counter(), self.clock.now()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pkg.cli.main(ladder.cli_argv(item))
        report = WALL_TIME.sub("", out.getvalue())
        problem = ladder.check_report(item, code, report)
        seconds, calibrated = time.perf_counter() - began, self.clock.now() - clock_began
        calls = sum(int(ln.split()[1]) for ln in report.splitlines() if ln.startswith("oracle-calls"))
        if problem is not None and err.getvalue():
            problem += f" (stderr: {err.getvalue().strip()})"
        return report, seconds, calibrated, calls, problem


def consistency(passes: list[Pass]) -> list[str]:
    """Every pass, traced or not, must give the same answers and oracle counts."""
    first = passes[0].answers
    return [
        f"pass {i} differs from pass 0: {a} vs {b}"
        for i, p in enumerate(passes[1:], 1)
        for a, b in zip(p.answers, first)
        if a != b
    ]


def run_passes(pkg, runner: Runner, workload: str, seed: int, seconds: float, traced: bool):
    """Passes for `seconds`; untraced only, or untraced and traced alternately."""
    values: dict[str, float] = {}
    raw: dict[str, float] = {}  # uncalibrated seconds, printed for reference
    plain: list[Pass] = []
    layered: list[Pass] = []
    tracer = Tracer(pkg, runner.clock.now)
    if not traced:
        values["setup_s"], raw["setup_s"] = runner.setup_seconds()
    started = time.perf_counter()
    while True:
        plain.append(runner.run_pass())
        if traced:
            tracer.begin_pass()
            tracer.install()
            try:
                layered.append(runner.run_pass(tracer))
            finally:
                tracer.uninstall()
        if time.perf_counter() - started >= seconds:
            break
    if traced:
        values.update(tracer.layer_metrics(len(layered)))
        groups = [(backend, g, g.operation_count) for backend, g in tracer.pass_groups]
        values.update(mul_us(groups, seed, runner.clock.now))
        values["trace.overhead_ratio"] = statistics.median(p.seconds for p in layered) / statistics.median(
            p.seconds for p in plain
        )
        tracer.write(OUT / f"trace-{workload}.jsonl")
    else:
        values["wall_s"] = statistics.median(p.seconds for p in plain)
        raw["wall_s"] = statistics.median(p.raw_seconds for p in plain)
        values["oracle_calls"] = plain[0].oracle_calls
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return values, raw, plain + layered


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    pkg = load_package()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{workload}-{seed}-", dir=OUT) as tmp:
        subprocess.run(
            [sys.executable, str(BENCH / "ladder.py"), "--workload", workload,
             "--seed", str(seed), "--out", tmp],
            check=True,
            timeout=170,
        )
        items = ladder.prepare(workload, seed, Path(tmp), write=False)
        with CalibratedClock() as clock:
            values, raw, passes = run_passes(pkg, Runner(pkg, items, clock), workload, seed, seconds, traced)
    problems = [f for p in passes for f in p.failures] + consistency(passes)
    failed = sum(len(p.failures) for p in passes)
    attempted = sum(len(p.answers) for p in passes)
    declared = spec["per_layer" if traced else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"error: metrics not measured: {missing}")
    return {
        "problems": problems,
        "raw": raw,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
        },
    }


def run_all(args) -> int:
    """Each workload in its own process (peak_rss_mb is per process); a summary table."""
    results = {}
    for name in ladder.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: failed_share {res['failed'] / res['attempted']:.4f} ratio "
              f"({res['failed']} of {res['attempted']} entries)")
        for metric, value in res["metrics"].items():
            print(f"  {metric} {value['value']:.6g} {value['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="grpext benchmark")
    parser.add_argument("--workload", required=True, choices=[*ladder.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    res = outcome["result"]
    for problem in outcome["problems"]:
        print(f"FAILED {problem}")
    print(f"failed_share {res['failed'] / res['attempted']:.4f} ratio ({res['failed']} of {res['attempted']} entries)")
    for name, metric in res["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for name, value in outcome["raw"].items():
        print(f"{name} uncalibrated {value:.6g} s")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
