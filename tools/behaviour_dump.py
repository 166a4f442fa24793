"""Dump what the grpext CLI prints on a fixed set of inputs, to compare two checkouts.

Run from the root of a checkout:
    PYTHONPATH=src:tests python3 tools/behaviour_dump.py OUT

For every run OUT holds the command line, the exit code, the report less its
wall-time-ms line, the stderr text and, for a run with --out-dir, the name and
contents of every file written there. Two checkouts that behave alike write
byte-identical OUT files; `cmp` or `diff` of the two shows what moved.

The inputs, written into a temporary directory that is the working
directory of every run:
- the 35 corpus groups of tests/corpus.py plus Q8, S4 and D6 as Cayley
  tables: `standard-decomposition` of each, and `isomorphic --verify
  exhaustive` of every ordered pair;
- `isomorphic` with the default sampled check, the relator proof, on four
  isomorphic corpus pairs;
- `standard-decomposition` of Q8's table with non-canonical spellings of its
  labels, and of Z_5's table with a row holding an out-of-range entry, a
  repeated entry, too few entries or a non-integer token;
- `standard-decomposition` of five semidirect files with `gens` lines: three
  that generate, each by one kind of generation vector alone (a commutator,
  a generator in A, a power), and two that do not (the j-parts miss Z_3; the
  3-part of A has rank 1 of 2);
- every entry of the three benchmark workloads at seeds 0 and 7, run as
  bench/ladder.py's cli_argv gives it; bench/ladder.py is loaded by path and
  only read (corpus.bench_ladder);
- `conjugacy` on each ladder matrix pair in the other order too;
- `count-classes --r R --emit-reps I` for R <= 6 and I <= 2 (I = 0 is refused).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import sys
import tempfile
from pathlib import Path

import corpus
from grpext import cli

EXTRA_TABLES = {
    "Q8": corpus.quaternion_table,
    "S4": lambda: corpus.symmetric_table(4),
    "D6": lambda: corpus.dihedral_table(6),
}
SAMPLED_PAIRS = [("G21a", "G21b"), ("D7", "D7_table"), ("A4", "A4_table"), ("Z5xZ4_a", "Z5xZ4_b")]
LADDER_SEEDS = (0, 7)


def _write_group(name: str) -> None:
    """NAME.grp: a semidirect corpus group as its semidirect file, any other as a Cayley table."""
    path = Path(f"{name}.grp")
    if name in EXTRA_TABLES:
        corpus.write_table(path, EXTRA_TABLES[name]())
    elif (spec := corpus.corpus_entry(name).semidirect) is None:
        corpus.write_table(path, corpus.build(name))
    else:
        lines = ["semidirect", "A " + " ".join(map(str, spec.qs)), f"m {spec.m}"]
        lines += [" ".join(map(str, row)) for row in spec.rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def corpus_runs(names=None, pairs=None, sampled=()) -> list[list[str]]:
    """Write the groups named (default: the corpus and EXTRA_TABLES) into the
    working directory. The runs are standard-decomposition of each, exhaustive
    isomorphic of each pair (default: every ordered pair) and sampled
    isomorphic of each pair in sampled."""
    names = corpus.corpus_names() + list(EXTRA_TABLES) if names is None else list(names)
    for name in names:
        _write_group(name)
    pairs = [(g, h) for g in names for h in names] if pairs is None else pairs
    runs = [["standard-decomposition", f"{name}.grp"] for name in names]
    runs += [["isomorphic", f"{g}.grp", f"{h}.grp", "--verify", "exhaustive"] for g, h in pairs]
    return runs + [["isomorphic", f"{g}.grp", f"{h}.grp"] for g, h in sampled]


def ladder_runs(workloads=None, seeds=LADDER_SEEDS, ids=None) -> list[list[str]]:
    """Write the ladder's files of each workload (default: all) and seed into
    the working directory. The runs are its entries (default: all, else those
    in ids), and each conjugacy entry again with its matrices swapped."""
    runs = []
    with corpus.bench_ladder() as ladder:
        for workload in ladder.WORKLOADS if workloads is None else workloads:
            for seed in seeds:
                out = Path(f"{workload}-{seed}")
                out.mkdir()
                for item in ladder.prepare(workload, seed, out, write=True):
                    if ids is not None and item.entry.id not in ids:
                        continue
                    argv = ladder.cli_argv(item)
                    runs.append(argv)
                    if argv[0] == "conjugacy":
                        runs.append([argv[0], argv[2], argv[1]] + argv[3:])
    return runs


def table_parse_runs() -> list[list[str]]:
    """Write Q8's table with its 0s and 1s respelled (00, -0, +0, +1, 01), and
    Z_5's table with one bad row each, into the working directory. The runs
    are standard-decomposition of each."""
    spellings = {0: itertools.cycle(["00", "-0", "+0", "0"]), 1: itertools.cycle(["+1", "01", "1"])}
    rows = [[next(spellings[x]) if x in spellings else str(x) for x in row]
            for row in corpus.materialize_table(corpus.quaternion_table()).table]
    files = {"Q8-respelled": rows}
    for name, row in [("out-of-range", "2 3 4 5 1"), ("repeated", "2 3 4 2 1"),
                      ("short-row", "2 3 4 0"), ("non-integer", "2 3 x 0 1")]:
        files[name] = [[str((i + j) % 5) for j in range(5)] for i in range(5)]
        files[name][2] = row.split()
    for name, rows in files.items():
        text = f"table {len(rows)}\n" + "".join(" ".join(row) + "\n" for row in rows)
        Path(f"{name}.grp").write_text(text, encoding="utf-8")
    return [["standard-decomposition", f"{name}.grp"] for name in files]


GENS_FILES = {
    "gens-commutator-spans": "A 7\nm 3\n2\ngens 1 1\ngens 0 1",
    "gens-a-generator-spans": "A 2 3\nm 1\n1 0\n0 1\ngens 1 1 0",
    "gens-power-spans": "A 7\nm 3\n1\ngens 1 1",
    "gens-j-parts": "A 7\nm 3\n2\ngens 1 0",
    "gens-3-part-rank": "A 3 3\nm 2\n0 1\n1 0\ngens 1 1 1",
}


def gens_parse_runs() -> list[list[str]]:
    """Write GENS_FILES into the working directory. The runs are
    standard-decomposition of each."""
    for name, body in GENS_FILES.items():
        Path(f"{name}.grp").write_text(f"semidirect\n{body}\n", encoding="utf-8")
    return [["standard-decomposition", f"{name}.grp"] for name in GENS_FILES]


def count_classes_runs() -> list[list[str]]:
    return [
        ["count-classes", "--r", str(r), "--emit-reps", str(i), "--out-dir", f"reps-r{r}-i{i}"]
        for r in range(1, 7) for i in range(3)
    ]


def _run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    report = [ln for ln in out.getvalue().splitlines(True) if not ln.startswith("wall-time-ms ")]
    text = [f"$ grpext {' '.join(argv)}\n", f"exit {code}\n", "stdout:\n", *report, "stderr:\n", err.getvalue()]
    if "--out-dir" in argv and (out_dir := Path(argv[argv.index("--out-dir") + 1])).is_dir():
        for path in sorted(out_dir.iterdir()):
            text += [f"file {path.name}:\n", path.read_text(encoding="utf-8")]
    return "".join(text)


def dump(runs: list[list[str]]) -> str:
    """The record of each run, in order."""
    return "".join(_run(argv) for argv in runs)


def main(args: list[str]) -> int:
    if len(args) != 1:
        print("usage: PYTHONPATH=src:tests python3 tools/behaviour_dump.py OUT", file=sys.stderr)
        return 2
    out, cwd = Path(args[0]).resolve(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            runs = corpus_runs(sampled=SAMPLED_PAIRS) + table_parse_runs() + gens_parse_runs()
            runs += ladder_runs() + count_classes_runs()
            text = dump(runs)
        finally:
            os.chdir(cwd)
    out.write_text(text, encoding="utf-8")
    print(f"runs {len(runs)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
