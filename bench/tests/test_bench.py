"""Tests of the benchmark itself: python3 -m pytest bench/tests -q (about a minute)."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "tests")]

import ladder  # noqa: E402
import run  # noqa: E402
from clock import CalibratedClock  # noqa: E402

PKG = run.load_package()


def run_pass(items, tracer=None) -> run.Pass:
    with CalibratedClock() as clock:
        return run.Runner(PKG, items, clock).run_pass(tracer)


def prepared(workload: str, seed: int, tmp: Path, ids=None) -> list[ladder.Prepared]:
    out = tmp / f"{workload}-{seed}"
    out.mkdir(parents=True, exist_ok=True)
    items = ladder.prepare(workload, seed, out, write=True)
    return [it for it in items if ids is None or it.entry.id in ids]


def test_oracle_calls_repeat_exactly_for_a_fixed_seed(tmp_path):
    ids = {"a11-11-table", "r4i1-rep3-table", "a3-3-no"}
    first = prepared("decomp-wide-abelian", 7, tmp_path / "a", ids)
    second = prepared("decomp-wide-abelian", 7, tmp_path / "b", ids)
    passes = [run_pass(first), run_pass(second)]
    tracer = run.Tracer(PKG)
    tracer.install()
    try:
        passes.append(run_pass(first, tracer))
    finally:
        tracer.uninstall()
    assert all(not p.failures for p in passes)
    assert passes[0].oracle_calls == passes[1].oracle_calls == passes[2].oracle_calls > 0
    assert run.consistency(passes) == []
    assert tracer.calls["iso.isomorphic"] == len(ids)
    assert tracer.oracle_calls["iso.isomorphic"] == passes[2].oracle_calls


@pytest.mark.parametrize(
    "workload, entry_id, k",
    [
        ("cli-verified", "g21", 2),
        ("decomp-wide-abelian", "a11-11-table", 3),
        ("kscan-large-gamma", "a211", 209),
        ("kscan-large-gamma", "a1009", 1007),
    ],
)
def test_seed_zero_reproduces_the_ladder_k(tmp_path, workload, entry_id, k):
    (item,) = prepared(workload, 0, tmp_path, {entry_id})
    G = PKG.blackbox.load_group(item.files["g"].read_text())
    H = PKG.blackbox.load_group(item.files["h"].read_text())
    result = PKG.iso.isomorphic(G, H)
    assert result.is_isomorphic and result.witness.k == k == item.entry.k


def _diagonal(rows) -> bool:
    return all(x == 0 for i, row in enumerate(rows) for j, x in enumerate(row) if i != j)


def test_ladder_k_matches_the_benchmark_arithmetic():
    pairs = [e for entries in ladder.WORKLOADS.values() for e in entries if isinstance(e, ladder.Pair)]
    diagonal = [e for e in pairs if _diagonal(e.g.rows) and _diagonal(e.h.rows)]
    assert len(diagonal) == 9
    for entry in diagonal:
        assert ladder.least_k(entry.g, entry.h) == entry.k, entry.id


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("workload, entry_id", [("cli-verified", "g21"), ("cli-verified", "a3-3-no")])
def test_expected_answers_agree_with_enumeration_oracles(tmp_path, seed, workload, entry_id):
    from corpus import naive_gamma, naive_isomorphic

    (item,) = prepared(workload, seed, tmp_path, {entry_id})
    G = PKG.blackbox.load_group(item.files["g"].read_text())
    H = PKG.blackbox.load_group(item.files["h"].read_text())
    gamma, _ = item.entry.g.gamma_and_type()
    assert naive_gamma(G) == naive_gamma(H) == gamma
    assert naive_isomorphic(G, H) == (item.entry.k is not None)


def test_a_wrong_expected_answer_counts_as_failed(tmp_path):
    items = prepared("cli-verified", 2, tmp_path, {"a3-3-no", "ptype-11-1-1"})
    assert not run_pass(items).failures
    wrong_k = dataclasses.replace(items[0].entry, k=1)
    wrong_m1 = dataclasses.replace(items[1].entry, m1=((3, 0), (0, 4)))
    items = [dataclasses.replace(items[0], entry=wrong_k), dataclasses.replace(items[1], entry=wrong_m1)]
    assert len(run_pass(items).failures) == 2


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench(ROOT, "decomp-wide-abelian", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[key]
    }
    for m in spec[key]:
        assert any(ln.startswith(m["name"] + " ") and ln.endswith(" " + m["unit"]) for ln in lines)
    if trace == 0:
        assert any(ln.startswith("failed_share 0.0000 ratio") for ln in lines)


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "cli-verified", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
