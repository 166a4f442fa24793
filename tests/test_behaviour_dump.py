"""tools/behaviour_dump.py, loaded by path, on the order-21 pair and one ladder entry."""

import importlib.util
from pathlib import Path

TOOL_PATH = Path(__file__).resolve().parent.parent / "tools" / "behaviour_dump.py"


def _tool():
    spec = importlib.util.spec_from_file_location("behaviour_dump", TOOL_PATH)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_dump_records_exit_code_report_stderr_and_written_files(tmp_path, monkeypatch):
    tool = _tool()
    monkeypatch.chdir(tmp_path)
    runs = tool.corpus_runs(["G21a", "G21b"], pairs=[("G21a", "G21b")], sampled=[("G21a", "G21b")])
    runs += tool.ladder_runs(["cli-verified"], seeds=(0,), ids={"ptype-11-1-1"})
    runs += [["count-classes", "--r", "2", "--emit-reps", "1", "--out-dir", "reps"],
             ["standard-decomposition", "missing.grp"]]
    text = tool.dump(runs)
    assert text == tool.dump(runs)
    records = text.split("$ grpext ")[1:]
    assert [r.splitlines()[0] for r in records] == [
        "standard-decomposition G21a.grp",
        "standard-decomposition G21b.grp",
        "isomorphic G21a.grp G21b.grp --verify exhaustive",
        "isomorphic G21a.grp G21b.grp",
        "conjugacy cli-verified-0/ptype-11-1-1-1.mat cli-verified-0/ptype-11-1-1-2.mat --order-cap 5",
        "conjugacy cli-verified-0/ptype-11-1-1-2.mat cli-verified-0/ptype-11-1-1-1.mat --order-cap 5",
        "count-classes --r 2 --emit-reps 1 --out-dir reps",
        "standard-decomposition missing.grp",
    ]
    assert "wall-time-ms" not in text
    exhaustive = records[2].splitlines()
    assert exhaustive[1:3] == ["exit 0", "stdout:"] and exhaustive[-1] == "stderr:"
    assert {"verdict yes", "k 2", "mu-check exhaustive pass"} <= set(exhaustive)
    assert "mu-check sampled pass" in records[3].splitlines()
    for record in records[4:6]:
        assert "conjugate yes" in record.splitlines()
    count = records[6].splitlines()
    files = count[count.index("stderr:") + 1 :]
    assert files[::7] == [f"file rep_r2_i1_0{i}.grp:" for i in range(4)]
    assert files[1:7] == ["# class representative 0: blocks 0 0 1", "semidirect", "A 3 3", "m 4", "0 2", "1 0"]
    assert records[7] == (
        "standard-decomposition missing.grp\nexit 2\nstdout:\nstderr:\n"
        "error [Errno 2] No such file or directory: 'missing.grp'\n"
    )


def test_table_parse_runs_cover_respelled_labels_and_each_bad_row(tmp_path, monkeypatch):
    tool = _tool()
    monkeypatch.chdir(tmp_path)
    records = tool.dump(tool.table_parse_runs()).split("$ grpext ")[1:]
    assert [r.splitlines()[0] for r in records] == [
        f"standard-decomposition {name}.grp"
        for name in ["Q8-respelled", "out-of-range", "repeated", "short-row", "non-integer"]
    ]
    canonical = tool.dump(tool.corpus_runs(["Q8"], pairs=[]))  # Q8 is outside the scope class
    assert records[0] == canonical[len("$ grpext ") :].replace("Q8.grp", "Q8-respelled.grp")
    assert {"00", "-0", "+1", "01"} <= set((tmp_path / "Q8-respelled.grp").read_text().split())
    errors = [r.splitlines()[1:] for r in records[1:]]
    assert errors == [
        ["exit 2", "stdout:", "stderr:", "error row 2 is not a permutation"],
        ["exit 2", "stdout:", "stderr:", "error row 2 is not a permutation"],
        ["exit 2", "stdout:", "stderr:", "error row 2 has 4 entries, expected 5"],
        ["exit 2", "stdout:", "stderr:", "error row 2 entry 'x' is not an integer"],
    ]


def test_gens_parse_runs_accept_each_spanning_kind_and_name_each_failure(tmp_path, monkeypatch):
    tool = _tool()
    monkeypatch.chdir(tmp_path)
    records = tool.dump(tool.gens_parse_runs()).split("$ grpext ")[1:]
    assert [r.splitlines()[0] for r in records] == [
        f"standard-decomposition {name}.grp" for name in tool.GENS_FILES
    ]
    for record in records[:6]:
        assert record.splitlines()[1] == "exit 0"
    assert [r.splitlines()[1:] for r in records[6:]] == [
        ["exit 2", "stdout:", "stderr:", "error the generators' j-parts do not generate Z_3"],
        ["exit 2", "stdout:", "stderr:",
         "error the generators do not generate the 3-part of A (rank 1 of 2)"],
    ]
