import dataclasses
import hashlib
import itertools
import random
import re
import time

import pytest

from corpus import build, dihedral_table, relabel, symmetric_table, write_table
from grpext import abelian, autring, blackbox, classes, iso
from grpext.cli import main
from grpext.decomp import standard_decomposition
from grpext.errors import InvariantBreachError, MalformedInputError

G21A = "semidirect\nA 7\nm 3\n2\n"
G21B = "semidirect\nA 7\nm 3\n4\n"
F8Z7 = "semidirect\nA 2 2 2\nm 7\n0 0 1\n1 0 1\n0 1 0\n"
A4 = "semidirect\nA 2 2\nm 3\n0 1\n1 1\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_wall_time(text: str) -> str:
    return re.sub(r"wall-time-ms \d+", "wall-time-ms X", text)


def test_order_command(tmp_path, capsys):
    path = tmp_path / "g.grp"
    path.write_text(G21A)
    code, out, _ = run_cli(capsys, "order", str(path), "0;1")
    assert code == 0
    assert "order 3" in out
    assert f"input sha256:{hashlib.sha256(path.read_bytes()).hexdigest()}\n" in out
    code, out, _ = run_cli(capsys, "order", str(path), "1;0")
    assert code == 0 and "order 7" in out


def test_bad_memory_budget_exits_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.grp"
    path.write_text(G21A)
    monkeypatch.setenv("GRPEXT_MEM_MB", "abc")
    code, out, err = run_cli(capsys, "order", str(path), "1;0")
    assert code == 2
    assert out == ""
    assert err == "error GRPEXT_MEM_MB must be a positive integer, not 'abc'\n"


def test_verification_under_the_memory_cap_builds_no_mu_table(tmp_path, capsys, monkeypatch):
    # the decision and the relator proof fit in 1 MiB. build_mu maps by the closure of G
    # and builds no table, so on this G of 2.25 * 10^8 elements it refuses, as
    # exhaustive mode does
    path = tmp_path / "g.grp"
    path.write_text("semidirect\nA 15013\nm 15012\n2\n")
    monkeypatch.setenv("GRPEXT_MEM_MB", "1")
    code, out, err = run_cli(capsys, "isomorphic", str(path), str(path))
    assert (code, err) == (0, "")
    assert "mu-check sampled pass\n" in out
    G = blackbox.load_group(path.read_text())
    with pytest.raises(MalformedInputError, match="exhaustive verification refused: subgroup has more than 1024"):
        iso.build_mu(iso.isomorphic(G, G).witness)


def test_cover_proof_of_generators_a_t_and_t_fits_the_memory_cap(tmp_path, capsys, monkeypatch):
    # (a t)^15013 lies in <y>A but not in <y>: the cover proof decides it by arithmetic,
    # with no table over y and the basis of A
    path = tmp_path / "g.grp"
    path.write_text("semidirect\nA 15013\nm 15012\n2\ngens 1 1\ngens 0 1\n")
    monkeypatch.setenv("GRPEXT_MEM_MB", "1")
    code, out, err = run_cli(capsys, "standard-decomposition", str(path))
    assert (code, err) == (0, "")
    assert "gamma 15012\n" in out


@pytest.mark.parametrize("qs, m, rows, power", [
    ((1009,), 1008, [[11]], 5),  # the determinant case: a primitive root g against g^5
    ((1033, 1033), 1034, [[0, 1032], [1, 3]], 3),  # the companion of x^2 - 3x + 1, in SL_2, against its cube
])
def test_large_in_class_pairs_are_proved_by_few_oracle_calls(tmp_path, capsys, qs, m, rows, power):
    # |G| is about 10^6 and 1.1 * 10^9: the relator proof takes at most 1 000 oracle
    # calls on each side beyond the decision's
    action = autring.blocks_from_rows(qs, rows)
    head = ["semidirect", "A " + " ".join(map(str, qs)), f"m {m}"]
    texts = [
        "\n".join(head + [" ".join(map(str, row)) for row in u]) + "\n"
        for u in (action.rows, autring.blocks_pow(action, power).rows)
    ]
    paths = [tmp_path / "g.grp", tmp_path / "h.grp"]
    for path, text in zip(paths, texts):
        path.write_text(text)
    G, H = (blackbox.load_group(text) for text in texts)
    assert iso.isomorphic(G, H).is_isomorphic
    code, out, _ = run_cli(capsys, "isomorphic", *map(str, paths))
    assert code == 0 and "mu-check sampled pass\n" in out
    calls = dict(line.split() for line in out.splitlines() if line.startswith("oracle-calls"))
    assert int(calls["oracle-calls-g"]) - G.operation_count <= 1000
    assert int(calls["oracle-calls-h"]) - H.operation_count <= 1000


def test_trivial_group_goes_through_the_sweep(tmp_path, capsys):
    path = tmp_path / "g.grp"
    path.write_text("table 1\n0\n")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    code, out, _ = run_cli(capsys, "standard-decomposition", str(path))
    assert code == 0
    assert strip_wall_time(out) == (
        f"command standard-decomposition\ninput sha256:{digest}\ngamma 1\nabelian-order 1\n"
        "abelian-type -\ngroup-order 1\ny 0\nattempt 1 ok 1\noracle-calls 0\nwall-time-ms X\n"
    )
    # y1 = 1 and A is trivial: y1 maps to 1, so the closure over y1 and A's basis has no
    # edge, and both modes prove mu on {1} without a product
    code, out, _ = run_cli(capsys, "isomorphic", str(path), str(path), "--verify", "exhaustive")
    assert code == 0
    assert strip_wall_time(out) == (
        f"command isomorphic\ninput-g sha256:{digest}\ninput-h sha256:{digest}\nverdict yes\n"
        "gamma 1\nk 1\npsi-block trivial\nmu-check exhaustive pass\noracle-calls-g 1\n"
        "oracle-calls-h 1\nwall-time-ms X\n"
    )
    code, out, _ = run_cli(capsys, "isomorphic", str(path), str(path))
    assert code == 0
    assert strip_wall_time(out) == (
        f"command isomorphic\ninput-g sha256:{digest}\ninput-h sha256:{digest}\nverdict yes\n"
        "gamma 1\nk 1\npsi-block trivial\nmu-check sampled pass\noracle-calls-g 1\n"
        "oracle-calls-h 1\nwall-time-ms X\n"
    )


def test_order_identity_is_one(tmp_path, capsys):
    path = tmp_path / "g.grp"
    path.write_text("table 6\n" + "\n".join(
        " ".join(str((i + j) % 6) for j in range(6)) for i in range(6)
    ) + "\n")
    code, out, _ = run_cli(capsys, "order", str(path), "0")
    assert code == 0 and "order 1" in out
    code, out, _ = run_cli(capsys, "order", str(path), "1")
    assert code == 0 and "order 6" in out


def test_standard_decomposition_command(tmp_path, capsys):
    path = tmp_path / "g.grp"
    path.write_text(G21A)
    code, out, _ = run_cli(capsys, "standard-decomposition", str(path))
    assert code == 0
    assert "gamma 3" in out
    assert "abelian-order 7" in out
    assert "attempt 3 ok 21" in out


def test_isomorphic_command_yes(tmp_path, capsys):
    a, b = tmp_path / "a.grp", tmp_path / "b.grp"
    a.write_text(G21A)
    b.write_text(G21B)
    code, out, _ = run_cli(capsys, "isomorphic", str(a), str(b), "--verify", "exhaustive")
    assert code == 0
    assert "verdict yes" in out
    assert "gamma 3" in out
    assert "k 2" in out
    assert "psi-block 7 1" in out
    assert "mu-check exhaustive pass" in out


def test_exhaustive_verification_fails_a_yes_onto_a_larger_group(tmp_path, capsys, monkeypatch):
    # a wrong yes: the test answers for G against itself, so mu is a bijection of G,
    # while H = F8 x| Z7 has 56 elements, not 21; the exhaustive check must catch it
    a, b = tmp_path / "a.grp", tmp_path / "b.grp"
    a.write_text(G21A)
    b.write_text(F8Z7)
    real_isomorphic = iso.isomorphic
    monkeypatch.setattr(iso, "isomorphic", lambda G, H: real_isomorphic(G, G))
    code, out, _ = run_cli(capsys, "isomorphic", str(a), str(b), "--verify", "exhaustive")
    assert code == 1
    assert "verdict yes\n" in out
    assert "mu-check exhaustive fail\n" in out
    # the same wrong yes with H's own decomposition as the witness's target: the proof
    # maps y1, of order 3, to a power of y2, of order 7, and an edge fails
    onto_h = lambda G, H: iso.IsoResult(
        dataclasses.replace(real_isomorphic(G, G).witness, target=standard_decomposition(H)), None
    )
    monkeypatch.setattr(iso, "isomorphic", onto_h)
    code, out, _ = run_cli(capsys, "isomorphic", str(a), str(b), "--verify", "exhaustive")
    assert (code, "verdict yes\n" in out, "mu-check exhaustive fail\n" in out) == (1, True, True)


@pytest.mark.parametrize(
    "argv",
    [
        ["standard-decomposition", "s4.grp"],  # S4' = A4 is not abelian
        ["isomorphic", "s4.grp", "s4.grp"],
        ["isomorphic", "d6.grp", "s3.grp"],
        # the sweep's best decomposition of D6 has order 6: <y>A misses half of it
        ["standard-decomposition", "d6.grp"],
        ["isomorphic", "s3.grp", "d6.grp"],
        ["isomorphic", "s3.grp", "d6.grp", "--verify", "exhaustive"],
        ["isomorphic", "d6.grp", "s3.grp", "--verify", "exhaustive"],
    ],
)
def test_out_of_class_input_exits_2_with_one_error_line(tmp_path, capsys, argv):
    write_table(tmp_path / "s4.grp", symmetric_table(4))
    write_table(tmp_path / "s3.grp", build("S3_table"))
    write_table(tmp_path / "d6.grp", relabel(dihedral_table(6), random.Random(3)))
    paths = (str(tmp_path / arg) if arg.endswith(".grp") else arg for arg in argv[1:])
    code, out, err = run_cli(capsys, argv[0], *paths)
    assert code == 2
    assert out == ""
    assert err.startswith("error ") and err.count("\n") == 1
    assert err.endswith("the group is outside the scope class\n")


def test_exhaustive_verification_refuses_a_large_group(tmp_path, capsys):
    # |G| = 1009 * 1008: mapping every element would take up to 1024 products per mu
    # lookup, about 10^9 in all, so the check stops at 1024 elements
    a, b = tmp_path / "a.grp", tmp_path / "b.grp"
    a.write_text("semidirect\nA 1009\nm 1008\n11\n")
    b.write_text("semidirect\nA 1009\nm 1008\n367\n")
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "isomorphic", str(a), str(b), "--verify", "exhaustive")
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert err == "error exhaustive verification refused: subgroup has more than 1024 elements\n"


def test_isomorphic_command_no(tmp_path, capsys):
    a, b = tmp_path / "a.grp", tmp_path / "b.grp"
    a.write_text(G21A)
    b.write_text("semidirect\nA 3\nm 4\n2\n")
    code, out, _ = run_cli(capsys, "isomorphic", str(a), str(b))
    assert code == 0  # a definite negative verdict still exits 0
    assert "verdict no" in out
    assert "reason gamma-mismatch" in out


def test_verdict_independent_of_flag_order(tmp_path, capsys):
    a, b = tmp_path / "a.grp", tmp_path / "b.grp"
    a.write_text(G21A)
    b.write_text(G21B)
    _, out1, _ = run_cli(capsys, "isomorphic", str(a), str(b), "--verify", "sampled", "--seed", "1")
    _, out2, _ = run_cli(capsys, "isomorphic", str(a), str(b), "--seed", "1", "--verify", "sampled")
    assert strip_wall_time(out1) == strip_wall_time(out2)


def mask_counts(text: str) -> str:
    """The report with the numbers of its oracle-call and wall-time lines replaced by N."""
    return re.sub(r"^(oracle-calls(?:-[gh])?|wall-time-ms) \d+$", r"\1 N", text, flags=re.M)


def _digest(path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def test_standard_decomposition_report_lists_every_attempt(tmp_path, capsys):
    path = tmp_path / "g.grp"
    path.write_text(G21A)
    code, out, _ = run_cli(capsys, "standard-decomposition", str(path))
    assert code == 0
    assert mask_counts(out).splitlines() == [
        "command standard-decomposition",
        f"input {_digest(path)}",
        "gamma 3",
        "abelian-order 7",
        "abelian-type 7",
        "group-order 21",
        "y 0;1",
        "attempt 1 error candidate abelian part does not commute",
        "attempt 3 ok 21",
        "attempt 7 error derived subgroup order shares a factor with m",
        "attempt 21 error derived subgroup order shares a factor with m",
        "oracle-calls N",
        "wall-time-ms N",
    ]


def test_isomorphic_reports_yes_and_no(tmp_path, capsys):
    a, b, c = tmp_path / "a.grp", tmp_path / "b.grp", tmp_path / "c.grp"
    a.write_text(G21A)
    b.write_text(G21B)
    c.write_text("semidirect\nA 3\nm 4\n2\n")
    code, out, _ = run_cli(capsys, "isomorphic", str(a), str(b), "--verify", "exhaustive")
    assert code == 0
    assert mask_counts(out).splitlines() == [
        "command isomorphic",
        f"input-g {_digest(a)}",
        f"input-h {_digest(b)}",
        "verdict yes",
        "gamma 3",
        "k 2",
        "psi-block 7 1",
        "4",
        "mu-check exhaustive pass",
        "oracle-calls-g N",
        "oracle-calls-h N",
        "wall-time-ms N",
    ]
    code, out, _ = run_cli(capsys, "isomorphic", str(a), str(c))
    assert code == 0
    assert mask_counts(out).splitlines() == [
        "command isomorphic",
        f"input-g {_digest(a)}",
        f"input-h {_digest(c)}",
        "verdict no",
        "reason gamma-mismatch",
        "oracle-calls-g N",
        "oracle-calls-h N",
        "wall-time-ms N",
    ]


def test_failed_mu_check_exits_1_after_the_full_report(tmp_path, capsys, monkeypatch):
    a, b = tmp_path / "a.grp", tmp_path / "b.grp"
    a.write_text(G21A)
    b.write_text(G21B)
    monkeypatch.setattr(iso, "verify_isomorphism", lambda *args, **kwargs: False)
    code, out, err = run_cli(capsys, "isomorphic", str(a), str(b))
    assert code == 1
    assert err == ""
    assert mask_counts(out).splitlines()[-5:] == [
        "4",
        "mu-check sampled fail",
        "oracle-calls-g N",
        "oracle-calls-h N",
        "wall-time-ms N",
    ]


def test_reports_are_deterministic(tmp_path, capsys):
    path = tmp_path / "g.grp"
    path.write_text(G21A)
    _, out1, _ = run_cli(capsys, "standard-decomposition", str(path))
    _, out2, _ = run_cli(capsys, "standard-decomposition", str(path))
    assert strip_wall_time(out1) == strip_wall_time(out2)


def test_conjugacy_command(tmp_path, capsys):
    m1, m2 = tmp_path / "m1.mat", tmp_path / "m2.mat"
    m1.write_text("ptype 7 1\n2\n")
    m2.write_text("ptype 7 1\n4\n")
    code, out, _ = run_cli(capsys, "conjugacy", str(m1), str(m2), "--order-cap", "6")
    assert code == 0 and "conjugate no" in out
    code, out, _ = run_cli(capsys, "conjugacy", str(m1), str(m1), "--order-cap", "6")
    assert code == 0 and "conjugate yes" in out


def test_conjugacy_command_on_twelve_psi_blocks(tmp_path, capsys):
    # the identity of (2; 1, ..., 12): a whole random draw is a unit with chance 2^-12
    s = 12
    m = tmp_path / "identity.mat"
    rows = [" ".join(str(int(i == j)) for j in range(s)) for i in range(s)]
    m.write_text(f"ptype 2 {' '.join(str(e) for e in range(1, s + 1))}\n" + "\n".join(rows) + "\n")
    code, out, err = run_cli(capsys, "conjugacy", str(m), str(m), "--order-cap", "1")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[3] == "conjugate yes"
    witness = [[int(x) for x in row.split()] for row in lines[4:4 + s]]
    assert all(witness[i][i] % 2 for i in range(s))


def test_count_classes_headline(capsys):
    code, out, _ = run_cli(capsys, "count-classes", "--r", "4")
    assert code == 0
    assert "count 9" in out
    assert out.count("triple ") == 9


def test_count_classes_emit_and_reload(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "count-classes", "--r", "1", "--emit-reps", "1", "--out-dir", str(tmp_path)
    )
    assert code == 0
    files = sorted(tmp_path.glob("*.grp"))
    assert len(files) == 2
    code, out, _ = run_cli(capsys, "standard-decomposition", str(files[0]))
    assert code == 0 and "group-order 12" in out


def test_count_classes_bad_exponent_creates_no_directory(tmp_path, capsys):
    out_dir = tmp_path / "D"
    code, _, err = run_cli(
        capsys, "count-classes", "--r", "2", "--emit-reps", "0", "--out-dir", str(out_dir)
    )
    assert code == 2
    assert "error i must be >= 1" in err.splitlines()
    assert not out_dir.exists()


def test_count_classes_modulus_too_long_to_write_creates_no_directory(tmp_path, capsys):
    # 3^10000 has 4772 digits, past the 4300 that str() writes and the reader reads
    out_dir = tmp_path / "D"
    code, out, err = run_cli(
        capsys, "count-classes", "--r", "1", "--emit-reps", "10000", "--out-dir", str(out_dir)
    )
    assert code == 2 and out == ""
    assert err == "error 3^10000 has more than 4300 digits, more than a file can hold\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("g.grp", "semidirect\nA 7\nm 3 99 junk\n2\n", "m line has 3 entries, expected 1"),
        ("g.grp", "semidirect\nA 1_1\nm 5\n3\n", "A line entry '1_1' is not an integer"),
        ("g.grp", "semidirect\nA \uff17\nm 3\n2\n", "A line entry '\uff17' is not an integer"),
        ("g.grp", "semidirect\nA\nm 3\n", "A line needs at least one prime power"),
        ("g.grp", "table 2\n0 1\n1 0_0\n", "row 1 entry '0_0' is not an integer"),
        ("u.mat", "ptypes 3 1\n2\n", "expected `ptype ...`, got 'ptypes 3 1'"),
        ("u.mat", "ptype 3 1\n+\n", "matrix row 1 entry '+' is not an integer"),
    ],
)
def test_lenient_spellings_exit_2_naming_the_line(tmp_path, capsys, name, text, message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    if name == "u.mat":
        argv = ["conjugacy", str(path), str(path), "--order-cap", "10"]
    else:
        argv = ["standard-decomposition", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error {message}\n")


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["isomorphic", "g.grp", "g.grp", "--seed", "\uff14"], "--seed", "\uff14"),
        (["conjugacy", "u.mat", "u.mat", "--order-cap", "0_5"], "--order-cap", "0_5"),
        (["count-classes", "--r", "\uff14"], "--r", "\uff14"),
        (["count-classes", "--r", "2", "--emit-reps", "1_0"], "--emit-reps", "1_0"),
    ],
)
def test_integer_flags_refuse_what_files_refuse(tmp_path, capsys, monkeypatch, argv, flag, value):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.grp").write_text(G21A)
    (tmp_path / "u.mat").write_text("ptype 7 1\n2\n")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"error: argument {flag}: value entry {value!r} is not an integer" in captured.err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["g.grp", "u.mat"]  # nothing ran


R4_I1_SHA256 = [  # the emitted files of count-classes --r 4 --emit-reps 1
    "0e289ee9854a2a6ef903f49be13979467399ede92eb743bf1dc7af393d3e8a84",
    "5c2f698089ea827e4f65ac4b36d4c2be0cc28d0d8cd1df018133fda9f6b73019",
    "c74348737239a17310016599e598475f8089779d5791f61b6ccce6859f809e44",
    "5cd5bd2d4186b897c1e78de12c4e03b261ee8e2e126494508e89a285e812e923",
    "2b6c66862d0b43b009fc6c9d98fecc3f69adca1a66c17c2eb476743593011af7",
    "6f25336cc66b180cbb9877ae6d29d4a76e5850e8a74807cd33e887011d532ad3",
    "7a6aee00f1210640f1c11e65f8451edd175bee93466408572a9ee83271044928",
    "21120bafdace418fefe49a31cddb206e612ce2cb4f6d38efeb9cf30ea35b0e6d",
    "c0e527ed77afc32e84ad6ef109e8a26cd29dc7e396f6860d649176c262354e7b",
]


def test_count_classes_emitted_files_are_pinned_at_i1(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "count-classes", "--r", "4", "--emit-reps", "1", "--out-dir", str(tmp_path)
    )
    assert code == 0
    files = sorted(tmp_path.glob("*.grp"))
    assert [f.name for f in files] == [f"rep_r4_i1_{idx:02d}.grp" for idx in range(9)]
    assert [hashlib.sha256(f.read_bytes()).hexdigest() for f in files] == R4_I1_SHA256


@pytest.mark.parametrize("r", [2, 3])
def test_count_classes_emitted_representatives_at_i2(tmp_path, capsys, r):
    code, _, _ = run_cli(
        capsys, "count-classes", "--r", str(r), "--emit-reps", "2", "--out-dir", str(tmp_path)
    )
    assert code == 0
    texts = [f.read_text() for f in sorted(tmp_path.glob("*.grp"))]
    assert len(texts) == classes.count_classes(r)
    groups = [blackbox.load_group(text) for text in texts]
    for text, rep1 in zip(texts, classes.class_representatives(r, 1)):
        (block,) = blackbox.parse_group_file(text).action.blocks
        assert autring.star_pow(block, 4) == autring.identity_matrix(block.ptype)
        assert autring.psi(block) == autring.psi(rep1.blocks[0])
    for a, b in itertools.combinations(groups, 2):
        assert not iso.isomorphic(a, b).is_isomorphic


def test_count_classes_emits_r8_i2_within_two_seconds(tmp_path, capsys):
    # the representatives are built once, not once per emitted file
    started = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "count-classes", "--r", "8", "--emit-reps", "2", "--out-dir", str(tmp_path)
    )
    elapsed = time.perf_counter() - started
    assert code == 0 and out.count("wrote ") == classes.count_classes(8) == 25
    assert elapsed < 2.0


def test_malformed_input_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.grp"
    bad.write_text("semidirect\nA 6\nm 5\n1\n")
    code, _, err = run_cli(capsys, "order", str(bad), "0;0")
    assert code == 2
    assert "error" in err
    missing = tmp_path / "missing.grp"
    code, _, err = run_cli(capsys, "order", str(missing), "0")
    assert code == 2


@pytest.mark.parametrize(
    "command,extra",
    [
        ("order", ["0"]),
        ("standard-decomposition", []),
        ("isomorphic", []),
        ("conjugacy", ["--order-cap", "10"]),
    ],
)
def test_non_utf8_input_is_malformed(tmp_path, capsys, command, extra):
    good, bad = tmp_path / "good", tmp_path / "bad"
    if command == "conjugacy":
        good.write_text("ptype 11 1\n3\n")
        bad.write_bytes(b"ptype 11 1\n3\xff\n")
    else:
        good.write_text(G21A)
        bad.write_bytes(b"table 1\n0\xff\n")
    files = [str(good), str(bad)] if command in ("isomorphic", "conjugacy") else [str(bad)]
    code, out, err = run_cli(capsys, command, *files, *extra)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error {bad} is not UTF-8 text: ") and err.count("\n") == 1


def test_conjugacy_under_a_large_order_cap_searches_by_square_roots(tmp_path, capsys, monkeypatch):
    # orders 1 000 002 and 1 000 000 006: a walk takes seconds to minutes, the search under one
    for p, g, cap in [(1000003, 2, "2000000"), (1000000007, 5, "2000000000")]:
        path = tmp_path / f"u{p}.mat"
        path.write_text(f"ptype {p} 1\n{g}\n")
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "conjugacy", str(path), str(path), "--order-cap", cap)
        assert (code, err, out.splitlines()[3]) == (0, "", "conjugate yes")
        assert time.perf_counter() - started < 5
    monkeypatch.setenv("GRPEXT_MEM_MB", "1")  # the second search needs a radius near 2^15
    code, out, err = run_cli(capsys, "conjugacy", str(path), str(path), "--order-cap", cap)
    assert code == 2 and out == ""
    assert re.fullmatch(r"error baby-step table for order finding would exceed \d+ entries\n", err)


def test_precondition_violation_exits_nonzero(tmp_path, capsys):
    m1 = tmp_path / "m1.mat"
    m1.write_text("ptype 3 1 1\n1 1\n0 1\n")  # order 3 = p: condition fails
    code, _, err = run_cli(capsys, "conjugacy", str(m1), str(m1), "--order-cap", "9")
    assert code == 2 and "error" in err
    singular = tmp_path / "singular.mat"
    singular.write_text("ptype 3 1 1\n1 1\n1 1\n")  # determinant 0 mod 3: not a unit
    code, out, err = run_cli(capsys, "conjugacy", str(singular), str(singular), "--order-cap", "9")
    assert (code, out, err) == (2, "", "error conjugacy inputs must be units\n")


def test_selftest(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "failures 0" in out
    assert out.count(" pass") >= 7


def test_selftest_reports_a_table_miss_as_a_failed_check(capsys, monkeypatch):
    monkeypatch.setattr(abelian.DecompositionTable, "decompose", lambda self, g: None)
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 1
    assert "selftest decompose fail\n" in out  # a miss is a failed check, not a crash


def test_invalid_solver_assignment_is_an_invariant_breach(tmp_path, capsys, monkeypatch):
    real = autring.mat_pow

    def two_powers_too_many(rows, n, moduli):
        # conjugacy takes u2^{-1} as u2^{n-1}; this makes it u2^{n+1} = u2, and u2^2 = -I, so
        # every average is Y = 2(R + u2 R u2), which anticommutes with u2 and is often a unit
        return real(rows, n + 2, moduli)

    monkeypatch.setattr(autring, "mat_pow", two_powers_too_many)
    u = autring.parse_matrix_file("ptype 3 2 2\n0 8\n1 0\n")
    with pytest.raises(InvariantBreachError, match="final verification"):
        autring.conjugacy(u, u, order_cap=4)
    path = tmp_path / "w.mat"
    path.write_text("ptype 3 2 2\n0 8\n1 0\n")
    code, out, err = run_cli(capsys, "conjugacy", str(path), str(path), "--order-cap", "4")
    assert code == 2
    assert out == ""
    assert err == "error conjugator failed final verification\n"


@pytest.mark.parametrize("text, gens, order", [
    pytest.param(F8Z7, "gens 0 0 0 1\ngens 1 0 0 1\n", 56, id="F8xZ7"),
    pytest.param(A4, "gens 1 1 1\ngens 0 0 1\n", 12, id="A4"),
])
def test_generators_a_y_and_y_decide_yes(tmp_path, capsys, text, gens, order):
    # G' is the normal closure of the commutator of the two generators
    a, b = tmp_path / "a.grp", tmp_path / "b.grp"
    a.write_text(text + gens)
    b.write_text(text)
    code, out, _ = run_cli(capsys, "standard-decomposition", str(a))
    assert code == 0 and f"group-order {order}\n" in out
    code, out, _ = run_cli(capsys, "isomorphic", str(a), str(b), "--verify", "exhaustive")
    assert code == 0
    assert "verdict yes\n" in out
    assert "mu-check exhaustive pass\n" in out
