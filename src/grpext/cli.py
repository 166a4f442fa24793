"""Command-line front end.

Each command returns its report lines and exit code; main writes the lines
and a trailing wall-time-ms line, timed from after argument parsing, or on an
error only an `error` line on stderr, with stdout left empty. Reports are
plain UTF-8 key-value lines and are byte-deterministic for fixed inputs and
flags, except for the wall-time field. Exit code 0 means a definite verdict
was reached (either way); malformed input or precondition violations exit
nonzero.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import random
import sys
import time
from pathlib import Path

from . import abelian, arith, autring, blackbox, classes, decomp, iso
from .errors import GrpextError, MalformedInputError


def _read(path: str) -> tuple[str, str]:
    """The file's UTF-8 text and the sha256 digest of the bytes it was decoded from."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedInputError(f"{path} is not UTF-8 text: {exc}") from None
    return text, "sha256:" + hashlib.sha256(data).hexdigest()


def _load(path: str) -> tuple[blackbox.GroupHandle, str]:
    text, digest = _read(path)
    return blackbox.load_group(text, name=Path(path).name), digest


def cmd_order(args) -> tuple[list[str], int]:
    G, digest = _load(args.group)
    g = G.parse_element(args.element)
    order = abelian.element_order(G, g)
    return [
        "command order",
        f"input {digest}",
        f"element {args.element}",
        f"order {order}",
        f"oracle-calls {G.operation_count}",
    ], 0


def cmd_standard_decomposition(args) -> tuple[list[str], int]:
    G, digest = _load(args.group)
    sd, attempts = decomp.standard_decomposition_with_attempts(G)
    lines = [
        "command standard-decomposition",
        f"input {digest}",
        f"gamma {sd.gamma}",
        f"abelian-order {sd.a_basis.group_order}",
        "abelian-type " + (" ".join(str(q) for q in sd.a_basis.orders) or "-"),
        f"group-order {sd.group_order}",
        f"y {G.format_element(sd.y)}",
    ]
    for att in attempts:
        if att.error is None:
            lines.append(f"attempt {att.m} ok {att.found.group_order}")
        else:
            lines.append(f"attempt {att.m} error {att.error}")
    lines.append(f"oracle-calls {G.operation_count}")
    return lines, 0


def _psi_block_lines(blocks: autring.AutBlocks) -> list[str]:
    lines = []
    for block in blocks.blocks:
        head = f"psi-block {block.ptype.p} " + " ".join(str(e) for e in block.ptype.exps)
        lines.append(head)
        for row in block.rows:
            lines.append(" ".join(str(x) for x in row))
    if not blocks.blocks:
        lines.append("psi-block trivial")
    return lines


def cmd_isomorphic(args) -> tuple[list[str], int]:
    G, digest_g = _load(args.group_g)
    H, digest_h = _load(args.group_h)
    result = iso.isomorphic(G, H)
    lines = [
        "command isomorphic",
        f"input-g {digest_g}",
        f"input-h {digest_h}",
    ]
    ok = True
    if not result.is_isomorphic:
        lines.append("verdict no")
        lines.append(f"reason {result.failed_condition}")
    else:
        witness = result.witness
        lines.append("verdict yes")
        lines.append(f"gamma {witness.source.gamma}")
        lines.append(f"k {witness.k}")
        lines.extend(_psi_block_lines(witness.psi_blocks))
        # the proof is about the witness's own groups, so they must be the two inputs
        ok = witness.source.G is G and witness.target.G is H and iso.verify_isomorphism(witness, mode=args.verify)
        lines.append(f"mu-check {args.verify} {'pass' if ok else 'fail'}")
    lines.append(f"oracle-calls-g {G.operation_count}")
    lines.append(f"oracle-calls-h {H.operation_count}")
    return lines, 0 if ok else 1


def cmd_conjugacy(args) -> tuple[list[str], int]:
    text1, digest1 = _read(args.matrix1)
    u1 = autring.parse_matrix_file(text1)
    text2, digest2 = _read(args.matrix2)
    u2 = autring.parse_matrix_file(text2)
    witness = autring.conjugacy(u1, u2, order_cap=args.order_cap)
    lines = [
        "command conjugacy",
        f"input-1 {digest1}",
        f"input-2 {digest2}",
    ]
    if witness is None:
        lines.append("conjugate no")
    else:
        lines.append("conjugate yes")
        for row in witness.rows:
            lines.append(" ".join(str(x) for x in row))
    return lines, 0


def cmd_count_classes(args) -> tuple[list[str], int]:
    triples = classes.class_triples(args.r)
    lines = [
        "command count-classes",
        f"r {args.r}",
        f"count {len(triples)}",
    ]
    for t in triples:
        lines.append(f"triple {t.k1} {t.k2} {t.k3}")
    if args.emit_reps is not None:
        specs = classes.representative_group_specs(args.r, args.emit_reps)  # validates i
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for idx, (triple, spec) in enumerate(zip(triples, specs)):
            name = f"rep_r{args.r}_i{args.emit_reps}_{idx:02d}.grp"
            text = blackbox.format_semidirect_file(
                spec,
                comment=f"class representative {idx}: blocks {triple.k1} {triple.k2} {triple.k3}",
            )
            (out_dir / name).write_text(text, encoding="utf-8")
            lines.append(f"wrote {name}")
    return lines, 0


def _selftest_checks():
    rng = random.Random(0)

    def conjugator_lift():
        ptype = autring.PType(3, (1, 1, 2))
        for _ in range(20):
            u1 = autring.star_pow(autring.random_unit(ptype, rng), 27)  # order prime to 3
            x = autring.random_unit(ptype, rng)
            x_inv = autring.star_pow(x, autring.matrix_order(x, 10**4) - 1)
            u2 = autring.star_mul(autring.star_mul(x, u1), x_inv)
            found = autring.conjugacy(u1, u2, order_cap=16)
            if found is None or autring.star_mul(found, u1) != autring.star_mul(u2, found):
                return False
        return True

    def order_bsgs():
        G = blackbox.cyclic_group(5040)
        code = G.parse_element("84")
        return abelian.element_order(G, code) == 5040 // math.gcd(5040, 84)

    def decompose_table():
        G = blackbox.load_group("semidirect\nA 8 9 5\nm 1\n1 0 0\n0 1 0\n0 0 1\n")
        basis = abelian.abelian_basis(G.generators, abelian.AbelianBasis(G))
        if basis is None:
            return False
        table = abelian.DecompositionTable(G, basis.elements, basis.orders)
        for _ in range(40):
            target = [rng.randrange(q) for q in (8, 9, 5)]
            code = G.parse_element(",".join(map(str, target)) + ";0")
            vec = table.decompose(code)
            if vec is None:
                return False
            if blackbox.word(G, basis.elements, vec) != code:
                return False
        return True

    def psi_homomorphism():
        ptype = autring.PType(3, (1, 2))
        for _ in range(100):
            a = autring.random_unit(ptype, rng)
            b = autring.random_unit(ptype, rng)
            if autring.psi(autring.star_mul(a, b)) != autring.BlockDiagGF(
                3,
                tuple(
                    autring.mat_mul(x, y, (3,) * len(x))
                    for x, y in zip(autring.psi(a).blocks, autring.psi(b).blocks)
                ),
            ):
                return False
        return True

    def unit_counts():
        return (
            len(autring.enumerate_R(autring.PType(3, (2,)))) == 6
            and len(autring.enumerate_R(autring.PType(3, (1, 1)))) == 48
        )

    def small_isomorphism():
        g_text = "semidirect\nA 7\nm 3\n2\n"
        h_text = "semidirect\nA 7\nm 3\n4\n"
        G = blackbox.load_group(g_text)
        H = blackbox.load_group(h_text)
        result = iso.isomorphic(G, H)
        if not result.is_isomorphic or result.witness.k != 2:
            return False
        return iso.verify_isomorphism(result.witness, mode="exhaustive")

    def class_counts():
        return (
            classes.count_classes(4) == 9
            and classes.brute_force_class_count(autring.PType(3, (1,)), 4) == 2
        )

    return [
        ("conjugator-lift", conjugator_lift),
        ("element-order", order_bsgs),
        ("decompose", decompose_table),
        ("psi-homomorphism", psi_homomorphism),
        ("unit-counts", unit_counts),
        ("order-21-isomorphism", small_isomorphism),
        ("class-counts", class_counts),
    ]


def cmd_selftest(args) -> tuple[list[str], int]:
    lines = ["command selftest"]
    failures = 0
    for name, check in _selftest_checks():
        try:
            ok = check()
        except GrpextError:
            ok = False
        lines.append(f"selftest {name} {'pass' if ok else 'fail'}")
        failures += 0 if ok else 1
    lines.append(f"failures {failures}")
    return lines, 0 if failures == 0 else 1


def _int_flag(text: str) -> int:
    """A flag's integer, spelled as in files (arith.read_ints), else a usage error."""
    try:
        return arith.read_ints(text, "value", 1)[0]
    except MalformedInputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grpext",
        description="Isomorphism tooling for coprime cyclic extensions of abelian groups",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("order", help="order of one element of a group file")
    p.add_argument("group")
    p.add_argument("element")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("standard-decomposition", help="abelian-by-cyclic split of a group file")
    p.add_argument("group")
    p.set_defaults(func=cmd_standard_decomposition)

    p = sub.add_parser("isomorphic", help="decide isomorphism of two group files")
    p.add_argument("group_g")
    p.add_argument("group_h")
    p.add_argument("--verify", choices=["exhaustive", "sampled"], default="sampled",
                   help="both first check gamma, the type of A, psi and k by arithmetic; exhaustive: "
                        "then a proof by one closure of G over y and the basis of A, each edge multiplied "
                        "once (|G| <= 1024); sampled: then a relator proof at any size; --seed is accepted "
                        "and unused")
    p.add_argument("--seed", type=_int_flag, default=0)
    p.set_defaults(func=cmd_isomorphic)

    p = sub.add_parser("conjugacy", help="conjugate two matrices in the unit ring")
    p.add_argument("matrix1")
    p.add_argument("matrix2")
    p.add_argument("--order-cap", type=_int_flag, required=True)
    p.set_defaults(func=cmd_conjugacy)

    p = sub.add_parser("count-classes", help="isomorphism classes of Z_{3^i}^r x| Z_4")
    p.add_argument("--r", type=_int_flag, required=True)
    p.add_argument("--emit-reps", type=_int_flag, default=None, metavar="I")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_count_classes)

    p = sub.add_parser("selftest", help="run the built-in oracle checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        lines, code = args.func(args)
        print(*lines, sep="\n")
        print(f"wall-time-ms {int((time.perf_counter() - started) * 1000)}")
        return code
    except (GrpextError, OSError) as exc:
        print(f"error {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
