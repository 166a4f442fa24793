"""Standing mutation list: each mutant breaks one guard of grpext, and its tests must fail.

Run from the root of a checkout:
    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # the named ones
    python3 tools/mutants.py --list     # names only

A mutant is a file under src/, an exact old text that occurs there once, the
new text that replaces it, and the tests that should kill it. Each mutant is
applied to a fresh copy of src/ and tests/ in a temporary directory, where
`python -m pytest -x` runs its tests with PYTHONPATH=src. The tool prints one
line per mutant, `killed` (a test failed), `survived` (every test passed) or
`error` (pytest could not run them), and exits 1 unless every mutant is
killed. The same tests first run on an unmutated copy, and must pass there.
A survivor means a test is missing, or the guard is not needed.
tests/test_mutants.py checks, in tier-1, that each old text still occurs
exactly once, so the list cannot rot silently when the code moves.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the root of the checkout
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids


ISO = "src/grpext/iso.py"
BLACKBOX = "src/grpext/blackbox.py"
DECOMP = "src/grpext/decomp.py"
BAD_MAPS = "tests/test_iso.py::test_verify_isomorphism_detects_bad_maps"
COVER = "tests/test_iso.py::test_the_proof_refuses_a_decomposition_that_does_not_cover_g"
GENS_EXACT = "tests/test_blackbox.py::test_gens_accepted_exactly_when_they_generate"
GENS_EXPLICIT = "tests/test_blackbox.py::test_parse_explicit_generators"
OUT_OF_CLASS = (
    "tests/test_out_of_class.py::"
    "test_products_and_s4_are_out_of_class_exactly_where_the_naive_predicate_says"
)

MUTANTS = (
    Mutant(
        "closure-edge-equality",
        ISO,
        "if images[xt] != image:",
        "if False:",
        (BAD_MAPS, "tests/test_iso.py::test_build_mu_refuses_a_map_that_is_not_a_homomorphism"),
    ),
    Mutant(
        "prove-one-to-one",
        ISO,
        "return len(mapped) == len(images) and mapped.issuperset(",
        "return mapped.issuperset(",
        (BAD_MAPS,),
    ),
    Mutant(
        "prove-h-generators",
        ISO,
        "len(mapped) == len(images) and mapped.issuperset(witness.target.G.generators)",
        "len(mapped) == len(images)",
        (BAD_MAPS,),
    ),
    Mutant(
        "closure-holds-g-generators",
        ISO,
        "    if not images.keys() >= set(G.generators):",
        "    if False:",
        (COVER,),
    ),
    Mutant(
        "relators-psi-entry-rule",
        ISO,
        "autring.blocks_from_rows(orders, witness.psi_blocks.rows)",
        "witness.psi_blocks.rows",
        ("tests/test_iso.py::test_a_psi_block_off_its_entry_rule_is_refused_by_arithmetic",),
    ),
    Mutant(
        "exhaustive-skips-arithmetic",
        ISO,
        'raise MalformedInputError(f"unknown verification mode {mode!r}")\n',
        'raise MalformedInputError(f"unknown verification mode {mode!r}")\n'
        '    if mode == "exhaustive":\n        return _prove(witness)\n',
        ("tests/test_iso.py::test_exhaustive_mode_checks_the_witness_arithmetic_first",),
    ),
    Mutant(
        "arithmetic-gamma",
        ISO,
        "if sd2.gamma != gamma or sd2.a_basis.orders",
        "if sd2.a_basis.orders",
        (BAD_MAPS,),
    ),
    Mutant(
        "arithmetic-type",
        ISO,
        "sd2.a_basis.orders != orders or witness",
        "witness",
        (BAD_MAPS,),
    ),
    Mutant(
        "arithmetic-psi-moduli",
        ISO,
        " or witness.psi_blocks.moduli != orders:",
        ":",
        ("tests/test_iso.py::test_exhaustive_mode_checks_the_witness_arithmetic_first",),
    ),
    Mutant(
        "arithmetic-k-prime-to-gamma",
        ISO,
        "    if math.gcd(witness.k, gamma) != 1:\n        return False\n",
        "",
        (BAD_MAPS,),
    ),
    Mutant(
        "relator-y-gamma",
        ISO,
        "if group_pow(G, y, gamma) != G.identity:",
        "if False:",
        (COVER,),
    ),
    Mutant(
        "relator-a-orders",
        ISO,
        "if group_pow(G, a, q) != G.identity:",
        "if False:",
        (COVER,),
    ),
    Mutant(
        "relator-commutators",
        ISO,
        "if pair := check_commuting(G, basis):",
        "if pair := None:",
        (COVER,),
    ),
    Mutant(
        "relator-action",
        ISO,
        "if G.mul(y, a) != G.mul(word(G, basis, column), y):",
        "if False:",
        (COVER,),
    ),
    Mutant(
        "relators-in-h",
        ISO,
        "    return _broken_relator(sd2.G, y2k, images, gamma, witness.action) is None",
        "    return True",
        (BAD_MAPS,),
    ),
    Mutant(
        "covers-always",
        DECOMP,
        "    G, gamma = sd.G, sd.gamma\n",
        "    return True\n    G, gamma = sd.G, sd.gamma\n",
        ("tests/test_iso.py::test_every_relabelled_d6_is_out_of_class_against_s3",),
    ),
    Mutant(
        "covers-membership-by-equality",
        DECOMP,
        "if group_pow(G, t, e) == G.identity:",
        "if t == G.identity:",
        (OUT_OF_CLASS,),
    ),
    Mutant(
        "covers-first-digit-only",
        DECOMP,
        "for i in range(f):",
        "for i in range(min(f, 1)):",
        (OUT_OF_CLASS,),
    ),
    Mutant(
        "k-scan-first-psi-block",
        ISO,
        "zip(psi2, targets)):",
        "zip(psi2[:1], targets)):",
        ("tests/test_census.py::test_the_k_scan_compares_every_psi_block",),
    ),
    Mutant(
        "condition-i-by-order",
        ISO,
        "if sd1.a_basis.orders != sd2.a_basis.orders:",
        "if sd1.group_order != sd2.group_order:",
        ("tests/test_census.py::test_census_to_order_47_matches_the_naive_oracles",),
    ),
    Mutant(
        "gens-generation-skipped",
        BLACKBOX,
        "        _require_generation(self)\n",
        "",
        (GENS_EXACT,),
    ),
    Mutant(
        "generation-without-commutators",
        BLACKBOX,
        "    vectors += [G.mul(G.mul(g, h), G.inv(G.mul(h, g))) for g, h in itertools.combinations(moving, 2)]\n",
        "",
        (GENS_EXACT, GENS_EXPLICIT),
    ),
    Mutant(
        "generation-without-powers",
        BLACKBOX,
        " + [group_pow(G, g, m) for g in moving]",
        "",
        (GENS_EXACT, GENS_EXPLICIT),
    ),
    Mutant(
        "generation-without-a-generators",
        BLACKBOX,
        "vectors = [g for g in G.generators if not g % m] + ",
        "vectors = ",
        (GENS_EXACT, GENS_EXPLICIT),
    ),
    Mutant(
        "light-one-generator",
        BLACKBOX,
        "    for g in spec.generators:",
        "    for g in spec.generators[:1]:",
        (
            "tests/test_blackbox.py::test_latin_rows_with_a_bad_column_fail_associativity",
            "tests/test_blackbox.py::test_permutation_rows_with_identity_accepted_exactly_when_a_group",
        ),
    ),
    Mutant(
        "conjugacy-final-substitution",
        "src/grpext/autring.py",
        "if star_mul(total, u1) != star_mul(u2, total) or not is_in_R(total):",
        "if False:",
        ("tests/test_cli.py::test_invalid_solver_assignment_is_an_invariant_breach",),
    ),
    Mutant(
        "element-order-linear",
        "src/grpext/abelian.py",
        "    return order_search(G.mul, G.identity, g, BABY_ENTRY_BYTES)\n",
        "    n, x = 1, g\n    while x != G.identity:\n        n, x = n + 1, G.mul(x, g)\n    return n\n",
        ("tests/test_acceptance.py::test_criterion_8_sqrt_scaling",),
    ),
)


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    """How often the mutant's old text occurs in its file under root."""
    return (root / mutant.path).read_text().count(mutant.old)


def run(tests: tuple[str, ...], mutant: Mutant | None = None) -> str:
    """Run tests on a copy of src/ and tests/, with the mutant applied: killed, survived or error."""
    if mutant is not None and occurrences(mutant) != 1:
        return "error"
    with tempfile.TemporaryDirectory(prefix="grpext-mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        if mutant is not None:
            target = copy / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
        done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
    return {0: "survived", 1: "killed"}.get(done.returncode, "error")


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        print("\n".join(m.name for m in MUTANTS))
        return 0
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant {sorted(unknown)[0]!r}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    # a kill counts only if the same tests pass on the unmutated code
    if run(tuple(dict.fromkeys(t for m in chosen for t in m.tests))) != "survived":
        print("error: the mutants' tests do not pass on the unmutated code", file=sys.stderr)
        return 2
    all_killed = True
    for mutant in chosen:
        outcome = run(mutant.tests, mutant)
        all_killed &= outcome == "killed"
        print(f"{outcome:9} {mutant.name}", flush=True)
    return 0 if all_killed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
