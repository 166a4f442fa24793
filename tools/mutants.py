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
BAD_MAPS = "tests/test_iso.py::test_verify_isomorphism_detects_bad_maps"

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
        ("tests/test_iso.py::test_the_proof_refuses_a_decomposition_that_does_not_cover_g",),
    ),
    Mutant(
        "relators-psi-entry-rule",
        ISO,
        "psi = [autring.validate_M(b.ptype, b.rows) for b in witness.psi_blocks.blocks]",
        "psi = witness.psi_blocks.blocks",
        ("tests/test_iso.py::test_a_psi_block_off_its_entry_rule_is_refused_by_arithmetic",),
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
        "src/grpext/decomp.py",
        "    G, gamma = sd.G, sd.gamma\n",
        "    return True\n    G, gamma = sd.G, sd.gamma\n",
        ("tests/test_iso.py::test_every_relabelled_d6_is_out_of_class_against_s3",),
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
