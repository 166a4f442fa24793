"""Isomorphism testing for coprime cyclic extensions of abelian groups.

Two groups are isomorphic exactly when their standard decompositions share the
cyclic order gamma and the abelian type, and the two conjugation actions M1,
M2 are conjugate up to raising M2 to a power k coprime with gamma. Each group
is decomposed once. Both actions have order coprime with p, so their psi-blocks
over F_p are semisimple, and a semisimple matrix is fixed up to conjugacy by
its characteristic polynomial. The search for k compares those of psi(M1) with
those of psi(M2)^k for the k of one class, which block determinants fix; only
the smallest matching k reaches the conjugacy solver, which decides by the
same rule and proves the match with an explicit conjugator, a random
endomorphism averaged over <M1>. A positive verdict always carries a witness
(k plus a basis-to-basis matrix psi). build_mu turns it into the explicit
isomorphism mu(y1^j x) = y2^{k j} psi(x), which factors each element of G as
y1^j x with one decomposition-table lookup over <y1>A1, and
verify_isomorphism checks it.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from . import autring
from .abelian import DecompositionTable, group_pow
from .arith import crt, discrete_log, trial_factor
from .blackbox import ElementCode, GroupHandle, closure
from .decomp import StandardDecomposition, standard_decomposition
from .errors import InvariantBreachError, MalformedInputError, MembershipError

GAMMA_MISMATCH = "gamma-mismatch"          # condition (ii)
ABELIAN_MISMATCH = "abelian-part-mismatch"  # condition (i)
NO_CONJUGATING_K = "no-conjugating-k"       # condition (iii)

EXHAUSTIVE_LIMIT = 1024  # group elements, so at most ~10^6 pairs are checked


@dataclass(frozen=True)
class IsomorphismWitness:
    k: int
    psi_blocks: autring.AutBlocks
    source: StandardDecomposition
    target: StandardDecomposition


@dataclass(frozen=True)
class IsoResult:
    """A witness for "yes", the failed paper condition for "no"."""

    witness: Optional[IsomorphismWitness]
    failed_condition: Optional[str]

    @property
    def is_isomorphic(self) -> bool:
        return self.witness is not None


def conjugation_action(sd: StandardDecomposition) -> autring.AutBlocks:
    """Blockwise matrix of conjugation by y on the basis of A, proved a unit with M^gamma = 1.

    y maps each A_p to itself, so column i is y g_i y^{-1} decomposed over the
    p-table of g_i, zero outside it. This is the one place the action facts are
    checked: blocks_from_rows proves each block a unit, and M^gamma = 1 is checked here.
    """
    G, basis = sd.G, sd.a_basis
    s = len(basis.elements)
    y = sd.y
    y_inv = G.inv(y)
    columns = []
    for p, pairs in basis.parts.items():
        before, after = (0,) * len(columns), (0,) * (s - len(columns) - len(pairs))
        for g, _ in pairs:
            moved = G.mul(G.mul(y, g), y_inv)
            try:
                columns.append(before + basis.table(p).decompose(moved) + after)
            except MembershipError:
                raise InvariantBreachError(
                    "conjugate of a basis element left the abelian part"
                ) from None
    rows = [[columns[j][i] for j in range(s)] for i in range(s)]
    try:
        action = autring.blocks_from_rows(basis.orders, rows)
    except MalformedInputError as exc:
        raise InvariantBreachError(f"conjugation action is not an automorphism: {exc}") from None
    if autring.blocks_pow(action, sd.gamma) != autring.blocks_pow(action, 0):
        raise InvariantBreachError("conjugation action order does not divide gamma")
    return action


def isomorphic(G: GroupHandle, H: GroupHandle) -> IsoResult:
    """Full pipeline: decompose both groups, compare, search the power k.

    The conjugacy precondition holds by construction, so isomorphic does not
    check it itself (autring.conjugacy proves it again on each call):
    conjugation_action has proved each block a unit with M^gamma = 1, and
    find_decomposition accepts only an A whose element orders are coprime with
    gamma. So every psi-block of M1 and of M2^k has order coprime with its p and
    is semisimple: its characteristic polynomial chi decides its class.
    As det B = (-1)^n chi_B(0), a k that matches has det(B2)^k = det(B1) in
    F_p* for each block pair: k in one class modulo the order of det(B2), a
    divisor of gamma (arith.discrete_log). crt joins these into one class mod
    L; none means no k. The scan of that class keeps the ascending order and
    the test, so the first k that matches, the one k that reaches the
    conjugacy solver, is still the smallest. The solver compares the same
    characteristic polynomials, so it returns a conjugator for each block.
    """
    sd1 = standard_decomposition(G)
    sd2 = standard_decomposition(H)
    if sd1.gamma != sd2.gamma:
        return IsoResult(None, GAMMA_MISMATCH)
    if sd1.a_basis.orders != sd2.a_basis.orders:
        return IsoResult(None, ABELIAN_MISMATCH)
    gamma = sd1.gamma
    m1 = conjugation_action(sd1)
    m2 = conjugation_action(sd2)
    targets = [autring.psi(b).charpolys() for b in m1.blocks]
    psi2 = [autring.psi(b) for b in m2.blocks]
    primes = [q for q, _ in trial_factor(gamma)]
    logs = [
        discrete_log((-1) ** (len(c2) - 1) * c2[0], (-1) ** (len(c1) - 1) * c1[0], v.p, gamma, primes)
        for v, t in zip(psi2, targets) for c1, c2 in zip(t, v.charpolys())
    ]
    if None in logs or (narrowed := crt(logs)) is None:
        return IsoResult(None, NO_CONJUGATING_K)
    start, step = narrowed
    for k in range(start or step, gamma + 1, step):
        if math.gcd(k, gamma) != 1 or any(v.charpolys(k) != t for v, t in zip(psi2, targets)):
            continue
        m2k = autring.blocks_pow(m2, k)
        found = [autring.conjugacy(b1, b2, multiple=gamma) for b1, b2 in zip(m1.blocks, m2k.blocks)]
        if None in found:
            raise InvariantBreachError(
                "characteristic polynomials agree but a block has no conjugator"
            )
        witness = IsomorphismWitness(
            k=k,
            psi_blocks=autring.AutBlocks(tuple(found)),
            source=sd1,
            target=sd2,
        )
        return IsoResult(witness, None)
    return IsoResult(None, NO_CONJUGATING_K)


def build_mu(witness: IsomorphismWitness) -> Callable[[ElementCode], ElementCode]:
    """Total map mu(y1^j * x) = y2^{k j} * psi(x) realized through the oracles.

    One DecompositionTable over (y1,) + the basis of A1 factors each g as
    y1^j * x in at most ~sqrt(gamma |A1|) products; g outside <y1>A1 raises
    MembershipError. A table of more codes than the GRPEXT_MEM_MB cap allows
    raises MemoryBudgetError (exit code 2 in the CLI).
    """
    sd1, sd2 = witness.source, witness.target
    H, gamma = sd2.G, sd1.gamma
    table = DecompositionTable(sd1.G, (sd1.y,) + sd1.a_basis.elements, (gamma,) + sd1.a_basis.orders)
    factors = (sd2.y,) + sd2.a_basis.elements

    def mu(g: ElementCode) -> ElementCode:
        try:
            j, *x = table.decompose(g)
        except MembershipError:
            raise MembershipError("element does not factor over the decomposition") from None
        exps = (witness.k * j % gamma,) + autring.apply_blocks(witness.psi_blocks, x)
        parts = [group_pow(H, h, e) for h, e in zip(factors, exps) if e]
        return functools.reduce(H.mul, parts) if parts else H.identity

    return mu


def _random_element(
    G: GroupHandle, atoms: list[ElementCode], rng: random.Random, word_length: int = 24
) -> ElementCode:
    """A word of word_length >= 1 letters drawn from atoms (the generators and their
    inverses), built from its first letter with word_length - 1 products."""
    if not atoms:
        return G.identity
    out = rng.choice(atoms)
    for _ in range(word_length - 1):
        out = G.mul(out, rng.choice(atoms))
    return out


def verify_isomorphism(
    G: GroupHandle,
    H: GroupHandle,
    mu: Callable[[ElementCode], ElementCode],
    mode: str = "sampled",
    seed: int = 0,
    sample_pairs: int = 10_000,
) -> bool:
    """Check that mu preserves products (and is a bijection onto H, in exhaustive mode).

    Exhaustive mode checks |H| <= |G| and all |G|^2 pairs, so it is refused
    with MalformedInputError for a G of more than EXHAUSTIVE_LIMIT elements.
    """
    if mode == "exhaustive":
        try:
            elements = closure(G, G.generators, limit=EXHAUSTIVE_LIMIT)
        except MalformedInputError as exc:
            raise MalformedInputError(f"exhaustive verification refused: {exc}") from None
        images = {a: mu(a) for a in elements}
        if len(set(images.values())) != len(elements):
            return False
        try:
            closure(H, H.generators, limit=len(elements))
        except MalformedInputError:
            return False  # |H| > |G|, so mu is not onto
        for a in elements:
            for b in elements:
                if images[G.mul(a, b)] != H.mul(images[a], images[b]):
                    return False
        return True
    if mode == "sampled":
        gen_images = [mu(a) for a in G.generators]
        for a, mu_a in zip(G.generators, gen_images):
            for b, mu_b in zip(G.generators, gen_images):
                if mu(G.mul(a, b)) != H.mul(mu_a, mu_b):
                    return False
        rng = random.Random(seed)
        atoms = list(G.generators) + [G.inv(g) for g in G.generators]
        for _ in range(sample_pairs):
            a = _random_element(G, atoms, rng)
            b = _random_element(G, atoms, rng)
            if mu(G.mul(a, b)) != H.mul(mu(a), mu(b)):
                return False
        return True
    raise MalformedInputError(f"unknown verification mode {mode!r}")
