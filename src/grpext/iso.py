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
(k plus a basis-to-basis matrix psi), which fixes the explicit isomorphism
mu(y1^j x) = y2^{k j} psi(x).

verify_isomorphism checks the witness one way. Both modes first check its
arithmetic with no oracle call, psi by autring.blocks_from_rows like every
automorphism of A. Then it proves the witness: by default by the relators of
G's standard presentation, in G and on their images in H, at any |G|; in
exhaustive mode by one closure of G, while |G| is at most EXHAUSTIVE_LIMIT.
build_mu looks each element of G up in the map that closure builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import autring
from .abelian import check_commuting
from .arith import crt, discrete_log, trial_factor
from .blackbox import ElementCode, GroupHandle, group_pow, word
from .decomp import StandardDecomposition, standard_decomposition
from .errors import InvariantBreachError, MalformedInputError

GAMMA_MISMATCH = "gamma-mismatch"          # condition (ii)
ABELIAN_MISMATCH = "abelian-part-mismatch"  # condition (i)
NO_CONJUGATING_K = "no-conjugating-k"       # condition (iii)

EXHAUSTIVE_LIMIT = 1024  # group elements, so the closure makes at most ~10^3 |T| products


@dataclass(frozen=True)
class IsomorphismWitness:
    k: int
    psi_blocks: autring.AutBlocks
    source: StandardDecomposition
    target: StandardDecomposition
    action: autring.AutBlocks  # M1: conjugation by y1 on the basis of A1 (conjugation_action)


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

    y maps each A_p to itself, so the p-block's column i is y g_i y^{-1}
    decomposed over the p-table, and autring.block_diagonal places the blocks.
    This is the one place the action facts are checked: blocks_from_rows proves
    each block a unit, and M^gamma = 1 is checked here.
    """
    G, basis = sd.G, sd.a_basis
    y = sd.y
    y_inv = G.inv(y)
    blocks = []
    for p, pairs in basis.parts.items():
        columns = []
        for g, _ in pairs:
            column = basis.table(p).decompose(G.mul(G.mul(y, g), y_inv))
            if column is None:
                raise InvariantBreachError("conjugate of a basis element left the abelian part")
            columns.append(column)
        blocks.append(tuple(zip(*columns)))
    try:
        action = autring.blocks_from_rows(basis.orders, autring.block_diagonal(blocks))
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
            action=m1,
        )
        return IsoResult(witness, None)
    return IsoResult(None, NO_CONJUGATING_K)


def _generator_images(witness: IsomorphismWitness) -> list[ElementCode]:
    """mu(y1^j x) = y2^{k j} psi(x) on y1 and the a_i: y2^k, then psi(a_i) = prod_l b_l^{psi[l][i]}."""
    sd2 = witness.target
    y2k = group_pow(sd2.G, sd2.y, witness.k % witness.source.gamma)
    return [y2k] + [word(sd2.G, sd2.a_basis.elements, column) for column in zip(*witness.psi_blocks.rows)]


def _closure(witness: IsomorphismWitness) -> Optional[dict[ElementCode, ElementCode]]:
    """mu on G by one closure over T = (y1,) + the basis of A1; None when an edge gives a second image.

    A G of more than EXHAUSTIVE_LIMIT elements is refused with MalformedInputError.
    mu(t) is computed once per t in T. The first edge x -> x t into an element
    sets mu(x t) = mu(x) mu(t); every later edge into it must give its image
    again. An edge from 1 costs no product, so the closure makes |G| * |T| - |T|
    products in G, and as many in H besides the powers that give mu(T). Lemma:
    a map with mu(1) = 1 and mu(x t) = mu(x) mu(t) on every edge is a
    homomorphism on <T>, by induction on the length of a word in T, and it
    agrees with the witness on T, so it is the witness's map. <T> = G once it
    holds G.generators (the sweep's cover proof; a miss or a closure of other
    than |G| = gamma |A1| elements raises InvariantBreachError). An identity
    element of T mapped to 1 adds no edge; mapped elsewhere, the edge from 1
    refutes it.
    """
    sd1, sd2 = witness.source, witness.target
    G, H, n = sd1.G, sd2.G, sd1.group_order
    if n > EXHAUSTIVE_LIMIT:
        raise MalformedInputError(
            f"exhaustive verification refused: subgroup has more than {EXHAUSTIVE_LIMIT} elements"
        )
    pairs = zip((sd1.y,) + sd1.a_basis.elements, _generator_images(witness))
    edges = [(t, m) for t, m in pairs if t != G.identity or m != H.identity]
    images = {G.identity: H.identity}
    frontier = [G.identity]
    while frontier:
        reached = []
        for x in frontier:
            for t, m in edges:
                xt, image = (t, m) if x == G.identity else (G.mul(x, t), H.mul(images[x], m))
                if xt in images:
                    if images[xt] != image:
                        return None
                elif len(images) == n:
                    raise InvariantBreachError(f"y and the basis of A generate more than |G| = {n} elements")
                else:
                    images[xt] = image
                    reached.append(xt)
        frontier = reached
    if len(images) != n:
        raise InvariantBreachError(f"y and the basis of A generate {len(images)} elements, not |G| = {n}")
    if not images.keys() >= set(G.generators):
        raise InvariantBreachError("a generator of G lies outside the closure of y and the basis of A")
    return images


def _prove(witness: IsomorphismWitness) -> bool:
    """Whether mu is an isomorphism: _closure's homomorphism, one-to-one, its image holding H's generators."""
    if (images := _closure(witness)) is None:
        return False
    mapped = set(images.values())
    return len(mapped) == len(images) and mapped.issuperset(witness.target.G.generators)


def build_mu(witness: IsomorphismWitness) -> Callable[[ElementCode], ElementCode]:
    """mu(y1^j x) = y2^{k j} psi(x) as a lookup in _closure's map (no verification calls it);
    InvariantBreachError when mu is not a homomorphism, MalformedInputError for a code outside G."""
    if (images := _closure(witness)) is None:
        raise InvariantBreachError("mu is not a homomorphism: two edges give an element different images")

    def mu(g: ElementCode) -> ElementCode:
        if g not in images:
            raise MalformedInputError(f"unknown element code {g!r}")
        return images[g]

    return mu


def _broken_relator(
    G: GroupHandle, y: ElementCode, basis: Sequence[ElementCode], gamma: int, action: autring.AutBlocks
) -> Optional[str]:
    """The first relator of the standard presentation that y and basis break in G, None when all hold.

    The relators, in this order: y^gamma, a_i^{q_i} for the moduli q_i of
    action, a_i a_j = a_j a_i for i < j (abelian.check_commuting, which skips
    equal pairs and the identity), and y a_i = (prod_l a_l^{M[l][i]}) y for
    M = action.rows. None needs an inverse. Indices count from 1.
    """
    if group_pow(G, y, gamma) != G.identity:
        return "y^gamma"
    for i, (a, q) in enumerate(zip(basis, action.moduli), 1):
        if group_pow(G, a, q) != G.identity:
            return f"a_{i}^q_{i}"
    if pair := check_commuting(G, basis):
        return f"[a_{pair[0] + 1}, a_{pair[1] + 1}]"
    for i, (a, column) in enumerate(zip(basis, zip(*action.rows)), 1):
        if G.mul(y, a) != G.mul(word(G, basis, column), y):
            return f"y a_{i} y^-1"
    return None


def verify_isomorphism(witness: IsomorphismWitness, mode: str = "sampled") -> bool:
    """Prove or refute that the witness's mu is an isomorphism G = witness.source.G -> H.

    1. Both modes, with no oracle call: False unless both sides share gamma
       and the type (q_1..q_s) of A1's basis a_1..a_s, psi has those moduli
       and passes autring.blocks_from_rows (each block keeps the entry rule
       of its type and is a unit), and k is prime to gamma.
    Exhaustive mode then runs _prove, whose closure refuses a G of more than
    EXHAUSTIVE_LIMIT elements with MalformedInputError. The default mode
    ("sampled", a name the CLI keeps) then proves mu by relators in
    O(s^2 log |G|) products:
    2. the relators of _broken_relator hold in G on y1 and the a_i, with
       M1 = witness.action; the decision has proved them, so a broken one
       raises InvariantBreachError naming it;
    3. the same relators, with the same M1, hold in H on mu(y1) = y2^k and
       mu(a_i) = prod_l b_l^{psi[l][i]}; a broken one gives False.
    Lemma (von Dyck; Holt, Eick & O'Brien 2005). In the group P presented on
    Y, a_1..a_s by these relators, N = <a_i> is abelian of order at most
    prod q_i and Y N Y^-1 lies in N, so N is normal (Y^-1 = Y^{gamma-1}) and
    |P| <= gamma prod q_i. The cover proofs give <y1, a_i> = G and <y2>A2 = H,
    so the images of Y and the a_i, with k prime to gamma and psi a unit,
    generate G and H: P maps onto both. The decision proved
    |G| = |H| = gamma prod q_i, so both maps are isomorphisms, and mu is the
    second after the inverse of the first. The premise is that source and
    target are the decision's own decompositions: a forged one, such as a
    target basis that repeats an element, or y1 = 1 with G's generators
    outside <y1>A1, can pass the relators; only exhaustive mode refuses it.
    """
    if mode not in ("exhaustive", "sampled"):
        raise MalformedInputError(f"unknown verification mode {mode!r}")
    sd1, sd2 = witness.source, witness.target
    gamma, orders = sd1.gamma, sd1.a_basis.orders
    if sd2.gamma != gamma or sd2.a_basis.orders != orders or witness.psi_blocks.moduli != orders:
        return False
    try:  # the one check of an automorphism of A: each block keeps its entry rule and is a unit
        autring.blocks_from_rows(orders, witness.psi_blocks.rows)
    except MalformedInputError:
        return False
    if math.gcd(witness.k, gamma) != 1:
        return False
    if mode == "exhaustive":
        return _prove(witness)
    if broken := _broken_relator(sd1.G, sd1.y, sd1.a_basis.elements, gamma, witness.action):
        raise InvariantBreachError(f"relator {broken} fails in G on y and the basis of A")
    y2k, *images = _generator_images(witness)
    return _broken_relator(sd2.G, y2k, images, gamma, witness.action) is None
