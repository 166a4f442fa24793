"""Standard decompositions: split a group into an abelian part and a cyclic part.

For a candidate cyclic order m the finder follows a fixed recipe: take a basis
of the derived subgroup, factor m, assemble an element z of order m from
suitable generator powers, collect the m-th powers of the generators, and
accept only if the resulting set is abelian with all orders coprime with m.
The derived-subgroup basis and the generator orders do not depend on m; they
form a GroupContext, built once per group and shared by every m.
Sweeping m over the divisors of the lcm of the generator orders and keeping
the smallest m whose abelian part is maximal yields the standard
decomposition; the full sweep is reported so callers can see which candidates
only decomposed a proper subgroup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .abelian import AbelianBasis, abelian_basis, element_order
from .arith import divisors, lcm_list, trial_factor
from .blackbox import ElementCode, GroupHandle, commutator_generators, group_pow
from .errors import DecompositionFailed, NotAbelianError, NotInClassError


@dataclass(frozen=True)
class GroupContext:
    """The finder's data about G that is the same for every m."""

    derived: Optional[AbelianBasis]  # basis of G'; None when G' is not abelian
    gen_orders: tuple[int, ...]  # orders of G.generators, in order


def group_context(G: GroupHandle) -> GroupContext:
    gen_orders = tuple(element_order(G, g) for g in G.generators)
    try:
        derived = abelian_basis(commutator_generators(G), G)
    except NotAbelianError:
        derived = None
    return GroupContext(derived, gen_orders)


@dataclass(frozen=True)
class CandidateDecomposition:
    """Output of one finder run: generators of the abelian part plus z."""

    m: int
    gens: tuple[ElementCode, ...]
    z: ElementCode
    a_order: int
    a_basis: AbelianBasis


@dataclass(frozen=True)
class StandardDecomposition:
    gamma: int
    a_basis: AbelianBasis
    y: ElementCode

    @property
    def group_order(self) -> int:
        return self.gamma * self.a_basis.group_order


@dataclass(frozen=True)
class DecompositionAttempt:
    m: int
    error: Optional[str]
    product: Optional[int]  # m * |abelian part| on success


def find_decomposition(
    G: GroupHandle, m: int, context: Optional[GroupContext] = None
) -> CandidateDecomposition:
    """One sweep of the finder for a fixed m; raises DecompositionFailed.

    context must be group_context(G); it is built here when not given.
    When the group really decomposes at this m, the result generates the whole
    group; a non-error result is in general only guaranteed to decompose the
    subgroup generated by the output.
    """
    if m < 1:
        raise DecompositionFailed(m, "m must be >= 1")
    if context is None:
        context = group_context(G)
    gens = G.generators
    if context.derived is None:
        raise DecompositionFailed(m, "derived subgroup is not abelian")
    xs = list(context.derived.elements)
    x_orders = list(context.derived.orders)

    factors = trial_factor(m)
    gen_orders = context.gen_orders
    picks = []
    for p, e in factors:
        q = p**e
        k = next((i for i, n in enumerate(gen_orders) if n % q == 0), None)
        if k is None:
            raise DecompositionFailed(m, f"no generator order divisible by {q}")
        picks.append((k, q))
    g = G.identity
    for k, q in picks:
        g = G.mul(g, group_pow(G, gens[k], gen_orders[k] // q))
    g_order = element_order(G, g)
    if g_order % m:
        raise DecompositionFailed(m, f"assembled element order {g_order} not divisible by m")
    z = group_pow(G, g, g_order // m)
    hs = [group_pow(G, gj, m) for gj in gens]

    combined = xs + hs
    for i in range(len(combined)):
        for j in range(i + 1, len(combined)):
            a, b = combined[i], combined[j]
            if G.mul(a, b) != G.mul(b, a):
                raise DecompositionFailed(m, "candidate abelian part does not commute")
    for order in x_orders:
        if math.gcd(order, m) != 1:
            raise DecompositionFailed(m, "derived subgroup order shares a factor with m")
    for n in gen_orders:  # g_j^m has order n / gcd(n, m)
        if math.gcd(n // math.gcd(n, m), m) != 1:
            raise DecompositionFailed(m, "generator power order shares a factor with m")

    basis = abelian_basis(combined, G)
    return CandidateDecomposition(
        m=m,
        gens=tuple(combined),
        z=z,
        a_order=basis.group_order,
        a_basis=basis,
    )


def standard_decomposition_with_attempts(
    G: GroupHandle,
) -> tuple[StandardDecomposition, list[DecompositionAttempt]]:
    """Sweep all divisors of lcm of the generator orders; keep the best.

    The byproduct max(m_i * |A_i|) equals the group order whenever the group
    is a coprime cyclic extension of an abelian group; the smallest m reaching
    it is the group invariant gamma.
    """
    gens = G.generators
    if not gens:
        trivial = AbelianBasis((), ())
        return (
            StandardDecomposition(1, trivial, G.identity),
            [DecompositionAttempt(1, None, 1)],
        )
    context = group_context(G)
    m_bar = lcm_list(context.gen_orders)
    attempts: list[DecompositionAttempt] = []
    candidates: dict[int, CandidateDecomposition] = {}
    for m in divisors(m_bar):
        try:
            cand = find_decomposition(G, m, context)
        except DecompositionFailed as exc:
            attempts.append(DecompositionAttempt(m, exc.reason, None))
            continue
        candidates[m] = cand
        attempts.append(DecompositionAttempt(m, None, m * cand.a_order))
    if not candidates:
        raise NotInClassError(
            "no divisor admits a decomposition; the group is outside the scope class"
        )
    n = max(m * c.a_order for m, c in candidates.items())
    gamma = min(m for m, c in candidates.items() if m * c.a_order == n)
    chosen = candidates[gamma]
    return StandardDecomposition(gamma, chosen.a_basis, chosen.z), attempts


def standard_decomposition(G: GroupHandle) -> StandardDecomposition:
    return standard_decomposition_with_attempts(G)[0]
