"""Standard decompositions: split a group into an abelian part and a cyclic part.

For a candidate cyclic order m the finder follows a fixed recipe: take a basis
of the derived subgroup, factor m, assemble an element z of order m from
suitable generator powers, collect the m-th powers of the generators, and
accept only if the resulting set is abelian with all orders coprime with m.
What does not depend on m is kept in a GroupContext, built once per group and
shared by every m: the derived-subgroup basis, the generator orders, the part
g_k^{n_k/q} picked for each prime power q, and the powers g_j^m, where g_j^m
is (g_j^{m/l})^l for the least prime l of m. Arithmetic replaces oracle calls
where it decides: an element assembled from parts of one generator has order
m with no order search, g_j^m has order n_j / gcd(n_j, m), and commutation is
tested once, only for pairs not already known to commute.
Sweeping m over the divisors of the lcm of the generator orders and keeping
the smallest m whose abelian part is maximal yields the standard
decomposition; the full sweep is reported so callers can see which candidates
only decomposed a proper subgroup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .abelian import AbelianBasis, abelian_basis, element_order
from .arith import divisors, lcm_list, trial_factor
from .blackbox import ElementCode, GroupHandle, commutator_generators, group_pow
from .errors import DecompositionFailed, NotAbelianError, NotInClassError


@dataclass(frozen=True)
class GroupContext:
    """The finder's data about G that is the same for every m.

    The derived basis and the generator orders are computed by group_context;
    the prime-power parts and the generator powers on first use, then kept,
    so a sweep computes each of them once.
    """

    G: GroupHandle
    derived: Optional[AbelianBasis]  # basis of G'; None when G' is not abelian
    gen_orders: tuple[int, ...]  # orders of G.generators, in order
    _parts: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _powers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._powers[1] = tuple(self.G.generators)

    def part(self, q: int) -> Optional[tuple[int, ElementCode]]:
        """(k, g_k^{n_k/q}), an element of order q, for the first k with q | n_k.

        None when no generator order is divisible by q.
        """
        if q not in self._parts:
            k = next((i for i, n in enumerate(self.gen_orders) if n % q == 0), None)
            self._parts[q] = None if k is None else (
                k, group_pow(self.G, self.G.generators[k], self.gen_orders[k] // q)
            )
        return self._parts[q]

    def gen_powers(self, m: int) -> tuple[ElementCode, ...]:
        """(g_1^m, ..., g_r^m), as (g_j^{m/l})^l for the least prime l of m.

        In a sweep over ascending divisors the powers at m/l are already
        kept, so each m costs the powering by one prime.
        """
        if m not in self._powers:
            ell = trial_factor(m)[0][0]
            self._powers[m] = tuple(group_pow(self.G, h, ell) for h in self.gen_powers(m // ell))
        return self._powers[m]


def group_context(G: GroupHandle) -> GroupContext:
    gen_orders = tuple(element_order(G, g) for g in G.generators)
    try:
        derived = abelian_basis(commutator_generators(G), G)
    except NotAbelianError:
        derived = None
    return GroupContext(G, derived, gen_orders)


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

    context must be group_context(G); it is built here when not given, and
    the same body runs either way.
    When the group really decomposes at this m, the result generates the whole
    group; a non-error result is in general only guaranteed to decompose the
    subgroup generated by the output.
    """
    if m < 1:
        raise DecompositionFailed(m, "m must be >= 1")
    if context is None:
        context = group_context(G)
    if context.derived is None:
        raise DecompositionFailed(m, "derived subgroup is not abelian")
    xs = list(context.derived.elements)
    x_orders = list(context.derived.orders)

    factors = trial_factor(m)
    picks = []
    for p, e in factors:
        q = p**e
        pick = context.part(q)
        if pick is None:
            raise DecompositionFailed(m, f"no generator order divisible by {q}")
        picks.append(pick)
    g = picks[0][1] if picks else G.identity
    for _, part in picks[1:]:
        g = G.mul(g, part)
    if len({k for k, _ in picks}) <= 1:
        # commuting powers of one generator with coprime orders q: order m
        z = g
    else:
        g_order = element_order(G, g)
        if g_order % m:
            raise DecompositionFailed(m, f"assembled element order {g_order} not divisible by m")
        z = group_pow(G, g, g_order // m)
    hs = list(context.gen_powers(m))

    combined = xs + hs
    for i in range(len(combined)):
        # pairs inside the basis of the abelian G' are known to commute
        for j in range(max(i + 1, len(xs)), len(combined)):
            a, b = combined[i], combined[j]
            if a == b or G.identity in (a, b):
                continue
            if G.mul(a, b) != G.mul(b, a):
                raise DecompositionFailed(m, "candidate abelian part does not commute")
    for order in x_orders:
        if math.gcd(order, m) != 1:
            raise DecompositionFailed(m, "derived subgroup order shares a factor with m")
    h_orders = [n // math.gcd(n, m) for n in context.gen_orders]  # ord(g_j^m)
    for n in h_orders:
        if math.gcd(n, m) != 1:
            raise DecompositionFailed(m, "generator power order shares a factor with m")

    basis = abelian_basis(combined, G, orders=x_orders + h_orders)
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
