"""Standard decompositions: split a group into an abelian part and a cyclic part.

For a candidate cyclic order m the finder follows a fixed recipe: take a basis
of the derived subgroup, factor m, assemble an element z of order m from
suitable generator powers, collect the m-th powers of the generators, and
accept only if the resulting set is abelian with all orders coprime with m.
What does not depend on m is kept in a GroupContext, built once per group and
shared by every m: the derived-subgroup basis with its tables per prime,
where the basis of each A_m starts, so that a run inserts only the
g_j^m; the generator orders and their primes, over which m is factored; the
part g_k^{n_k/q} picked for each prime power q; and the powers g_j^m, where
g_j^m is (g_j^{m/l})^l for the least prime l of m. Arithmetic replaces oracle
calls where it decides: an element assembled from parts of one generator has
order m with no order search, g_j^m has order n_j / gcd(n_j, m), and
commutation is tested once, only for pairs not already known to commute.
The derived subgroup G' is the normal closure of the commutators [g_i, g_j]
of the generators, which can be larger than the subgroup they generate. Its
basis starts from those commutators and takes in every conjugate by a
generator that falls outside its span, round after round, until none does.
Conjugates by generators suffice because G is finite, so each g^{-1} is a
power of g. A round that takes in an element at least doubles the span, so at
most log2|G'| rounds run. Every element taken in lies in G', so elements
that do not commute show that G' is not abelian.
A finder run returns a StandardDecomposition with gamma = m. The sweep runs
the finder for every divisor m of the lcm of the generator orders and keeps
the decomposition with the largest m * |A_m|, the least m among equals: that
is the standard decomposition. Every attempt is reported, so callers can see
which m only decomposed a proper subgroup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .abelian import AbelianBasis, abelian_basis, check_commuting, element_order
from .arith import divisors, trial_factor
from .blackbox import ElementCode, GroupHandle, commutator_generators, group_pow
from .errors import DecompositionFailed, MembershipError, NotAbelianError, NotInClassError


class GroupContext:
    """The finder's data about G that is the same for every m.

    GroupContext(G) computes the generator orders, their primes and the basis
    of G' (None when G' is not abelian); that basis's p-tables, the
    prime-power parts and the generator powers are computed on first use,
    then kept, so a sweep computes each of them once.
    """

    def __init__(self, G: GroupHandle):
        self.G = G
        self.gen_orders = tuple(element_order(G, g) for g in G.generators)  # in generator order
        self.primes = tuple(sorted({p for n in self.gen_orders for p, _ in trial_factor(n)}))  # of m-bar
        try:
            self.derived: Optional[AbelianBasis] = _derived_basis(G)
        except NotAbelianError:
            self.derived = None
        self._parts: dict = {}
        self._powers: dict = {1: tuple(G.generators)}

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
            ell = trial_factor(m, self.primes)[0][0]
            self._powers[m] = tuple(group_pow(self.G, h, ell) for h in self.gen_powers(m // ell))
        return self._powers[m]


def _derived_basis(G: GroupHandle) -> AbelianBasis:
    """Basis of G' by the closure rounds of the module docstring, each conjugate of a
    p-element looked up in the p-table; raises NotAbelianError when G' is not abelian."""
    basis = abelian_basis(commutator_generators(G), AbelianBasis(G))
    conjugators = [(g, G.inv(g)) for g in G.generators] if basis.elements else []
    while True:
        escaped: list[ElementCode] = []
        for p, pairs in basis.parts.items():
            for x, _ in pairs:
                for g, g_inv in conjugators:
                    if g_inv == x:  # g = x^{-1}, so g x g^{-1} = x
                        continue
                    c = G.mul(G.mul(g, x), g_inv)
                    try:
                        basis.table(p).decompose(c)
                    except MembershipError:
                        escaped.append(c)
        if not escaped:
            return basis
        basis = abelian_basis(escaped, basis)


@dataclass(frozen=True)
class StandardDecomposition:
    """Output of one finder run: y of order gamma and a basis of the abelian part A.

    |A| is a_basis.group_order and every element order of A is coprime with
    gamma. The sweep keeps the run with the largest group_order; only that
    one is the standard decomposition of G, and its gamma the invariant.
    """

    gamma: int
    a_basis: AbelianBasis
    y: ElementCode

    @property
    def G(self) -> GroupHandle:
        return self.a_basis.G

    @property
    def group_order(self) -> int:
        return self.gamma * self.a_basis.group_order


@dataclass(frozen=True)
class DecompositionAttempt:
    """The finder run for one m: the decomposition it found, or why it failed."""

    m: int
    found: Optional[StandardDecomposition]
    error: Optional[str]


def find_decomposition(m: int, context: GroupContext) -> StandardDecomposition:
    """One sweep of the finder for m over context.G; raises DecompositionFailed.

    When the group really decomposes at this m, the result generates the whole
    group; a non-error result is in general only guaranteed to decompose the
    subgroup generated by the output.
    """
    G = context.G
    if m < 1:
        raise DecompositionFailed(m, "m must be >= 1")
    if context.derived is None:
        raise DecompositionFailed(m, "derived subgroup is not abelian")
    xs = list(context.derived.elements)

    factors = trial_factor(m, context.primes)
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

    try:
        check_commuting(G, xs + hs, known=len(xs))  # the basis of the abelian G' commutes
    except NotAbelianError:
        raise DecompositionFailed(m, "candidate abelian part does not commute") from None
    if any(m % p == 0 for p in context.derived.parts):
        raise DecompositionFailed(m, "derived subgroup order shares a factor with m")
    h_orders = [n // math.gcd(n, m) for n in context.gen_orders]  # ord(g_j^m)
    for n in h_orders:
        if math.gcd(n, m) != 1:
            raise DecompositionFailed(m, "generator power order shares a factor with m")

    return StandardDecomposition(m, abelian_basis(hs, context.derived, h_orders), z)


def standard_decomposition_with_attempts(
    G: GroupHandle,
) -> tuple[StandardDecomposition, list[DecompositionAttempt]]:
    """Sweep all divisors of lcm of the generator orders; keep the best.

    The byproduct max(m_i * |A_i|) equals the group order whenever the group
    is a coprime cyclic extension of an abelian group; the smallest m reaching
    it is the group invariant gamma.
    """
    context = GroupContext(G)
    attempts: list[DecompositionAttempt] = []
    for m in divisors(math.lcm(*context.gen_orders), context.primes):  # lcm() is 1: the trivial group
        try:
            attempts.append(DecompositionAttempt(m, find_decomposition(m, context), None))
        except DecompositionFailed as exc:
            attempts.append(DecompositionAttempt(m, None, exc.reason))
    found = [a.found for a in attempts if a.found is not None]
    if not found:
        raise NotInClassError(
            "no divisor admits a decomposition; the group is outside the scope class"
        )
    # max keeps the first maximum, so over ascending m the least m reaching it
    return max(found, key=lambda d: d.group_order), attempts


def standard_decomposition(G: GroupHandle) -> StandardDecomposition:
    return standard_decomposition_with_attempts(G)[0]
