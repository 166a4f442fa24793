"""Standard decompositions: split a group into an abelian part and a cyclic part.

For a candidate cyclic order m the finder first decides by arithmetic, with
no oracle call: m must divide m-bar, the lcm of the generator orders; G' must
be abelian of order prime to m; gcd(m, m-bar / m) = 1, which makes each
g_j^m, of order n_j / gcd(n_j, m), prime to m; and each g_j^m must
centralize G'. The last closure round below writes g_j x g_j^{-1} over G''s
basis for each basis element x: the columns of M_j, the action of g_j on G'.
So g_j^m centralizes G' exactly when M_j^m = I, that is when the order c_j
of M_j divides m, and the finder tests that c = lcm_j c_j divides m. Then
abelian_basis builds the basis of A_m from that of G' and the g_j^m, or
returns None when two g_j^m do not commute. After these checks
A_m = <G', g_j^m> is abelian, normal (it contains G') and of order prime to
m, so the part picked for each prime power q of m has image of order q in
G/A_m, and m divides the order of their product g: z = g^{ord(g)/m} has
order m. A_m's basis comes last.
What does not depend on m is kept in a GroupContext, built once per group and
shared by every m: the derived-subgroup basis with its tables per prime,
where the basis of each A_m starts, so that a run inserts only the g_j^m; c;
the generator orders, m-bar and its primes, over which m is factored; the
part g_k^{n_k/q} picked for each prime power q; and the powers g_j^m, where
g_j^m is (g_j^{m/l})^l for the least prime l of m. Parts of one generator
give z with no order search.
The derived subgroup G' is the normal closure of the commutators [g_i, g_j]
of the generators, which can be larger than the subgroup they generate. Its
basis starts from those commutators and takes in every conjugate by a
generator that falls outside its span, round after round, until none does.
Conjugates by generators suffice because G is finite, so each g^{-1} is a
power of g. A round that takes in an element at least doubles the span, so at
most log2|G'| rounds run. Every element taken in lies in G', so when
check_commuting finds one that does not commute with the basis, or
abelian_basis two of them that do not commute, G' is not abelian.
A finder run returns a DecompositionAttempt: a StandardDecomposition with
gamma = m, or the reason the first failed check gives. The sweep runs the
finder for every divisor m of m-bar and keeps the decomposition with the
largest m * |A_m|, the least m among equals: that is the standard
decomposition. Every attempt is reported, so callers can see which m only
decomposed a proper subgroup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .abelian import AbelianBasis, abelian_basis, check_commuting, element_order
from .arith import divisors, trial_factor
from .autring import mat_pow
from .blackbox import ElementCode, GroupHandle, commutator_generators, group_pow, word
from .errors import InvariantBreachError, NotInClassError


class GroupContext:
    """The finder's data about G that is the same for every m.

    GroupContext(G) computes the generator orders, their lcm m_bar and its
    primes, the basis of G' that _derived_basis returns, None when G' is not
    abelian, and action_order, the lcm of the orders of the generators'
    actions on G', found by mat_pow with no oracle call. The p-tables, the
    prime-power parts and the generator powers are computed on first use,
    then kept, so a sweep computes each of them once.
    """

    def __init__(self, G: GroupHandle):
        self.G = G
        self.gen_orders = tuple(element_order(G, g) for g in G.generators)  # in generator order
        self.m_bar = math.lcm(*self.gen_orders)  # lcm() is 1: the trivial group
        self.primes = tuple(sorted({p for n in self.gen_orders for p, _ in trial_factor(n)}))  # of m_bar
        self.derived, actions = _derived_basis(G)
        self.action_order = math.lcm(*(  # every g_j^m centralizes G' exactly when it divides m
            _action_order(columns, [q for _, q in self.derived.parts[p]], n, self.primes)
            for action, n in zip(actions, self.gen_orders) for p, columns in action.items()
        ))
        self._parts: dict = {}
        self._powers: dict = {1: tuple(G.generators)}

    def part(self, q: int) -> tuple[int, ElementCode]:
        """(k, g_k^{n_k/q}), an element of order q, for the first k with q | n_k.

        The finder asks only for q = p^e exactly dividing an m | m_bar, so such
        a k exists, and the part meets A_m, of order prime to m, trivially.
        """
        if q not in self._parts:
            k = next(i for i, n in enumerate(self.gen_orders) if n % q == 0)
            self._parts[q] = (k, group_pow(self.G, self.G.generators[k], self.gen_orders[k] // q))
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


def _derived_basis(G: GroupHandle) -> tuple[Optional[AbelianBasis], list[dict]]:
    """Basis of G' by the closure rounds of the module docstring, each conjugate of a
    p-element looked up in the p-table, None when G' is not abelian; and, from the
    last round, the action of each generator g as p -> the columns of x -> g x g^{-1}
    over the p-basis, one column per p-basis element x, for each p-part that g moves."""
    basis = abelian_basis(commutator_generators(G), AbelianBasis(G))
    conjugators = [(g, G.inv(g)) for g in G.generators] if basis and basis.elements else []
    while basis is not None:
        escaped: dict[ElementCode, None] = {}  # an ordered set
        actions: list[dict] = [{} for _ in conjugators]
        for p, pairs in basis.parts.items():
            units = [tuple(int(i == k) for i in range(len(pairs))) for k in range(len(pairs))]
            for k, (x, _) in enumerate(pairs):
                for (g, g_inv), action in zip(conjugators, actions):
                    c = x if g_inv == x else G.mul(G.mul(g, x), g_inv)  # g = x^{-1} fixes x
                    if c == x:
                        continue
                    if (column := basis.table(p).decompose(c)) is None:
                        escaped[c] = None
                    else:
                        action.setdefault(p, units.copy())[k] = column
        if not escaped:
            return basis, actions
        commuting = not check_commuting(G, basis.elements + tuple(escaped), known=len(basis.elements))
        basis = abelian_basis(tuple(escaped), basis) if commuting else None
    return None, []


def _action_order(columns: list[tuple[int, ...]], moduli: list[int], n: int, primes) -> int:
    """Order of the matrix M with these columns, row i modulo moduli[i], that
    divides n: for each p^e || n, the least p^k with (M^{n/p^e})^{p^k} = I."""
    rows = tuple(zip(*columns))
    one, order = mat_pow(rows, 0, moduli), 1
    for p, e in trial_factor(n, primes):
        power, k = mat_pow(rows, n // p**e, moduli), 0
        while power != one and k < e:
            power, k = mat_pow(power, p, moduli), k + 1
        if power != one:
            raise InvariantBreachError(f"an action on G' has an order that does not divide {n}")
        order *= p**k
    return order


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


def find_decomposition(m: int, context: GroupContext) -> DecompositionAttempt:
    """One run of the finder for m over context.G: the decomposition, or the
    reason of the first check that fails.

    The arithmetic checks (m | m_bar, G' abelian of order prime to m,
    gcd(m, m_bar / m) = 1, action_order | m) come before any oracle call, then
    abelian_basis over G' and the g_j^m, which checks that the g_j^m commute
    with each other and, passed their orders, finds none by search; after them
    m divides the order of the assembled element (see the module docstring).
    The decomposition is of the subgroup its output generates, which is G
    when G decomposes at m.
    """
    G = context.G
    if m < 1 or context.m_bar % m:
        return DecompositionAttempt(m, None, "m does not divide the lcm of the generator orders")
    if context.derived is None:
        return DecompositionAttempt(m, None, "derived subgroup is not abelian")
    if any(m % p == 0 for p in context.derived.parts):
        return DecompositionAttempt(m, None, "derived subgroup order shares a factor with m")
    if math.gcd(m, context.m_bar // m) != 1:  # some ord(g_j^m) = n_j / gcd(n_j, m) shares it
        return DecompositionAttempt(m, None, "generator power order shares a factor with m")
    if m % context.action_order:  # some g_j^m acts on G' as M_j^m != I
        return DecompositionAttempt(m, None, "candidate abelian part does not commute")

    h_orders = [n // math.gcd(n, m) for n in context.gen_orders]  # ord(g_j^m)
    a_basis = abelian_basis(context.gen_powers(m), context.derived, h_orders)
    if a_basis is None:
        return DecompositionAttempt(m, None, "candidate abelian part does not commute")

    picks = [context.part(p**e) for p, e in trial_factor(m, context.primes)]
    g = word(G, [part for _, part in picks], [1] * len(picks))
    # parts of one generator are commuting powers of coprime orders q, so g has order m
    z = g if len({k for k, _ in picks}) <= 1 else group_pow(G, g, element_order(G, g) // m)
    return DecompositionAttempt(m, StandardDecomposition(m, a_basis, z), None)


def standard_decomposition_with_attempts(
    G: GroupHandle,
) -> tuple[StandardDecomposition, list[DecompositionAttempt]]:
    """Sweep all divisors of m_bar: the best decomposition, proved to cover G, and every attempt.

    The byproduct max(m_i * |A_i|) equals the group order whenever the group
    is a coprime cyclic extension of an abelian group; the smallest m reaching
    it is the group invariant gamma. NotInClassError when no m decomposes or
    the best decomposition does not cover G.
    """
    context = GroupContext(G)
    attempts = [find_decomposition(m, context) for m in divisors(context.m_bar, context.primes)]
    found = [a.found for a in attempts if a.found is not None]
    if not found:
        raise NotInClassError(
            "no divisor admits a decomposition; the group is outside the scope class"
        )
    # max keeps the first maximum, so over ascending m the least m reaching it
    best = max(found, key=lambda d: d.group_order)
    if not _covers(best, context):
        raise NotInClassError(
            "no decomposition covers the group; the group is outside the scope class"
        )
    return best, attempts


def _covers(sd: StandardDecomposition, context: GroupContext) -> bool:
    """Whether <y>A is all of G.

    A contains G' and each generator's gamma-th power, so <y>A is a subgroup,
    and it is G when it holds every generator. Take a generator g of order
    n = s * r, s made of the primes of gamma. The finder's check
    gcd(gamma, m_bar / gamma) = 1 gives each prime of gamma the same exponent
    in gamma as in m_bar, a multiple of n, so s divides gamma and
    r = n / gcd(n, gamma). Then g^gamma, of order r, generates the part of <g>
    of order r, and g lies in <y>A exactly when w = g^r does. When every part
    of y is a power of g, y generates the subgroup of <g> of order gamma,
    which holds w. Otherwise: G/A is abelian of exponent dividing gamma, prime
    to e = exp A, so x is in A exactly when x^e = 1, as its image's order
    divides both. Pohlig-Hellman in G/A then finds, for each q^f || gamma, the
    base-q digits of a j with (w y^j)^{gamma/q^f} in A: digit i is the d < q
    with t c^d in A, c = y^{gamma/q}, t = (w y^j)^{gamma/q^{i+1}} over the
    digits below i; no such d puts w outside. As w has order s, the digits
    below f - f_s, for q^{f_s} || s, are 0 and are not searched. Cost: O(1)
    memory, at most sum f q (1 + 2 log2 e) products in trials, O(log gamma)
    per digit. In the class y's q-part acts nontrivially on A (else the
    least-m rule takes m = gamma/q^f), so q | p^i - 1 for some
    i <= rank(A_p): q < |A|, q^2 < |G|.
    """
    G, gamma = sd.G, sd.gamma
    e, factors = math.lcm(*sd.a_basis.orders), dict(trial_factor(gamma, context.primes))
    y_from = {context.part(q**f)[0] for q, f in factors.items()}
    c = {}  # q -> y^(gamma/q), on first use
    for k, (g, n) in enumerate(zip(G.generators, context.gen_orders)):
        r = n // math.gcd(n, gamma)
        if r == n or y_from == {k} or (w := group_pow(G, g, r)) == sd.y:
            continue
        for q, fs in trial_factor(n // r, context.primes):  # q^fs || s
            f = factors[q]
            c[q], j = c[q] if q in c else group_pow(G, sd.y, gamma // q), 0
            for i in range(f - fs, f):
                t = group_pow(G, word(G, (w, sd.y), (1, j)), gamma // q ** (i + 1))
                for _ in range(q):
                    if group_pow(G, t, e) == G.identity:
                        break
                    t, j = G.mul(t, c[q]), j + q**i
                else:
                    return False
    return True


def standard_decomposition(G: GroupHandle) -> StandardDecomposition:
    return standard_decomposition_with_attempts(G)[0]
