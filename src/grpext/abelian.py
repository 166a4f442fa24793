"""Square-root-time primitives on abelian subgroups of a black-box group.

Element order is arith.order_search over the oracle product: baby-step/giant-step
with a doubling radius, so no bound on the group order is needed. Factoring over fixed
commuting generators uses the meet-in-the-middle table over the low digits of
each exponent, one dict from code to digits; it returns None for an element
outside their span. An abelian basis keeps one table per prime, over its
p-part. The tables are capped by the GRPEXT_MEM_MB environment variable
(default 1024), at the bytes per entry that a build measurably holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .arith import _max_table_entries, order_search, smith_normal_form, trial_factor
from .blackbox import ElementCode, GroupHandle, group_pow, word
from .errors import InvariantBreachError, MalformedInputError, MemoryBudgetError


@dataclass(frozen=True)
class AbelianBasis:
    """Independent generators of prime-power order in G, ascending by (prime, exp);
    AbelianBasis(G) is the trivial basis. Tables come from table(p) and abelian_basis."""

    G: GroupHandle = field(repr=False, compare=False)
    elements: tuple[ElementCode, ...] = ()
    orders: tuple[int, ...] = ()
    tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # p -> its table
    parts: dict = field(init=False, repr=False, compare=False)  # p -> its (element, order) pairs

    def __post_init__(self):
        keys = []
        object.__setattr__(self, "parts", {})
        for x, q in zip(self.elements, self.orders):
            f = trial_factor(q)
            if len(f) != 1:
                raise MalformedInputError(f"basis order {q} is not a prime power")
            keys.append(f[0])
            self.parts.setdefault(f[0][0], []).append((x, q))
        if keys != sorted(keys):
            raise MalformedInputError("basis orders are not ascending")

    def table(self, p: int) -> DecompositionTable:
        """The table over parts[p], built on first use and kept in tables."""
        if p not in self.tables:
            self.tables[p] = DecompositionTable(self.G, *zip(*self.parts[p]))
        return self.tables[p]

    @property
    def group_order(self) -> int:
        return math.prod(self.orders) if self.orders else 1


# Peak bytes per entry, its int code included: the worst tracemalloc peak per
# entry of builds of 32 to 131 072 entries on CPython 3.11 (a dict resize holds
# both tables), with codes in [2^61, 2^90), which take 36 bytes; every 30 bits
# more add 4 bytes per code.
BABY_ENTRY_BYTES = 112
TABLE_ENTRY_BYTES = 209  # plus 8 per digit


def element_order(G: GroupHandle, g: ElementCode) -> int:
    """Smallest n >= 1 with g^n = identity: arith.order_search over G.mul, O(sqrt(n)) oracle calls."""
    return order_search(G.mul, G.identity, g, BABY_ENTRY_BYTES)


class DecompositionTable:
    """Meet-in-the-middle table for factoring elements over fixed commuting generators.

    One dict maps the code of g_0^{c_0} ... g_t^{c_t} to its digits, for
    0 <= c_i < r_i = ceil(sqrt(n_i)) and the orders n_i. It grows one
    coordinate at a time, each entry times g_i up to r_i - 1 times, where the
    first power of g_i is g_i itself: (prod r_i - 1) - #{i : r_i >= 2}
    products, none by the identity, plus the strides. Dependent elements
    leave fewer than prod r_i entries. A lookup walks the high digits from the
    right with the strides g_i^{-r_i} until it lands in the dict: at most
    prod ceil(n_i / r_i) products, and None for an element outside the span.
    """

    def __init__(self, G: GroupHandle, elements: Sequence[ElementCode], orders: Sequence[int]):
        self.G = G
        self.elements = tuple(elements)
        self.orders = tuple(orders)
        self.radii = [math.isqrt(q - 1) + 1 for q in self.orders]
        self.b_counts = [-(-q // r) for q, r in zip(self.orders, self.radii)]
        table_size = math.prod(self.radii)
        cap = _max_table_entries(TABLE_ENTRY_BYTES + 8 * len(self.orders))
        if table_size > cap:
            raise MemoryBudgetError(f"decomposition table of {table_size} exceeds {cap}")
        table: dict[ElementCode, tuple[int, ...]] = {G.identity: ()}
        for g, r in zip(elements, self.radii):
            steps = tuple(range(1, r))  # one int object per digit, shared by all entries
            for code in list(table):
                digits, cur = table[code], code
                table[code] = digits + (0,)
                for c in steps:
                    cur = g if cur == G.identity else G.mul(cur, g)
                    table[cur] = digits + (c,)
        if len(table) < table_size:
            raise MalformedInputError("elements do not form a basis (collision)")
        self._table = table
        # strides g_i^{-r_i} for walking the high digits
        self._down = [group_pow(G, G.inv(e), r) for e, r in zip(elements, self.radii)]

    def decompose(self, g: ElementCode) -> Optional[tuple[int, ...]]:
        """Exponent vector v with g = prod g_i^{v_i}, components reduced; None if there is none."""
        G = self.G
        t = len(self.orders)

        def search(i: int, value: ElementCode, highs: tuple[int, ...]):
            if i == t:
                low = self._table.get(value)
                if low is None:
                    return None
                return tuple(
                    (h * r + c) % q for h, r, c, q in zip(highs, self.radii, low, self.orders)
                )
            cur = value
            for b in range(self.b_counts[i]):
                if b > 0:
                    cur = G.mul(cur, self._down[i])
                vec = search(i + 1, cur, highs + (b,))
                if vec is not None:
                    return vec
            return None

        return search(0, g, ())


def check_commuting(
    G: GroupHandle, elements: Sequence[ElementCode], known: int = 0
) -> Optional[tuple[int, int]]:
    """The first pair i < j that does not commute, or None; pairs within the first
    `known` elements, equal pairs and pairs with the identity are not tested."""
    for i in range(len(elements)):
        for j in range(max(i + 1, known), len(elements)):
            a, b = elements[i], elements[j]
            if a != b and G.identity not in (a, b) and G.mul(a, b) != G.mul(b, a):
                return i, j
    return None


def _insert_p_element(
    table: DecompositionTable, p: int, x: ElementCode, x_order: int
) -> Optional[list[tuple[ElementCode, int]]]:
    """Extend the p-group basis that table is over by x of order x_order = p^K,
    as (element, order) pairs; None when x lies in the span."""
    G = table.G
    w = x
    k = 0
    while (coeffs := table.decompose(w)) is None:
        w = group_pow(G, w, p)
        k += 1
        if p**k > x_order:
            raise InvariantBreachError("p-power of element escaped the p-group")
    if k == 0:
        return None
    t = len(table.orders)
    size = t + 1
    rel = [[0] * size for _ in range(size)]
    for i in range(t):
        rel[i][i] = table.orders[i]
        rel[i][t] = -coeffs[i]
    rel[t][t] = p**k
    form = smith_normal_form(rel)
    members = table.elements + (x,)
    member_orders = table.orders + (x_order,)
    new_basis: list[tuple[ElementCode, int]] = []
    for j in range(size):
        order = form.diagonal[j]
        if order == 1:
            continue
        exps = [form.u_inv[i][j] % member_orders[i] for i in range(size)]
        y = word(G, members, exps)
        if group_pow(G, y, order) != G.identity or group_pow(G, y, order // p) == G.identity:
            raise InvariantBreachError("rebuilt basis element has a wrong order")
        new_basis.append((y, order))
    new_basis.sort(key=lambda pair: pair[1])
    return new_basis


def abelian_basis(
    gens: Sequence[ElementCode], start: AbelianBasis, orders: Optional[Sequence[int]] = None
) -> Optional[AbelianBasis]:
    """Basis of <gens, start> in start.G, or None when two of them do not commute;
    start = AbelianBasis(G) gives that of <gens>.

    gens in start, repeats and the identity are dropped; the rest are checked to
    commute with each other. That they commute with start is the caller's
    premise and is not tested: the finder proves it by arithmetic on the
    action of each generator on G' (decomp.GroupContext.action_order), and
    the derived closure by check_commuting. Their orders are found by
    element_order, unless the caller passes them, in the order of gens. The
    generators are then split into their prime-power parts; within each prime
    the first part, of exact order, is the basis as it stands, and each later
    one is decomposed over the partial basis, repaired by a normal form. Each
    prime starts from its part of start and that part's table, and the result
    keeps every table still over its part.
    """
    G = start.G
    unique = list(dict.fromkeys(g for g in gens if g != G.identity and g not in start.elements))
    if check_commuting(G, unique):
        return None
    orders = dict(zip(gens, orders)) if orders is not None else {g: element_order(G, g) for g in unique}
    per_prime: dict[int, list[tuple[ElementCode, int]]] = {}
    for g in unique:
        n = orders[g]
        for p, e in trial_factor(n):
            part = group_pow(G, g, n // p**e)
            per_prime.setdefault(p, []).append((part, p**e))
    basis_pairs: list[tuple[ElementCode, int]] = []
    tables = {}
    for p in sorted(per_prime.keys() | start.parts.keys()):
        partial = start.parts.get(p, [])
        table = start.table(p) if partial and p in per_prime else start.tables.get(p)
        for x, x_order in per_prime.get(p, ()):
            if table is None and partial:  # table over partial, or None
                table = DecompositionTable(G, *zip(*partial))
            rebuilt = _insert_p_element(table, p, x, x_order) if partial else [(x, x_order)]
            if rebuilt is not None:
                partial, table = rebuilt, None
        if table is not None:
            tables[p] = table
        basis_pairs.extend(partial)  # ascending by order, so by (p, e)
    basis = AbelianBasis(G, tuple(e for e, _ in basis_pairs), tuple(o for _, o in basis_pairs))
    basis.tables.update(tables)
    return basis
