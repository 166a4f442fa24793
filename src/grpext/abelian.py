"""Square-root-time primitives on abelian subgroups of a black-box group.

Element order uses baby-step/giant-step with a doubling radius, so no a-priori
bound on the group order is needed. Factoring an element over fixed
generators (an abelian basis, or y followed by a basis of the abelian part A)
uses the meet-in-the-middle table over the low digits of each exponent. The
baby-step tables are capped by the GRPEXT_MEM_MB environment variable
(default 1024).
"""

from __future__ import annotations

import bisect
import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence

from .arith import smith_normal_form, trial_factor, valuation
from .blackbox import ElementCode, GroupHandle, group_pow
from .errors import (
    InvariantBreachError,
    MalformedInputError,
    MembershipError,
    MemoryBudgetError,
    NotAbelianError,
)


@dataclass(frozen=True)
class AbelianBasis:
    """Independent generators of prime-power order, ascending by (prime, exp)."""

    elements: tuple[ElementCode, ...]
    orders: tuple[int, ...]

    def __post_init__(self):
        keys = []
        for q in self.orders:
            f = trial_factor(q)
            if len(f) != 1:
                raise MalformedInputError(f"basis order {q} is not a prime power")
            keys.append(f[0])
        if keys != sorted(keys):
            raise MalformedInputError("basis orders are not ascending")

    @property
    def group_order(self) -> int:
        return math.prod(self.orders) if self.orders else 1


def _max_table_entries(code_len: int) -> int:
    text = os.environ.get("GRPEXT_MEM_MB", "1024")
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise MalformedInputError(f"GRPEXT_MEM_MB must be a positive integer, not {text!r}")
    mem_mb = int(text)
    per_entry = code_len + 96  # code bytes plus container overhead, roughly
    return max(1024, (mem_mb << 20) // per_entry)


def element_order(G: GroupHandle, g: ElementCode) -> int:
    """Smallest n >= 1 with g^n = identity, in O(sqrt(n) log n) oracle calls."""
    if g == G.identity:
        return 1
    cap = _max_table_entries(len(g))
    baby: dict[ElementCode, int] = {G.identity: 0}
    cur = g  # g^j for j = len(baby)
    j = 1
    radius = 32
    while True:
        if radius > cap:
            raise MemoryBudgetError(
                f"baby-step table for order finding would exceed {cap} entries"
            )
        while j < radius:
            if cur == G.identity:
                return j
            if cur in baby:  # cannot happen for honest oracles; fail loudly
                raise InvariantBreachError("power sequence repeated before identity")
            baby[cur] = j
            cur = G.mul(cur, g)
            j += 1
        if cur == G.identity:
            return j
        stride = cur  # g^radius
        w = stride
        for k in range(1, radius + 1):
            hit = baby.get(w)
            if hit is not None:
                return radius * k - hit
            w = G.mul(w, stride)
        radius *= 2


class DecompositionTable:
    """Meet-in-the-middle table for factoring elements over fixed generators.

    Stores S = {g_0^{c_0} ... g_t^{c_t} | 0 <= c_i < r_i}, r_i = ceil(sqrt(n_i))
    for the orders n_i, sorted by code. A lookup walks the high digits with
    the strides g_i^{-r_i} until it lands in S: at most prod ceil(n_i / r_i)
    products. Coordinate 0 is walked from the left and the others from the
    right, so a hit proves g = g_0^{v_0} prod g_i^{v_i} whenever g_1, ..., g_t
    commute, whether or not g_0 commutes with them: over (y,) + a basis of A
    the table factors all of <y>A. Over an abelian basis both walks give the
    same element for the same product.
    """

    def __init__(self, G: GroupHandle, elements: Sequence[ElementCode], orders: Sequence[int]):
        self.G = G
        self.orders = tuple(orders)
        t = len(self.orders)
        self.radii = [math.isqrt(q - 1) + 1 for q in self.orders]
        self.b_counts = [-(-q // r) for q, r in zip(self.orders, self.radii)]
        table_size = math.prod(self.radii)
        cap = _max_table_entries(len(G.identity))
        if table_size > cap:
            raise MemoryBudgetError(f"decomposition table of {table_size} exceeds {cap}")
        entries: list[tuple[ElementCode, tuple[int, ...]]] = []

        def grow(i: int, prefix: ElementCode, digits: list[int]):
            if i == t:
                entries.append((prefix, tuple(digits)))
                return
            cur = prefix
            for c in range(self.radii[i]):
                if c > 0:
                    cur = G.mul(cur, elements[i])
                digits.append(c)
                grow(i + 1, cur, digits)
                digits.pop()

        grow(0, G.identity, [])
        entries.sort()
        self._codes = [e[0] for e in entries]
        self._digits = [e[1] for e in entries]
        for a, b in zip(self._codes, self._codes[1:]):
            if a == b:
                raise MalformedInputError("elements do not form a basis (collision)")
        # strides g_i^{-r_i} for walking the high digits
        self._down = [group_pow(G, G.inv(e), r) for e, r in zip(elements, self.radii)]

    def _lookup(self, code: ElementCode):
        i = bisect.bisect_left(self._codes, code)
        if i < len(self._codes) and self._codes[i] == code:
            return self._digits[i]
        return None

    def decompose(self, g: ElementCode) -> tuple[int, ...]:
        """Exponent vector v with g = prod g_i^{v_i}, components reduced."""
        G = self.G
        t = len(self.orders)

        def search(i: int, value: ElementCode, highs: tuple[int, ...]):
            if i == t:
                low = self._lookup(value)
                if low is None:
                    return None
                return tuple(
                    (h * r + c) % q for h, r, c, q in zip(highs, self.radii, low, self.orders)
                )
            cur = value
            for b in range(self.b_counts[i]):
                if b > 0:
                    cur = G.mul(self._down[0], cur) if i == 0 else G.mul(cur, self._down[i])
                vec = search(i + 1, cur, highs + (b,))
                if vec is not None:
                    return vec
            return None

        vec = search(0, g, ())
        if vec is None:
            raise MembershipError("element is not in the span of the basis")
        return vec


def _check_commuting(G: GroupHandle, gens: list[ElementCode]):
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if G.mul(gens[i], gens[j]) != G.mul(gens[j], gens[i]):
                raise NotAbelianError(
                    f"generators {i} and {j} do not commute"
                )


def _insert_p_element(
    G: GroupHandle,
    p: int,
    basis: list[tuple[ElementCode, int]],
    x: ElementCode,
    x_order: int,
) -> list[tuple[ElementCode, int]]:
    """Extend a p-group basis by one element of order p^K; may rebuild it."""
    table = DecompositionTable(G, [e for e, _ in basis], [o for _, o in basis])
    k_exp = valuation(p, x_order)
    w = x
    k = 0
    coeffs = None
    while coeffs is None:
        try:
            coeffs = table.decompose(w)
        except MembershipError:
            w = group_pow(G, w, p)
            k += 1
            if k > k_exp:
                raise InvariantBreachError("p-power of element escaped the p-group")
    if k == 0:
        return basis
    t = len(basis)
    size = t + 1
    rel = [[0] * size for _ in range(size)]
    for i in range(t):
        rel[i][i] = basis[i][1]
        rel[i][t] = -coeffs[i]
    rel[t][t] = p**k
    form = smith_normal_form(rel)
    members = [e for e, _ in basis] + [x]
    member_orders = [o for _, o in basis] + [x_order]
    new_basis: list[tuple[ElementCode, int]] = []
    for j in range(size):
        order = form.diagonal[j]
        if order == 1:
            continue
        y = G.identity
        for i in range(size):
            e = form.u_inv[i][j] % member_orders[i]
            if e:
                y = G.mul(y, group_pow(G, members[i], e))
        if group_pow(G, y, order) != G.identity or (
            order > 1 and group_pow(G, y, order // p) == G.identity
        ):
            raise InvariantBreachError("rebuilt basis element has a wrong order")
        new_basis.append((y, order))
    new_basis.sort(key=lambda pair: pair[1])
    return new_basis


def abelian_basis(
    gens: Sequence[ElementCode], G: GroupHandle, orders: Optional[Sequence[int]] = None
) -> AbelianBasis:
    """Basis of the abelian subgroup generated by gens.

    The generators are first split into their prime-power parts; within each
    prime the basis is built incrementally, decomposing each new element over
    the partial basis and repairing via an integer normal form when needed.
    Without orders, every pair of gens is checked to commute (NotAbelianError
    otherwise) and each order is found by element_order. A caller that has
    already checked that gens commute and knows their orders passes the
    orders, in the order of gens, and neither is done again.
    """
    unique: list[ElementCode] = []
    for g in gens:
        if g != G.identity and g not in unique:
            unique.append(g)
    if orders is None:
        _check_commuting(G, unique)
        orders = {g: element_order(G, g) for g in unique}
    else:
        orders = dict(zip(gens, orders))
    per_prime: dict[int, list[tuple[ElementCode, int]]] = {}
    for g in unique:
        n = orders[g]
        for p, e in trial_factor(n):
            part = group_pow(G, g, n // p**e)
            per_prime.setdefault(p, []).append((part, p**e))
    basis_pairs: list[tuple[ElementCode, int]] = []
    for p in sorted(per_prime):
        partial: list[tuple[ElementCode, int]] = []
        for x, x_order in per_prime[p]:
            partial = _insert_p_element(G, p, partial, x, x_order)
        basis_pairs.extend(partial)
    basis_pairs.sort(key=lambda pair: trial_factor(pair[1])[0])
    return AbelianBasis(
        tuple(e for e, _ in basis_pairs), tuple(o for _, o in basis_pairs)
    )

