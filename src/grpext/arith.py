"""Exact integer utilities: factorization, divisors, lcm, and modular linear systems.

Everything here works on plain Python integers, so intermediate values may grow
arbitrarily large without overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InvariantBreachError, MalformedInputError

Factorization = list[tuple[int, int]]


def trial_factor(n: int) -> Factorization:
    """Factor n by trial division up to sqrt(n).

    Returns (prime, exponent) pairs with primes strictly increasing; the empty
    list for n = 1.
    """
    if n < 1:
        raise MalformedInputError(f"cannot factor {n}: need n >= 1")
    factors: Factorization = []
    rest = n
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    return factors


_TRIAL_BOUND = 1000
# Miller-Rabin with these bases is exact below _MR_LIMIT (Sorenson & Webster,
# Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    return prime_power(n) == (n, 1)


def prime_power(q: int) -> Optional[tuple[int, int]]:
    """Return (p, e) if q = p^e for a prime p and e >= 1, else None.

    Trial division up to _TRIAL_BOUND decides every q below its square. A
    larger q without a small factor can only be p^e with p > _TRIAL_BOUND, so
    it is decided by integer roots and Miller-Rabin, in time polynomial in the
    number of digits. Raises MalformedInputError if that needs a primality
    test of a number of _MR_LIMIT or more, where Miller-Rabin is not exact.
    """
    if q < 2:
        return None
    d = 2
    while d * d <= q:
        if q % d == 0:
            e = 0
            while q % d == 0:
                q //= d
                e += 1
            return (d, e) if q == 1 else None
        if d > _TRIAL_BOUND:
            break
        d += 1 if d == 2 else 2
    else:
        return (q, 1)
    for e in range(q.bit_length() // (_TRIAL_BOUND.bit_length() - 1), 0, -1):
        root = _integer_root(q, e)
        if root**e == q:
            return (root, e) if _miller_rabin(root) else None
    return None


def _integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _miller_rabin(n: int) -> bool:
    """Exact primality of an odd n > 41 below _MR_LIMIT."""
    if n >= _MR_LIMIT:
        raise MalformedInputError(f"{n} is too large to test for primality exactly")
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def valuation(p: int, n: int) -> int:
    """Largest v with p^v dividing n (n >= 1)."""
    if n < 1:
        raise MalformedInputError(f"valuation needs n >= 1, got {n}")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def divisors(n: int) -> list[int]:
    """All divisors of n in strictly ascending order."""
    if n < 1:
        raise MalformedInputError(f"divisors needs n >= 1, got {n}")
    divs = [1]
    for p, e in trial_factor(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    divs.sort()
    return divs


def lcm_list(xs: Sequence[int]) -> int:
    if not xs:
        raise MalformedInputError("lcm of an empty list")
    out = 1
    for x in xs:
        out = math.lcm(out, x)
    return out


@dataclass(frozen=True)
class ModularLinearSystem:
    """rows[k] . y == rhs[k]  (mod moduli[k]) for each equation k."""

    rows: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]
    moduli: tuple[int, ...]

    def __post_init__(self):
        n_eq = len(self.rows)
        if len(self.rhs) != n_eq or len(self.moduli) != n_eq:
            raise MalformedInputError("system dimensions are inconsistent")
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise MalformedInputError("coefficient rows have unequal lengths")
        if any(m < 1 for m in self.moduli):
            raise MalformedInputError("all moduli must be >= 1")

    @property
    def n_vars(self) -> int:
        return len(self.rows[0]) if self.rows else 0


@dataclass(frozen=True)
class SmithForm:
    """S = U * A * V with U, V unimodular; u_inv is the exact inverse of U."""

    s: tuple[tuple[int, ...], ...]
    u: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]
    u_inv: tuple[tuple[int, ...], ...]


def smith_normal_form(rows: Sequence[Sequence[int]]) -> SmithForm:
    """Smith normal form of an integer matrix with full transform tracking.

    Diagonal entries are nonnegative and each divides the next.
    """
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    u_inv = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in u_inv:  # column swap on the inverse accumulator
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, c):
        # row_dst += c * row_src; inverse accumulator gets col_src -= c * col_dst
        if c == 0:
            return
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]
        for r in u_inv:
            r[src] -= c * r[dst]

    def add_col(dst, src, c):
        if c == 0:
            return
        for r in a:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in u_inv:
            r[i] = -r[i]

    for t in range(min(m, n)):
        while True:
            pivot = None
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    x = abs(a[i][j])
                    if x and (best is None or x < best):
                        pivot, best = (i, j), x
            if pivot is None:
                break
            pi, pj = pivot
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            if a[t][t] < 0:
                negate_row(t)
            clean = True
            for i in range(t + 1, m):
                q = a[i][t] // a[t][t]
                add_row(i, t, -q)
                if a[i][t]:
                    clean = False
            for j in range(t + 1, n):
                q = a[t][j] // a[t][t]
                add_col(j, t, -q)
                if a[t][j]:
                    clean = False
            if not clean:
                continue
            # pull in any entry the pivot does not divide yet
            culprit = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t]:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            add_row(t, culprit, 1)

    freeze = lambda mat: tuple(tuple(r) for r in mat)
    return SmithForm(freeze(a), freeze(u), freeze(v), freeze(u_inv))


def _matvec(mat, vec):
    return [sum(r[j] * vec[j] for j in range(len(vec))) for r in mat]


def solve_modular_system(system: ModularLinearSystem) -> Optional[list[int]]:
    """One solution of a system of linear modular equations, or None.

    The system is turned into a linear Diophantine one by adding a slack
    variable with coefficient moduli[k] to equation k, then solved through the
    Smith normal form. Free variables are fixed to zero, and the returned
    assignment is reduced modulo lcm(moduli), so the output is deterministic.
    Every returned assignment is re-checked against the system by substitution.
    """
    n_eq = len(system.rows)
    n_var = system.n_vars
    if n_eq == 0:
        return []
    aug = [list(system.rows[k]) + [system.moduli[k] if j == k else 0 for j in range(n_eq)]
           for k in range(n_eq)]
    form = smith_normal_form(aug)
    c = _matvec(form.u, list(system.rhs))
    width = n_var + n_eq
    t = [0] * width
    for i in range(n_eq):
        d = form.s[i][i] if i < width else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d:
                return None
            t[i] = c[i] // d
    x = _matvec(form.v, t)
    period = lcm_list(list(system.moduli))
    y = [x[j] % period for j in range(n_var)]
    for k in range(n_eq):
        lhs = sum(system.rows[k][j] * y[j] for j in range(n_var))
        if (lhs - system.rhs[k]) % system.moduli[k]:
            raise InvariantBreachError("modular solver produced an invalid assignment")
    return y
