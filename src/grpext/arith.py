"""Exact integer utilities: reading, factorization, divisors, crt, discrete_log and the Smith normal form.

Everything here works on plain Python integers, so intermediate values may grow
arbitrarily large without overflow. smith_normal_form also runs over any other
Euclidean ring whose elements supply the integer operators (autring uses it over
F_p[x]), and order_search, the one order search, over any multiplication, capped
by GRPEXT_MEM_MB. Every integer the package reads from text goes through read_ints,
except the table rows of canonical labels, which blackbox.parse_group_file reads
through one index per table; read_ints decides every other token and every rejection.
"""

from __future__ import annotations

import math
import os
import re
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .errors import InvariantBreachError, MalformedInputError, MemoryBudgetError

Factorization = list[tuple[int, int]]

_INT_TOKEN = re.compile(r"[+-]?[0-9]+")


def content_lines(text: str) -> list[str]:
    """The stripped lines of text that are neither blank nor `#` comments."""
    return [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]


def read_ints(text: str, what: str, count: Optional[int] = None) -> tuple[int, ...]:
    """The integers of text, count of them if given; `what` names text in errors.

    On ASCII text without "_", int() accepts exactly the tokens the grammar of
    blackbox.parse_group_file allows, so a good line costs one map(int, ...).
    """
    tokens = text.split()
    if count is not None and len(tokens) != count:
        raise MalformedInputError(f"{what} has {len(tokens)} entries, expected {count}")
    if (text.isascii() and "_" not in text) or all(map(_INT_TOKEN.fullmatch, tokens)):
        try:
            return tuple(map(int, tokens))
        except ValueError:
            pass
    for tok in tokens:
        if not _INT_TOKEN.fullmatch(tok):
            raise MalformedInputError(f"{what} entry {tok[:20]!r} is not an integer")
    digits = sys.get_int_max_str_digits()  # only a too-long token leaves int() failing here
    raise MalformedInputError(f"{what} has an entry of more than {digits} digits")


def keyword_ints(line: str, keyword: str, count: Optional[int] = None) -> tuple[int, ...]:
    """read_ints of the rest of a content line whose first word is exactly keyword."""
    word, *rest = line.split(None, 1)
    if word != keyword:
        raise MalformedInputError(f"expected `{keyword} ...`, got {line[:30]!r}")
    return read_ints(rest[0] if rest else "", f"{keyword} line", count)


def trial_factor(n: int, primes: Sequence[int] = ()) -> Factorization:
    """Factor n by the given primes, then by trial division of what is left up
    to its square root.

    Returns (prime, exponent) pairs with primes strictly increasing; the empty
    list for n = 1.
    """
    if n < 1:
        raise MalformedInputError(f"cannot factor {n}: need n >= 1")
    factors: Factorization = []
    rest = n
    for d in primes:
        e = 0
        while rest % d == 0:
            rest, e = rest // d, e + 1
        if e:
            factors.append((d, e))
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest, e = rest // d, e + 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    return sorted(factors)


def crt(congruences: Iterable[tuple[int, int]]) -> Optional[tuple[int, int]]:
    """(r, m) with x = r mod m exactly when x = e mod o for each (e, o); None if no x exists."""
    r, m = 0, 1
    for e, o in congruences:
        d = math.gcd(m, o)
        if (e - r) % d:
            return None
        r, m = r + m * ((e - r) // d * pow(m // d, -1, o // d) % (o // d)), m * o // d
    return r, m


def discrete_log(g: int, h: int, p: int, n: int, primes: Sequence[int] = ()) -> Optional[tuple[int, int]]:
    """(e, o), o the order of g mod the prime p, with g^x = h exactly when x = e mod o; None
    when h is not a power of g. o must divide n (MalformedInputError otherwise), factored by
    trial_factor(n, primes). Pohlig-Hellman: baby-step giant-step (Shanks) in each part of
    <g> of prime-power order q^f, with about sqrt(q^f) dict entries; crt joins the parts."""
    if pow(g, n, p) != 1:
        raise MalformedInputError(f"{g} has no order dividing {n} mod {p}")
    factors, o = trial_factor(n, primes), n
    for q, _ in factors:
        while o % q == 0 and pow(g, o // q, p) == 1:
            o //= q
    if pow(h, o, p) != 1:  # F_p* is cyclic, so <g> is every x with x^o = 1
        return None
    parts = []
    for qf in (math.gcd(o, q**e) for q, e in factors):
        gq, hq, r = pow(g, o // qf, p), pow(h, o // qf, p), math.isqrt(qf - 1) + 1
        baby, stride, i = {pow(gq, j, p): j for j in range(r)}, pow(gq, -r, p), 0
        while hq not in baby:  # hq is in <gq>, of order qf <= r^2
            hq, i = hq * stride % p, i + 1
        parts.append((i * r + baby[hq], qf))
    return crt(parts)


def _max_table_entries(entry_bytes: int, reserve: int = 0) -> int:
    """Entries of entry_bytes each that GRPEXT_MEM_MB holds once reserve bytes are set aside."""
    text = os.environ.get("GRPEXT_MEM_MB", "1024")
    mb = read_ints(text, "GRPEXT_MEM_MB")[0] if text.isascii() and text.isdigit() else 0
    if mb < 1:
        raise MalformedInputError(f"GRPEXT_MEM_MB must be a positive integer, not {text!r}")
    return max((mb << 20) - reserve, 0) // entry_bytes


def order_search(
    mul: Callable, one, g, entry_bytes: int, limit: Optional[int] = None, reserve: int = 0
) -> Optional[int]:
    """Least n >= 1 with g^n = one under mul, or None once every n <= limit is ruled out; g must
    lie in a group. Baby-step giant-step with a doubling radius r: the giant steps g^{rk}, k <= r,
    first meet the dict of g^j, j < r, at k = ceil(n / r), within about 4.5 sqrt(n) products.
    A dict of more keys than GRPEXT_MEM_MB holds at entry_bytes each, after reserve bytes for
    what the search holds beside its entries, raises MemoryBudgetError."""
    if g == one:
        return 1
    cap = _max_table_entries(entry_bytes, reserve)
    limit = cap * cap + 1 if limit is None else limit  # beyond the steps of any admitted radius
    baby, cur, j, radius = {one: 0}, g, 1, 32  # cur = g^j
    while True:
        radius = min(radius, limit)
        if radius > cap:
            raise MemoryBudgetError(f"baby-step table for order finding would exceed {cap} entries")
        while j < radius:
            if cur == one:
                return j
            if cur in baby:  # cannot happen in a group; fail loudly
                raise InvariantBreachError("power sequence repeated before identity")
            baby[cur] = j
            cur = mul(cur, g)
            j += 1
        if cur == one:
            return j
        w = stride = cur  # g^radius
        for k in range(1, min(radius, -(-limit // radius)) + 1):  # no k past ceil(limit / radius)
            if (hit := baby.get(w)) is not None:
                return n if (n := radius * k - hit) <= limit else None
            w = mul(w, stride)
        if radius * radius >= limit:  # the steps covered limit
            return None
        radius *= 2


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
    for e in range(q.bit_length() // (_TRIAL_BOUND.bit_length() - 1), 1, -1):
        root = _integer_root(q, e)
        if root**e == q:
            return (root, e) if _miller_rabin(root) else None
    return (q, 1) if _miller_rabin(q) else None


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


def divisors(n: int, primes: Sequence[int] = ()) -> list[int]:
    """All divisors of n in strictly ascending order; primes as for trial_factor."""
    if n < 1:
        raise MalformedInputError(f"divisors needs n >= 1, got {n}")
    divs = [1]
    for p, e in trial_factor(n, primes):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    divs.sort()
    return divs


def _int_unit(a: int):
    return (-1, -1) if a < 0 else None


@dataclass(frozen=True)
class SmithForm:
    """U * A * V is diagonal with this diagonal, for invertible U and V; u_inv is U^{-1}."""

    diagonal: tuple
    u_inv: tuple[tuple, ...]


def smith_normal_form(
    rows: Sequence[Sequence], size: Callable = abs, unit: Callable = _int_unit, one=1
) -> SmithForm:
    """Smith normal form of a matrix over a Euclidean ring; integers by default.

    Entries support +, -, *, // and %, and are false exactly when zero; one
    is the ring's identity. The pivot is an entry of least size(x); unit(x)
    is None when x is normalised, else a pair (c, c^{-1}) of units with c * x
    normalised (for the integers, x >= 0). Each diagonal entry divides the
    next, and of the transforms only U^{-1} is tracked.
    """
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    u_inv = [[one if i == j else one - one for j in range(m)] for i in range(m)]

    def add_row(dst, src, c):
        # row_dst += c * row_src; the inverse accumulator gets col_src -= c * col_dst
        if c:
            a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
            for r in u_inv:
                r[src] -= c * r[dst]

    for t in range(min(m, n)):
        while True:
            pos = None
            for i in range(t, m):
                for j in range(t, n):
                    if a[i][j]:
                        x = size(a[i][j])
                        if pos is None or x < best:
                            pos, best = (i, j), x
            if pos is None:
                break
            pi, pj = pos
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
                for r in u_inv:  # column swap on the inverse accumulator
                    r[t], r[pi] = r[pi], r[t]
            if pj != t:
                for r in a:
                    r[t], r[pj] = r[pj], r[t]
            scale = unit(a[t][t])
            if scale is not None:
                c, c_inv = scale
                a[t] = [c * x for x in a[t]]
                for r in u_inv:
                    r[t] *= c_inv
            pivot = a[t][t]
            clean = True
            for i in range(t + 1, m):
                add_row(i, t, -(a[i][t] // pivot))
                clean = clean and not a[i][t]
            for j in range(t + 1, n):
                q = a[t][j] // pivot
                if q:
                    for r in a:
                        r[j] -= q * r[t]
                clean = clean and not a[t][j]
            if not clean:
                continue
            # pull in the first row with an entry the pivot does not divide yet
            for i in range(t + 1, m):
                if any(a[i][j] % pivot for j in range(t + 1, n)):
                    add_row(t, i, one)
                    break
            else:
                break

    return SmithForm(tuple(a[t][t] for t in range(min(m, n))), tuple(map(tuple, u_inv)))
