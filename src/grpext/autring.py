"""Matrix model of the automorphism ring of a finite abelian p-group.

An abelian p-group Z_{p^{e_1}} x ... x Z_{p^{e_s}} with e_1 <= ... <= e_s has
its endomorphisms represented by s x s integer matrices whose column j holds
the exponents of the image of the j-th basis generator. Entry (i, j) lives in
{0, ..., p^{e_i} - 1} and must be divisible by p^{e_i - e_min(i,j)}; the units
(matrices invertible mod p) form a group isomorphic to Aut of the group.
Each rule of this ring is written once: PType.entry_rule is the one entry-rule
helper, giving each entry's (step, count), and is_in_R is the one
invertibility test, by the constant term of charpoly (det B = (-1)^n chi_B(0)).

The module also provides the block-reduction map psi onto block-diagonal
invertible matrices over F_p, characteristic polynomials over F_p (Hessenberg
reduction), and a conjugacy solver for matrices whose order is coprime with
p: the characteristic polynomials of the psi blocks decide it (see
BlockDiagGF.charpolys), and a conjugator is a random endomorphism averaged
over the cyclic group the matrices generate. rcf, the rational canonical form
with its transformation (from arith.smith_normal_form of xI - B over F_p[x]),
is on no decision path; it stays only while the benchmark spans it.

It owns the arithmetic of action matrices over per-row moduli (mat_mul,
mat_vec, mat_pow): the action of a cyclic group on a general abelian group
A = Z_{q_1} x ... x Z_{q_s} is one s x s matrix with row i reduced mod q_i,
and blocks_from_rows is the only place that splits such a matrix into one
AutMatrix per prime. It is also the one check of an automorphism of A: group
files, iso.conjugation_action and the psi of an isomorphism witness
(iso.verify_isomorphism) all go through it. Its layout is block-diagonal, one
square block per run of coordinates (a prime of A, or an exponent run in
psi), and two helpers are the one owner of that layout: block_diagonal
assembles such a matrix from its blocks and diagonal_block reads one block
back.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .arith import content_lines, is_prime, keyword_ints, prime_power, read_ints
from .arith import order_search, smith_normal_form, trial_factor
from .errors import (
    Condition3Error,
    InvariantBreachError,
    MalformedInputError,
)

IntMatrix = tuple[tuple[int, ...], ...]

CONJUGACY_TRIES = 200  # averages of random endomorphisms that conjugacy makes before it gives up
# matrix_order's search holds ORDER_ENTRY_BYTES + 64 s + (36 + 4 d) s^2 bytes per entry of d 30-bit digits:
# the worst tracemalloc peak at radii 2^10..2^17, s <= 19, 20..399-bit entries, first search included
ORDER_ENTRY_BYTES = 250
# CPython keeps up to 2 000 freed tuples of each length below 20. A search's s-tuples fill that free
# list at any radius, so for s < 20 matrix_order sets ORDER_FREE_TUPLES * (40 + 8 s) bytes aside
ORDER_FREE_TUPLES = 2000


def _freeze(rows: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(tuple(int(x) for x in r) for r in rows)


def block_diagonal(blocks: Sequence[Sequence[Sequence[int]]]) -> IntMatrix:
    """The square blocks placed down the diagonal in order, zero elsewhere."""
    s = sum(map(len, blocks))
    rows, pos = [], 0
    for block in blocks:
        k = len(block)
        rows += [(0,) * pos + tuple(row) + (0,) * (s - pos - k) for row in block]
        pos += k
    return tuple(rows)


def diagonal_block(rows: Sequence[Sequence[int]], start: int, stop: int) -> IntMatrix:
    """The square block of rows on the diagonal from index start to stop."""
    return tuple(tuple(row[start:stop]) for row in rows[start:stop])


def _runs(keys: Sequence) -> list[tuple]:
    """Maximal runs of equal keys as (key, start, stop) index spans."""
    spans = []
    start = 0
    for key, run in itertools.groupby(keys):
        stop = start + len(list(run))
        spans.append((key, start, stop))
        start = stop
    return spans


@dataclass(frozen=True)
class PType:
    """Isomorphism type of an abelian p-group: prime p and ascending exponents."""

    p: int
    exps: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise MalformedInputError(f"{self.p} is not prime")
        if not self.exps or any(e < 1 for e in self.exps):
            raise MalformedInputError("exponents must be positive and nonempty")
        if list(self.exps) != sorted(self.exps):
            raise MalformedInputError("exponents must be nondecreasing")

    @property
    def s(self) -> int:
        return len(self.exps)

    @property
    def order(self) -> int:
        return self.p ** sum(self.exps)

    @property
    def moduli(self) -> tuple[int, ...]:
        return tuple(self.p**e for e in self.exps)

    def block_structure(self) -> list[tuple[int, int, int]]:
        """Runs of equal exponents as (exponent, start, stop) index spans."""
        return _runs(self.exps)

    @cached_property
    def entry_rule(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """(step, count) of entry (i, j): its values are step * t for t < count.

        step = p^{e_i - e_min(i,j)} and step * count = p^{e_i}.
        """
        p, exps = self.p, self.exps
        return tuple(
            tuple((p ** (ei - min(ei, ej)), p ** min(ei, ej)) for ej in exps) for ei in exps
        )


@dataclass(frozen=True)
class AutMatrix:
    """Endomorphism matrix: row i reduced mod p^{e_i}, divisibility respected."""

    ptype: PType
    rows: IntMatrix

    @property
    def moduli(self) -> tuple[int, ...]:
        return self.ptype.moduli


def validate_M(ptype: PType, rows: Sequence[Sequence[int]]) -> AutMatrix:
    """Strict membership test: ranges and divisibility exactly as given."""
    if len(rows) != ptype.s or any(len(r) != ptype.s for r in rows):
        raise MalformedInputError(f"matrix must be {ptype.s}x{ptype.s}")
    for i in range(ptype.s):
        bound = ptype.moduli[i]
        for j in range(ptype.s):
            if not 0 <= rows[i][j] < bound:
                raise MalformedInputError(
                    f"entry ({i + 1},{j + 1})={rows[i][j]} outside [0, {bound})"
                )
    for i, rule in enumerate(ptype.entry_rule):
        for j, (step, _) in enumerate(rule):
            if rows[i][j] % step:
                raise MalformedInputError(
                    f"entry ({i + 1},{j + 1})={rows[i][j]} must be divisible by {step}"
                )
    return AutMatrix(ptype, _freeze(rows))


def identity_matrix(ptype: PType) -> AutMatrix:
    return AutMatrix(ptype, _freeze([[int(i == j) for j in range(ptype.s)] for i in range(ptype.s)]))


def mat_mul(x, y, moduli: Sequence[int]) -> IntMatrix:
    """Product of two matrices, row i reduced modulo moduli[i]."""
    cols = tuple(zip(*y))
    return tuple(
        tuple(sum(map(operator.mul, row, col)) % q for col in cols) for row, q in zip(x, moduli)
    )


def mat_vec(rows, vec: Sequence[int], moduli: Sequence[int]) -> tuple[int, ...]:
    """rows * vec, coordinate i reduced modulo moduli[i]."""
    return tuple(sum(map(operator.mul, row, vec)) % q for row, q in zip(rows, moduli))


def mat_pow(rows, n: int, moduli: Sequence[int]) -> IntMatrix:
    """rows^n for n >= 0 by left-to-right square-and-multiply, row i reduced modulo moduli[i]."""
    if len(moduli) == 1:  # a 1 x 1 matrix is a scalar modulo q
        return ((pow(rows[0][0], n, moduli[0]),),)
    if n == 0:
        s = len(moduli)
        return tuple(tuple(int(i == k) for k in range(s)) for i in range(s))
    base = tuple(tuple(x % q for x in row) for row, q in zip(rows, moduli))
    power = base
    for bit in bin(n)[3:]:
        power = mat_mul(power, power, moduli)
        if bit == "1":
            power = mat_mul(power, base, moduli)
    return power


def star_mul(u: AutMatrix, u2: AutMatrix) -> AutMatrix:
    """Matrix product with row i of the result reduced modulo p^{e_i}."""
    if u.ptype != u2.ptype:
        raise MalformedInputError("star_mul requires matching types")
    return AutMatrix(u.ptype, mat_mul(u.rows, u2.rows, u.ptype.moduli))


def star_pow(u: AutMatrix, n: int) -> AutMatrix:
    if n < 0:
        raise MalformedInputError("star_pow needs n >= 0")
    return AutMatrix(u.ptype, mat_pow(u.rows, n, u.ptype.moduli))


def is_in_R(u: AutMatrix) -> bool:
    """u is a unit: det(u) = (-1)^s chi_u(0) is nonzero mod p."""
    return charpoly(u.rows, u.ptype.p)[0] != 0


@dataclass(frozen=True)
class BlockDiagGF:
    """Block-diagonal invertible matrices over F_p, one block per exponent run."""

    p: int
    blocks: tuple[IntMatrix, ...]

    def charpolys(self, k: int = 1) -> tuple[tuple[int, ...], ...]:
        """Characteristic polynomial of each block of this matrix raised to the power k.

        For psi of units whose orders are coprime with p (the precondition
        that conjugacy checks), conjugacy returns None exactly when these
        differ, and it compares nothing else: a block whose order is coprime
        with p is semisimple (its minimal polynomial divides x^n - 1, which
        has no repeated roots over F_p), and semisimple matrices with equal
        characteristic polynomials are conjugate.
        """
        p = self.p
        return tuple(charpoly(mat_pow(b, k, (p,) * len(b)), p) for b in self.blocks)


def psi(u: AutMatrix) -> BlockDiagGF:
    """Reduce the diagonal blocks mod p, discarding everything off-block."""
    if not is_in_R(u):
        raise MalformedInputError("psi is defined on units only")
    p = u.ptype.p
    blocks = (diagonal_block(u.rows, start, stop) for _, start, stop in u.ptype.block_structure())
    return BlockDiagGF(p, tuple(tuple(tuple(x % p for x in row) for row in b) for b in blocks))


# --- F_p matrix and polynomial helpers ------------------------------------


def _gf_mul(a, b, p):
    return mat_mul(a, b, (p,) * len(a))


def _gf_inv(rows, p):
    n = len(rows)
    a = [[x % p for x in r] + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = pow(a[col][col], -1, p)
        a[col] = [x * inv % p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return _freeze([r[n:] for r in a])


class _Fpx:
    """Element of F_p[x] for arith.smith_normal_form: coefficients low degree first."""

    __slots__ = ("c", "p")

    def __init__(self, c, p):
        while c and not c[-1]:
            c = c[:-1]
        self.c = c
        self.p = p

    def __bool__(self):
        return bool(self.c)

    def __add__(self, other):
        a, b, p = self.c, other.c, self.p
        if len(a) < len(b):
            a, b = b, a
        return _Fpx(tuple((x + y) % p for x, y in zip(a, b)) + a[len(b):], p)

    def __neg__(self):
        return _Fpx(tuple(-x % self.p for x in self.c), self.p)

    def __sub__(self, other):
        a, b, p = self.c, other.c, self.p
        n = max(len(a), len(b))
        a, b = a + (0,) * (n - len(a)), b + (0,) * (n - len(b))
        return _Fpx(tuple((x - y) % p for x, y in zip(a, b)), p)

    def __mul__(self, other):
        a, b, p = self.c, other.c, self.p
        if not a or not b:
            return _Fpx((), p)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return _Fpx(tuple(x % p for x in out), p)

    def __divmod__(self, other):
        a, b, p = list(self.c), other.c, self.p
        inv = pow(b[-1], -1, p)
        q = [0] * max(0, len(a) - len(b) + 1)
        for shift in range(len(q) - 1, -1, -1):
            f = a[shift + len(b) - 1] * inv % p
            q[shift] = f
            for i, x in enumerate(b):
                a[shift + i] = (a[shift + i] - f * x) % p
        return _Fpx(tuple(q), p), _Fpx(tuple(a[: len(b) - 1]), p)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]


def _fpx_unit(a: _Fpx):
    """Units that make a monic: None when it is, else (lead^{-1}, lead)."""
    lead = a.c[-1]
    return None if lead == 1 else (_Fpx((pow(lead, -1, a.p),), a.p), _Fpx((lead,), a.p))


def _companion(poly, p):
    k = len(poly) - 1
    c = [[0] * k for _ in range(k)]
    for i in range(1, k):
        c[i][i - 1] = 1
    for i in range(k):
        c[i][k - 1] = (-poly[i]) % p
    return c


def charpoly(mat: Sequence[Sequence[int]], p: int) -> tuple[int, ...]:
    """det(xI - mat) over F_p, coefficients low degree first (monic).

    The matrix is brought to upper Hessenberg form H by similarity over F_p,
    then the characteristic polynomials of the leading principal submatrices
    of H follow from one recurrence; O(n^3) operations in all.
    """
    n = len(mat)
    if n == 1:
        return (-mat[0][0] % p, 1)
    h = [[x % p for x in row] for row in mat]
    for m in range(1, n - 1):
        pivot = next((i for i in range(m, n) if h[i][m - 1]), None)
        if pivot is None:
            continue
        if pivot != m:
            h[m], h[pivot] = h[pivot], h[m]
            for row in h:
                row[m], row[pivot] = row[pivot], row[m]
        inv = pow(h[m][m - 1], -1, p)
        for i in range(m + 1, n):
            f = h[i][m - 1] * inv % p
            if f:  # row i -= f * row m, then column m += f * column i
                h[i] = [(x - f * y) % p for x, y in zip(h[i], h[m])]
                for row in h:
                    row[m] = (row[m] + f * row[i]) % p
    polys = [[1]]  # polys[m]: characteristic polynomial of the leading m x m block of H
    for m in range(1, n + 1):
        prev = polys[m - 1]
        poly = [0] + prev  # x * prev
        for d, c in enumerate(prev):
            poly[d] -= h[m - 1][m - 1] * c
        t = 1
        for i in range(1, m):
            t = t * h[m - i][m - i - 1] % p
            f = t * h[m - i - 1][m - 1] % p
            if f:
                for d, c in enumerate(polys[m - i - 1]):
                    poly[d] -= f * c
        polys.append([c % p for c in poly])
    return tuple(polys[n])


@dataclass(frozen=True)
class RCFResult:
    """form = T * mat * T^{-1} with T invertible mod p; factors ascending."""

    p: int
    form: IntMatrix
    transform: IntMatrix
    factors: tuple[tuple[int, ...], ...]


def rcf(mat: Sequence[Sequence[int]], p: int) -> RCFResult:
    """Rational (Frobenius) canonical form over F_p with its transformation.

    Works through the invariant factors of xI - mat, the Smith normal form
    over F_p[x] (arith.smith_normal_form); the transformation T satisfies
    T * mat = form * T and is verified before returning.
    """
    n = len(mat)
    char = [[_Fpx((-mat[i][j] % p,) + (1,) * (i == j), p) for j in range(n)] for i in range(n)]
    snf = smith_normal_form(char, size=lambda a: len(a.c), unit=_fpx_unit, one=_Fpx((1,), p))
    diag, u_inv = [d.c for d in snf.diagonal], snf.u_inv
    entries = sorted(range(n), key=lambda t: len(diag[t]))
    factors = []
    basis_cols: list[Sequence[int]] = []
    for t in entries:
        d = diag[t]
        if len(d) <= 1:
            continue
        factors.append(d)
        gen = [0] * n
        for j in range(n):
            coeffs = u_inv[j][t].c
            vec = [0] * n
            for c in reversed(coeffs):
                vec = [
                    (sum(mat[r][k] * vec[k] for k in range(n)) + (c if r == j else 0)) % p
                    for r in range(n)
                ]
            gen = [(g + v) % p for g, v in zip(gen, vec)]
        col = gen
        for _ in range(len(d) - 1):
            basis_cols.append(col)
            col = mat_vec(mat, col, (p,) * n)
    if sum(len(f) - 1 for f in factors) != n:
        raise InvariantBreachError("invariant factor degrees do not sum to n")
    q = [[basis_cols[j][i] for j in range(n)] for i in range(n)]
    t_inv = _freeze(q)
    t_mat = _gf_inv(t_inv, p)
    if t_mat is None:
        raise InvariantBreachError("cyclic vectors did not form a basis")
    form_f = block_diagonal([_companion(f, p) for f in factors])
    if _gf_mul(t_mat, mat, p) != _gf_mul(form_f, t_mat, p):
        raise InvariantBreachError("canonical form transform failed verification")
    return RCFResult(p, form_f, t_mat, tuple(factors))


def matrix_order(u, cap: Optional[int] = None, *, multiple: Optional[int] = None) -> Optional[int]:
    """Order of u; give exactly one of cap and multiple.

    With a known multiple n of the order (an action's m or gamma), u is an
    AutMatrix or AutBlocks: u^n = I is checked, then the p-part of the order,
    for each p^e exactly dividing n, is found by raising u^{n/p^e} to the p-th
    power until it is I, in O(omega(n) log n) products. None when u^n != I.

    With only cap, for callers that know no multiple (the CLI's --order-cap):
    the least n <= cap with u^n = I by arith.order_search, in O(sqrt(min(n, cap)))
    products; None past the cap or for a non-unit (MemoryBudgetError past GRPEXT_MEM_MB).
    """
    if (cap is None) == (multiple is None):
        raise MalformedInputError("matrix_order needs exactly one of cap and multiple")
    if multiple is not None:
        if multiple < 1:
            raise MalformedInputError("order multiple must be >= 1")
        rows, moduli = u.rows, u.moduli
        ident = mat_pow(rows, 0, moduli)
        if mat_pow(rows, multiple, moduli) != ident:
            return None
        order = 1
        for p, e in trial_factor(multiple):
            v = mat_pow(rows, multiple // p**e, moduli)
            while v != ident:
                v = mat_pow(v, p, moduli)
                order *= p
        return order
    if cap < 1:
        raise MalformedInputError("order cap must be >= 1")
    if not is_in_R(u):
        return None
    moduli = u.moduli
    s, digits = len(moduli), -(-max(moduli).bit_length() // 30)
    entry_bytes = ORDER_ENTRY_BYTES + 64 * s + s * s * (36 + 4 * digits)  # s + 1 tuples, s^2 ints
    one = identity_matrix(u.ptype).rows
    reserve = ORDER_FREE_TUPLES * (40 + 8 * s) if s < 20 else 0
    return order_search(lambda a, b: mat_mul(a, b, moduli), one, u.rows, entry_bytes, cap, reserve)


def conjugacy(
    u1: AutMatrix, u2: AutMatrix, order_cap: Optional[int] = None, *, multiple: Optional[int] = None
) -> Optional[AutMatrix]:
    """Solve U * u1 = u2 * U for U in the unit group, or report None.

    This is where its precondition is checked: both inputs must be units
    (MalformedInputError otherwise) whose orders are coprime with p and divide the
    known multiple, or are at most order_cap, searched in O(sqrt(order_cap))
    products, when no multiple is known (Condition3Error otherwise; see
    matrix_order). Then every psi block is semisimple, so the inputs are conjugate
    exactly when the characteristic polynomials of their psi blocks agree
    (BlockDiagGF.charpolys); None when they differ. Otherwise Y = sum_{i<n}
    u2^{-i} R u1^i, with n the lcm of the two orders, gives Y u1 = u2 Y for any R
    (Maschke's argument); the sum is built by doubling in O(log n) products. R is
    block diagonal, drawn by PType.entry_rule from a random.Random(0) made on each
    call, so the answer repeats. As psi is a ring homomorphism, each psi block of
    Y is the average of that block of R: a uniform intertwiner, invertible with
    probability at least 0.288 per isotypic component (prod_i (1 - q^{-i}) over
    F_q; Holt, Eick & O'Brien 2005, section 7.5). So a draw replaces only the
    blocks of R whose average is singular, and the draws needed follow the worst
    block. Past CONJUGACY_TRIES draws InvariantBreachError is raised. Y is
    verified by substitution and is_in_R before returning.
    """
    if u1.ptype != u2.ptype:
        raise MalformedInputError("conjugacy requires matching types")
    ptype = u1.ptype
    p = ptype.p
    orders, reduced = [], []
    for u in (u1, u2):
        try:
            reduced.append(psi(u))  # psi is the unit test
        except MalformedInputError:
            raise MalformedInputError("conjugacy inputs must be units") from None
        order = matrix_order(u, order_cap, multiple=multiple)
        if order is None:
            if multiple is not None:
                raise Condition3Error(f"matrix order does not divide {multiple}")
            raise Condition3Error(f"matrix order exceeds cap {order_cap}")
        if order % p == 0:
            raise Condition3Error(f"matrix order {order} is not coprime with p={p}")
        orders.append(order)
    if reduced[0].charpolys() != reduced[1].charpolys():
        return None
    n = math.lcm(*orders)
    moduli = ptype.moduli

    def mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
        return mat_mul(a, b, moduli)

    def add(a: IntMatrix, b: IntMatrix) -> IntMatrix:
        return tuple(tuple((v + w) % q for v, w in zip(r1, r2)) for r1, r2, q in zip(a, b, moduli))

    u2_inv = mat_pow(u2.rows, n - 1, moduli)
    rng = random.Random(0)
    r = [[0] * ptype.s for _ in range(ptype.s)]
    singular = [(a, b) for _, a, b in ptype.block_structure()]
    for _ in range(CONJUGACY_TRIES):
        fresh = random_endomorphism(ptype, rng).rows
        for a, b in singular:  # the average of a kept block stays invertible
            for i in range(a, b):
                r[i][a:b] = fresh[i][a:b]
        total, left, right = r, u2_inv, u1.rows  # sum_{i<k} u2^{-i} R u1^i, u2^{-k}, u1^k for k = 1
        for bit in bin(n)[3:]:
            total = add(total, mul(mul(left, total), right))
            left, right = mul(left, left), mul(right, right)
            if bit == "1":
                total = add(total, mul(mul(left, r), right))
                left, right = mul(left, u2_inv), mul(right, u1.rows)
        singular = [(a, b) for a, b in singular if charpoly(diagonal_block(total, a, b), p)[0] == 0]
        if not singular:
            break
    else:
        raise InvariantBreachError(f"no averaged endomorphism was a unit in {CONJUGACY_TRIES} draws")
    total = AutMatrix(ptype, _freeze(total))
    if star_mul(total, u1) != star_mul(u2, total) or not is_in_R(total):
        raise InvariantBreachError("conjugator failed final verification")
    return total


def random_endomorphism(ptype: PType, rng) -> AutMatrix:
    """Uniformly sample each matrix entry within its constraint (PType.entry_rule)."""
    return AutMatrix(
        ptype,
        tuple(tuple(step * rng.randrange(count) for step, count in rule) for rule in ptype.entry_rule),
    )


def random_unit(ptype: PType, rng) -> AutMatrix:
    """random_endomorphism until a unit."""
    while True:
        u = random_endomorphism(ptype, rng)
        if is_in_R(u):
            return u


def enumerate_R(ptype: PType) -> list[AutMatrix]:
    """All units, by direct enumeration. Guarded to small groups."""
    if ptype.order > 2**12:
        raise MalformedInputError("enumerate_R is restricted to |A| <= 4096")
    choices = [range(0, step * count, step) for rule in ptype.entry_rule for step, count in rule]
    s = ptype.s
    units = (
        AutMatrix(ptype, tuple(combo[i * s : (i + 1) * s] for i in range(s)))
        for combo in itertools.product(*choices)
    )
    return [u for u in units if is_in_R(u)]


# --- Automorphisms of a general abelian group: one block per prime ---------


@dataclass(frozen=True)
class AutBlocks:
    """Blockwise automorphism of an abelian group, primes strictly ascending."""

    blocks: tuple[AutMatrix, ...]

    def __post_init__(self):
        primes = [b.ptype.p for b in self.blocks]
        if primes != sorted(set(primes)):
            raise MalformedInputError("blocks must come in strictly ascending primes")

    @cached_property
    def moduli(self) -> tuple[int, ...]:
        """The prime powers q_1, ..., q_s of the coordinates, block after block."""
        return tuple(q for b in self.blocks for q in b.ptype.moduli)

    @cached_property
    def rows(self) -> IntMatrix:
        """The action as one s x s matrix: block_diagonal of the prime blocks."""
        return block_diagonal([b.rows for b in self.blocks])


def blocks_from_rows(qs: Sequence[int], rows: Sequence[Sequence[int]]) -> AutBlocks:
    """Validate a full s x s action matrix and split it into per-prime blocks.

    The q_i must be prime powers ascending by (prime, exponent). Each prime's
    block is read with diagonal_block, and rows must equal block_diagonal of
    those blocks: the first entry in row-major order that couples distinct
    primes and is not zero is named. Each prime block must be an invertible
    endomorphism matrix of its component, entries in range.
    """
    s = len(qs)
    if len(rows) != s or any(len(r) != s for r in rows):
        raise MalformedInputError(f"action matrix must be {s}x{s}")
    parsed = []
    for q in qs:
        pp = prime_power(q)
        if pp is None:
            raise MalformedInputError(f"{q} is not a prime power")
        parsed.append(pp)
    if parsed != sorted(parsed):
        raise MalformedInputError("prime powers must be ascending (prime, then exponent)")
    spans = _runs([p for p, _ in parsed])
    squares = [diagonal_block(rows, start, stop) for _, start, stop in spans]
    if (full := block_diagonal(squares)) != tuple(map(tuple, rows)):
        i, j = next((i, j) for i in range(s) for j in range(s) if rows[i][j] != full[i][j])
        raise MalformedInputError(f"entry ({i + 1},{j + 1}) couples distinct primes; must be 0")
    blocks = []
    for (p, start, stop), square in zip(spans, squares):
        block = validate_M(PType(p, tuple(e for _, e in parsed[start:stop])), square)
        if not is_in_R(block):
            raise MalformedInputError(f"action block for p={p} is not invertible")
        blocks.append(block)
    return AutBlocks(tuple(blocks))


def blocks_pow(a: AutBlocks, n: int) -> AutBlocks:
    return AutBlocks(tuple(star_pow(x, n) for x in a.blocks))


# --- Matrix text format -----------------------------------------------------


def parse_matrix_file(text: str) -> AutMatrix:
    """Parse `ptype p e_1 ... e_s` and s rows of s integers (see blackbox.parse_group_file)."""
    lines = content_lines(text)
    if not lines:
        raise MalformedInputError("empty matrix file")
    head = keyword_ints(lines[0], "ptype")
    if len(head) < 2:
        raise MalformedInputError("ptype line needs a prime and exponents")
    ptype = PType(head[0], head[1:])
    if len(lines) != 1 + ptype.s:
        raise MalformedInputError(f"expected {ptype.s} matrix rows")
    rows = [read_ints(ln, f"matrix row {i}", ptype.s) for i, ln in enumerate(lines[1:], 1)]
    return validate_M(ptype, rows)

