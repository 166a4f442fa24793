"""Isomorphism classes of Z_{3^i}^r extended by a cyclic group of order 4.

Matrices of order dividing 4 in GL_r(3) are classified, up to conjugacy, by
how many diagonal companion blocks of X+1, X-1 and X^2+1 they carry; the
triples (k1, k2, k3) with k1 + k2 + 2*k3 = r enumerate the classes, and cubing
a representative stays in its class, so the class count equals the number of
isomorphism types of the corresponding group extensions. Representatives lift
to exponent i > 1 with an order correction (see class_representatives).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import autring
from .blackbox import SemidirectGroupSpec
from .errors import InvariantBreachError, MalformedInputError


@dataclass(frozen=True)
class ClassTriple:
    k1: int
    k2: int
    k3: int


def class_triples(r: int) -> list[ClassTriple]:
    """All triples with k1 + k2 + 2*k3 = r, descending in k3 then ascending k2."""
    if r < 1:
        raise MalformedInputError("r must be >= 1")
    out = []
    for k3 in range(r // 2, -1, -1):
        rest = r - 2 * k3
        for k2 in range(rest + 1):
            out.append(ClassTriple(rest - k2, k2, k3))
    return out


def count_classes(r: int) -> int:
    return len(class_triples(r))


# Companion blocks over F_3: roots of X+1, X-1, and the 2x2 block of X^2+1.
_U_BLOCK = ((2,),)
_V_BLOCK = ((1,),)
_W_BLOCK = ((0, 2), (1, 0))


def _block_diagonal(triple: ClassTriple, r: int) -> list[list[int]]:
    rows = [[0] * r for _ in range(r)]
    pos = 0
    for block, count in ((_U_BLOCK, triple.k1), (_V_BLOCK, triple.k2), (_W_BLOCK, triple.k3)):
        size = len(block)
        for _ in range(count):
            for i in range(size):
                for j in range(size):
                    rows[pos + i][pos + j] = block[i][j]
            pos += size
    return rows


def _correct_order(mat: autring.AutMatrix, m: int) -> autring.AutMatrix:
    """Power correction for lifted representatives of order dividing m.

    A lift from F_p keeps its reduction mod p but may gain p-part in its
    order; raising to a power of p that is 1 mod m removes the p-part without
    changing the image under the block reduction map.
    """
    p = mat.ptype.p
    ident = autring.identity_matrix(mat.ptype)
    if autring.star_pow(mat, m) == ident:
        return mat
    exponent = 1
    bound = p ** (sum(mat.ptype.exps) * mat.ptype.s)
    while p**exponent < bound or p**exponent % m != 1:
        exponent += 1
    fixed = autring.star_pow(mat, p**exponent)
    if autring.psi(fixed) != autring.psi(mat):
        raise InvariantBreachError("order correction changed the residue action")
    if autring.star_pow(fixed, m) != ident:
        raise InvariantBreachError(
            f"order correction failed: lifted matrix has no power of order dividing {m}"
        )
    return fixed


def class_representatives(r: int, i: int) -> list[autring.AutBlocks]:
    """One action matrix per class, lifted to exponent i, each of order | 4."""
    if i < 1:
        raise MalformedInputError("i must be >= 1")
    ptype = autring.PType(3, (i,) * r)
    out = []
    for triple in class_triples(r):
        rows = _block_diagonal(triple, r)
        mat = autring.validate_M(ptype, rows)
        if not autring.is_in_R(mat):
            raise InvariantBreachError("representative is singular")
        mat = _correct_order(mat, 4)
        out.append(autring.AutBlocks((mat,)))
    return out


def representative_group_spec(r: int, i: int, index: int) -> SemidirectGroupSpec:
    """Group description for the index-th class representative of Z_{3^i}^r x| Z_4."""
    reps = class_representatives(r, i)
    if not 0 <= index < len(reps):
        raise MalformedInputError(f"index {index} out of range (have {len(reps)})")
    return SemidirectGroupSpec((3**i,) * r, 4, reps[index])


def brute_force_class_count(ptype: autring.PType, m: int) -> int:
    """Test oracle: partition all units with U^m = I by the twisted-conjugacy
    relation (conjugate after raising one side to some k coprime with m)."""
    if ptype.order > 2**10:
        raise MalformedInputError("brute-force counting is restricted to |A| <= 1024")
    p = ptype.p
    candidates = []
    for mat in autring.enumerate_R(ptype):
        order = autring.matrix_order(mat, multiple=m)  # None unless U^m = I
        if order is None or order % p == 0:
            continue
        candidates.append(mat)
    ks = [k for k in range(1, m + 1) if math.gcd(k, m) == 1]
    reps: list[autring.AutMatrix] = []
    for mat in candidates:
        related = False
        for rep in reps:
            for k in ks:
                if autring.conjugacy(mat, autring.star_pow(rep, k), multiple=m) is not None:
                    related = True
                    break
            if related:
                break
        if not related:
            reps.append(mat)
    return len(reps)
