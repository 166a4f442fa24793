"""Isomorphism classes of Z_{3^i}^r extended by a cyclic group of order 4.

Matrices of order dividing 4 in GL_r(3) are classified, up to conjugacy, by
how many diagonal companion blocks of X+1, X-1 and X^2+1 they carry; the
triples (k1, k2, k3) with k1 + k2 + 2*k3 = r enumerate the classes, and cubing
a representative stays in its class, so the class count equals the number of
isomorphism types of the corresponding group extensions. Representatives are
built over Z_{3^i} with order dividing 4 (see class_representatives).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from . import autring
from .blackbox import SemidirectGroupSpec
from .errors import MalformedInputError


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


def _block_diagonal(triple: ClassTriple, q: int) -> autring.IntMatrix:
    # lifts to Z_q of the companion blocks of X+1, X-1 and X^2+1 over F_3
    blocks = [((q - 1,),)] * triple.k1 + [((1,),)] * triple.k2 + [((0, q - 1), (1, 0))] * triple.k3
    return autring.block_diagonal(blocks)


def class_representatives(r: int, i: int) -> list[autring.AutBlocks]:
    """One action matrix per class over Z_{3^i}, each of order dividing 4.

    The blocks X+1, X-1 and X^2+1 lift as -1, 1 and [[0, -1], [1, 0]] mod
    q = 3^i: the first squares to 1 and the last to -1, so each lift has order
    dividing 4 and reduces mod 3 to its companion block. The lifts of a triple,
    k1 of X+1, then k2 of X-1, then k3 of X^2+1, are placed down the diagonal
    by autring.block_diagonal.
    """
    if i < 1:
        raise MalformedInputError("i must be >= 1")
    digits = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    if digits and (i > 3 * digits or 3**i >= 10**digits):
        raise MalformedInputError(f"3^{i} has more than {digits} digits, more than a file can hold")
    ptype = autring.PType(3, (i,) * r)
    return [
        autring.AutBlocks((autring.validate_M(ptype, _block_diagonal(triple, 3**i)),))
        for triple in class_triples(r)
    ]


def representative_group_specs(r: int, i: int) -> list[SemidirectGroupSpec]:
    """Group description of each class representative of Z_{3^i}^r x| Z_4."""
    return [SemidirectGroupSpec(4, rep) for rep in class_representatives(r, i)]


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
