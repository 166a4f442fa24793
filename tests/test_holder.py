"""Hölder's count of the groups of squarefree order, against the partition by `isomorphic`.

Every group of squarefree order n is Z_a x| Z_m with am = n (Hölder 1895), so
it is in the class, with A = Z_a the product of its cyclic p-parts and a
diagonal action (c_p) with c_p^m = 1 mod p. Their number has a closed form,
which needs no data and no enumeration:
    f(n) = sum over d | n of prod over p | n/d of (p^c - 1)/(p - 1),
where c = c_d(p) counts the primes q | d with q = 1 mod p (see also Blackburn,
Neumann & Venkataraman, Enumeration of Finite Groups, 2007). The test builds
every such group for each squarefree n up to BOUND, splits them into classes
by `isomorphic` against one representative each, and counts the classes. Up
to TABLE_BOUND each group also joins the split as a relabelled Cayley table
and on drawn `gens`, and the count must not move.
"""

import itertools
import random

from corpus import Semidirect, drawn_gens, relabel
from grpext.arith import divisors, trial_factor
from grpext.iso import isomorphic

# Under pytest on a 2-core x86 host with CPython 3.11: n <= 300 is 183 orders, 1 073
# groups and 1 411 decisions in 1.7-1.9 s; n <= 50 three ways is 127 groups in 0.6-0.9 s.
# Bounds 400 and 100 put the file near 5 s.
BOUND = 300
TABLE_BOUND = 50


def _primes(n: int) -> list[int]:
    return [p for p, _ in trial_factor(n)]


def holder_count(n: int) -> int:
    """f(n) for squarefree n, by the formula in the module docstring."""
    total = 0
    for d in divisors(n):
        term = 1
        for p in _primes(n // d):
            c = sum(q % p == 1 for q in _primes(d))
            term *= (p**c - 1) // (p - 1)
        total += term
    return total


def diagonal_extensions(n: int):
    """Every A x| Z_{n/a} with A = Z_a (a | n, as its p-parts) and a diagonal action."""
    for a in divisors(n):
        ps, m = _primes(a), n // a
        units = [[c for c in range(1, p) if pow(c, m, p) == 1] for p in ps]
        for cs in itertools.product(*units):
            rows = [[c if i == j else 0 for j in range(len(ps))] for i, c in enumerate(cs)]
            yield Semidirect(tuple(ps), m, rows, f"Z{a} x| Z{m} by {cs}")


def class_count(groups) -> int:
    """The number of classes of `isomorphic`, against one representative each."""
    reps = []
    for G in groups:
        if not any(isomorphic(R, G).is_isomorphic for R in reps):
            reps.append(G)
    return len(reps)


def squarefree(bound: int) -> list[int]:
    return [n for n in range(1, bound + 1) if all(e == 1 for _, e in trial_factor(n))]


def test_holder_formula_by_hand():
    # 6: Z6, S3. 30: Z30, D15, Z5 x S3, Z3 x D5. 42: Z42, Z7 x| Z6 with the
    # kernel of order 1, 2 or 3 (three groups), Z7 x S3 and D21.
    assert [holder_count(n) for n in (1, 2, 6, 30, 42)] == [1, 1, 2, 4, 6]


def test_isomorphic_splits_every_squarefree_order_into_holder_many_classes():
    for n in squarefree(BOUND):
        assert class_count(shape() for shape in diagonal_extensions(n)) == holder_count(n), n


def test_relabelled_tables_and_drawn_gens_fall_into_the_same_classes():
    # each group also as a Cayley table with shuffled labels and on drawn gens,
    # so the table backend, the generation check and the cover proof under other
    # generators are counted too
    for n in squarefree(TABLE_BOUND):
        rng = random.Random(n)
        groups = []
        for shape in diagonal_extensions(n):
            G = shape()
            groups += [G, relabel(G, rng), drawn_gens(shape, rng)]
        assert class_count(groups) == holder_count(n), n
