"""The census of coprime cyclic extensions A x| Z_m against the naive oracles.

To order 47 the whole census splits into classes by `isomorphic` against one
representative each. Every "yes" is proved by exhaustive verification of its
mu, and every two representatives of one order are refuted by
`naive_isomorphic`, so the partition by `isomorphic` is the partition into
isomorphism classes. gamma is checked against `naive_gamma` on each
representative; a "yes" has already matched the gamma of its group against
that of the representative.

Orders 48 to 64 hold 1 736 groups, 1 285 of order 48, too many to split
whole. A Hypothesis sample draws a shape (order, A's moduli and m) and two
groups of that shape or of that order, each also as a relabelled table and on
drawn generators, and checks the same three things on them, and that
`naive_in_class` holds; there `naive_isomorphic` also confirms every "yes".

Each census witness to order 47, and each "yes" of the sample, is also changed
to k + 1 (and k + 2) and to a psi with one entry moved by 1, and the verdict of
`verify_isomorphism` on the changed witness must equal the all-pairs check of
`naive_is_isomorphism` on its `strip_mu` map.
"""

import dataclasses
import functools
import itertools
import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    census,
    cyclic_table_spec,
    direct_product,
    drawn_generators,
    naive_gamma,
    naive_in_class,
    naive_is_isomorphism,
    naive_isomorphic,
    relabel,
    semidirect,
    strip_mu,
)
from grpext import autring
from grpext.blackbox import TableGroupSpec, table_group
from grpext.decomp import standard_decomposition
from grpext.errors import MalformedInputError
from grpext.iso import isomorphic, verify_isomorphism


@functools.cache
def _census_to_47() -> tuple[dict, list]:
    """(order -> its class representatives, (R, G, witness) for every other group):
    the census to order 47 split by `isomorphic` against one representative each."""
    reps: dict[int, list] = {}
    witnesses = []
    for n, G in census(47):
        for R in reps.setdefault(n, []):
            if (witness := isomorphic(R, G).witness) is not None:
                witnesses.append((R, G, witness))
                break
        else:
            reps[n].append(G)
    return reps, witnesses


def test_census_to_order_47_matches_the_naive_oracles():
    reps, witnesses = _census_to_47()
    for R, G, witness in witnesses:
        assert verify_isomorphism(witness, mode="exhaustive"), G.name
    representatives = [R for same_order in reps.values() for R in same_order]
    for R in representatives:
        assert standard_decomposition(R).gamma == naive_gamma(R), R.name
    pairs = [pair for same_order in reps.values() for pair in itertools.combinations(same_order, 2)]
    for R, S in pairs:
        assert not naive_isomorphic(R, S), (R.name, S.name)
    assert (len(witnesses) + len(representatives), len(representatives), len(pairs)) == (323, 113, 156)


def _moved_psi(witness):
    """The witness with the first psi entry, by block, row and column, that moves by 1
    and leaves a unit moved by 1; None when no entry can."""
    blocks = witness.psi_blocks.blocks
    for b, block in enumerate(blocks):
        for i, j in itertools.product(range(block.ptype.s), repeat=2):
            rows = [list(row) for row in block.rows]
            rows[i][j] = (rows[i][j] + 1) % block.ptype.moduli[i]
            try:
                moved = autring.validate_M(block.ptype, rows)
            except MalformedInputError:
                continue
            if autring.is_in_R(moved):
                return dataclasses.replace(witness, psi_blocks=autring.AutBlocks(blocks[:b] + (moved,) + blocks[b + 1 :]))
    return None


@functools.cache
def _census_verdicts() -> tuple:
    """(witness, naive verdict, psi moved) for each census witness to order 47 with k,
    k + 1 and k + 2 where they are units mod gamma, and with one psi entry moved by 1
    where that leaves a unit: mu stays a bijection, and may still be an isomorphism.
    The verdict is the all-pairs check of naive_is_isomorphism on strip_mu."""
    verdicts = []
    for R, G, witness in _census_to_47()[1]:
        ks = [k for k in (witness.k, witness.k + 1, witness.k + 2) if math.gcd(k, witness.source.gamma) == 1]
        variants = [(dataclasses.replace(witness, k=k), False) for k in ks]
        if (moved := _moved_psi(witness)) is not None:
            variants.append((moved, True))
        verdicts += [(w, naive_is_isomorphism(R, G, strip_mu(w)), m) for w, m in variants]
    return tuple(verdicts)


def test_witness_verdicts_match_the_naive_check_on_the_census():
    # both proofs, on each census witness, k + 1 and k + 2 where they are units mod
    # gamma, and a moved psi entry
    verdicts, unmoved = [], []
    for witness, naive, moved in _census_verdicts():
        for mode in ("exhaustive", "sampled"):
            assert verify_isomorphism(witness, mode=mode) == naive, (witness.source.G.name, witness.target.G.name)
        verdicts.append(naive)
        if not moved:
            unmoved.append(naive)
    assert (len(verdicts), verdicts.count(False)) == (731, 154)
    assert (len(unmoved), unmoved.count(False)) == (534, 70)


@functools.cache
def _census_48_to_64() -> tuple[dict, dict]:
    """(shape -> its groups, order -> its groups) for the census of orders 48 to 64,
    where a census name begins with A's moduli and m."""
    shapes: dict[tuple, list] = {}
    orders: dict[int, list] = {}
    for n, G in census(64):
        if n >= 48:
            shapes.setdefault((n, *G.name.split(":")[:2]), []).append(G)
            orders.setdefault(n, []).append(G)
    return shapes, orders


def _verified_yes(G, H) -> bool:
    result = isomorphic(G, H)
    if result.is_isomorphic:
        assert verify_isomorphism(result.witness, mode="exhaustive"), (G.name, H.name)
        assert naive_isomorphic(G, H), (G.name, H.name)
        # on relabelled tables and drawn generators, (y1,) + the basis of A1 is not G.generators
        witness = result.witness
        variants = [_moved_psi(witness)]
        if math.gcd(witness.k + 1, witness.source.gamma) == 1:
            variants.append(dataclasses.replace(witness, k=witness.k + 1))
        for w in filter(None, variants):
            naive = naive_is_isomorphism(G, H, strip_mu(w))
            assert verify_isomorphism(w, mode="exhaustive") == verify_isomorphism(w) == naive, (G.name, H.name)
    return result.is_isomorphic


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_census_sample_48_to_64_matches_the_naive_oracles(data):
    shapes, orders = _census_48_to_64()
    shape = data.draw(st.sampled_from(sorted(shapes)))
    G = data.draw(st.sampled_from(shapes[shape]))
    others = [K for K in shapes[shape] if K is not G]
    H = data.draw(st.sampled_from(others if others and data.draw(st.booleans()) else orders[shape[0]]))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    views = [relabel(G, rng), drawn_generators(G, rng)]
    gamma = naive_gamma(G)
    assert naive_in_class(G), G.name
    for X in [G] + views:
        assert standard_decomposition(X).gamma == gamma, X.name
    for X in views:
        assert _verified_yes(G, X), X.name
    same = _verified_yes(views[0], relabel(H, rng))
    assert _verified_yes(views[1], drawn_generators(H, rng)) == same, (G.name, H.name)
    assert same or not naive_isomorphic(G, H), (G.name, H.name)


def test_the_k_scan_compares_every_psi_block():
    # no census group to order 64 has a psi-block after the first of size 2 or
    # more with a gamma of two or more units. Here A = Z_3 x Z_5^2 and gamma = 4:
    # the blocks [2] agree at k = 1 and 3, the Z_5^2 blocks 2I and 3I share their
    # determinant, and only k = 3 maps one onto the other
    G = semidirect((3, 5, 5), 4, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    H = semidirect((3, 5, 5), 4, [[2, 0, 0], [0, 3, 0], [0, 0, 3]])
    result = isomorphic(G, H)
    assert result.is_isomorphic and result.witness.k == 3
    assert verify_isomorphism(result.witness, mode="exhaustive")


def test_naive_isomorphic_searches_many_generators_and_equal_order_profiles():
    # Z_2^6 on its six default generators: 63^6 image tuples, too many to try one by one
    z2_6 = semidirect((2,) * 6, 1, [[int(i == j) for j in range(6)] for i in range(6)])
    assert naive_isomorphic(z2_6, relabel(z2_6, random.Random(0)))
    # Z_4 x Z_4 and Z_4 x| Z_4 (y x y^-1 = x^-1) both have 1, 3 and 12 elements
    # of orders 1, 2 and 4, so only the search itself can refute them
    z4 = table_group(cyclic_table_spec(4))
    elements = [(a, j) for j in range(4) for a in range(4)]
    index = {e: i for i, e in enumerate(elements)}
    table = tuple(
        tuple(index[((a + (-1) ** j * b) % 4, (j + k) % 4)] for b, k in elements) for a, j in elements
    )
    twisted = table_group(TableGroupSpec(16, table))
    assert not naive_isomorphic(direct_product(z4, z4), twisted)
    assert not naive_isomorphic(twisted, direct_product(z4, z4))
    assert naive_isomorphic(twisted, relabel(twisted, random.Random(1)))
