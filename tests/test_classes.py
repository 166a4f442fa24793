import importlib.util
import itertools
import sys
from pathlib import Path

import pytest

from grpext import autring, blackbox, iso
from grpext.classes import (
    ClassTriple,
    brute_force_class_count,
    class_representatives,
    class_triples,
    count_classes,
    representative_group_specs,
)


@pytest.mark.parametrize("r,expected", [(1, 2), (2, 4), (3, 6), (4, 9), (5, 12)])
def test_count_classes(r, expected):
    assert count_classes(r) == expected


def test_triples_satisfy_the_constraint():
    for r in range(1, 9):
        triples = class_triples(r)
        assert len(set(triples)) == len(triples)
        for t in triples:
            assert t.k1 >= 0 and t.k2 >= 0 and t.k3 >= 0
            assert t.k1 + t.k2 + 2 * t.k3 == r


def test_triples_enumeration_order_is_stable():
    assert class_triples(4) == [
        ClassTriple(0, 0, 2),
        ClassTriple(2, 0, 1),
        ClassTriple(1, 1, 1),
        ClassTriple(0, 2, 1),
        ClassTriple(4, 0, 0),
        ClassTriple(3, 1, 0),
        ClassTriple(2, 2, 0),
        ClassTriple(1, 3, 0),
        ClassTriple(0, 4, 0),
    ]


def test_representatives_r1():
    reps = class_representatives(1, 1)
    assert [b.blocks[0].rows for b in reps] == [((2,),), ((1,),)]


def test_representative_w_block():
    reps = class_representatives(2, 1)
    w_rep = reps[0]  # triple (0, 0, 1) comes first
    assert w_rep.blocks[0].rows == ((0, 2), (1, 0))


@pytest.mark.parametrize("r,i", [(1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2), (1, 3)])
def test_representatives_have_order_dividing_four(r, i):
    for rep in class_representatives(r, i):
        block = rep.blocks[0]
        assert autring.star_pow(block, 4) == autring.identity_matrix(block.ptype)
        assert autring.is_in_R(block)


def test_lift_correction_keeps_residue_action():
    # at i = 2 the X+1 root 2 has order 6 mod 9; its lift 8 has order 2 and
    # keeps the action mod 3
    reps1 = class_representatives(1, 1)
    reps2 = class_representatives(1, 2)
    for a, b in zip(reps1, reps2):
        assert [r % 3 for row in b.blocks[0].rows for r in row] == [
            r for row in a.blocks[0].rows for r in row
        ]


def test_companion_powers_stay_in_class():
    # cubes of the three companion blocks are conjugate to themselves
    u = autring.make_matrix(autring.PType(3, (1,)), [[2]])
    v = autring.make_matrix(autring.PType(3, (1,)), [[1]])
    w = autring.make_matrix(autring.PType(3, (1, 1)), [[0, 2], [1, 0]])
    for mat in (u, v, w):
        cube = autring.star_pow(mat, 3)
        found = autring.conjugacy(mat, cube, multiple=4)
        assert found is not None and autring.is_in_R(found)
        assert autring.star_mul(found, mat) == autring.star_mul(cube, found)


def test_brute_force_matches_formula():
    assert brute_force_class_count(autring.PType(3, (1,)), 4) == count_classes(1) == 2
    assert brute_force_class_count(autring.PType(3, (1, 1)), 4) == count_classes(2) == 4


def test_brute_force_matches_formula_r3():
    assert brute_force_class_count(autring.PType(3, (1, 1, 1)), 4) == count_classes(3) == 6


def test_brute_force_z7_m3():
    # the two order-21 actions (2) and (4) land in a single class
    assert brute_force_class_count(autring.PType(7, (1,)), 3) == 2


def test_representative_group_specs_load():
    spec = representative_group_specs(2, 2)[0]
    G = blackbox.semidirect_group(spec)
    assert len(blackbox.closure(G, G.generators)) == 324


@pytest.mark.parametrize("r", [1, 2])
def test_distinct_representatives_give_nonisomorphic_groups(r):
    groups = [blackbox.semidirect_group(spec) for spec in representative_group_specs(r, 1)]
    for a, b in itertools.combinations(range(len(groups)), 2):
        assert not iso.isomorphic(groups[a], groups[b]).is_isomorphic


@pytest.mark.slow
def test_distinct_representatives_nonisomorphic_r3():
    groups = [blackbox.semidirect_group(spec) for spec in representative_group_specs(3, 1)]
    for a, b in itertools.combinations(range(len(groups)), 2):
        assert not iso.isomorphic(groups[a], groups[b]).is_isomorphic


LADDER_PATH = Path(__file__).resolve().parent.parent / "bench" / "ladder.py"


def test_benchmark_ladder_lifts_the_same_representatives():
    # bench/ladder.py builds its class representatives with its own arithmetic;
    # it is loaded by path and read only
    spec = importlib.util.spec_from_file_location("bench_ladder", LADDER_PATH)
    ladder = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = ladder  # its dataclasses resolve their module by name
    try:
        spec.loader.exec_module(ladder)
        for r in range(1, 5):
            for i in range(1, 4):
                reps = class_representatives(r, i)
                for idx, rep in enumerate(reps):
                    assert ladder.class_rep(r, i, idx).rows == rep.rows, (r, i, idx)
    finally:
        del sys.modules[spec.name]
