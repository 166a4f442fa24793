"""Acceptance suite: one test per release criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -s` to see one PASS line per
criterion. Each test enforces both the exactness condition and its time
budget.
"""

import itertools
import math
import random
import time

import pytest

from corpus import (
    build,
    closure,
    corpus_names,
    cyclic_table_spec,
    expected_isomorphic,
    is_in_N,
    make_matrix,
    mixed_generators,
    naive_gamma,
    naive_isomorphic,
    naive_order,
)
from grpext import autring, blackbox, classes, iso
from grpext.abelian import element_order
from grpext.blackbox import cyclic_group, table_group
from grpext.cli import main as cli_main
from grpext.decomp import standard_decomposition

SQRT_ENVELOPE_CONSTANT = 2.0  # single constant for the whole size sweep


def _report(num: int, name: str, started: float):
    print(f"ACCEPTANCE {num} {name}: PASS ({time.perf_counter() - started:.2f}s)")


def test_criterion_1_class_count_headline(capsys):
    started = time.perf_counter()
    assert cli_main(["count-classes", "--r", "4"]) == 0
    out = capsys.readouterr().out
    assert "count 9" in out
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    with capsys.disabled():
        _report(1, "count-classes --r 4 == 9", started)


def test_criterion_2_class_count_cross_validation():
    started = time.perf_counter()
    assert classes.count_classes(1) == 2
    assert classes.brute_force_class_count(autring.PType(3, (1,)), 4) == 2
    assert classes.count_classes(2) == 4
    assert classes.brute_force_class_count(autring.PType(3, (1, 1)), 4) == 4
    assert time.perf_counter() - started < 300
    _report(2, "count_classes == brute force (r=1,2)", started)


def test_criterion_3_order21_reproduction():
    started = time.perf_counter()
    G = blackbox.load_group("semidirect\nA 7\nm 3\n2\n")
    H = blackbox.load_group("semidirect\nA 7\nm 3\n4\n")
    result = iso.isomorphic(G, H)
    assert result.is_isomorphic and result.witness.k == 2
    # matrix-level fact behind k=1 failing and k=2 succeeding
    ptype = autring.PType(7, (1,))
    two = make_matrix(ptype, [[2]])
    four = make_matrix(ptype, [[4]])
    assert autring.conjugacy(two, four, order_cap=3) is None
    assert autring.star_pow(four, 2) == two
    mu = iso.build_mu(result.witness)
    elements = closure(G, G.generators)
    assert len(elements) == 21
    images = {a: mu(a) for a in elements}
    assert len(set(images.values())) == 21
    checked = 0
    for a in elements:
        for b in elements:
            assert images[G.mul(a, b)] == H.mul(images[a], images[b])
            checked += 1
    assert checked == 441
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(3, "order-21 pair: k=2 witness, 441-pair mu check", started)


def test_criterion_4_oracle_equivalence_on_corpus():
    started = time.perf_counter()
    names = corpus_names()
    assert len(names) >= 30
    gammas = {naive_gamma(build(n)) for n in names}
    assert {1, 2, 3, 4, 6} <= gammas
    handles = {n: build(n) for n in names}
    assert all(len(closure(h, h.generators)) <= 200 for h in handles.values())
    disagreements = []
    verified = 0
    for a, b in itertools.combinations_with_replacement(names, 2):
        G, H = build(a), build(b)
        result = iso.isomorphic(G, H)
        want = naive_isomorphic(handles[a], handles[b])
        if result.is_isomorphic != want:
            disagreements.append((a, b, result.is_isomorphic, want))
        assert expected_isomorphic(a, b) == want
        if result.is_isomorphic:
            # every positive verdict must ship a working witness
            assert iso.verify_isomorphism(result.witness, mode="exhaustive"), (a, b)
            verified += 1
    assert disagreements == []
    elapsed = time.perf_counter() - started
    assert elapsed < 1800
    _report(
        4,
        f"oracle agreement on all pairs of {len(names)} groups"
        f" ({verified} witnesses verified)",
        started,
    )


def test_criterion_5_conjugacy_round_trip():
    started = time.perf_counter()
    rng = random.Random(2024)
    ptypes = [
        autring.PType(3, (1, 2)),      # Z_3 x Z_9
        autring.PType(2, (1, 1, 1)),   # Z_2^3
        autring.PType(5, (1, 1)),      # Z_5^2
        autring.PType(2, (1, 2, 3)),   # Z_2 x Z_4 x Z_8
    ]
    cap = 10**6
    total = 0
    for ptype in ptypes:
        for _ in range(25):
            seed = autring.random_unit(ptype, rng)
            order = autring.matrix_order(seed, cap)
            p_part = 1
            while order % ptype.p == 0:
                order //= ptype.p
                p_part *= ptype.p
            u1 = autring.star_pow(seed, p_part)
            x = autring.random_unit(ptype, rng)
            x_inv = autring.star_pow(x, autring.matrix_order(x, cap) - 1)
            u2 = autring.star_mul(autring.star_mul(x, u1), x_inv)
            found = autring.conjugacy(u1, u2, order_cap=cap)
            assert found is not None
            assert autring.star_mul(found, u1) == autring.star_mul(u2, found)
            total += 1
    assert total >= 100
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    _report(5, f"{total} conjugacy round trips verified by substitution", started)


def test_criterion_6_psi_homomorphism_and_kernel():
    started = time.perf_counter()
    rng = random.Random(99)
    ptypes = [
        autring.PType(3, (1, 2)),
        autring.PType(2, (1, 1, 1)),
        autring.PType(5, (1, 1)),
        autring.PType(2, (1, 2, 3)),
        autring.PType(3, (1, 2, 2)),
    ]
    for ptype in ptypes:
        ident_blocks = autring.psi(autring.identity_matrix(ptype)).blocks
        for _ in range(1000):
            u = autring.random_unit(ptype, rng)
            v = autring.random_unit(ptype, rng)
            left = autring.psi(autring.star_mul(u, v))
            right = tuple(
                autring._gf_mul(a, b, ptype.p)
                for a, b in zip(autring.psi(u).blocks, autring.psi(v).blocks)
            )
            assert left.blocks == right
            assert (autring.psi(u).blocks == ident_blocks) == is_in_N(u)
    # exhaustive kernel equivalence on a small mixed type
    small = autring.PType(2, (1, 2))
    for u in autring.enumerate_R(small):
        assert (autring.psi(u).blocks == autring.psi(autring.identity_matrix(small)).blocks) == (
            is_in_N(u)
        )
    _report(6, "psi homomorphism (1000 pairs x 5 types) and kernel pattern", started)


def _brute_force_automorphism_count(qs):
    def order_of(vec):
        if not any(vec):
            return 1
        return math.lcm(*[q // math.gcd(q, v) for q, v in zip(qs, vec)])

    all_elems = list(itertools.product(*[range(q) for q in qs]))
    pools = [[v for v in all_elems if q % order_of(v) == 0] for q in qs]
    count = 0
    full = math.prod(qs)
    for images in itertools.product(*pools):
        seen = {tuple([0] * len(qs))}
        frontier = [tuple([0] * len(qs))]
        while frontier:
            nxt = []
            for a in frontier:
                for img in images:
                    b = tuple((x + y) % q for x, y, q in zip(a, img, qs))
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt
        if len(seen) == full:
            count += 1
    return count


def test_criterion_7_unit_group_matches_automorphisms():
    started = time.perf_counter()
    cases = [
        ((2, 4), autring.PType(2, (1, 2))),
        ((3, 3), autring.PType(3, (1, 1))),
        ((9,), autring.PType(3, (2,))),
        ((2, 2, 2), autring.PType(2, (1, 1, 1))),
    ]
    for qs, ptype in cases:
        assert len(autring.enumerate_R(ptype)) == _brute_force_automorphism_count(qs)
    _report(7, "unit-ring size equals automorphism count (4 types)", started)


def test_criterion_8_sqrt_scaling():
    started = time.perf_counter()
    counts = {}
    for n in (10**2, 10**3, 10**4, 10**5, 10**6):
        if n <= 10**3:
            G = table_group(cyclic_table_spec(n))
            # the computed-law backend must be operation-for-operation identical
            twin = cyclic_group(n)
            assert element_order(twin, twin.parse_element("1")) == n
            twin_ops = twin.operation_count
        else:
            G = cyclic_group(n)
            twin_ops = None
        before = G.operation_count
        assert element_order(G, G.parse_element("1")) == n
        ops = G.operation_count - before
        if twin_ops is not None:
            assert ops == twin_ops
        counts[n] = ops
        envelope = SQRT_ENVELOPE_CONSTANT * math.sqrt(n) * (1 + math.log2(n))
        assert ops <= envelope, (n, ops, envelope)
    elapsed = time.perf_counter() - started
    assert elapsed < 300
    _report(8, f"sqrt-scaling envelope C={SQRT_ENVELOPE_CONSTANT}, counts={counts}", started)


def test_criterion_9_decomposition_contracts():
    started = time.perf_counter()
    for name in corpus_names():
        G = build(name)
        elements = closure(G, G.generators)
        n = len(elements)
        sd = standard_decomposition(G)
        part = closure(G, list(sd.a_basis.elements))
        part_set = set(part)
        # definition conditions: abelian part of the right coprime size,
        # a cyclic part of order gamma, their product covering the group
        assert len(part) == sd.a_basis.group_order
        assert math.gcd(len(part), sd.gamma) == 1
        assert naive_order(G, sd.y) == sd.gamma
        assert len(part) * sd.gamma == n
        for a in part:
            for b in sd.a_basis.elements:
                assert G.mul(a, b) in part_set
        assert len(closure(G, list(sd.a_basis.elements) + [sd.y])) == n
        for g in G.generators:  # normality by conjugating generators
            gi = G.inv(g)
            for a in sd.a_basis.elements:
                assert G.mul(G.mul(g, a), gi) in part_set
        # gamma minimality against the enumeration oracle
        assert sd.gamma == naive_gamma(G)
        # the abelian part does not depend on the generating set
        alt = mixed_generators(G)
        alt_sd = standard_decomposition(alt)
        assert alt_sd.gamma == sd.gamma
        assert set(closure(alt, list(alt_sd.a_basis.elements))) == part_set
    _report(9, f"decomposition contracts on {len(corpus_names())} groups", started)
