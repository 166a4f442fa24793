import math
import random

import pytest

from corpus import build, semidirect
from grpext import blackbox
from grpext.blackbox import (
    SemidirectGroupSpec,
    TableGroupSpec,
    closure,
    commutator_generators,
    cyclic_group,
    cyclic_table_spec,
    group_pow,
    load_group,
    parse_group_file,
    table_group,
)
from grpext.errors import MalformedInputError

# smallest loop with identity that fails associativity
NONASSOC_5 = (
    (0, 1, 2, 3, 4),
    (1, 0, 3, 4, 2),
    (2, 3, 4, 0, 1),
    (3, 4, 1, 2, 0),
    (4, 2, 0, 1, 3),
)


def test_table_mul_inv_examples():
    Z6 = table_group(cyclic_table_spec(6), name="Z6")
    two, five = Z6.parse_element("2"), Z6.parse_element("5")
    assert Z6.mul(two, five) == Z6.parse_element("1")
    assert Z6.inv(two) == Z6.parse_element("4")
    assert Z6.inv(Z6.identity) == Z6.identity
    g = Z6.parse_element("3")
    assert Z6.mul(Z6.identity, g) == g
    assert Z6.mul(g, Z6.inv(g)) == Z6.identity


def test_table_rejects_bad_input():
    with pytest.raises(MalformedInputError):
        table_group(TableGroupSpec(2, ((0, 1), (1, 1))))  # not a Latin square
    rows = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    rows[0], rows[1] = rows[1], rows[0]  # identity no longer at index 0
    with pytest.raises(MalformedInputError):
        table_group(TableGroupSpec(4, tuple(tuple(r) for r in rows)))
    with pytest.raises(MalformedInputError):
        table_group(TableGroupSpec(5, NONASSOC_5))


def test_unknown_codes_rejected():
    Z6 = table_group(cyclic_table_spec(6))
    with pytest.raises(MalformedInputError):
        Z6.mul(b"9", Z6.identity)
    with pytest.raises(MalformedInputError):
        Z6.inv(b"xx")
    G = build("G21a")
    with pytest.raises(MalformedInputError):
        G.mul(G.identity, b"7;0")


def test_semidirect_product_law_order21():
    G = build("G21a")
    y, x = G.parse_element("0;1"), G.parse_element("1;0")
    assert G.mul(y, x) == G.parse_element("2;1")  # y x = x^2 y
    assert G.inv(G.parse_element("3;0")) == G.parse_element("4;0")
    assert G.inv(G.identity) == G.identity
    assert G.mul(G.mul(y, y), y) == G.identity


def test_semidirect_closure_sizes():
    for qs, m, rows in [
        ((3, 3), 2, [[0, 1], [1, 0]]),
        ((2, 4, 9), 1, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        ((7,), 3, [[2]]),
        ((3, 3, 3, 3), 4, [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]]),
    ]:
        G = semidirect(qs, m, rows)
        assert len(closure(G, G.generators)) == math.prod(qs) * m


def test_oracle_laws_random_sample():
    rng = random.Random(5)
    for name in ["G21a", "Z3^2xZ4_W", "Z12_table", "swap18"]:
        G = build(name)
        atoms = G.generators + [G.inv(g) for g in G.generators]
        elems = [G.identity]
        for _ in range(30):
            w = G.identity
            for _ in range(8):
                w = G.mul(w, rng.choice(atoms))
            elems.append(w)
        for _ in range(100):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))
            assert G.mul(a, G.inv(a)) == G.identity
            assert G.mul(G.identity, a) == a == G.mul(a, G.identity)


def test_operation_counter():
    G = build("G21a")
    base = G.operation_count
    a = G.mul(G.identity, G.identity)
    G.inv(a)
    assert G.operation_count == base + 2


def test_operation_counter_thread_safety():
    from concurrent.futures import ThreadPoolExecutor

    G = build("Z3^2xZ4_W")
    base = G.operation_count

    def spin(_):
        for _ in range(200):
            G.mul(G.identity, G.identity)

    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(spin, range(8)))
    assert G.operation_count == base + 8 * 200


def test_large_table_uses_sampled_associativity():
    # n > 512 switches to sampled triples; a valid table must still load
    spec = cyclic_table_spec(600)
    G = table_group(spec)
    assert len(G.generators) == 1
    bad = [list(r) for r in spec.table]
    bad[350][400], bad[350][401] = bad[350][401], bad[350][400]
    with pytest.raises(MalformedInputError):  # Latin check still exact
        table_group(TableGroupSpec(600, tuple(tuple(r) for r in bad)))


def test_commutator_generators_abelian_trivial():
    G = build("Z2xZ4xZ9")
    assert set(commutator_generators(G)) == {G.identity}


def test_commutator_generators_order21():
    G = build("G21a")
    derived = closure(G, commutator_generators(G))
    assert len(derived) == 7


def test_commutator_generators_fixed_point_free():
    G = semidirect(
        (3, 3, 3, 3), 4, [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]]
    )
    derived = closure(G, commutator_generators(G))
    assert len(derived) == 81


def test_group_pow_matches_naive():
    G = build("D7")
    g = G.generators[0]
    w = G.identity
    for n in range(15):
        assert group_pow(G, g, n) == w
        w = G.mul(w, g)
    assert group_pow(G, g, -1) == G.inv(g)


def test_parse_semidirect_file_round_trip():
    text = "# order-21 group\nsemidirect\nA 7\nm 3\n2\n"
    spec = parse_group_file(text)
    assert isinstance(spec, SemidirectGroupSpec)
    assert spec.qs == (7,) and spec.m == 3
    rendered = blackbox.format_semidirect_file(spec)
    again = parse_group_file(rendered)
    assert again.qs == spec.qs and again.m == spec.m


def test_parse_table_file():
    body = "\n".join(" ".join(str(x) for x in row) for row in cyclic_table_spec(6).table)
    spec = parse_group_file(f"table 6\n{body}\n")
    assert isinstance(spec, TableGroupSpec)
    G = blackbox.build_group(spec)
    assert len(closure(G, G.generators)) == 6


def test_parse_explicit_generators():
    # folded generating set (x1*y and y) still generates the whole group
    text = "semidirect\nA 3 3\nm 2\n0 1\n1 0\ngens 1 0 1\ngens 0 0 1\n"
    G = load_group(text)
    assert len(G.generators) == 2
    assert len(closure(G, G.generators)) == 18


@pytest.mark.parametrize(
    "text,hint",
    [
        ("semidirect\nA 6\nm 5\n1\n", "prime power"),  # 6 is composite
        ("semidirect\nA 4 2\nm 3\n1 0\n0 1\n", "ascending"),  # violates the order
        ("semidirect\nA 3\nm 3\n1\n", "gcd"),  # shared prime
        ("semidirect\nA 3\nm 2\n0\n", "invertible"),  # singular action
        ("semidirect\nA 7\nm 3\n3\n", "order"),  # 3 has order 6 mod 7, not | 3
        ("semidirect\nA 3 3\nm 2\n0 3\n1 0\n", "out-of-range"),  # entry 3 >= 3
        ("semidirect\nA 9 3\nm 2\n8 0\n0 2\n", "ascending"),  # 9 before 3
        ("table 2\n0 1\n1 2\n", "row"),  # entry out of range
        ("", "empty"),
        ("ring 3\n", "unknown"),
    ],
)
def test_parse_rejects_bad_files(text, hint):
    with pytest.raises(MalformedInputError):
        parse_group_file(text)


def test_cyclic_group_matches_table_backend():
    table = table_group(cyclic_table_spec(30))
    computed = cyclic_group(30)
    rng = random.Random(1)
    for _ in range(50):
        i, j = rng.randrange(30), rng.randrange(30)
        a, b = str(i).zfill(2).encode(), str(j).zfill(2).encode()
        assert table.mul(a, b) == computed.mul(a, b)
        assert table.inv(a) == computed.inv(a)


def test_greedy_generators_are_small():
    spec = blackbox.materialize_table(semidirect((2, 2, 2), 1, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    G = table_group(spec)
    assert len(G.generators) <= 3
    assert len(closure(G, G.generators)) == 8
