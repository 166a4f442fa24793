import math
import random
import tracemalloc

import pytest

from corpus import (
    build,
    closure,
    corpus_names,
    counting_identity_products,
    cyclic_table_spec,
    mixed_generators,
    naive_order,
    semidirect,
)
from grpext import abelian, blackbox
from grpext.abelian import (
    AbelianBasis,
    DecompositionTable,
    abelian_basis,
    check_commuting,
    element_order,
)
from grpext.blackbox import commutator_generators, cyclic_group, group_pow, load_group
from grpext.decomp import standard_decomposition
from grpext.errors import InvariantBreachError, MalformedInputError, MemoryBudgetError

IDENT3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_element_order_examples():
    Z6 = blackbox.table_group(cyclic_table_spec(6))
    assert element_order(Z6, Z6.identity) == 1
    assert element_order(Z6, Z6.parse_element("1")) == 6
    G21 = build("G21a")
    assert element_order(G21, G21.parse_element("0;1")) == 3
    assert element_order(G21, G21.parse_element("1;0")) == 7


def test_element_order_matches_naive():
    rng = random.Random(2)
    for name in ["Z12_table", "D7", "A4_table", "Z3^2xZ4_W", "Z7xZ6_a"]:
        G = build(name)
        elements = closure(G, G.generators)
        for g in rng.sample(elements, min(12, len(elements))):
            assert element_order(G, g) == naive_order(G, g)


def test_element_order_lagrange():
    for name in ["Z12_table", "S3_table", "D7_table", "A4_table", "Z2^3_table"]:
        G = build(name)
        elements = closure(G, G.generators)
        n = len(elements)
        for g in elements:
            assert n % element_order(G, g) == 0


def test_basis_example_z2_z4_z9():
    G = semidirect((2, 4, 9), 1, IDENT3)
    basis = abelian_basis(G.generators, AbelianBasis(G))
    assert basis.orders == (2, 4, 9)
    assert basis.group_order == 72


def test_basis_example_mixed_threes():
    G = semidirect((2, 4, 3, 3), 1, [[int(i == j) for j in range(4)] for i in range(4)])
    basis = abelian_basis(G.generators, AbelianBasis(G))
    assert basis.orders == (2, 4, 3, 3)


def test_basis_single_prime_order_generator():
    G = build("D7")
    x = G.parse_element("1;0")
    basis = abelian_basis([x], AbelianBasis(G))
    assert basis.orders == (7,)
    assert basis.elements == (x,)


def test_basis_dependent_generators():
    Z9 = cyclic_group(9)
    basis = abelian_basis([Z9.parse_element("1"), Z9.parse_element("2")], AbelianBasis(Z9))
    assert basis.orders == (9,)


def test_basis_needs_rebuild():
    Z8 = cyclic_group(8)
    gens = [Z8.parse_element("4"), Z8.parse_element("2"), Z8.parse_element("1")]
    basis = abelian_basis(gens, AbelianBasis(Z8))
    assert basis.orders == (8,)


def test_basis_order_multiset_invariant():
    G = semidirect((2, 4, 9), 1, IDENT3)
    first = abelian_basis(G.generators, AbelianBasis(G))
    second = abelian_basis(mixed_generators(G).generators, AbelianBasis(G))
    assert first.orders == second.orders


def test_basis_rejects_non_commuting():
    G = build("G21a")
    assert abelian_basis(G.generators, AbelianBasis(G)) is None


def test_check_commuting_returns_the_first_pair_that_does_not_commute():
    G = build("G21a")
    x, y = G.parse_element("1;0"), G.parse_element("0;1")
    assert check_commuting(G, [x, G.identity, x, y, y]) == (0, 3)
    assert check_commuting(G, [x, y, x], known=2) == (1, 2)  # pair (0, 1) is taken as known
    assert check_commuting(G, [x, G.mul(x, x), G.identity, y], known=3) == (0, 3)
    assert check_commuting(G, [x, G.mul(x, x), G.identity]) is None


def test_abelian_order_examples():
    G = semidirect((2, 4, 9), 1, IDENT3)
    assert abelian_basis([G.identity], AbelianBasis(G)).group_order == 1
    assert abelian_basis(G.generators, AbelianBasis(G)).group_order == 72
    G21 = build("G21a")
    assert abelian_basis(commutator_generators(G21), AbelianBasis(G21)).group_order == 7


def test_decompose_identity_and_single_axis():
    G = semidirect((2, 4, 3, 3), 1, [[int(i == j) for j in range(4)] for i in range(4)])
    basis = abelian_basis(G.generators, AbelianBasis(G))
    table = DecompositionTable(G, basis.elements, basis.orders)
    assert table.decompose(G.identity) == (0, 0, 0, 0)
    g2cubed = group_pow(G, basis.elements[1], 3)
    assert table.decompose(g2cubed) == (0, 3, 0, 0)


def test_decompose_against_enumeration():
    G = semidirect((8, 9, 5), 1, IDENT3)
    basis = abelian_basis(G.generators, AbelianBasis(G))
    table = DecompositionTable(G, basis.elements, basis.orders)
    by_code = {}
    for a in range(8):
        for b in range(9):
            for c in range(5):
                by_code[G.parse_element(f"{a},{b},{c};0")] = (a, b, c)
    rng = random.Random(7)
    codes = sorted(by_code)
    for code in rng.sample(codes, 500 if len(codes) >= 500 else len(codes)):
        vec = table.decompose(code)
        rebuilt = G.identity
        for e, exp in zip(basis.elements, vec):
            rebuilt = G.mul(rebuilt, group_pow(G, e, exp))
        assert rebuilt == code


def test_decompose_recomposition_property():
    rng = random.Random(11)
    G = semidirect((3, 9), 2, [[2, 0], [0, 8]])
    x1, x2 = G.parse_element("1,0;0"), G.parse_element("0,1;0")
    basis = abelian_basis([x1, x2], AbelianBasis(G))
    table = DecompositionTable(G, basis.elements, basis.orders)
    for _ in range(100):
        target = G.parse_element(f"{rng.randrange(3)},{rng.randrange(9)};0")
        vec = table.decompose(target)
        rebuilt = G.identity
        for e, exp in zip(basis.elements, vec):
            rebuilt = G.mul(rebuilt, group_pow(G, e, exp))
        assert rebuilt == target


def test_decompose_returns_none_outside_the_span():
    G21 = build("G21a")
    basis = abelian_basis([G21.parse_element("1;0")], AbelianBasis(G21))
    assert DecompositionTable(G21, basis.elements, basis.orders).decompose(G21.parse_element("0;1")) is None


def test_y_only_table_rejects_the_abelian_part():
    checked = 0
    for name in corpus_names():
        G = build(name)
        sd = standard_decomposition(G)
        if sd.gamma == 1:
            continue
        table = DecompositionTable(G, (sd.y,), (sd.gamma,))
        for a in closure(G, sd.a_basis.elements):
            if a != G.identity:
                assert table.decompose(a) is None
                checked += 1
    assert checked > 0


def test_basis_validation():
    G = cyclic_group(12)
    with pytest.raises(MalformedInputError, match="not a prime power"):
        AbelianBasis(G, (1,), (6,))
    with pytest.raises(MalformedInputError, match="not ascending"):
        AbelianBasis(G, (1, 2), (3, 2))


def test_order_count_within_sqrt_envelope_small():
    # fuller scaling sweep lives in the acceptance suite
    for n in (100, 1024, 9973):
        G = cyclic_group(n)
        before = G.operation_count
        assert element_order(G, G.parse_element("1")) == n
        ops = G.operation_count - before
        assert ops <= 2.0 * math.sqrt(n) * (1 + math.log2(n))


def test_memory_budget_env(monkeypatch):
    monkeypatch.setenv("GRPEXT_MEM_MB", "1")
    # 1 MiB still leaves room for thousands of entries; just ensure it is read
    G = cyclic_group(5000)
    assert element_order(G, G.parse_element("1")) == 5000


@pytest.mark.parametrize(
    "value", ["abc", "0", "-1", "1.5", "", " 8", pytest.param("1" * 4301, id="4301-digits")]
)
def test_memory_budget_env_must_be_positive_integer(monkeypatch, value):
    monkeypatch.setenv("GRPEXT_MEM_MB", value)
    G = cyclic_group(50)
    with pytest.raises(MalformedInputError, match="GRPEXT_MEM_MB"):
        element_order(G, G.parse_element("1"))


def test_memory_budget_rejects_oversized_tables(monkeypatch):
    monkeypatch.setenv("GRPEXT_MEM_MB", "1")
    G = cyclic_group(3**17)
    with pytest.raises(MemoryBudgetError):  # table of ~11k codes over the cap
        DecompositionTable(G, (G.parse_element("1"),), (3**17,))


def _peak_bytes(build):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_largest_admitted_table_fits_the_budget(monkeypatch):
    monkeypatch.setenv("GRPEXT_MEM_MB", "1")
    cap = abelian._max_table_entries(abelian.TABLE_ENTRY_BYTES + 8)
    G = cyclic_group(cap * cap)
    g = G.parse_element("1")
    assert _peak_bytes(lambda: DecompositionTable(G, (g,), (cap * cap,))) <= 1 << 20
    with pytest.raises(MemoryBudgetError):
        DecompositionTable(G, (g,), (cap * cap + 1,))


def test_largest_admitted_baby_steps_fit_the_budget(monkeypatch):
    monkeypatch.setenv("GRPEXT_MEM_MB", "1")
    cap = abelian._max_table_entries(abelian.BABY_ENTRY_BYTES)
    radius = 1 << (cap.bit_length() - 1)  # the largest power of two within the cap
    G = cyclic_group(radius * radius)  # the search stops at this radius
    assert _peak_bytes(lambda: element_order(G, G.parse_element("1"))) <= 1 << 20
    H = cyclic_group(radius * radius + 1)  # needs the next doubling
    with pytest.raises(MemoryBudgetError):
        element_order(H, H.parse_element("1"))


def test_largest_admitted_dicts_of_wide_codes_fit_the_budget(monkeypatch):
    monkeypatch.setenv("GRPEXT_MEM_MB", "1")
    cap = abelian._max_table_entries(abelian.TABLE_ENTRY_BYTES + 8)
    r = abelian._max_table_entries(abelian.BABY_ENTRY_BYTES).bit_length() - 1
    k = 2 * max(cap.bit_length(), r) + 1
    # 3^39 > 2^61, and codes stay below 2^90. Not 2^61 - 1: CPython hashes an int
    # modulo 2^61 - 1, so every code (a, 0) would hash alike and each lookup walk the dict.
    G = load_group(f"semidirect\nA {2**k} {3**39}\nm 1\n1 0\n0 1\n")

    # (2^e, 0) has order 2^(k - e); its powers other than the identity have codes above 2^61
    def doubled(e: int):
        return G.parse_element(f"{2**e},0;0")

    g = doubled(1)  # order 2^(k-1) >= cap^2: a table over the exponents below cap^2
    tables = []
    assert _peak_bytes(lambda: tables.append(DecompositionTable(G, (g,), (cap * cap,)))) <= 1 << 20
    assert len(tables[0]._table) == cap and min(c for c in tables[0]._table if c) > 2**61
    with pytest.raises(MemoryBudgetError):
        DecompositionTable(G, (g,), (cap * cap + 1,))
    orders = []  # an order of 2^(2r) stops the search at radius 2^r, the largest within the cap
    assert _peak_bytes(lambda: orders.append(element_order(G, doubled(k - 2 * r)))) <= 1 << 20
    assert orders == [4**r]
    with pytest.raises(MemoryBudgetError):
        element_order(G, doubled(k - 2 * r - 1))


@pytest.mark.parametrize("orders", [(9,), (2, 4, 9), (8, 9, 5), (4, 25, 49)])
def test_table_build_product_count(orders):
    G = semidirect(orders, 1, [[int(i == j) for j in orders] for i in orders])
    elements = [
        G.parse_element(",".join(str(int(i == j)) for j in range(len(orders))) + ";0")
        for i in range(len(orders))
    ]
    radii = [math.isqrt(q - 1) + 1 for q in orders]
    strides = sum(1 + r.bit_length() + bin(r).count("1") - 2 for r in radii)  # inv and powering
    before = G.operation_count
    DecompositionTable(G, elements, orders)
    products = math.prod(radii) - 1 - sum(r >= 2 for r in radii)
    assert G.operation_count - before == products + strides


def test_dependent_elements_collide():
    Z9 = cyclic_group(9)
    with pytest.raises(MalformedInputError, match="collision"):
        DecompositionTable(Z9, (Z9.parse_element("1"), Z9.parse_element("2")), (9, 9))


def test_unchanged_basis_keeps_its_table(monkeypatch):
    built = []

    class Counted(DecompositionTable):
        def __init__(self, G, elements, orders):
            built.append(len(elements))
            super().__init__(G, elements, orders)

    monkeypatch.setattr(abelian, "DecompositionTable", Counted)
    Z9 = cyclic_group(9)
    basis = abelian_basis([Z9.parse_element(c) for c in ("1", "3", "6")], AbelianBasis(Z9))
    assert basis.orders == (9,)
    assert built == [1]  # 1 is the basis as it stands; 3 and 6 lie in its span and share its table


@pytest.mark.parametrize("name", corpus_names())
def test_basis_from_start_equals_basis_from_scratch(name):
    # on the abelian part A of each corpus group: starting from a basis B of a
    # subgroup gives the basis of B.elements + gens built from nothing
    for G in (build(name), mixed_generators(build(name))):
        a = standard_decomposition(G).a_basis.elements
        for k in range(len(a) + 1):
            B = abelian_basis(a[:k], AbelianBasis(G))
            gens = list(a[k:]) + [G.mul(x, y) for x, y in zip(a, a[1:])] + [group_pow(G, x, 2) for x in a]
            first = abelian_basis(gens, B)
            assert first == abelian_basis(B.elements + tuple(gens), AbelianBasis(G))
            for p, table in first.tables.items():  # each kept table is over its part, in G
                assert table.G is G and list(zip(table.elements, table.orders)) == first.parts[p]
            assert abelian_basis(gens, B) == first  # with the tables kept in B


def test_kept_start_builds_its_table_once(monkeypatch):
    built = []

    class Counted(DecompositionTable):
        def __init__(self, G, elements, orders):
            built.append(tuple(elements))
            super().__init__(G, elements, orders)

    monkeypatch.setattr(abelian, "DecompositionTable", Counted)
    G = semidirect((9, 25), 1, [[1, 0], [0, 1]])
    x, y = G.parse_element("1,0;0"), G.parse_element("0,1;0")
    start = abelian_basis([x], AbelianBasis(G))
    assert start.parts == {3: [(x, 9)]} and start.tables == {}
    for _ in range(2):
        basis = abelian_basis([group_pow(G, x, 3), y], start)
        assert (basis.elements, basis.orders) == ((x, y), (9, 25))
        assert basis.tables[3] is start.tables[3]  # x^3 left the 3-part as it was
    assert built.count((x,)) == 1


def test_gens_must_commute_with_the_start():
    G = build("G21a")
    x, y = G.parse_element("1;0"), G.parse_element("0;1")
    start = abelian_basis([x], AbelianBasis(G))
    assert abelian_basis([y], start) is None


@pytest.mark.parametrize("name", corpus_names())
def test_tables_and_basis_rebuilds_take_no_identity_product(name):
    for H in (build(name), mixed_generators(build(name))):
        G, counts = counting_identity_products(H)
        sd = standard_decomposition(G)
        DecompositionTable(G, (sd.y,) + sd.a_basis.elements, (sd.gamma,) + sd.a_basis.orders)
        assert counts["DecompositionTable.__init__"] == 0
        assert counts["_insert_p_element"] == 0
        assert counts["abelian_basis"] == 0
        assert counts["_derived_basis"] == 0  # the closure rounds of the sweep's GroupContext
        assert counts["group_pow"] == 0
        closure(G, G.generators)
        assert counts["closure"] == len(G.generators)  # the counter sees identity products


def test_p_power_outside_every_span_is_an_invariant_breach():
    # a table that contains nothing: x, x^3 and x^9 = 1 are tried, then p^3 > ord(x)
    Z9 = cyclic_group(9)

    class Empty:
        G, elements, orders = Z9, (), ()
        tried = 0

        def decompose(self, code):
            self.tried += 1
            return None

    table = Empty()
    with pytest.raises(InvariantBreachError, match="escaped the p-group"):
        abelian._insert_p_element(table, 3, Z9.parse_element("1"), 9)
    assert table.tried == 3
