import math
import random

import pytest

from corpus import (
    build,
    closure,
    corpus_entry,
    corpus_names,
    cyclic_table_spec,
    direct_product,
    mixed_generators,
    naive_derived_subgroup,
    naive_gamma,
    naive_order,
    naive_power,
    quaternion_table,
    random_generators,
    relabel,
    second_presentations,
    semidirect,
    symmetric_table,
    with_generators,
)
from grpext import abelian, decomp
from grpext.abelian import AbelianBasis, abelian_basis
from grpext.arith import divisors
from grpext.blackbox import commutator_generators, table_group
from grpext.decomp import (
    GroupContext,
    find_decomposition,
    standard_decomposition,
    standard_decomposition_with_attempts,
)
from grpext.errors import InvariantBreachError, NotInClassError

IDENT2 = [[1, 0], [0, 1]]


def a1009():
    # m-bar = 1009 * 1008 has 60 divisors
    return semidirect((1009,), 1008, [[11]], name="A1009")


def test_find_decomposition_abelian_m1():
    G = semidirect((8, 9), 1, IDENT2)
    cand = find_decomposition(1, GroupContext(G)).found
    assert cand.y == G.identity
    assert cand.a_basis.group_order == 72
    assert set(closure(G, cand.a_basis.elements)) == set(closure(G, G.generators))


def test_find_decomposition_order21_m3():
    G = build("G21a")
    cand = find_decomposition(3, GroupContext(G)).found
    assert naive_order(G, cand.y) == 3
    assert cand.a_basis.group_order == 7
    part = closure(G, cand.a_basis.elements)
    assert len(part) == 7
    # conditions: abelian, coprime, and the parts together give the group
    for a in part:
        for b in part:
            assert G.mul(a, b) == G.mul(b, a)
    assert math.gcd(len(part), 3) == 1
    assert len(closure(G, list(cand.a_basis.elements) + [cand.y])) == 21


def test_find_decomposition_order21_failures():
    G = build("G21a")
    assert find_decomposition(7, GroupContext(G)).found is None
    assert find_decomposition(1, GroupContext(G)).found is None
    failed = find_decomposition(4, GroupContext(build("S3_table")))  # S3's generators have orders 2 and 3
    assert (failed.m, failed.found, failed.error) == (4, None, "m does not divide the lcm of the generator orders")


def test_standard_decomposition_abelian():
    G = semidirect((8, 9), 1, IDENT2)
    sd = standard_decomposition(G)
    assert sd.gamma == 1
    assert sd.a_basis.group_order == 72
    assert sd.y == G.identity


def test_standard_decomposition_order21():
    G = build("G21a")
    sd = standard_decomposition(G)
    assert sd.gamma == 3
    assert sd.a_basis.group_order == 7
    assert naive_order(G, sd.y) == 3


def test_standard_decomposition_fixed_point_free_324():
    G = semidirect((3, 3, 3, 3), 4, [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]])
    sd = standard_decomposition(G)
    assert sd.gamma == 4
    assert sd.a_basis.group_order == 81


def test_attempts_surface_proper_subgroup_products():
    # Z2^2 x Z5 with an order-3 action splits at both m=3 and m=15; the sweep
    # must keep gamma = 3 and report both successes.
    G = build("Z20xZ3")
    sd, attempts = standard_decomposition_with_attempts(G)
    assert sd.gamma == 3
    products = {a.m: a.found.group_order for a in attempts if a.error is None}
    assert products[3] == 60 and products[15] == 60


@pytest.mark.parametrize(
    "name",
    ["Z12_table", "swap18", "G21a", "A4", "Z3xZ4", "Z9xZ4", "Z7xZ6_a", "Z20xZ3", "Z5^2xZ2_inv"],
)
def test_gamma_matches_brute_force(name):
    G = build(name)
    sd = standard_decomposition(G)
    assert sd.gamma == corpus_entry(name).gamma
    assert sd.gamma == naive_gamma(G)


@pytest.mark.parametrize("name", ["G21a", "swap18", "A4", "Z3^2xZ4_W", "Z7xZ6_b"])
def test_definition_conditions_hold(name):
    G = build(name)
    sd = standard_decomposition(G)
    elements = closure(G, G.generators)
    part = closure(G, list(sd.a_basis.elements))
    assert len(part) == sd.a_basis.group_order
    assert naive_order(G, sd.y) == sd.gamma
    assert math.gcd(len(part), sd.gamma) == 1
    assert len(part) * sd.gamma == len(elements)
    part_set = set(part)
    for g in G.generators:  # normality via generator conjugation
        gi = G.inv(g)
        for a in sd.a_basis.elements:
            assert G.mul(G.mul(g, a), gi) in part_set
    assert len(closure(G, list(sd.a_basis.elements) + [sd.y])) == len(elements)


@pytest.mark.parametrize("name", ["G21a", "swap18", "Z3^2xZ4_diag", "Z13xZ6"])
def test_abelian_part_unique_across_generating_sets(name):
    G = build(name)
    part_a = closure(G, list(standard_decomposition(G).a_basis.elements))
    H = mixed_generators(G)
    part_b = closure(H, list(standard_decomposition(H).a_basis.elements))
    assert part_a == part_b


@pytest.mark.parametrize("name", ["G21a", "swap18", "A4", "Z9xZ4", "Z7xZ6_a", "Z20xZ3"])
def test_abelian_part_matches_derived_and_powers(name):
    # the abelian part is generated by the derived subgroup and the
    # gamma-th powers of any generating set
    G = build(name)
    sd = standard_decomposition(G)
    part = set(closure(G, list(sd.a_basis.elements)))
    seeds = list(commutator_generators(G))
    seeds += [naive_power(G, g, sd.gamma) for g in G.generators]
    assert set(closure(G, seeds)) == part
    alt = mixed_generators(G)
    seeds = list(commutator_generators(alt))
    seeds += [naive_power(alt, g, sd.gamma) for g in alt.generators]
    assert set(closure(alt, seeds)) == part


def test_success_on_proper_subgroup_is_filtered_by_the_sweep():
    # For Z_2 x Z_2 at m = 2 the finder succeeds but only decomposes the
    # subgroup generated by its output (order 2, not 4); the divisor sweep
    # must discard it in favor of m = 1.
    G = semidirect((2, 2), 1, IDENT2)
    cand = find_decomposition(2, GroupContext(G)).found
    assert cand.a_basis.group_order == 1
    assert naive_order(G, cand.y) == 2
    assert len(closure(G, list(cand.a_basis.elements) + [cand.y])) == 2  # proper subgroup
    sd, attempts = standard_decomposition_with_attempts(G)
    assert sd.gamma == 1
    products = {a.m: a.found.group_order for a in attempts if a.error is None}
    assert products == {1: 4, 2: 2}


def test_not_in_class_error():
    Q8 = quaternion_table()
    with pytest.raises(NotInClassError):
        standard_decomposition(Q8)
    # S4' = A4 is not abelian, so the finder refuses every m before it picks an element
    S4 = symmetric_table(4)
    context = GroupContext(S4)
    assert context.derived is None
    for m in divisors(math.lcm(*context.gen_orders)):
        failed = find_decomposition(m, context)
        assert (failed.found, failed.error) == (None, "derived subgroup is not abelian")
    with pytest.raises(NotInClassError):
        standard_decomposition(S4)


def _finder_alone(G, m):
    attempt = find_decomposition(m, GroupContext(G))
    return (m, attempt.error, attempt.found and attempt.found.group_order), attempt.found


@pytest.mark.parametrize("name", corpus_names() + ["A1009"])
def test_sweep_matches_finder_run_alone(name):
    # the sweep shares one group context across m; each m run on its own
    # builds its own and must give the same outcome, reason and product
    G = a1009() if name == "A1009" else build(name)
    sd, attempts = standard_decomposition_with_attempts(G)
    ms = divisors(math.lcm(*(naive_order(G, g) for g in G.generators)))
    alone = {m: _finder_alone(G, m) for m in ms}
    assert [(a.m, a.error, a.found and a.found.group_order) for a in attempts] == [alone[m][0] for m in ms]
    chosen = alone[sd.gamma][1]
    assert (chosen.a_basis, chosen.y) == (sd.a_basis, sd.y)


@pytest.mark.parametrize("name", corpus_names())
def test_finder_basis_equals_the_basis_from_scratch(name):
    # every A_m starts from the kept p-bases of G' and inserts only the g_j^m;
    # inserting the derived basis into an empty basis gives that basis back,
    # so the result is the basis built from nothing over G' and the g_j^m
    for G in (build(name), mixed_generators(build(name))):
        context = GroupContext(G)
        succeeded = 0
        for m in divisors(math.lcm(*context.gen_orders)):
            found = find_decomposition(m, context).found
            if found is None:
                continue
            succeeded += 1
            derived = context.derived
            h_orders = [n // math.gcd(n, m) for n in context.gen_orders]
            scratch = abelian_basis(
                derived.elements + context.gen_powers(m),
                AbelianBasis(G),
                derived.orders + tuple(h_orders),
            )
            assert found.a_basis.elements == scratch.elements
            assert found.a_basis.orders == scratch.orders
        assert succeeded


ARITHMETIC_REASONS = {
    "m does not divide the lcm of the generator orders",
    "derived subgroup order shares a factor with m",
    "generator power order shares a factor with m",
}


@pytest.mark.parametrize("name", corpus_names())
def test_attempts_decided_by_arithmetic_make_no_oracle_call(name):
    seen = set()
    for G in (build(name), mixed_generators(build(name))):
        context = GroupContext(G)
        for m in range(-1, 2 * context.m_bar + 2):
            before = G.operation_count
            reason = find_decomposition(m, context).error
            if reason in ARITHMETIC_REASONS:
                assert G.operation_count == before, (m, reason)
                seen.add(reason)
    assert "m does not divide the lcm of the generator orders" in seen
    if corpus_entry(name).gamma > 1:
        assert "derived subgroup order shares a factor with m" in seen


@pytest.mark.parametrize("name", [n for n in corpus_names() if corpus_entry(n).order <= 64])
def test_finder_succeeds_exactly_on_the_naive_conditions(name):
    # ok at m exactly when m is a unitary divisor of m-bar prime to |G'| and
    # <G', g_j^m> is abelian; then ord(y) = m
    for G in (build(name), mixed_generators(build(name))):
        elements = closure(G, G.generators)
        derived = naive_derived_subgroup(G, elements)
        m_bar = math.lcm(*(naive_order(G, g) for g in G.generators))
        _, attempts = standard_decomposition_with_attempts(G)
        assert [a.m for a in attempts] == divisors(m_bar)
        for a in attempts:
            m = a.m
            part = closure(G, sorted(set(derived) | {naive_power(G, g, m) for g in G.generators}))
            abelian_part = all(G.mul(x, y) == G.mul(y, x) for x in part for y in part)
            expected = math.gcd(m, m_bar // m) == 1 and math.gcd(m, len(derived)) == 1 and abelian_part
            assert (a.found is not None) == expected, (G.name, m, a.error)
            if a.found is not None:
                assert naive_order(G, a.found.y) == m


def z1155xz2():
    # G' = Z_15 with two p-bases; m = 14 and m = 154 both insert g^4, of order 5, into the 5-basis
    return semidirect((3, 5, 7, 11), 2, [[2, 0, 0, 0], [0, 4, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], name="Z1155xZ2")


@pytest.mark.parametrize(
    "name",
    ["A1009", "Z15xZ2_inv", "Z1155xZ2", "swap18", "A4_table"]
    + [n + "/mixed" for n in ("Z15xZ2_inv", "Z21xZ2_inv", "swap18", "A4_table")],
)
def test_sweep_builds_no_table_twice(monkeypatch, name):
    base, _, mixed = name.partition("/")
    G = {"A1009": a1009, "Z1155xZ2": z1155xz2}.get(base, lambda: build(base))()
    if mixed:
        G = mixed_generators(G)
    built = []
    real = abelian.DecompositionTable.__init__

    def counted(self, H, elements, orders):
        built.append((id(H), tuple(elements), tuple(orders)))
        real(self, H, elements, orders)

    monkeypatch.setattr(abelian.DecompositionTable, "__init__", counted)
    _, attempts = standard_decomposition_with_attempts(G)
    assert built and len(set(built)) == len(built)
    if G.name == "Z1155xZ2":
        assert [a.m for a in attempts if a.found] == [2, 14, 22, 154]


def two_prime_actions():
    # G' = Z_5 x Z_7; the second generator acts by orders 2 and 3 on its two primes,
    # the third by 1 and 3, so only m = 6 makes every g_j^m centralize G'
    gens = [((0, 4), 0), ((2, 4), 5), ((2, 6), 4)]
    return semidirect((5, 7), 6, [[4, 0], [0, 2]], gens=gens, name="A5,7")


def test_action_order_is_the_lcm_over_every_generator_and_prime():
    G = two_prime_actions()
    assert GroupContext(G).action_order == 6
    sd, attempts = standard_decomposition_with_attempts(G)
    assert (sd.gamma, sd.a_basis.orders) == (6, (5, 7))
    assert [(a.m, a.error) for a in attempts if a.m in (1, 2, 3)] == [
        (m, "candidate abelian part does not commute") for m in (1, 2, 3)
    ]


def test_action_order_is_the_order_of_the_matrix_and_divides_n():
    swap = [(0, 1), (1, 0)]  # columns of the swap of Z_3^2
    assert decomp._action_order(swap, [3, 3], 4, (2,)) == 2
    assert decomp._action_order([(2,)], [7], 6, (2, 3)) == 3
    assert decomp._action_order([(1,)], [7], 6, (2, 3)) == 1
    with pytest.raises(InvariantBreachError, match="does not divide 2"):
        decomp._action_order([(2,)], [7], 2, (2,))  # 2 has order 3 modulo 7


def _views(name):
    G, rng = build(name), random.Random(name)
    return [mixed_generators(G), random_generators(name, rng), relabel(G, rng)]


@pytest.mark.parametrize("name", corpus_names() + ["A5,7", "Z1155xZ2"])
def test_action_order_divides_m_exactly_when_every_power_centralizes_g_prime(name):
    # on folded, drawn and relabelled generators, for every m that passes the arithmetic
    # checks before it: m % action_order == 0 exactly when each g_j^m commutes, by the
    # oracle, with each element of G''s basis
    extra = {"A5,7": two_prime_actions, "Z1155xZ2": z1155xz2}
    views = [extra[name](), mixed_generators(extra[name]())] if name in extra else _views(name)
    outcomes = set()
    for G in views:
        context = GroupContext(G)
        basis = context.derived.elements
        for m in divisors(context.m_bar):
            if any(m % p == 0 for p in context.derived.parts) or math.gcd(m, context.m_bar // m) != 1:
                continue
            powers = [naive_power(G, g, m) for g in G.generators]
            centralizes = all(G.mul(h, x) == G.mul(x, h) for h in powers for x in basis)
            assert (m % context.action_order == 0) == centralizes, (G.name, m)
            outcomes.add(centralizes)
    assert True in outcomes
    if name in extra or corpus_entry(name).gamma > 1:
        assert False in outcomes


def test_group_context_built_once_per_sweep(monkeypatch):
    calls = []
    real = decomp.commutator_generators
    monkeypatch.setattr(decomp, "commutator_generators", lambda G: calls.append(G) or real(G))
    G = a1009()
    before = G.operation_count
    standard_decomposition_with_attempts(G)
    assert calls == [G]
    assert G.operation_count - before == 288  # group_pow makes no product with the identity


@pytest.mark.parametrize("name", [n for n in corpus_names() if corpus_entry(n).order <= 1024])
def test_derived_basis_spans_the_naive_derived_subgroup(name):
    G = build(name)
    naive = naive_derived_subgroup(G, closure(G, G.generators))
    for H in (G, mixed_generators(G)):
        assert closure(H, GroupContext(H).derived.elements) == naive


@pytest.mark.parametrize("name", sorted(second_presentations()))
def test_derived_basis_is_the_normal_closure_of_the_commutators(name):
    G, _ = second_presentations()[name]
    naive = naive_derived_subgroup(G, closure(G, G.generators))
    assert len(closure(G, commutator_generators(G))) < len(naive)  # needs conjugates
    assert closure(G, GroupContext(G).derived.elements) == naive
    if name == "F8xZ7":
        assert len(naive) == 8


def cover_proofs(monkeypatch, G):
    """The answer of the sweep over G, and (tables built, oracle calls) of each cover proof."""
    built, proofs = [], []
    real_init, real_covers = abelian.DecompositionTable.__init__, decomp._covers

    def counted(self, H, elements, orders):
        built.append(tuple(orders))
        real_init(self, H, elements, orders)

    def covers(sd, context):
        tables, before = len(built), G.operation_count
        passed = real_covers(sd, context)
        proofs.append((len(built) - tables, G.operation_count - before))
        return passed

    monkeypatch.setattr(abelian.DecompositionTable, "__init__", counted)
    monkeypatch.setattr(decomp, "_covers", covers)
    sd = standard_decomposition(G)
    return (sd.gamma, sd.a_basis.orders), proofs


def test_cover_proof_of_a_redundant_power_of_y_builds_no_table(monkeypatch):
    # t^5 is a redundant generator with w = t^5 in <y>: Pohlig-Hellman finds its digits
    # over gamma = 2^2 * 3^3 * 139 with no table, within one megabyte
    monkeypatch.setenv("GRPEXT_MEM_MB", "1")
    G = semidirect((15013,), 15012, [[2]], gens=[((1,), 0), ((0,), 1), ((0,), 5)])
    assert cover_proofs(monkeypatch, G) == ((15012, (15013,)), [(0, 1028)])


def test_cover_proof_of_generators_a_t_and_t_builds_no_table(monkeypatch):
    # w = (a t)^15013 lies in <y>A but not in <y>: a table over (y,) + the basis of A
    # would hold about sqrt(15012 * 15013) entries, more than one megabyte holds
    monkeypatch.setenv("GRPEXT_MEM_MB", "1")
    G = semidirect((15013,), 15012, [[2]], gens=[((1,), 1), ((0,), 1)])
    assert cover_proofs(monkeypatch, G) == ((15012, (15013,)), [(0, 453)])


def test_cover_proof_searches_every_digit_of_w(monkeypatch):
    # Z_8 x S_3 on (1, e), (2, s), (0, r): gamma = 8 with A = <r>, and w = (2, s) has
    # order 4 = 2^2 of 2^3 || gamma; digit 0 is not searched, digit 1 passes as
    # w^2 = y^4, and digit 2 fails, as s lies outside <y>A
    G = with_generators(direct_product(table_group(cyclic_table_spec(8)), symmetric_table(3)), [6, 13, 3])
    proved, real = [], decomp._covers
    monkeypatch.setattr(decomp, "_covers", lambda sd, context: proved.append(sd) or real(sd, context))
    with pytest.raises(NotInClassError, match="no decomposition covers"):
        standard_decomposition(G)
    assert [(sd.gamma, sd.a_basis.orders) for sd in proved] == [(8, (3,))]
