import contextlib
import io
import itertools
import math
import random
import re
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import (
    build,
    closure,
    corpus_entry,
    corpus_names,
    cyclic_table_spec,
    materialize_table,
    quaternion_table,
    semidirect,
)
from grpext import autring, blackbox, cli
from grpext.abelian import element_order
from grpext.arith import prime_power, trial_factor
from grpext.blackbox import (
    SemidirectGroupSpec,
    TableGroupSpec,
    commutator_generators,
    cyclic_group,
    group_pow,
    build_group,
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
    # Z3^2xZ4_W: A = Z3^2 in two 3-bit fields (K = 0b001001, TOP = 0b100100), m = 4;
    # its largest code is (2 << 3 | 2) * 4 + 3 = 75 and every code lies below 2^6 * 4
    wide = (
        3 * 4,  # low field = q_2
        (3 << 3) * 4 + 1,  # high field = q_1
        7 * 4,  # low field with its top bit set: 7 + K = 0b010000 carries into the high field
        (5 << 3) * 4,  # high field with its top bit set
        2**6 * 4,  # the least code >= 2^W * m
    )
    for H, order, last, fields in (
        (table_group(cyclic_table_spec(6)), 6, "5", ()),
        (cyclic_group(6), 6, "5", ()),
        (build("G21a"), 21, "6;2", ()),  # s = 1: the code is a * m + j
        (build("Z3^2xZ4_W"), 76, "2,2;3", wide),  # s = 2: the A-part in bit fields
    ):
        for foreign in (
            True,  # isinstance(True, int) holds
            -1,
            order,  # one above the largest code (|G| for the index codes)
            1.0,
            b"\x01",  # a bytes code
            H.format_element(1),  # the text form of a valid code
            bytearray(b"\x00"),
            *fields,
        ):
            with pytest.raises(MalformedInputError):
                H.mul(H.identity, foreign)
            with pytest.raises(MalformedInputError):
                H.mul(foreign, H.identity)
            with pytest.raises(MalformedInputError):
                H.inv(foreign)
            with pytest.raises(MalformedInputError):
                H.format_element(foreign)
        assert H.format_element(order - 1) == last


_PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 25, 27, 49, 121, 125, 1009]


@st.composite
def _packed_groups(draw):
    qs = sorted(draw(st.lists(st.sampled_from(_PRIME_POWERS), min_size=1, max_size=4)), key=prime_power)
    m = draw(st.integers(1, 3000).filter(lambda m: math.gcd(m, math.prod(qs)) == 1))
    elements = draw(
        st.lists(
            st.tuples(st.tuples(*(st.integers(0, q - 1) for q in qs)), st.integers(0, m - 1)),
            min_size=1,
            max_size=40,
        )
    )
    return qs, m, elements


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_packed_groups())
def test_packed_codes_keep_tuple_order_and_text(case):
    qs, m, elements = case
    s = len(qs)
    identity = [[int(i == j) for j in range(s)] for i in range(s)]
    G = semidirect(qs, m, identity)
    widths = [len(str(q - 1)) for q in qs]
    texts = [
        ",".join(str(x).zfill(w) for x, w in zip(a, widths)) + ";" + str(j).zfill(len(str(m - 1)))
        for a, j in elements
    ]
    codes = [G.parse_element(t) for t in texts]
    assert sorted(range(len(codes)), key=codes.__getitem__) == sorted(
        range(len(codes)), key=elements.__getitem__
    )
    for t, c in zip(texts, codes):
        assert G.format_element(c) == t


_ACTION_PTYPES = [
    (2, (1, 1)), (2, (1, 2)), (3, (1,)), (3, (2,)), (3, (1, 1)),
    (5, (1,)), (7, (1,)), (7, (1, 1)), (11, (1,)),
]


@st.composite
def _unit_actions(draw):
    """(qs, m, rows, pairs): a unit action of order prime to |A| and m a proper multiple of it."""
    one_or_two = st.lists(st.sampled_from(_ACTION_PTYPES), min_size=1, max_size=2, unique_by=lambda t: t[0])
    ptypes = sorted(draw(one_or_two))
    rng = random.Random(draw(st.integers(0, 2**32)))
    primes = [p for p, _ in ptypes]
    blocks, period = [], 1
    for p, exps in ptypes:
        u = autring.random_unit(autring.PType(p, exps), rng)
        n = autring.matrix_order(u, cap=10**5)
        d = math.prod(r**e for r, e in trial_factor(n) if r in primes)
        blocks.append(autring.star_pow(u, d))
        period = math.lcm(period, n // d)
    qs = tuple(q for b in blocks for q in b.moduli)
    m = period * draw(st.integers(2, 30).filter(lambda t: math.gcd(t, math.prod(qs)) == 1))
    rows, start = [], 0
    for b in blocks:
        for row in b.rows:
            rows.append((0,) * start + row + (0,) * (len(qs) - start - len(row)))
        start += len(b.rows)
    element = st.tuples(st.tuples(*(st.integers(0, q - 1) for q in qs)), st.integers(0, m - 1))
    pairs = draw(st.lists(st.tuples(element, element), min_size=1, max_size=8))
    return qs, m, tuple(rows), pairs


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_unit_actions())
# s = 1 with m above blackbox._FACTOR_LIMIT, where the period is taken to be m itself
@example(((7,), 6 * 10**9, ((3,),), [(((3,), 6 * 10**9 - 1), ((5,), 12345)), (((1,), 7), ((6,), 0))]))
def test_both_product_paths_follow_the_definition(case):
    qs, m, rows, pairs = case
    G = semidirect(qs, m, rows)

    def element(a, j):  # the code of (a, j), written out from the module docstring
        word, off = 0, 0
        for q, x in reversed(list(zip(qs, a))):
            word += x << off
            off += (2 * q).bit_length()
        return word * m + j

    for (a, j), (b, k) in pairs:
        moved = autring.mat_vec(autring.mat_pow(rows, j, qs), b, qs)
        product = element([(u + v) % q for u, v, q in zip(a, moved, qs)], (j + k) % m)
        assert G.mul(element(a, j), element(b, k)) == product
        back = autring.mat_vec(autring.mat_pow(rows, -j % m, qs), a, qs)
        assert G.inv(element(a, j)) == element([-v % q for v, q in zip(back, qs)], -j % m)


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


def test_closure_returns_none_past_its_limit():
    G = semidirect((7,), 3, [[2]])
    assert closure(G, G.generators, limit=21) == closure(G, G.generators)
    assert closure(G, G.generators, limit=20) is None
    assert closure(G, [G.parse_element("1;0")], limit=7) == closure(G, [G.parse_element("1;0")])


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


def test_large_table_validation_is_exact():
    spec = cyclic_table_spec(600)
    G = table_group(spec)
    assert len(G.generators) == 1
    bad = [list(r) for r in spec.table]
    bad[350][400], bad[350][401] = bad[350][401], bad[350][400]
    with pytest.raises(MalformedInputError):  # Latin check still exact
        table_group(TableGroupSpec(600, tuple(tuple(r) for r in bad)))


def test_nonassociative_latin_square_z2048_rejected():
    # Swapping the intercalate at rows/cols {1, 1025} of Z_2048 keeps a Latin
    # square with identity 0, but breaks associativity on only a few
    # millionths of the triples, so a sampled check lets it through.
    n = 2048
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    for i in (1, 1025):
        rows[i][1], rows[i][1025] = rows[i][1025], rows[i][1]
    with pytest.raises(MalformedInputError, match=r"associativity fails at \(1,1,"):
        TableGroupSpec(n, tuple(map(tuple, rows)))


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


def test_group_pow_product_count():
    # left-to-right square-and-multiply from g: bit_length + popcount - 2
    G = semidirect((1009,), 1008, [[11]])
    g = G.parse_element("1;1")
    w = G.identity
    for n in list(range(300)) + [1008, 1009 * 1008 - 1, 2**40 + 1]:
        before = G.operation_count
        got = group_pow(G, g, n)
        spent = G.operation_count - before
        assert spent == (n.bit_length() + bin(n).count("1") - 2 if n else 0)
        if n < 300:
            assert got == w
            w = G.mul(w, g)
    before = G.operation_count
    assert group_pow(G, g, -5) == group_pow(G, G.inv(g), 5)
    assert G.operation_count - before == 1 + 3 + 1 + 3


def test_action_powers_keyed_by_j_mod_action_order():
    from grpext.decomp import standard_decomposition

    for text, period in (
        ("semidirect\nA 7\nm 1000000\n6\n", 2),  # 6 = -1 has order 2; s = 1
        ("semidirect\nA 3 3\nm 1000000\n0 2\n1 0\n", 4),  # s = 2
    ):
        G = load_group(text)
        standard_decomposition(G)
        cells = dict(zip(G._inv.__code__.co_freevars, (c.cell_contents for c in G._inv.__closure__)))
        (powers,) = [v for v in cells.values() if isinstance(v, blackbox._Memo)]
        assert cells["period"] == period == parse_group_file(text).action_period
        assert len(powers) <= period
    big = parse_group_file(f"semidirect\nA 7\nm {2**33}\n1\n")
    assert big.action_period == 2**33  # above the factoring limit: m itself


def test_handles_are_bare_oracles():
    # the identity is the code format's 0, no handle carries a decoder, and the
    # generation check of `gens` lines makes its products on a handle of its own
    f8z7 = "semidirect\nA 2 2 2\nm 7\n0 0 1\n1 0 1\n0 1 0\ngens 0 0 0 1\ngens 1 0 0 1\n"
    handles = [table_group(cyclic_table_spec(6)), cyclic_group(6), load_group(f8z7)]
    for G in handles:
        assert G.identity == 0
        assert not hasattr(G, "_decode")
    assert len(handles[2].generators) == 2
    assert handles[2].operation_count == 0


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


@pytest.mark.parametrize(
    "text",
    [
        # folded generating set (x1*y and y) still generates the whole group
        pytest.param("semidirect\nA 3 3\nm 2\n0 1\n1 0\ngens 1 0 1\ngens 0 0 1\n", id="folded"),
        # one kind of generation vector alone spans A: a commutator (both powers are 1),
        # the generator in A (m = 1), a power ((1;1)^3 = (3;0))
        pytest.param("semidirect\nA 7\nm 3\n2\ngens 1 1\ngens 0 1\n", id="commutator-spans"),
        pytest.param("semidirect\nA 2 3\nm 1\n1 0\n0 1\ngens 1 1 0\n", id="a-generator-spans"),
        pytest.param("semidirect\nA 7\nm 3\n1\ngens 1 1\n", id="power-spans"),
        # three pivots (j-parts 18, 8, 7 take gcd(30, ...) to 6, 2, 1), and only the commutator
        # of the second with the third is nonzero: every pivot's commutators are needed
        pytest.param("semidirect\nA 7\nm 30\n3\ngens 0 18\ngens 0 8\ngens 1 7\n", id="pivots-span"),
    ],
)
def test_parse_explicit_generators(text):
    spec = parse_group_file(text)
    G = load_group(text)
    assert len(G.generators) == text.count("gens")
    assert len(closure(G, G.generators)) == math.prod(spec.qs) * spec.m


def test_non_generating_gens_rejected():
    # gens 1 0 reaches only Z_7, so this file must not pose as a group of order 21
    with pytest.raises(MalformedInputError, match="j-parts"):
        load_group("semidirect\nA 7\nm 3\n2\ngens 1 0\n")
    with pytest.raises(MalformedInputError, match="3-part"):
        load_group("semidirect\nA 3 3\nm 2\n0 1\n1 0\ngens 1 1 1\n")


# valid (qs, m, action rows) with |A| * m <= 500
_SMALL_SEMIDIRECT = [
    ((7,), 3, [[2]]),
    ((7,), 6, [[3]]),
    ((7,), 9, [[2]]),
    ((5,), 4, [[2]]),
    ((13,), 4, [[5]]),
    ((11,), 5, [[3]]),
    ((3, 3), 2, [[0, 1], [1, 0]]),
    ((3, 3), 4, [[0, 2], [1, 0]]),
    ((2, 2), 3, [[0, 1], [1, 1]]),
    ((3, 9), 2, [[2, 0], [0, 8]]),
    ((2, 3), 1, [[1, 0], [0, 1]]),
    ((5, 7), 6, [[4, 0], [0, 6]]),
    ((2, 4), 3, [[1, 0], [0, 1]]),
    ((7,), 30, [[3]]),  # j-parts such as 6, 10, 15 make three pivots
]


def _closure_size(qs, m, rows, gens) -> int:
    # breadth-first closure over (a, j) pairs with the action applied j times
    def mul(x, y):
        (a, j), (b, k) = x, y
        for _ in range(j):
            b = tuple(sum(r * v for r, v in zip(row, b)) % q for row, q in zip(rows, qs))
        return tuple((u + v) % q for u, v, q in zip(a, b, qs)), (j + k) % m

    seen = {((0,) * len(qs), 0)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


@st.composite
def _gens_files(draw):
    qs, m, rows = draw(st.sampled_from(_SMALL_SEMIDIRECT))
    gens = draw(
        st.lists(
            st.tuples(st.tuples(*(st.integers(0, q - 1) for q in qs)), st.integers(0, m - 1)),
            min_size=1,
            max_size=3,
        )
    )
    return qs, m, rows, gens


def _gens_text(qs, m, rows, gens) -> str:
    return "\n".join(
        ["semidirect", "A " + " ".join(map(str, qs)), f"m {m}"]
        + [" ".join(map(str, r)) for r in rows]
        + ["gens " + " ".join(map(str, a)) + f" {j}" for a, j in gens]
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_gens_files())
def test_gens_accepted_exactly_when_they_generate(case):
    qs, m, rows, gens = case
    text = _gens_text(qs, m, rows, gens)
    generates = _closure_size(qs, m, rows, gens) == math.prod(qs) * m
    try:
        G = load_group(text)
    except MalformedInputError:
        assert not generates
    else:
        assert generates
        assert len(closure(G, G.generators)) == math.prod(qs) * m


def test_gens_check_memory_is_linear_in_the_lines():
    # one pivot (the first line) and 400 moving lines: about 800 vectors, not one per pair
    text = "semidirect\nA 7\nm 3\n2\n" + "".join(f"gens {i % 7} {1 + i % 2}\n" for i in range(400))
    tracemalloc.start()
    try:
        spec = parse_group_file(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(spec.generators) == 400
    assert peak < 1 << 20


def test_action_powers_are_lazy():
    tracemalloc.start()
    try:
        G = load_group("semidirect\nA 7\nm 1000000\n6\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20
    assert element_order(G, G.parse_element("0;1")) == 1_000_000


def _memos(G):
    return [c.cell_contents for c in G._mul.__closure__ if isinstance(c.cell_contents, blackbox._Memo)]


@pytest.mark.parametrize(
    "name", [n for n in corpus_names() if corpus_entry(n).semidirect and len(corpus_entry(n).semidirect.qs) >= 2]
)
def test_products_past_the_image_cap_follow_the_definition(monkeypatch, name):
    monkeypatch.setattr(blackbox._Memo, "cap", 5)  # where a memo first reads the budget
    monkeypatch.setattr(blackbox, "_max_table_entries", lambda entry_bytes: 5)
    G, group = build(name), corpus_entry(name).semidirect
    qs, m = group.qs, group.m
    moves = [autring.mat_pow(group.rows, j, qs) for j in range(m)]

    def pair(code):  # (a, j) read back from the text form
        *a, j = map(int, re.split("[,;]", G.format_element(code)))
        return a, j

    elements = closure(G, G.generators)
    for x, y in itertools.product(elements, repeat=2):
        (a, j), (b, k) = pair(x), pair(y)
        moved = autring.mat_vec(moves[j], b, qs)
        assert pair(G.mul(x, y)) == ([(u + v) % q for u, v, q in zip(a, moved, qs)], (j + k) % m)
    memos = _memos(G)
    assert len(memos) == 2 and max(map(len, memos)) == 5  # the image memo is full, and held there


def test_largest_admitted_image_memo_fits_the_budget(monkeypatch):
    monkeypatch.setenv("GRPEXT_MEM_MB", "1")
    cap = blackbox._max_table_entries(blackbox.IMAGE_ENTRY_BYTES)
    # word(a) = a_1 << 63 | a_2, so every (i, 0) with 0 < i < 2^14 has a 36-byte code,
    # and each product identity * (i, 0) keeps one image (key and value) of that size
    G = load_group(f"semidirect\nA {2**14} {3**39}\nm 1\n1 0\n0 1\n")
    assert cap < 2**14 - 1 and G.parse_element("1,0;0") == 1 << 63

    def fill():
        for i in range(1, cap + 2):
            G.mul(G.identity, i << 63)

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fill()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20
    assert max(map(len, _memos(G))) == cap


@pytest.mark.parametrize(
    "q,accepted",
    [(1000000000000000003, True), (1000000000000000177, True), (1000000007 * 1000000009, False)],
)
def test_large_a_entry_parse_is_bounded(q, accepted):
    # two 19-digit primes, the second with q - 1 = 2^4 d, so Miller-Rabin squares;
    # and a 19-digit product of two 10-digit primes
    began = time.perf_counter()
    try:
        parse_group_file(f"semidirect\nA {q}\nm 1\n1\n")
    except MalformedInputError as exc:
        assert not accepted and "prime power" in str(exc)
    else:
        assert accepted
    assert time.perf_counter() - began < 1


@pytest.mark.parametrize(
    "text,hint",
    [
        ("semidirect\nA 6\nm 5\n1\n", "prime power"),  # 6 is composite
        ("semidirect\nA 1022117\nm 1\n1\n", "prime power"),  # 1009 * 1013, no factor below the trial bound
        ("semidirect\nA 4 2\nm 3\n1 0\n0 1\n", "ascending"),  # violates the order
        ("semidirect\nA 3\nm 3\n1\n", "gcd"),  # shared prime
        ("semidirect\nA 3\nm 2\n0\n", "invertible"),  # singular action
        ("semidirect\nA 7\nm 3\n3\n", "order"),  # 3 has order 6 mod 7, not | 3
        ("semidirect\nA 3 3\nm 2\n0 3\n1 0\n", "outside"),  # entry 3 >= 3
        ("semidirect\nA 9 3\nm 2\n8 0\n0 2\n", "ascending"),  # 9 before 3
        ("semidirect\nA 2 3\nm 5\n1 1\n0 1\n", "couples"),  # entry between primes 2 and 3
        # two coupling entries: the first in row-major order is named
        ("semidirect\nA 2 3 5\nm 7\n1 1 0\n0 1 0\n1 0 1\n", r"entry \(1,2\) couples distinct primes"),
        ("table 2\n0 1\n1 2\n", "row"),  # entry out of range
        ("table 2\n0 1\n0 1\n", "identity"),  # x*y = y: associative, permutation rows, column 0 is (0, 0)
        ("table 3\n0 2 1\n1 0 2\n2 1 0\n", "identity"),  # column 0 is the identity, row 0 is not
        ("", "empty"),
        ("ring 3\n", "unknown"),
    ],
)
def test_parse_rejects_bad_files(text, hint):
    with pytest.raises(MalformedInputError, match=hint):
        parse_group_file(text)


@pytest.mark.parametrize(
    "token, message",
    [
        ("x", r"^row 137 entry 'x' is not an integer$"),
        ("7" * 500 + "x", r"^row 137 entry '7{20}' is not an integer$"),
        (None, r"^row 137 has 299 entries, expected 300$"),
    ],
)
def test_bad_table_row_error_names_the_row(token, message):
    n = 300
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    if token is None:
        rows[137].pop(40)
    else:
        rows[137][40] = token
    text = f"table {n}\n" + "\n".join(" ".join(map(str, row)) for row in rows) + "\n"
    with pytest.raises(MalformedInputError, match=message) as info:
        parse_group_file(text)
    assert len(str(info.value)) < 120


@pytest.mark.parametrize("entry", ["-1", "3", str(10**30), "2"])
def test_table_entry_out_of_range_or_repeated_names_its_row(entry):
    # row 1 of Z_3 is "1 2 0"; its last entry becomes the given one ("2" repeats)
    with pytest.raises(MalformedInputError, match=r"^row 1 is not a permutation$"):
        parse_group_file(f"table 3\n0 1 2\n1 2 {entry}\n2 0 1\n")


def test_respelled_table_entries_parse_like_their_canonical_labels():
    # each 0 and 1 of Q8's table spelled in turn as 00, -0, +0, 0 and +1, 01, 1
    spec = materialize_table(quaternion_table())
    spellings = {0: itertools.cycle(["00", "-0", "+0", "0"]), 1: itertools.cycle(["+1", "01", "1"])}
    rows = [[next(spellings[x]) if x in spellings else str(x) for x in row] for row in spec.table]
    assert {"00", "-0", "+1", "01"} <= {tok for row in rows for tok in row}
    again = parse_group_file(_table_text(rows))
    assert again.table == spec.table and again.generators == spec.generators


def test_table_entries_share_one_int_per_label():
    # a 605-table read by int() kept 210 797 distinct ints (every entry >= 257)
    n = 605
    text = _table_text(cyclic_table_spec(n).table)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        spec = parse_group_file(text)
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len({id(x) for row in spec.table for x in row}) == n
    rows_bytes = sum(map(sys.getsizeof, spec.table))  # 2.9 MB; one int() per entry retained 8.5 MB
    assert retained < 1.5 * rows_bytes


def test_cyclic_group_matches_table_backend():
    table = table_group(cyclic_table_spec(30))
    computed = cyclic_group(30)
    rng = random.Random(1)
    for _ in range(50):
        i, j = rng.randrange(30), rng.randrange(30)
        assert table.mul(i, j) == computed.mul(i, j)
        assert table.inv(i) == computed.inv(i)
        assert table.format_element(i) == computed.format_element(i) == str(i).zfill(2)


def test_greedy_generators_are_small():
    spec = materialize_table(semidirect((2, 2, 2), 1, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    G = table_group(spec)
    assert len(G.generators) <= 3
    assert len(closure(G, G.generators)) == 8


_SMALL = st.integers(min_value=-2, max_value=64)
_LINES = st.one_of(
    st.tuples(
        st.sampled_from(["table", "semidirect", "A", "m", "gens", "#"]), st.lists(_SMALL, max_size=5)
    ).map(lambda t: " ".join([t[0], *map(str, t[1])])),
    st.lists(_SMALL, max_size=5).map(lambda xs: " ".join(map(str, xs))),
    st.text(max_size=10),
)


@st.composite
def _semidirect_files(draw):
    qs = draw(st.lists(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 25]), min_size=1, max_size=3))
    if draw(st.booleans()):
        qs.sort()
    m = draw(st.integers(min_value=0, max_value=64))
    rows = [
        " ".join(str(draw(st.integers(0, q))) for _ in qs) for q in qs  # q itself is out of range
    ]
    gens = draw(
        st.lists(st.lists(st.integers(0, 64), min_size=len(qs) + 1, max_size=len(qs) + 1), max_size=2)
    )
    return "\n".join(
        ["semidirect", "A " + " ".join(map(str, qs)), f"m {m}", *rows]
        + ["gens " + " ".join(map(str, g)) for g in gens]
    )


@st.composite
def _table_files(draw):
    # Z_n, possibly with one entry pair swapped in a row (not Latin) or with an
    # intercalate swapped (Latin with identity, but not a group)
    n = draw(st.integers(min_value=1, max_value=10))
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["plain", "row", "intercalate"]))
    if kind == "row":
        rows[a][b], rows[a][(b + 1) % n] = rows[a][(b + 1) % n], rows[a][b]
    elif kind == "intercalate" and n % 2 == 0:
        for i in (a, (a + n // 2) % n):
            rows[i][b], rows[i][(b + n // 2) % n] = rows[i][(b + n // 2) % n], rows[i][b]
    return f"table {n}\n" + "\n".join(" ".join(map(str, r)) for r in rows), rows


def _is_group_table(rows) -> bool:
    n = len(rows)
    full = set(range(n))
    return (
        all(set(r) == full for r in rows)
        and all({r[i] for r in rows} == full for i in range(n))
        and all(rows[0][i] == i == rows[i][0] for i in range(n))
        and all(
            rows[rows[a][b]][c] == rows[a][rows[b][c]]
            for a in range(n)
            for b in range(n)
            for c in range(n)
        )
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.lists(_LINES, max_size=8).map("\n".join), _semidirect_files()))
def test_parse_group_file_fuzz(text):
    # a file is either rejected with MalformedInputError or gives a spec that builds
    try:
        spec = parse_group_file(text)
    except MalformedInputError:
        return
    build_group(spec)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_table_files())
def test_parse_table_file_fuzz_accepts_exactly_groups(case):
    text, rows = case
    try:
        parse_group_file(text)
    except MalformedInputError:
        assert not _is_group_table(rows)
    else:
        assert _is_group_table(rows)


def test_latin_rows_with_a_bad_column_fail_associativity():
    # rows are permutations and index 0 is the identity, but column 1 is (1, 0, 0)
    with pytest.raises(MalformedInputError, match="associativity fails at"):
        parse_group_file("table 3\n0 1 2\n1 0 2\n2 0 1\n")


def _table_text(rows) -> str:
    return f"table {len(rows)}\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n"


@pytest.mark.parametrize("n,groups", [(1, 1), (2, 1), (3, 1), (4, 4)])
def test_permutation_rows_with_identity_accepted_exactly_when_a_group(n, groups):
    # every table with identity row and column 0 and permutation rows: (n-1)!^(n-1)
    # of them, 216 at n = 4; validation scans no column, and the naive check does
    choices = [
        [(i, *rest) for rest in itertools.permutations(sorted(set(range(n)) - {i}))]
        for i in range(1, n)
    ]
    accepted = 0
    tables = 0
    for tail in itertools.product(*choices):
        rows = [tuple(range(n)), *tail]
        tables += 1
        try:
            parse_group_file(_table_text(rows))
        except MalformedInputError:
            assert not _is_group_table(rows)
        else:
            assert _is_group_table(rows)
            accepted += 1
    assert tables == math.factorial(n - 1) ** (n - 1)
    assert accepted == groups  # Z_4 labelled 3 ways and V_4 once at n = 4


# a valid matrix file: a unit of the ring of Z_5 x Z_25
_MATRIX_TEXT = "ptype 5 1 2\n2 1\n5 7\n"


@st.composite
def _accepted_files(draw):
    """("group" or "matrix", text) of a file the parsers accept."""
    source = draw(st.sampled_from(["gens", "table", "matrix"]))
    if source == "gens":
        qs, m, rows, gens = draw(_gens_files())
        if _closure_size(qs, m, rows, gens) < math.prod(qs) * m:
            gens = []  # the default generators
        return "group", _gens_text(qs, m, rows, gens)
    if source == "table":
        text, rows = draw(_table_files())
        return "group", text if _is_group_table(rows) else _table_text(cyclic_table_spec(len(rows)).table)
    return "matrix", _MATRIX_TEXT


@st.composite
def _respelled_files(draw):
    """(kind, text, pattern of the error): an accepted file with one integer respelled."""
    kind, text = draw(_accepted_files())
    lines = text.splitlines()
    keyed = [i for i, ln in enumerate(lines) if ln.split()[0] in ("A", "m", "ptype", "gens")]
    how = draw(
        st.sampled_from(
            ["underscore", "fullwidth", "long"]
            + ["extra"] * bool(keyed)
            + ["ptypes"] * (kind == "matrix")
        )
    )
    if how == "ptypes":
        lines[0] = "ptypes" + lines[0][len("ptype") :]
        return kind, "\n".join(lines), r"^expected `ptype \.\.\.`, got 'ptypes "
    if how == "extra":
        i = draw(st.sampled_from(keyed))
        lines[i] += " 0"
        return kind, "\n".join(lines), None
    spots = [(i, k) for i, ln in enumerate(lines) for k, tok in enumerate(ln.split()) if tok.isdigit()]
    i, k = draw(st.sampled_from(spots))
    tokens = lines[i].split()
    tok = tokens[k]
    if how == "long":
        tokens[k] = tok.zfill(4301)
    elif how == "underscore":
        tok = tok.zfill(2)  # room for an inner "_"
        at = draw(st.integers(1, len(tok) - 1))
        tokens[k] = tok[:at] + "_" + tok[at:]  # int() reads it as tok
    else:
        at = draw(st.integers(0, len(tok) - 1))
        tokens[k] = tok[:at] + chr(0xFF10 + int(tok[at])) + tok[at + 1 :]  # full-width digit
    lines[i] = " ".join(tokens)
    if how == "long":
        return kind, "\n".join(lines), "has an entry of more than 4300 digits$"
    return kind, "\n".join(lines), f"entry {re.escape(repr(tokens[k]))} is not an integer$"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_respelled_files())
def test_every_respelled_integer_is_rejected(tmp_path_factory, case):
    kind, text, expected = case
    parse = parse_group_file if kind == "group" else autring.parse_matrix_file
    with pytest.raises(MalformedInputError, match=expected):
        parse(text)
    path = tmp_path_factory.mktemp("respelled") / "input"
    path.write_text(text, encoding="utf-8")
    if kind == "group":
        argv = ["standard-decomposition", str(path)]
    else:
        argv = ["conjugacy", str(path), str(path), "--order-cap", "10"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue().startswith("error ") and err.getvalue().count("\n") == 1


@pytest.mark.parametrize(
    "kind, element, message",
    [
        ("table", "1_0", r"^element entry '1_0' is not an integer$"),
        ("table", "\uff17", r"^element entry '\uff17' is not an integer$"),
        ("table", "1 0", r"^element has 2 entries, expected 1$"),
        ("table", "12", r"^element index 12 out of range$"),
        ("semidirect", "1, 2;1", r"^bad element '1, 2;1'; want a1,\.\.\.,as;j$"),
        ("semidirect", "1,2", r"^bad element '1,2'; want"),
        ("semidirect", "1,2;\uff10", r"^field of element '1,2;\uff10' entry '\uff10' is not"),
        ("semidirect", "1_0,2;1", r"^field of element '1_0,2;1' entry '1_0' is not"),
        ("semidirect", "1,,2;1", r"^field of element '1,,2;1' has 0 entries, expected 1$"),
        ("semidirect", "1,2;1;1", r"^field of element '1,2;1;1' entry '1;1' is not"),
        ("semidirect", "3,0;0", r"^element '3,0;0' out of range$"),
    ],
)
def test_element_texts_are_one_token_of_integer_fields(tmp_path, capsys, kind, element, message):
    # Z_12 as a table, and Z_3^2 x| Z_2 swapping the coordinates
    if kind == "table":
        text = _table_text(cyclic_table_spec(12).table)
    else:
        text = "semidirect\nA 3 3\nm 2\n0 1\n1 0\n"
    G = load_group(text)
    with pytest.raises(MalformedInputError, match=message):
        G.parse_element(element)
    path = tmp_path / "g.grp"
    path.write_text(text)
    assert cli.main(["order", str(path), element]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error ") and err.count("\n") == 1


# generators of table_group on the corpus tables, as before the greedy set was cached
_CORPUS_TABLE_GENERATORS = {
    "Z12_table": [1],
    "Z2^3_table": [1, 2, 4],
    "S3_table": [1, 2],
    "D7_table": [1, 2],
    "A4_table": [1, 3],
}


def test_table_load_finds_generators_once(monkeypatch):
    names = [name for name in corpus_names() if name.endswith("_table")]
    assert sorted(names) == sorted(_CORPUS_TABLE_GENERATORS)
    for name in names:
        assert build(name).generators == _CORPUS_TABLE_GENERATORS[name]
    text = _table_text(materialize_table(build("A4")).table)
    calls = []
    real = blackbox._greedy_generators
    monkeypatch.setattr(blackbox, "_greedy_generators", lambda table: calls.append(1) or real(table))
    G = load_group(text)
    assert len(calls) == 1
    assert len(closure(G, G.generators)) == 12
