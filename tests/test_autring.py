import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import format_matrix, is_in_N
from grpext.autring import (
    AutBlocks,
    AutMatrix,
    BlockDiagGF,
    PType,
    _Fpx,
    _gf_inv,
    _gf_mul,
    apply_blocks,
    charpoly,
    blocks_pow,
    conjugacy,
    enumerate_R,
    identity_matrix,
    is_in_R,
    make_matrix,
    matrix_order,
    parse_matrix_file,
    psi,
    random_unit,
    rcf,
    star_mul,
    star_pow,
    validate_M,
)
from grpext import autring
from grpext.errors import Condition3Error, InvariantBreachError, MalformedInputError

MIXED_TYPE = PType(3, (1, 2, 2, 5))


def test_validate_identity_always_accepted():
    for ptype in [PType(2, (1,)), MIXED_TYPE, PType(5, (1, 1, 2))]:
        ident = [[int(i == j) for j in range(ptype.s)] for i in range(ptype.s)]
        assert validate_M(ptype, ident) == identity_matrix(ptype)


def test_validate_divisibility_constraints():
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [3, 0, 0, 1]]
    with pytest.raises(MalformedInputError):  # (4,1) needs divisibility by 3^4
        validate_M(MIXED_TYPE, rows)
    rows = [[1, 0, 0, 0], [3, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert validate_M(MIXED_TYPE, rows) is not None  # (2,1)=3 only needs 3


def test_make_matrix_reduces_then_validates():
    assert make_matrix(PType(3, (1, 2)), [[4, -3], [12, 10]]).rows == ((1, 0), (3, 1))
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [3 + 3**5, 0, 0, 1]]
    with pytest.raises(MalformedInputError, match=r"entry \(4,1\)=3 must be divisible by 81"):
        make_matrix(MIXED_TYPE, rows)
    with pytest.raises(MalformedInputError, match="must be 4x4"):
        make_matrix(MIXED_TYPE, rows[:3])


def test_validate_range():
    with pytest.raises(MalformedInputError):
        validate_M(PType(3, (1,)), [[3]])
    with pytest.raises(MalformedInputError):
        validate_M(PType(3, (1,)), [[-1]])


def test_star_mul_identity_and_associativity():
    rng = random.Random(0)
    for ptype in [PType(3, (1, 2)), PType(2, (1, 2, 3)), MIXED_TYPE]:
        ident = identity_matrix(ptype)
        for _ in range(25):
            u = random_unit(ptype, rng)
            v = random_unit(ptype, rng)
            w = random_unit(ptype, rng)
            assert star_mul(u, ident) == u == star_mul(ident, u)
            assert star_mul(star_mul(u, v), w) == star_mul(u, star_mul(v, w))


def test_star_mul_closure_in_R():
    rng = random.Random(1)
    ptype = PType(3, (1, 2, 2))
    for _ in range(1000):
        u = random_unit(ptype, rng)
        v = random_unit(ptype, rng)
        product = star_mul(u, v)
        # membership constraints are rechecked structurally
        make_matrix(ptype, [list(r) for r in product.rows])
        assert is_in_R(product)


def test_is_in_R_examples():
    ptype = PType(3, (1, 1))
    assert is_in_R(identity_matrix(ptype))
    assert not is_in_R(make_matrix(ptype, [[0, 0], [0, 0]]))
    assert not is_in_R(make_matrix(ptype, [[1, 0], [0, 3]]))  # reduces to singular


def test_is_in_R_agrees_with_the_cofactor_determinant():
    rng = random.Random(14)
    seen = set()
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randrange(1, 5)
        ptype = PType(p, tuple(sorted(rng.randrange(1, 3) for _ in range(n))))
        # entries left unreduced mod p^e, negative ones included
        rows = tuple(tuple(rng.randrange(-60, 200) for _ in range(n)) for _ in range(n))
        det = _cofactor_det([[[x % p] for x in row] for row in rows], p)
        want = any(det)
        assert is_in_R(AutMatrix(ptype, rows)) == want
        seen.add(want)
    assert seen == {False, True}


def test_psi_mixed_type_example():
    rows = [[2, 1, 3, 3], [9, 1, 5, 4], [3, 4, 3, 2], [243, 27, 54, 10]]
    image = psi(make_matrix(MIXED_TYPE, rows))
    assert image == BlockDiagGF(3, (((2,),), ((1, 2), (1, 0)), ((1,),)))


def test_psi_identity():
    image = psi(identity_matrix(MIXED_TYPE))
    assert image.blocks == (((1,),), ((1, 0), (0, 1)), ((1,),))


def test_psi_refuses_a_non_unit():
    with pytest.raises(MalformedInputError, match="psi is defined on units only"):
        psi(make_matrix(PType(3, (1, 1)), [[1, 1], [1, 1]]))


@pytest.mark.parametrize(
    "ptype",
    [PType(3, (1, 2)), PType(2, (1, 1, 1)), PType(5, (1, 1)), PType(2, (1, 2, 3)), MIXED_TYPE],
)
def test_psi_is_a_homomorphism(ptype):
    rng = random.Random(3)
    for _ in range(200):
        u = random_unit(ptype, rng)
        v = random_unit(ptype, rng)
        left = psi(star_mul(u, v))
        right = BlockDiagGF(
            ptype.p,
            tuple(_gf_mul(a, b, ptype.p) for a, b in zip(psi(u).blocks, psi(v).blocks)),
        )
        assert left == right


def test_psi_kernel_is_the_congruence_pattern():
    ptype = PType(3, (1, 2, 2))
    rng = random.Random(4)
    ident_blocks = psi(identity_matrix(ptype)).blocks
    seen_kernel = 0
    for _ in range(400):
        u = random_unit(ptype, rng)
        in_kernel = psi(u).blocks == ident_blocks
        assert in_kernel == is_in_N(u)
        seen_kernel += in_kernel
    # direct construction of kernel members: identity plus p-multiples
    for _ in range(50):
        rows = [[int(i == j) for j in range(ptype.s)] for i in range(ptype.s)]
        for i in range(ptype.s):
            for j in range(ptype.s):
                room = ptype.moduli[i] // ptype.p
                if room:
                    rows[i][j] = (rows[i][j] + ptype.p * rng.randrange(room)) % ptype.moduli[i]
        u = make_matrix(ptype, rows)
        assert is_in_N(u)
        assert psi(u).blocks == ident_blocks


def test_rcf_companion_fixed_point():
    result = rcf([[0, 2], [1, 0]], 3)  # companion of X^2 + 1
    assert result.form == ((0, 2), (1, 0))
    assert result.factors == ((1, 0, 1),)


def test_rcf_scalar_matrix():
    result = rcf([[2, 0], [0, 2]], 3)
    assert result.form == ((2, 0), (0, 2))
    assert result.factors == ((1, 1), (1, 1))  # X - 2 twice


def test_rcf_transform_and_invariance():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.choice([2, 3, 4, 5])
        p = rng.choice([2, 3, 5])
        mat = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        result = rcf(mat, p)
        assert _gf_mul(result.transform, tuple(map(tuple, mat)), p) == _gf_mul(
            result.form, result.transform, p
        )
        for a, b in zip(result.factors, result.factors[1:]):
            assert not _Fpx(b, p) % _Fpx(a, p)  # each invariant factor divides the next
        while True:
            basis = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            if _gf_inv(basis, p) is not None:
                break
        conj = _gf_mul(
            _gf_mul(tuple(map(tuple, basis)), tuple(map(tuple, mat)), p),
            _gf_inv(basis, p),
            p,
        )
        assert rcf(conj, p).factors == result.factors


def _poly_mul(a, b, p):
    """Product over F_p of coefficient lists, low degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _cofactor_det(rows, p):
    """Determinant over F_p[x] by cofactor expansion; entries are coefficient lists."""
    if not rows:
        return [1]
    total = [0]
    for j, entry in enumerate(rows[0]):
        term = _poly_mul(entry, _cofactor_det([r[:j] + r[j + 1 :] for r in rows[1:]], p), p)
        sign = -1 if j % 2 else 1
        total = [(x + sign * y) % p for x, y in itertools.zip_longest(total, term, fillvalue=0)]
    return total


def _char_poly(mat, p):
    """det(xI - mat) over F_p by cofactor expansion."""
    n = len(mat)
    rows = [[[-mat[i][j] % p, 1] if i == j else [-mat[i][j] % p] for j in range(n)] for i in range(n)]
    return _cofactor_det(rows, p)


def test_rcf_factors_multiply_to_the_characteristic_polynomial():
    rng = random.Random(11)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 5)
        mat = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        product = [1]
        for f in rcf(mat, p).factors:
            assert f[-1] == 1
            product = _poly_mul(product, list(f), p)
        assert product == _char_poly(mat, p)


def _random_invertible(n, p, rng):
    while True:
        basis = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if _gf_inv(basis, p) is not None:
            return tuple(map(tuple, basis))


def _block_repeat(p, rng):
    """A conjugate of diag(B, ..., B), r >= 2 copies: it has several invariant factors."""
    b = rng.randrange(1, 4)
    r = rng.randrange(2, 6 // b + 1)
    block = [[rng.randrange(p) for _ in range(b)] for _ in range(b)]
    n = b * r
    diag = tuple(
        tuple(block[i % b][j % b] if i // b == j // b else 0 for j in range(n)) for i in range(n)
    )
    basis = _random_invertible(n, p, rng)
    return _gf_mul(_gf_mul(basis, diag, p), _gf_inv(basis, p), p)


def test_charpoly_is_the_product_of_the_invariant_factors():
    rng = random.Random(13)
    cases = []
    for p in (2, 3, 5, 7, 11):
        for n in range(1, 7):
            cases.append(([[0] * n for _ in range(n)], p))
            cases.append(([[int(i == j) for j in range(n)] for i in range(n)], p))
    for t in range(1050):
        p = rng.choice([2, 3, 5, 7, 11])
        if t % 3 == 0:
            mat = _block_repeat(p, rng)
            assert len(rcf(mat, p).factors) >= 2
        else:
            n = rng.randrange(1, 7)
            mat = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        cases.append((mat, p))
    for mat, p in cases:
        product = [1]
        for f in rcf(mat, p).factors:
            product = _poly_mul(product, list(f), p)
        assert charpoly(mat, p) == tuple(product)
    assert charpoly([[3]], 7) == (4, 1)
    assert charpoly([[0, 0], [0, 0]], 5) == (0, 0, 1)
    assert charpoly([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2) == (1, 1, 1, 1)  # (x + 1)^3 over F_2


@pytest.mark.parametrize("ptype", [PType(5, (1, 1)), PType(2, (1, 1, 1)), PType(3, (1, 2))])
def test_charpolys_and_rcf_agree_on_coprime_order_units(ptype):
    # blocks of order coprime with p are semisimple: charpoly equality is RCF equality
    units = enumerate_R(ptype)
    exponent = math.lcm(*(matrix_order(u, 10**6) for u in units))
    classes = {}
    for u in units:
        if matrix_order(u, multiple=exponent) % ptype.p:
            factors = tuple(rcf(b, ptype.p).factors for b in psi(u).blocks)
            classes.setdefault(psi(u).charpolys(), set()).add(factors)
    assert all(len(f) == 1 for f in classes.values())
    assert len({f for fs in classes.values() for f in fs}) == len(classes)


def test_matrix_order():
    assert matrix_order(identity_matrix(PType(7, (1,))), 10) == 1
    two = make_matrix(PType(7, (1,)), [[2]])
    assert matrix_order(two, 10) == 3  # 2^3 = 1 mod 7
    w = make_matrix(PType(3, (1, 1)), [[0, 2], [1, 0]])
    assert matrix_order(w, 10) == 4
    assert matrix_order(two, 2) is None  # over the cap
    assert matrix_order(two, multiple=6) == 3
    assert matrix_order(two, multiple=4) is None  # 2^4 != 1 mod 7
    for kwargs in ({}, {"cap": 10, "multiple": 6}, {"multiple": 0}, {"cap": 0}):
        with pytest.raises(MalformedInputError):
            matrix_order(two, **kwargs)


@pytest.mark.parametrize(
    "ptype", [PType(3, (2,)), PType(2, (1, 1)), PType(2, (1, 2)), PType(3, (1, 1))]
)
def test_matrix_order_from_a_multiple_matches_the_walk(ptype):
    units = enumerate_R(ptype)
    orders = [matrix_order(u, 10**6) for u in units]
    exponent = math.lcm(*orders)
    divs = [d for d in range(1, 3 * exponent + 1) if (3 * exponent) % d == 0]
    for u, order in zip(units, orders):
        for d in divs:
            assert matrix_order(u, multiple=d) == (order if d % order == 0 else None)
        assert matrix_order(AutBlocks((u,)), multiple=exponent) == order


def test_conjugacy_self_and_1x1():
    ptype = PType(7, (1,))
    two = make_matrix(ptype, [[2]])
    four = make_matrix(ptype, [[4]])
    self_conj = conjugacy(two, two, order_cap=10)
    assert self_conj is not None
    assert star_mul(self_conj, two) == star_mul(two, self_conj)
    assert conjugacy(two, four, order_cap=10) is None  # 1x1 ring is commutative
    assert star_pow(four, 2) == two  # 16 = 2 mod 7
    assert conjugacy(two, star_pow(four, 2), order_cap=10) is not None
    assert conjugacy(two, two, multiple=6) is not None


def test_conjugacy_condition3_enforced():
    ptype = PType(3, (1, 1))
    shear = make_matrix(ptype, [[1, 1], [0, 1]])  # order 3 = p
    with pytest.raises(Condition3Error):
        conjugacy(shear, shear, order_cap=10)
    minus = make_matrix(ptype, [[2, 0], [0, 2]])  # order 2, above a cap of 1
    with pytest.raises(Condition3Error):
        conjugacy(minus, minus, order_cap=1)
    with pytest.raises(Condition3Error, match="does not divide 3"):
        conjugacy(minus, minus, multiple=3)
    with pytest.raises(Condition3Error, match="not coprime"):
        conjugacy(shear, shear, multiple=6)


def _exhaustive_conjugate(units, u1, u2):
    return any(star_mul(x, u1) == star_mul(u2, x) for x in units)


@pytest.mark.parametrize("ptype", [PType(3, (2,)), PType(2, (1, 1)), PType(2, (1, 2))])
def test_conjugacy_complete_small(ptype):
    units = enumerate_R(ptype)
    exponent = 1
    for u in units:
        exponent = math.lcm(exponent, matrix_order(u, 10**6))
    eligible = [u for u in units if matrix_order(u, exponent) % ptype.p]
    for u1 in eligible:
        for u2 in eligible:
            got = conjugacy(u1, u2, order_cap=exponent)
            want = _exhaustive_conjugate(units, u1, u2)
            assert (got is not None) == want
            assert (psi(u1).charpolys() == psi(u2).charpolys()) == want
            if got is not None:
                assert star_mul(got, u1) == star_mul(u2, got)
                assert is_in_R(got)


def test_conjugacy_complete_gl2_3_all_eligible_pairs():
    ptype = PType(3, (1, 1))
    units = enumerate_R(ptype)
    exponent = 1
    for u in units:
        exponent = math.lcm(exponent, matrix_order(u, 10**6))
    eligible = [u for u in units if matrix_order(u, exponent) % ptype.p]
    assert len(eligible) == 32
    for u1 in eligible:
        for u2 in eligible:
            got = conjugacy(u1, u2, order_cap=exponent)
            want = _exhaustive_conjugate(units, u1, u2)
            assert (got is not None) == want
            assert (psi(u1).charpolys() == psi(u2).charpolys()) == want
            if got is not None:
                assert star_mul(got, u1) == star_mul(u2, got)
                assert is_in_R(got)


def _conjugate_pair(ptype, rng):
    """(u1, u2, n): u1 of order n prime to p and u2 = x u1 x^{-1} for a random unit x."""
    seed = random_unit(ptype, rng)
    order = matrix_order(seed, 10**6)
    p_part = 1
    while order % ptype.p == 0:
        order //= ptype.p
        p_part *= ptype.p
    u1 = star_pow(seed, p_part)
    x = random_unit(ptype, rng)
    x_inv = star_pow(x, matrix_order(x, 10**6) - 1)
    return u1, star_mul(star_mul(x, u1), x_inv), order


def test_conjugacy_round_trip_mixed_type():
    rng = random.Random(9)
    ptype = PType(2, (1, 2, 3))
    for _ in range(30):
        u1, u2, _ = _conjugate_pair(ptype, rng)
        found = conjugacy(u1, u2, order_cap=10**6)
        assert found is not None
        assert star_mul(found, u1) == star_mul(u2, found)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from(
        [PType(2, (1, 1, 1, 1)), PType(3, (1, 2)), PType(5, (1, 1)), PType(7, (1, 1, 1)), PType(2, (1, 2, 3))]
    ),
    st.integers(min_value=0, max_value=2**32),
)
def test_conjugacy_finds_a_unit_conjugator_of_random_conjugate_pairs(ptype, seed):
    u1, u2, order = _conjugate_pair(ptype, random.Random(seed))
    found = conjugacy(u1, u2, multiple=order)
    assert found is not None and is_in_R(found)
    assert star_mul(found, u1) == star_mul(u2, found)


def test_conjugacy_repeats_its_answer_in_both_modes():
    # the draws come from a generator seeded inside conjugacy, and n is the lcm of the exact orders
    rng = random.Random(12)
    for ptype in (PType(2, (1, 2, 3)), PType(3, (1, 1)), PType(5, (1, 1)), PType(2, (1, 1, 1, 1))):
        for _ in range(10):
            u1, u2, order = _conjugate_pair(ptype, rng)
            found = conjugacy(u1, u2, multiple=order)
            for mode in ({"multiple": order}, {"multiple": 12 * order}, {"order_cap": order}, {"order_cap": 10**6}):
                assert conjugacy(u1, u2, **mode) == found


def test_conjugacy_raises_past_its_cap_of_draws(monkeypatch):
    u = make_matrix(PType(3, (1, 1)), [[0, 2], [1, 0]])
    draws = []

    def zero(ptype, rng):  # every average is 0; the inputs still pass the precondition
        draws.append(rng)
        return AutMatrix(ptype, ((0, 0), (0, 0)))

    monkeypatch.setattr(autring, "random_endomorphism", zero)
    with pytest.raises(InvariantBreachError, match="no averaged endomorphism was a unit in 200 draws"):
        conjugacy(u, u, order_cap=4)
    assert len(draws) == autring.CONJUGACY_TRIES == 200


@pytest.mark.parametrize(
    "ptype,diagonal",
    [(PType(2, tuple(range(1, 13))), 1), (PType(3, tuple(range(1, 21))), -1)],
    ids=["identity-2", "minus-identity-3"],
)
def test_conjugacy_keeps_invertible_blocks_between_draws(monkeypatch, ptype, diagonal):
    # 12 or 20 psi blocks of size 1: a whole draw is a unit with chance 2^-12 or (2/3)^20,
    # and each block with chance 1/2 or 2/3
    s = ptype.s
    u = make_matrix(ptype, [[diagonal * (i == j) for j in range(s)] for i in range(s)])
    draws = []
    real = autring.random_endomorphism
    monkeypatch.setattr(autring, "random_endomorphism", lambda *a: draws.append(a) or real(*a))
    found = conjugacy(u, u, order_cap=2)
    assert found is not None and is_in_R(found)
    assert star_mul(found, u) == star_mul(u, found)
    assert len(draws) <= 20


@pytest.mark.parametrize(
    "ptype,expected",
    [
        (PType(5, (1,)), 4),  # units mod 5
        (PType(7, (1,)), 6),
        (PType(3, (2,)), 6),  # units mod 9
        (PType(3, (1, 1)), 48),  # (9-1)(9-3)
        (PType(2, (1, 1, 1)), 168),
    ],
)
def test_enumerate_R_counts(ptype, expected):
    assert len(enumerate_R(ptype)) == expected


def test_enumerate_R_guard():
    with pytest.raises(MalformedInputError):
        enumerate_R(PType(2, (13,)))


def test_matrix_to_automorphism_respects_composition():
    # acting on exponent vectors: the map U -> (v -> U v) sends * to composition
    ptype = PType(2, (1, 2))
    moduli = ptype.moduli
    vectors = list(itertools.product(range(2), range(4)))

    def act(u, vec):
        return tuple(
            sum(u.rows[i][j] * vec[j] for j in range(2)) % moduli[i] for i in range(2)
        )

    units = enumerate_R(ptype)
    assert len(units) == 8
    for u in units:
        images = {act(u, v) for v in vectors}
        assert len(images) == len(vectors)  # bijective
    rng = random.Random(10)
    for _ in range(60):
        u, v = rng.choice(units), rng.choice(units)
        w = star_mul(u, v)
        for vec in vectors:
            assert act(w, vec) == act(u, act(v, vec))


@st.composite
def _matrix_files(draw):
    p = draw(st.sampled_from([0, 1, 2, 3, 4, 5, 7]))
    exps = draw(st.lists(st.integers(min_value=-1, max_value=3), max_size=3))
    nrows = draw(st.integers(min_value=0, max_value=4))
    rows = [draw(st.lists(st.integers(min_value=-2, max_value=64), max_size=4)) for _ in range(nrows)]
    lines = [" ".join(["ptype", str(p), *map(str, exps)])] + [" ".join(map(str, r)) for r in rows]
    return "\n".join(lines)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(_matrix_files(), st.text(max_size=24)))
def test_parse_matrix_file_fuzz(text):
    try:
        u = parse_matrix_file(text)
    except MalformedInputError:
        return
    assert parse_matrix_file(format_matrix(u)) == u


def test_blocks_apply_and_pow():
    blocks = AutBlocks(
        (make_matrix(PType(2, (1, 1)), [[0, 1], [1, 1]]), make_matrix(PType(5, (1,)), [[2]]))
    )
    assert apply_blocks(blocks, (1, 0, 3)) == (0, 1, 1)
    assert blocks.moduli == (2, 2, 5)
    assert blocks.rows == ((0, 1, 0), (1, 1, 0), (0, 0, 2))
    for vec in [(1, 0), (1, 0, 3, 0)]:
        with pytest.raises(MalformedInputError):
            apply_blocks(blocks, vec)
    cubed = blocks_pow(blocks, 3)
    assert cubed.blocks[0] == identity_matrix(PType(2, (1, 1)))
    assert cubed.blocks[1] == make_matrix(PType(5, (1,)), [[3]])


def test_matrix_file_round_trip():
    u = make_matrix(MIXED_TYPE, [[2, 1, 0, 0], [0, 1, 5, 4], [3, 4, 3, 2], [0, 27, 54, 10]])
    again = parse_matrix_file(format_matrix(u))
    assert again == u
    with pytest.raises(MalformedInputError):
        parse_matrix_file("ptype 3 1\n3\n")  # out of range
    with pytest.raises(MalformedInputError):
        parse_matrix_file("3 1\n1\n")
