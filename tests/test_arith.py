import itertools
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpext.arith import (
    content_lines,
    crt,
    discrete_log,
    divisors,
    is_prime,
    keyword_ints,
    read_ints,
    smith_normal_form,
    trial_factor,
)
from grpext.errors import MalformedInputError


@pytest.mark.parametrize(
    "text, values",
    [
        ("1 -2 +3", (1, -2, 3)),
        ("  007\t42  ", (7, 42)),
        ("1\u30002", (1, 2)),  # non-ASCII whitespace still separates
        ("", ()),
        ("9" * 4300, (int("9" * 4300),)),
        ("-" + "0" * 4299 + "1", (-1,)),
    ],
)
def test_read_ints_accepts_ascii_integers(text, values):
    assert read_ints(text, "x") == values


@pytest.mark.parametrize(
    "token", ["1_0", "\uff17", "1\uff17", "\u0663", "0x10", "1e3", "1.0", "--1", "+", "x"]
)
def test_read_ints_rejects_every_other_spelling(token):
    # int() accepts the first four
    message = f"^row 3 entry {re.escape(repr(token))} is not an integer$"
    with pytest.raises(MalformedInputError, match=message):
        read_ints(f"1 {token} 2", "row 3")


def test_read_ints_names_the_line_on_a_wrong_count_or_a_long_token():
    with pytest.raises(MalformedInputError, match=r"^m line has 3 entries, expected 1$"):
        read_ints("3 99 junk", "m line", 1)
    with pytest.raises(MalformedInputError, match=r"^row 0 has an entry of more than 4300 digits$"):
        read_ints("1 " + "0" * 4301, "row 0")
    with pytest.raises(MalformedInputError, match=r"^row 0 entry '7{20}' is not an integer$"):
        read_ints("7" * 5000 + "x", "row 0")


def test_content_lines_and_keywords():
    assert content_lines("# c\n\n  A 3 9 \n\t#x\nm\t2\n") == ["A 3 9", "m\t2"]
    assert keyword_ints("m\t2", "m", 1) == (2,)
    assert keyword_ints("A", "A") == ()
    with pytest.raises(MalformedInputError, match=r"^expected `ptype ...`, got 'ptypes 3 1'$"):
        keyword_ints("ptypes 3 1", "ptype")
    with pytest.raises(MalformedInputError, match=r"^expected `A ...`, got 'A3'$"):
        keyword_ints("A3", "A")


@pytest.mark.parametrize(
    "n,expected",
    [(12, [(2, 2), (3, 1)]), (1, []), (21, [(3, 1), (7, 1)]), (2, [(2, 1)]), (97, [(97, 1)])],
)
def test_trial_factor_examples(n, expected):
    assert trial_factor(n) == expected


def test_trial_factor_rejects_zero():
    with pytest.raises(MalformedInputError):
        trial_factor(0)


@given(st.integers(min_value=1, max_value=10**6))
@settings(deadline=None, derandomize=True)
def test_factorization_reconstructs(n):
    factors = trial_factor(n)
    assert math.prod(p**e for p, e in factors) == n
    assert all(is_prime(p) for p, _ in factors)
    primes = [p for p, _ in factors]
    assert primes == sorted(primes)
    assert len(divisors(n)) == math.prod(e + 1 for _, e in factors)


def test_factorization_exhaustive_small():
    for n in range(1, 20001):
        assert math.prod(p**e for p, e in trial_factor(n)) == n


@pytest.mark.parametrize(
    "n,expected",
    [(12, [1, 2, 3, 4, 6, 12]), (1, [1]), (21, [1, 3, 7, 21])],
)
def test_divisors_examples(n, expected):
    assert divisors(n) == expected


def test_crt_against_enumeration():
    moduli = range(1, 13)
    for o1, o2 in itertools.product(moduli, moduli):
        for e1, e2 in itertools.product(range(o1), range(o2)):
            want = [x for x in range(math.lcm(o1, o2)) if x % o1 == e1 and x % o2 == e2]
            got = crt([(e1, o1), (e2, o2)])
            assert (got is None) == (not want)
            if want:
                assert got == (want[0], math.lcm(o1, o2)) and len(want) == 1
    assert crt([]) == (0, 1)
    assert crt([(5, 6), (1, 12)]) is None  # k = 5 mod 6 and k = 1 mod 12 conflict


def test_discrete_log_against_enumeration():
    for p in filter(is_prime, range(100)):
        for g in range(1, p):
            order = next(d for d in range(1, p) if pow(g, d, p) == 1)
            for n in (p - 1, 2 * (p - 1)):
                logs = {}  # h -> every x in [0, n) with g^x = h
                for x in range(n):
                    logs.setdefault(pow(g, x, p), []).append(x)
                for h in range(1, p):
                    got = discrete_log(g, h, p, n)
                    if h not in logs:
                        assert got is None
                        continue
                    e, o = got
                    assert o == order and 0 <= e < o
                    assert logs[h] == list(range(e, n, o))
            for n in range(1, p):
                if n % order:
                    with pytest.raises(MalformedInputError):
                        discrete_log(g, 1, p, n)


def test_discrete_log_uses_given_primes_and_large_orders():
    p = 1_000_000_007  # p - 1 = 2 * 500000003
    assert discrete_log(5, pow(5, 123_456_789, p), p, p - 1, primes=(2, 500_000_003)) == (
        123_456_789,
        p - 1,
    )


def _det(rows):
    """Integer determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * _det([r[:j] + r[j + 1 :] for r in rows[1:]]) for j, x in enumerate(rows[0]) if x
    )


@given(
    st.lists(
        st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_smith_normal_form_properties(rows):
    form = smith_normal_form(rows)
    m, n = len(rows), len(rows[0])
    diag = list(form.diagonal)
    assert len(diag) == min(m, n)
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0 if a else b == 0
    # d_1 * ... * d_k is the gcd of the k x k minors
    for k in range(1, min(m, n) + 1):
        minors = [
            _det([[rows[i][j] for j in cols] for i in rs])
            for rs in itertools.combinations(range(m), k)
            for cols in itertools.combinations(range(n), k)
        ]
        assert math.prod(diag[:k]) == math.gcd(*minors)
    # U^{-1} is unimodular, and U = adj(U^{-1}) / det(U^{-1}) is an integer matrix
    u_inv = [list(r) for r in form.u_inv]
    det = _det(u_inv)
    assert det in (1, -1)
    u = [
        [(-1) ** (i + j) * det * _det([r[:i] + r[i + 1 :] for k, r in enumerate(u_inv) if k != j])
         for j in range(m)]
        for i in range(m)
    ]
    ua = [[sum(u[i][k] * rows[k][j] for k in range(m)) for j in range(n)] for i in range(m)]
    # every column of U * A = S * V^{-1} lies in the column lattice of S
    for j in range(n):
        for i in range(m):
            d = diag[i] if i < len(diag) else 0
            assert ua[i][j] % d == 0 if d else ua[i][j] == 0
