"""Black-box finite groups: opaque element codes plus product/inverse oracles.

A group handle exposes a generator list and two oracles (product and
inverse) that each count as one operation. Algorithms elsewhere
in the package only ever touch groups through this surface; the concrete
backends (multiplication table, cyclic, semidirect product) live here.

An element code is an int and the identity is 0 (GroupHandle.identity, a
class constant, for every backend). Table and cyclic codes are
the element's index in [0, |G|). A semidirect code is word(a)*m + j with
word(a) = sum a_i 2^off_i, a_i in a big-endian bit field of width bits(2 q_i)
(off_s = 0; for s = 1, word(a) = a), so codes sort like the (a, j) tuples; the
product is (a, j)(b, k) = (a + M^j b, j + k mod m). Every oracle rejects any
other value, bools included, with MalformedInputError. The text form of an
element exists only at the edges: `parse_element` reads it and
`format_element` writes it; parse_group_file states the grammar of both file
formats and of element texts. The semidirect backend's action matrix is an
autring.AutBlocks; its arithmetic and its split into prime blocks live in autring.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

from . import autring
from .arith import _max_table_entries, content_lines, keyword_ints, read_ints
from .errors import MalformedInputError

ElementCode = int


class GroupHandle:
    """Oracle view of a finite group: its generators, product and inverse.

    mul and inv each increment the operation counter by exactly one. The
    counter is an itertools.count, whose next() is atomic under the GIL, so
    concurrent callers need no lock.
    """

    identity: ElementCode = 0  # the code format fixes it

    def __init__(
        self,
        generators: Sequence[ElementCode],
        mul: Callable[[ElementCode, ElementCode], ElementCode],
        inv: Callable[[ElementCode], ElementCode],
        parse_element: Callable[[str], ElementCode],
        format_element: Callable[[ElementCode], str],
        name: str = "group",
    ):
        self.generators = list(generators)
        self.name = name
        self._mul = mul
        self._inv = inv
        self._ticks = itertools.count()
        self.parse_element = parse_element
        self.format_element = format_element

    def mul(self, a: ElementCode, b: ElementCode) -> ElementCode:
        next(self._ticks)
        return self._mul(a, b)

    def inv(self, a: ElementCode) -> ElementCode:
        next(self._ticks)
        return self._inv(a)

    @property
    def operation_count(self) -> int:
        return int(repr(self._ticks)[6:-1])  # "count(n)": the next value, unconsumed


def group_pow(G: GroupHandle, g: ElementCode, n: int) -> ElementCode:
    """g^n through the oracles; n may be negative (one inv more).

    Left-to-right square-and-multiply from g itself, with no identity operand:
    for n >= 1 and g not the identity it makes n.bit_length() + popcount(n) - 2
    products when ord(g) > n, at most that many otherwise, and none for n in
    {0, 1}. Every power of the identity costs no oracle call.
    """
    if n == 0 or g == G.identity:
        return G.identity
    if n < 0:
        return group_pow(G, G.inv(g), -n)
    result = g
    for bit in bin(n)[3:]:
        if result != G.identity:
            result = G.mul(result, result)
        if bit == "1":
            result = g if result == G.identity else G.mul(result, g)
    return result


def word(G: GroupHandle, elements: Sequence[ElementCode], exps: Sequence[int]) -> ElementCode:
    """prod_i elements[i]^exps[i] in G, in order: no product for a zero exponent or by the identity."""
    result = G.identity
    for g, e in zip(elements, exps):
        if (part := group_pow(G, g, e)) != G.identity:
            result = part if result == G.identity else G.mul(result, part)
    return result


def commutator_generators(G: GroupHandle) -> list[ElementCode]:
    """The commutators [g_i, g_j] = g_i g_j g_i^{-1} g_j^{-1} of the generators, i < j.

    The derived subgroup G' is the normal closure of this set, which can be
    larger than the subgroup the set generates; decomp.GroupContext builds
    the closure. Duplicates are removed and the list is sorted for
    determinism.
    """
    gens = G.generators
    invs = [G.inv(g) for g in gens]
    out = set()
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            out.add(G.mul(G.mul(gens[i], gens[j]), G.mul(invs[i], invs[j])))
    return sorted(out)


# --- Multiplication-table backend -------------------------------------------


@dataclass(frozen=True)
class TableGroupSpec:
    """n x n Cayley table over indices 0..n-1 with index 0 the identity.

    Construction validates the table (validate_table_spec), so every spec is
    the table of a group.
    """

    n: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        validate_table_spec(self)

    @cached_property
    def generators(self) -> list[int]:
        """The greedy generating set, found once per spec (validation and build share it)."""
        return _greedy_generators(self.table)


def _greedy_generators(table: Sequence[Sequence[int]]) -> list[int]:
    n = len(table)
    gens: list[int] = []
    reached = {0}
    while len(reached) < n:
        candidate = next(i for i in range(n) if i not in reached)
        gens.append(candidate)
        frontier = list(reached)
        reached.add(candidate)
        frontier.append(candidate)
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    b = table[a][g]
                    if b not in reached:
                        reached.add(b)
                        nxt.append(b)
            frontier = nxt
    return gens


def validate_table_spec(spec: TableGroupSpec) -> None:
    """Permutation rows, identity row and column, and associativity, all exact.

    A row of n entries whose set is {0, ..., n-1} is a permutation, so the row
    check is also the range check. Light's test: the g with (a*g)*b == a*(g*b)
    for all a, b are closed under products, so checking a generating set
    proves associativity; for fixed a and g each side is a row, so each pair
    (a, g) is one tuple compare. Columns need no scan: an associative table
    with an identity and permutation rows gives every element a right inverse,
    so it is a group, and every column of a group table is a permutation.
    """
    n = spec.n
    table = spec.table
    if len(table) != n or any(len(r) != n for r in table):
        raise MalformedInputError("table shape does not match the declared order")
    full = set(range(n))
    for i, row in enumerate(table):
        if set(row) != full:
            raise MalformedInputError(f"row {i} is not a permutation")
    ident = tuple(range(n))
    if table[0] != ident or tuple(row[0] for row in table) != ident:
        raise MalformedInputError("index 0 must act as the identity")
    for g in spec.generators:
        compose = operator.itemgetter(*table[g])
        for a, row in enumerate(table):
            if table[row[g]] != compose(row):
                b = next(b for b in range(n) if table[row[g]][b] != row[table[g][b]])
                raise MalformedInputError(f"associativity fails at ({a},{g},{b})")


def _index_codes(n: int):
    """decode, parse_element and format_element of the codes 0..n-1 (table and cyclic)."""
    width = len(str(n - 1))

    def decode(code: ElementCode) -> int:
        if type(code) is not int or not 0 <= code < n:
            raise MalformedInputError(f"unknown element code {code!r}")
        return code

    def parse_element(text: str) -> ElementCode:
        (i,) = read_ints(text, "element", 1)
        if not 0 <= i < n:
            raise MalformedInputError(f"element index {i} out of range")
        return i

    def format_element(code: ElementCode) -> str:
        return str(decode(code)).zfill(width)

    return decode, parse_element, format_element


def table_group(spec: TableGroupSpec, name: str = "table") -> GroupHandle:
    table = spec.table
    inverse = [row.index(0) for row in table]
    decode, parse_element, format_element = _index_codes(spec.n)

    def mul(a: ElementCode, b: ElementCode) -> ElementCode:
        return table[decode(a)][decode(b)]

    def inv(a: ElementCode) -> ElementCode:
        return inverse[decode(a)]

    return GroupHandle(spec.generators, mul, inv, parse_element, format_element, name=name)


def cyclic_group(n: int, name: Optional[str] = None) -> GroupHandle:
    """Z_n with table-style index codes but a computed law (usable at any n)."""
    if n < 1:
        raise MalformedInputError("cyclic group order must be >= 1")
    decode, parse_element, format_element = _index_codes(n)

    def mul(a: ElementCode, b: ElementCode) -> ElementCode:
        return (decode(a) + decode(b)) % n

    def inv(a: ElementCode) -> ElementCode:
        return -decode(a) % n

    gens = [] if n == 1 else [1]
    return GroupHandle(gens, mul, inv, parse_element, format_element, name=name or f"Z{n}")


# --- Semidirect-product backend ----------------------------------------------

_FACTOR_LIMIT = 2**32  # below it, trial division of m takes at most ~33 000 steps


@dataclass(frozen=True)
class SemidirectGroupSpec:
    """A x| Z_m for abelian A = Z_{q_1} x ... x Z_{q_s} (qs = action.moduli), action of order | m.

    Elements are pairs (a, j) with a an exponent tuple reduced per coordinate
    and j in {0, ..., m-1}, multiplied by the law in the module docstring.
    The group's element code of (a, j) is word(a)*m + j, with
    word(a) = sum a_i 2^off_i over big-endian bit fields of width bits(2 q_i)
    (module docstring), so codes sort like the (a, j) tuples; its text form is
    `a_1,...,a_s;j` with each field zero-padded to the width of its largest value.
    Construction checks m, gcd(|A|, m), the action's order, the generator
    ranges and that the generators generate the group;
    autring.blocks_from_rows builds a valid action from a full matrix.
    """

    m: int
    action: autring.AutBlocks
    generators: Optional[tuple[tuple[tuple[int, ...], int], ...]] = None

    def __post_init__(self):
        if self.m < 1:
            raise MalformedInputError("m must be >= 1")
        a_order = math.prod(self.qs)
        if math.gcd(a_order, self.m) != 1:
            raise MalformedInputError(f"gcd(|A|={a_order}, m={self.m}) must be 1")
        if self.action_period is None:
            raise MalformedInputError("action order does not divide m")
        if self.generators is None:
            return
        for a, j in self.generators:
            if not self.in_range(a, j):
                raise MalformedInputError(f"generator {(a, j)} out of range")
        _require_generation(self)

    @property
    def qs(self) -> tuple[int, ...]:
        return self.action.moduli

    def in_range(self, a: Sequence[int], j: int) -> bool:
        """Whether (a, j) is an element: s entries with 0 <= a_i < q_i, and 0 <= j < m."""
        return len(a) == len(self.qs) and all(0 <= x < q for x, q in zip(a, self.qs)) and 0 <= j < self.m

    @cached_property
    def action_period(self) -> Optional[int]:
        """ord(M), found from the divisors of m; None when M^m != 1.

        For m above _FACTOR_LIMIT, where trial division of m could take
        billions of steps, it is m itself (a multiple of ord(M)) once M^m = 1
        is checked.
        """
        rows, qs, m = self.action.rows, self.qs, self.m
        if m <= _FACTOR_LIMIT:
            return autring.matrix_order(self.action, multiple=m)
        return m if autring.mat_pow(rows, m, qs) == autring.mat_pow(rows, 0, qs) else None


# Worst tracemalloc peak per entry of _Memo fills of 32 to 131 072 int pairs in [2^61, 2^90), CPython 3.11
IMAGE_ENTRY_BYTES = 188


class _Memo(dict):
    """key -> fn(key), computed on first use and kept while the GRPEXT_MEM_MB cap has room."""

    # no cap is below it (1 MiB at IMAGE_ENTRY_BYTES = 188 is 5 577 entries), so a memo
    # reads GRPEXT_MEM_MB only once it holds this many
    cap = 1024

    def __init__(self, fn: Callable[[int], int]):
        self.fn = fn

    def __missing__(self, key: int) -> int:
        value = self.fn(key)
        if len(self) == self.cap == _Memo.cap:
            self.cap = _max_table_entries(IMAGE_ENTRY_BYTES)
        if len(self) < self.cap:
            self[key] = value
        return value


def _require_generation(spec: SemidirectGroupSpec) -> None:
    """Raise MalformedInputError unless the generators generate A x| Z_m.

    Exact, without enumerating the group. The j-parts must generate Z_m, so some element
    of S = <gens> acts on A as M. Let N be the M-closed subgroup of A generated by the
    generators in A, g^m for each other (moving) generator g and [g, h] = (gh)(hg)^{-1} for
    each pair of moving ones. N lies in S and is normal there, and S/N is abelian of exponent
    dividing m, so (S ∩ A)/N, of order dividing |A| and a power of m, is trivial: S = A x| Z_m
    iff N = A. By the Burnside basis theorem N = A iff its image in each A_p/pA_p spans it.
    """
    m, action = spec.m, spec.action
    *oracles, decode = _semidirect_oracles(spec)  # the code layout is written once
    G = GroupHandle(*oracles)

    moving = [g for g in G.generators if g % m]
    if math.gcd(m, *(g % m for g in moving)) != 1:
        raise MalformedInputError(f"the generators' j-parts do not generate Z_{m}")
    vectors = [g for g in G.generators if not g % m] + [group_pow(G, g, m) for g in moving]
    vectors += [G.mul(G.mul(g, h), G.inv(G.mul(h, g))) for g, h in itertools.combinations(moving, 2)]
    vectors = [decode(v)[0] for v in vectors]
    start = 0
    for block in action.blocks:
        p, stop = block.ptype.p, start + block.ptype.s
        basis: list[tuple[int, list[int]]] = []  # (pivot, row with 1 at pivot)
        queue = [[x % p for x in v[start:stop]] for v in vectors]
        while queue and len(basis) < stop - start:
            v = queue.pop()
            for pivot, row in basis:
                if v[pivot]:
                    c = v[pivot]
                    v = [(x - c * y) % p for x, y in zip(v, row)]
            pivot = next((i for i, x in enumerate(v) if x), None)
            if pivot is None:
                continue
            scale = pow(v[pivot], -1, p)
            v = [x * scale % p for x in v]
            basis.append((pivot, v))
            queue.append(autring.mat_vec(block.rows, v, (p,) * len(v)))
        if len(basis) < stop - start:
            raise MalformedInputError(
                f"the generators do not generate the {p}-part of A (rank {len(basis)} of {stop - start})"
            )
        start = stop


def semidirect_group(spec: SemidirectGroupSpec, name: str = "semidirect") -> GroupHandle:
    """Oracles on the integer codes of SemidirectGroupSpec, built by _semidirect_oracles.

    M^r is a _Memo by r = j mod period (its GRPEXT_MEM_MB cap counts IMAGE_ENTRY_BYTES per
    entry; an s x s matrix takes more). For s = 1 (cyclic A, as in Z_p x| Z_{p-1}) M^r is the
    scalar c_r, so a product is integer arithmetic on the two codes. For s >= 2 it adds word(a),
    word(M^j b) (a _Memo by r and word(b)) and K = sum (2^(w_i - 1) - q_i) 2^off_i: field i then
    has its top bit set iff it is >= q_i, and a _Memo by those bits gives what to take off.
    """
    *oracles, _ = _semidirect_oracles(spec)
    return GroupHandle(*oracles, name=name)


def _semidirect_oracles(spec: SemidirectGroupSpec):
    """generators, mul, inv, parse_element, format_element, and decode: code -> (a, j)."""
    qs = spec.qs
    m = spec.m
    s = len(qs)
    period = spec.action_period
    text_widths = [len(str(q - 1)) for q in qs]
    jwidth = len(str(m - 1))

    if s == 1:  # the code is a*m + j and M^r is the scalar c_r: no coordinate list
        (q,) = qs
        order, K, TOP, offs, masks = q * m, 0, 0, (0,), (-1,)  # word(a) = a: one field, unmasked
        c = _Memo(lambda r: pow(spec.action.rows[0][0], r, q))

        def mul(x: ElementCode, y: ElementCode) -> ElementCode:
            if type(x) is not int or type(y) is not int or not (0 <= x < order and 0 <= y < order):
                decode(x), decode(y)  # raises for the unknown code
            (a, j), (b, k) = divmod(x, m), divmod(y, m)
            return ((a + c[j % period] * b) % q if b else a) * m + (j + k) % m

        def inv(x: ElementCode) -> ElementCode:
            if type(x) is not int or not 0 <= x < order:
                decode(x)
            a, j = divmod(x, m)
            return -c[-j % period] * a % q * m + -j % m

    else:
        offs, masks, K, TOP, W = [], [], 0, 0, 0  # per field, built from the low field up
        for q in reversed(qs):
            w = (2 * q).bit_length()
            offs[:0], masks[:0] = [W], [(1 << w) - 1]
            K, TOP, W = K + ((1 << w - 1) - q << W), TOP | 1 << W + w - 1, W + w
        order = m << W  # every code is below it
        powers = _Memo(lambda r: autring.mat_pow(spec.action.rows, r, qs))
        images = _Memo(lambda key: word(autring.mat_vec(powers[key >> W], fields(key), qs)))  # fields drop r
        reduce = _Memo(lambda top: K + sum(q << off for q, off, f in zip(qs, offs, masks) if top >> off & f))

        def mul(x: ElementCode, y: ElementCode) -> ElementCode:
            if type(x) is int and type(y) is int and 0 <= x < order and 0 <= y < order:
                aw, j = divmod(x, m)
                bw, k = divmod(y, m)
                if not (aw | aw + K | bw | bw + K) & TOP:  # no field >= q_i, none that would carry
                    d = aw + images[j % period << W | bw] + K  # key: r = j mod period, then word(b)
                    return (d - reduce[d & TOP]) * m + (j + k) % m
            decode(x), decode(y)  # raises for the unknown code

        def inv(x: ElementCode) -> ElementCode:
            a, j = decode(x)
            return encode([-v % q for v, q in zip(autring.mat_vec(powers[-j % period], a, qs), qs)], -j % m)

    def word(a: Sequence[int]) -> int:
        return sum(map(operator.lshift, a, offs))

    def fields(w: int) -> list[int]:
        return [w >> off & f for off, f in zip(offs, masks)]

    def encode(a: Sequence[int], j: int) -> ElementCode:
        return word(a) * m + j

    def decode(code: ElementCode) -> tuple[list[int], int]:
        if type(code) is int and 0 <= code < order and not (code // m | code // m + K) & TOP:
            return fields(code // m), code % m
        raise MalformedInputError(f"unknown element code {code!r}")

    if spec.generators is not None:
        gens = [encode(a, j) for a, j in spec.generators]
    else:
        gens = [encode([int(t == i) for t in range(s)], 0) for i in range(s)]
        if m > 1:
            gens.append(encode([0] * s, 1))

    def parse_element(text: str) -> ElementCode:
        apart, semi, jpart = text.partition(";")
        if not semi or len(text.split()) != 1:
            raise MalformedInputError(f"bad element {text[:30]!r}; want a1,...,as;j")
        what = f"field of element {text[:30]!r}"
        *a, j = (read_ints(field, what, 1)[0] for field in apart.split(",") + [jpart])
        if not spec.in_range(a, j):
            raise MalformedInputError(f"element {text[:30]!r} out of range")
        return encode(a, j)

    def format_element(code: ElementCode) -> str:
        a, j = decode(code)
        return ",".join(map(str.zfill, map(str, a), text_widths)) + ";" + str(j).zfill(jwidth)

    return gens, mul, inv, parse_element, format_element, decode


# --- Group description files --------------------------------------------------


def parse_group_file(text: str):
    """Parse a group file into a TableGroupSpec or SemidirectGroupSpec.

    The text formats, stated once. Lines are stripped, blank lines and `#`
    comments dropped; a keyword is the whole first word of its line; an
    integer is ASCII [+-]?[0-9]+ of at most 4300 digits; each line holds
    exactly the integers named, or MalformedInputError names the line.
      group file    `table n` and n rows of n integers (row a lists a*b, 0 is
                    the identity), or `semidirect`, `A q_1 ... q_s`, `m m`, s
                    action rows of s integers and any `gens a_1 ... a_s j` lines
      matrix file   `ptype p e_1 ... e_s` and s rows of s integers
      element text  one token: `i` (table, cyclic) or `a_1,...,a_s;j` (semidirect)
    A table row of canonical labels `0`..`n-1` is read through one index of
    them, so all n² entries share its n ints; any other row goes to read_ints,
    which reads every other spelling and words every rejection. A row is
    checked for length only: validate_table_spec's permutation check is also
    its range check, and columns need no scan.
    """
    lines = content_lines(text)
    if not lines:
        raise MalformedInputError("empty group file")
    kind = lines[0].split()[0]
    if kind == "table":
        (n,) = keyword_ints(lines[0], "table", 1)
        if n < 1:
            raise MalformedInputError("table order must be >= 1")
        if len(lines) != 1 + n:
            raise MalformedInputError(f"expected {n} table rows, got {len(lines) - 1}")
        index = {str(i): i for i in range(n)}
        rows = []
        for i, ln in enumerate(lines[1:]):
            try:
                row = tuple(map(index.__getitem__, ln.split()))
            except KeyError:
                row = ()
            rows.append(row if len(row) == n else read_ints(ln, f"row {i}", n))
        return TableGroupSpec(n, tuple(rows))
    if kind == "semidirect":
        keyword_ints(lines[0], "semidirect", 0)
        if len(lines) < 3:
            raise MalformedInputError("semidirect body must start with `A ...` then `m ...`")
        qs = keyword_ints(lines[1], "A")
        (m,) = keyword_ints(lines[2], "m", 1)
        if not qs:
            raise MalformedInputError("A line needs at least one prime power")
        s = len(qs)
        if len(lines) < 3 + s:
            raise MalformedInputError(f"expected {s} action rows")
        rows = [read_ints(ln, f"action row {i}", s) for i, ln in enumerate(lines[3 : 3 + s], 1)]
        gens = [keyword_ints(ln, "gens", s + 1) for ln in lines[3 + s :]]
        action = autring.blocks_from_rows(qs, rows)
        return SemidirectGroupSpec(m, action, tuple((g[:s], g[s]) for g in gens) or None)
    raise MalformedInputError(f"unknown group kind {kind[:30]!r}")


def build_group(spec, name: str = "group") -> GroupHandle:
    if isinstance(spec, TableGroupSpec):
        return table_group(spec, name=name)
    if isinstance(spec, SemidirectGroupSpec):
        return semidirect_group(spec, name=name)
    raise MalformedInputError(f"cannot build a group from {type(spec).__name__}")


def load_group(text: str, name: str = "group") -> GroupHandle:
    return build_group(parse_group_file(text), name=name)


def format_semidirect_file(spec: SemidirectGroupSpec, comment: str = "") -> str:
    out = [f"# {comment}"] if comment else []
    out += ["semidirect", "A " + " ".join(map(str, spec.qs)), f"m {spec.m}"]
    out += [" ".join(map(str, row)) for row in spec.action.rows]
    out += ["gens " + " ".join(map(str, (*a, j))) for a, j in spec.generators or ()]
    return "\n".join(out) + "\n"

