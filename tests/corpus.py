"""Shared test corpus: a zoo of small groups plus naive reference oracles.

The oracles here work purely by enumeration over element closures (never
through baby-step tables, basis machinery, or the matrix ring), so they stay
independent of the code paths they are used to check.
"""

from __future__ import annotations

import collections
import contextlib
import importlib.util
import itertools
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from grpext import autring, blackbox
from grpext.abelian import DecompositionTable
from grpext.arith import divisors, trial_factor
from grpext.blackbox import ElementCode, GroupHandle, TableGroupSpec, group_pow
from grpext.errors import InvariantBreachError, MalformedInputError


LADDER_PATH = Path(__file__).resolve().parent.parent / "bench" / "ladder.py"


@contextlib.contextmanager
def bench_ladder():
    """bench/ladder.py, loaded by path and only read. It writes the benchmark's
    group files with its own arithmetic, never through grpext."""
    spec = importlib.util.spec_from_file_location("bench_ladder", LADDER_PATH)
    ladder = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = ladder  # its dataclasses resolve their module by name
    try:
        spec.loader.exec_module(ladder)
        yield ladder
    finally:
        del sys.modules[spec.name]


def with_generators(G: GroupHandle, generators) -> GroupHandle:
    """A view of the same group with a different generator list (the caller's to get right)."""
    return GroupHandle(generators, G._mul, G._inv, name=G.name,
                       parse_element=G.parse_element, format_element=G.format_element)


def closure(G: GroupHandle, seeds, limit: Optional[int] = None) -> Optional[list[ElementCode]]:
    """Subgroup generated by seeds, as a sorted code list (breadth-first); None once
    it has more than limit elements. The enumeration ground truth of the oracles below."""
    seen = {G.identity}
    frontier = [G.identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in seeds:
                b = G.mul(a, g)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
                    if limit is not None and len(seen) > limit:
                        return None
        frontier = nxt
    return sorted(seen)


def counting_identity_products(G: GroupHandle) -> tuple[GroupHandle, collections.Counter]:
    """A view of the same group whose products count those with the identity
    as an operand, under the qualified name of every grpext or corpus function
    on the call stack (so a function's count includes its callees')."""
    counts: collections.Counter = collections.Counter()

    def mul(a, b):
        if G.identity in (a, b):
            frame = sys._getframe(2)  # the caller of GroupHandle.mul
            while frame is not None and frame.f_globals["__name__"].startswith(("grpext.", __name__)):
                counts[frame.f_code.co_qualname] += 1
                frame = frame.f_back
        return G._mul(a, b)

    view = GroupHandle(G.generators, mul, G._inv, name=G.name,
                       parse_element=G.parse_element, format_element=G.format_element)
    return view, counts


def cyclic_table_spec(n: int) -> TableGroupSpec:
    return TableGroupSpec(n, tuple(tuple((i + j) % n for j in range(n)) for i in range(n)))


def dihedral_table(n: int) -> GroupHandle:
    """The dihedral group of order 2n as the Cayley table of x -> +-x + r on Z_n (n >= 3)."""
    perms = [tuple((s * x + r) % n for x in range(n)) for s in (1, -1) for r in range(n)]  # identity first
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(tuple(index[tuple(a[x] for x in b)] for b in perms) for a in perms)
    return blackbox.table_group(TableGroupSpec(2 * n, table), name=f"D{n}")


def symmetric_table(n: int) -> GroupHandle:
    """The symmetric group on n points as the Cayley table of its permutations."""
    perms = list(itertools.permutations(range(n)))  # identity first
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(tuple(index[tuple(a[x] for x in b)] for b in perms) for a in perms)
    return blackbox.table_group(TableGroupSpec(len(perms), table), name=f"S{n}")


def quaternion_table() -> GroupHandle:
    """The quaternion group Q8 as the Cayley table of 1, -1, i, -i, j, -j, k, -k."""
    units = [(s, a) for a in "1ijk" for s in (1, -1)]  # identity first

    def mul(x, y):
        (s, a), (t, b) = x, y
        if "1" in (a, b):
            return s * t, b if a == "1" else a
        if a == b:
            return -s * t, "1"
        return s * t * (1 if a + b in ("ij", "jk", "ki") else -1), ({"i", "j", "k"} - {a, b}).pop()

    index = {u: i for i, u in enumerate(units)}
    table = tuple(tuple(index[mul(x, y)] for y in units) for x in units)
    return blackbox.table_group(TableGroupSpec(8, table), name="Q8")


def direct_product(G: GroupHandle, H: GroupHandle) -> GroupHandle:
    """G x H as the Cayley table of the pairs (g, h), numbered |H| * g + h over
    the materialized tables, so the identity stays at 0."""
    a, b = materialize_table(G), materialize_table(H)
    n = a.n * b.n
    table = tuple(
        tuple(a.table[i // b.n][j // b.n] * b.n + b.table[i % b.n][j % b.n] for j in range(n))
        for i in range(n)
    )
    return blackbox.table_group(TableGroupSpec(n, table), name=f"{G.name}x{H.name}")


def write_table(path, G: GroupHandle) -> None:
    """Write a small black-box group as a `table` group file."""
    spec = materialize_table(G)
    path.write_text(f"table {spec.n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in spec.table))


def materialize_table(G: GroupHandle, limit: int = 4096) -> TableGroupSpec:
    """Cayley table of a small black-box group, identity mapped to index 0."""
    elements = closure(G, G.generators, limit=limit)
    if elements is None:
        raise MalformedInputError(f"subgroup has more than {limit} elements")
    elements.remove(G.identity)
    elements.insert(0, G.identity)
    index = {c: i for i, c in enumerate(elements)}
    n = len(elements)
    table = tuple(
        tuple(index[G.mul(elements[i], elements[j])] for j in range(n)) for i in range(n)
    )
    return TableGroupSpec(n, table)


def is_in_N(u: autring.AutMatrix) -> bool:
    """Kernel pattern of psi: diagonal blocks congruent to the identity mod p."""
    p = u.ptype.p
    return all(
        (u.rows[i][j] - int(i == j)) % p == 0
        for _, start, stop in u.ptype.block_structure()
        for i in range(start, stop)
        for j in range(start, stop)
    )


def walked_order(u: autring.AutMatrix, cap: int) -> Optional[int]:
    """The least n <= cap with u^n = I, walking u, u^2, ... with one mat_mul each; None past cap."""
    ident, w = autring.identity_matrix(u.ptype).rows, u.rows
    for n in range(1, cap + 1):
        if w == ident:
            return n
        w = autring.mat_mul(w, u.rows, u.moduli)
    return None


def format_matrix(u: autring.AutMatrix) -> str:
    """The text that autring.parse_matrix_file reads back."""
    head = "ptype " + str(u.ptype.p) + " " + " ".join(str(e) for e in u.ptype.exps)
    body = "\n".join(" ".join(str(x) for x in row) for row in u.rows)
    return head + "\n" + body + "\n"


def strip_mu(witness):
    """Reference mu(x * y1^j) = psi(x) * y2^{k j}: j is found by stripping y1
    from the right, up to gamma times, until the rest decomposes over A1's basis."""
    G, H = witness.source.G, witness.target.G
    sd1, sd2 = witness.source, witness.target
    table = DecompositionTable(G, sd1.a_basis.elements, sd1.a_basis.orders)
    y1_inv = G.inv(sd1.y)

    def mu(g):
        w = g
        for j in range(sd1.gamma):
            vec = table.decompose(w)
            if vec is None:
                w = G.mul(w, y1_inv)
                continue
            out = H.identity
            mapped = autring.mat_vec(witness.psi_blocks.rows, vec, witness.psi_blocks.moduli)
            for h, e in zip(sd2.a_basis.elements, mapped):
                out = H.mul(out, group_pow(H, h, e))
            return H.mul(out, group_pow(H, sd2.y, witness.k * j % sd1.gamma))
        raise InvariantBreachError("element does not factor over the decomposition")

    return mu


def mixed_generators(G: GroupHandle) -> GroupHandle:
    """A second generating set: fold the first generator into the second."""
    gens = G.generators
    if not gens:
        return with_generators(G, [])
    if len(gens) == 1:
        return with_generators(G, [gens[0], G.mul(gens[0], gens[0])])
    folded = [G.mul(gens[0], gens[1])] + list(gens[1:])
    return with_generators(G, folded)


def relabel(G: GroupHandle, rng) -> GroupHandle:
    """G as a Cayley table with the identity kept at 0 and the other labels
    shuffled by rng; the table backend picks its greedy generators again."""
    spec = materialize_table(G)
    n = spec.n
    label = [0] + rng.sample(range(1, n), n - 1)
    table = [[0] * n for _ in range(n)]
    for i, row in enumerate(spec.table):
        for j, k in enumerate(row):
            table[label[i]][label[j]] = label[k]
    return blackbox.table_group(TableGroupSpec(n, tuple(map(tuple, table))), name=G.name + "~")


def semidirect(qs, m, rows, gens=None, name="G"):
    action = autring.blocks_from_rows(qs, rows)
    spec = blackbox.SemidirectGroupSpec(m, action, tuple(gens) if gens else None)
    return blackbox.semidirect_group(spec, name=name)


def make_matrix(ptype: autring.PType, rows) -> autring.AutMatrix:
    """Reduce each row i mod p^{e_i}, then autring.validate_M."""
    if len(rows) != ptype.s or any(len(r) != ptype.s for r in rows):
        raise MalformedInputError(f"matrix must be {ptype.s}x{ptype.s}")
    return autring.validate_M(ptype, [[x % q for x in row] for row, q in zip(rows, ptype.moduli)])


def table_from(handle: GroupHandle, name: str) -> GroupHandle:
    return blackbox.table_group(materialize_table(handle), name=name)


@dataclass(frozen=True)
class Semidirect:
    """A corpus group A x| Z_m, A = prod Z_q over qs, acting by the full matrix rows;
    called with gens, the same group on those generators."""

    qs: tuple
    m: int
    rows: list
    name: str

    def __call__(self, gens=None) -> GroupHandle:
        return semidirect(self.qs, self.m, self.rows, gens=gens, name=self.name)


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    gamma: int
    order: int
    semidirect: Optional[Semidirect]  # None for a Cayley table


def _builders():
    ident = lambda n: [[int(i == j) for j in range(n)] for i in range(n)]
    return {
        # abelian, gamma = 1
        "Z12_table": (1, 12, lambda: blackbox.table_group(cyclic_table_spec(12), name="Z12")),
        "Z72": (1, 72, Semidirect((8, 9), 1, ident(2), "Z72")),
        "Z2xZ4xZ9": (1, 72, Semidirect((2, 4, 9), 1, ident(3), "Z2xZ4xZ9")),
        "Z100": (1, 100, Semidirect((4, 25), 1, ident(2), "Z100")),
        "Z2^3_table": (1, 8, lambda: table_from(semidirect((2, 2, 2), 1, ident(3)), "Z2^3")),
        "Z49": (1, 49, Semidirect((49,), 1, ident(1), "Z49")),
        "Z75": (1, 75, Semidirect((3, 25), 1, ident(2), "Z75")),
        # gamma = 2
        "S3_table": (2, 6, lambda: table_from(semidirect((3,), 2, [[2]]), "S3")),
        "D7": (2, 14, Semidirect((7,), 2, [[6]], "D7")),
        "D7_table": (2, 14, lambda: table_from(semidirect((7,), 2, [[6]]), "D7t")),
        "Z9xZ2_inv": (2, 18, Semidirect((9,), 2, [[8]], "Z9:Z2")),
        "Z3Z9xZ2_inv": (2, 54, Semidirect((3, 9), 2, [[2, 0], [0, 8]], "Z3Z9:Z2")),
        "Z15xZ2_inv": (2, 30, Semidirect((3, 5), 2, [[2, 0], [0, 4]], "Z15:Z2")),
        "Z5xZ2_inv": (2, 10, Semidirect((5,), 2, [[4]], "Z5:Z2")),
        "Z21xZ2_inv": (2, 42, Semidirect((3, 7), 2, [[2, 0], [0, 6]], "Z21:Z2")),
        "Z5^2xZ2_inv": (2, 50, Semidirect((5, 5), 2, [[4, 0], [0, 4]], "Z5^2:Z2")),
        "swap18": (2, 18, Semidirect((3, 3), 2, [[0, 1], [1, 0]], "swap18")),
        # gamma = 3
        "G21a": (3, 21, Semidirect((7,), 3, [[2]], "G21a")),
        "G21b": (3, 21, Semidirect((7,), 3, [[4]], "G21b")),
        "A4": (3, 12, Semidirect((2, 2), 3, [[0, 1], [1, 1]], "A4")),
        "A4_table": (3, 12, lambda: table_from(semidirect((2, 2), 3, [[0, 1], [1, 1]]), "A4t")),
        "Z20xZ3": (3, 60, Semidirect((2, 2, 5), 3, [[0, 1, 0], [1, 1, 0], [0, 0, 1]], "Z20:Z3")),
        "Z13xZ3_a": (3, 39, Semidirect((13,), 3, [[3]], "Z13:Z3a")),
        "Z13xZ3_b": (3, 39, Semidirect((13,), 3, [[9]], "Z13:Z3b")),
        # gamma = 4
        "Z3xZ4": (4, 12, Semidirect((3,), 4, [[2]], "Z3:Z4")),
        "Z9xZ4": (4, 36, Semidirect((9,), 4, [[8]], "Z9:Z4")),
        "Z3^2xZ4_diag": (4, 36, Semidirect((3, 3), 4, [[2, 0], [0, 1]], "Z3^2:Z4d")),
        "Z3^2xZ4_W": (4, 36, Semidirect((3, 3), 4, [[0, 2], [1, 0]], "Z3^2:Z4w")),
        "Z3^2xZ4_negI": (4, 36, Semidirect((3, 3), 4, [[2, 0], [0, 2]], "Z3^2:Z4n")),
        "Z5xZ4_a": (4, 20, Semidirect((5,), 4, [[2]], "Z5:Z4a")),
        "Z5xZ4_b": (4, 20, Semidirect((5,), 4, [[3]], "Z5:Z4b")),
        "Z13xZ4": (4, 52, Semidirect((13,), 4, [[5]], "Z13:Z4")),
        # gamma = 6
        "Z7xZ6_a": (6, 42, Semidirect((7,), 6, [[3]], "Z7:Z6a")),
        "Z7xZ6_b": (6, 42, Semidirect((7,), 6, [[5]], "Z7:Z6b")),
        "Z13xZ6": (6, 78, Semidirect((13,), 6, [[4]], "Z13:Z6")),
    }


def corpus_names() -> list[str]:
    return list(_builders())


def corpus_entry(name: str) -> CorpusEntry:
    gamma, order, make = _builders()[name]
    return CorpusEntry(name, gamma, order, make if isinstance(make, Semidirect) else None)


def build(name: str) -> GroupHandle:
    return _builders()[name][2]()


F8_Z7_ROWS = [[0, 0, 1], [1, 0, 1], [0, 1, 0]]  # companion matrix of x^3 + x + 1


def second_presentations() -> dict[str, tuple[GroupHandle, GroupHandle]]:
    """name -> (G on the generators a*y and y, the same group on its defaults).

    On these generating sets the commutators of the generators, even
    conjugated once by every generator, span a proper subgroup of G'.
    """
    return {
        "F8xZ7": (
            semidirect((2, 2, 2), 7, F8_Z7_ROWS, gens=[((0, 0, 0), 1), ((1, 0, 0), 1)], name="F8:Z7ay"),
            semidirect((2, 2, 2), 7, F8_Z7_ROWS, name="F8:Z7"),
        ),
        "A4": (
            semidirect((2, 2), 3, [[0, 1], [1, 1]], gens=[((1, 1), 1), ((0, 0), 1)], name="A4ay"),
            build("A4"),
        ),
    }


def drawn_generators(G: GroupHandle, rng) -> GroupHandle:
    """A view of G on random elements, drawn one at a time until their closure
    is the whole group."""
    elements = closure(G, G.generators)
    gens: list = []
    while len(closure(G, gens)) < len(elements):
        gens.append(rng.choice(elements))
    return with_generators(G, gens)


def random_generators(name: str, rng) -> GroupHandle:
    """The corpus group on random elements, drawn one at a time until they
    generate it: by drawn_gens, or for a Cayley table, by drawn_generators."""
    spec = corpus_entry(name).semidirect
    return drawn_generators(build(name), rng) if spec is None else drawn_gens(spec, rng)


def drawn_gens(spec: Semidirect, rng) -> GroupHandle:
    """spec's group on random `gens`, drawn one at a time until SemidirectGroupSpec accepts them."""
    gens: list = []
    while True:
        gens.append((tuple(rng.randrange(q) for q in spec.qs), rng.randrange(spec.m)))
        try:
            return spec(gens)
        except MalformedInputError:
            continue


def represent(name: str, rng) -> GroupHandle:
    """A semidirect corpus group re-presented by (a, j) -> (U a, j / r) for a
    random unit U and r prime to m: the action becomes U M^r U^-1 and the
    generators (U e_i, 0) and (0, r^-1 mod m)."""
    spec = corpus_entry(name).semidirect
    action = autring.blocks_from_rows(spec.qs, spec.rows)
    r = rng.choice([x for x in range(1, spec.m + 1) if math.gcd(x, spec.m) == 1])
    units, blocks = [], []
    for block in action.blocks:
        u = autring.random_unit(block.ptype, rng)
        one = u_inv = autring.identity_matrix(block.ptype)
        while autring.star_mul(u_inv, u) != one:
            u_inv = autring.star_mul(u_inv, u)
        units.append(u)
        blocks.append(autring.star_mul(autring.star_mul(u, autring.star_pow(block, r)), u_inv))
    u_rows, s = autring.AutBlocks(tuple(units)).rows, len(spec.qs)
    gens = [(tuple(row[i] for row in u_rows), 0) for i in range(s)]
    gens.append(((0,) * s, pow(r, -1, spec.m)))
    rows = autring.AutBlocks(tuple(blocks)).rows
    return semidirect(spec.qs, spec.m, rows, gens=gens, name=spec.name + "'")


# pairs expected isomorphic (all other distinct pairs are not)
ISOMORPHIC_PAIRS = {
    frozenset({"D7", "D7_table"}),
    frozenset({"G21a", "G21b"}),
    frozenset({"A4", "A4_table"}),
    frozenset({"Z13xZ3_a", "Z13xZ3_b"}),
    frozenset({"Z5xZ4_a", "Z5xZ4_b"}),
    frozenset({"Z7xZ6_a", "Z7xZ6_b"}),
}


def expected_isomorphic(name_a: str, name_b: str) -> bool:
    return name_a == name_b or frozenset({name_a, name_b}) in ISOMORPHIC_PAIRS


# --- naive oracles ----------------------------------------------------------


def naive_order(G: GroupHandle, g) -> int:
    n = 1
    w = g
    while w != G.identity:
        w = G.mul(w, g)
        n += 1
    return n


def naive_power(G: GroupHandle, g, n: int):
    out = G.identity
    for _ in range(n):
        out = G.mul(out, g)
    return out


def naive_derived_subgroup(G: GroupHandle, elements) -> list:
    invs = [G.inv(b) for b in elements]
    comms = set()
    for a, ia in zip(elements, invs):
        for b, ib in zip(elements, invs):
            comms.add(G.mul(G.mul(a, b), G.mul(ia, ib)))
    return closure(G, sorted(comms))


def naive_decomposition_exists(G: GroupHandle, elements, derived, m: int) -> bool:
    """Whether the group splits at m: checked from first principles.

    The abelian part of any split at m is forced to be the subgroup generated
    by the derived subgroup and all m-th powers, so it suffices to test that
    subgroup's size, commutativity and coprimality, plus the existence of an
    element of order m.
    """
    n = len(elements)
    if n % m:
        return False
    seeds = set(derived)
    for g in elements:
        seeds.add(naive_power(G, g, m))
    part = closure(G, sorted(seeds))
    if len(part) != n // m or math.gcd(len(part), m) != 1:
        return False
    for a in part:
        for b in part:
            if G.mul(a, b) != G.mul(b, a):
                return False
    return any(naive_order(G, z) == m for z in elements)


def naive_gamma(G: GroupHandle) -> Optional[int]:
    elements = closure(G, G.generators)
    derived = naive_derived_subgroup(G, elements)
    for m in divisors(len(elements)):
        if naive_decomposition_exists(G, elements, derived, m):
            return m
    return None


def naive_in_class(G: GroupHandle) -> bool:
    """Whether G has a normal abelian A with G/A cyclic and gcd(|A|, |G/A|) = 1,
    checked from first principles (for groups of at most a few hundred elements).

    Such an A is a normal Hall subgroup, so it holds every element whose order
    divides |A|, and nothing else. G/A, of order m, is then cyclic exactly when
    G has an element of order m, whose powers meet A trivially.
    """
    elements = closure(G, G.generators)
    n = len(elements)
    orders = {g: naive_order(G, g) for g in elements}
    for m in divisors(n):
        a = n // m
        part = [g for g in elements if a % orders[g] == 0]
        if math.gcd(a, m) != 1 or len(part) != a or m not in orders.values():
            continue
        if all(G.mul(x, y) == G.mul(y, x) and a % orders[G.mul(x, y)] == 0 for x in part for y in part):
            return True
    return False


def _order_profile(G: GroupHandle, elements) -> dict[int, int]:
    profile: dict[int, int] = {}
    for g in elements:
        o = naive_order(G, g)
        profile[o] = profile.get(o, 0) + 1
    return profile


def naive_isomorphic(G: GroupHandle, H: GroupHandle) -> bool:
    """Brute-force oracle: a backtracking search for an isomorphism G -> H.

    The generators of G get their images one at a time, largest order first,
    each from the elements of H of the same order. After each choice the
    partial map f is closed by f(a g) = f(a) f(g) over the generators chosen
    so far, so it is defined on the subgroup they generate; the branch is
    pruned as soon as a product lands on an already-mapped element with a
    different image, or on an image that is taken. A generator that is
    already mapped adds nothing and is passed over. A map that reaches the
    last generator is an injective homomorphism of G into H, and |G| = |H|.
    """
    els_g = closure(G, G.generators)
    els_h = closure(H, H.generators)
    if len(els_g) != len(els_h):
        return False
    if _order_profile(G, els_g) != _order_profile(H, els_h):
        return False
    orders_h: dict[int, list] = {}
    for h in els_h:
        orders_h.setdefault(naive_order(H, h), []).append(h)
    gens = sorted(G.generators, key=lambda g: -naive_order(G, g))
    pools = [orders_h[naive_order(G, g)] for g in gens]

    def close(fmap: dict, pairs: list) -> Optional[dict]:
        """A copy of fmap, closed over the (g, f(g)) pairs, the last one new;
        None on a clash. The mapped elements owe only their products with it."""
        fmap, used = dict(fmap), set(fmap.values())
        queue = [(a, pairs[-1:]) for a in fmap]
        while queue:
            a, owed = queue.pop()
            for g, h in owed:
                b, image = G.mul(a, g), H.mul(fmap[a], h)
                if b in fmap:
                    if fmap[b] != image:
                        return None
                elif image in used:
                    return None
                else:
                    fmap[b] = image
                    used.add(image)
                    queue.append((b, pairs))
        return fmap

    def extend(fmap: dict, pairs: list, i: int) -> bool:
        while i < len(gens) and gens[i] in fmap:
            i += 1
        if i == len(gens):
            return True
        for h in pools[i]:
            closed = close(fmap, pairs + [(gens[i], h)])
            if closed is not None and extend(closed, pairs + [(gens[i], h)], i + 1):
                return True
        return False

    return extend({G.identity: H.identity}, [], 0)


def naive_is_isomorphism(G: GroupHandle, H: GroupHandle, mu) -> bool:
    """Whether mu is an isomorphism G -> H: mu(a b) = mu(a) mu(b) on all |G|^2
    pairs, and the images of G's elements are the elements of H, each once."""
    elements = closure(G, G.generators)
    images = {a: mu(a) for a in elements}
    if sorted(images.values()) != closure(H, H.generators):
        return False
    return all(images[G.mul(a, b)] == H.mul(images[a], images[b]) for a in elements for b in elements)


# --- census -----------------------------------------------------------------


def _partitions(e: int, least: int = 1) -> list[tuple[int, ...]]:
    """The partitions of e into parts >= least, each ascending."""
    if e == 0:
        return [()]
    return [(k,) + rest for k in range(least, e + 1) for rest in _partitions(e - k, k)]


def census(n_max: int) -> list[tuple[int, GroupHandle]]:
    """(order, group) for every A x|_M Z_m with |A| * m <= n_max and
    gcd(|A|, m) = 1, on its default generators: A of each abelian type and M
    every block-diagonal unit (enumerate_R per prime) with M^m = 1, ascending
    by order."""
    groups = []
    for a_order in range(1, n_max + 1):
        for ptypes in itertools.product(*(
            [autring.PType(p, exps) for exps in _partitions(e)] for p, e in trial_factor(a_order)
        )):
            for m in range(1, n_max // a_order + 1):
                if math.gcd(a_order, m) != 1:
                    continue
                one = [autring.identity_matrix(t) for t in ptypes]
                choices = [  # M = I at m = 1, where A may be Z_2^5 with 2^25 matrices to walk
                    [u for u in autring.enumerate_R(t) if autring.star_pow(u, m) == e] if m > 1 else [e]
                    for t, e in zip(ptypes, one)
                ]
                for blocks in itertools.product(*choices):
                    spec = blackbox.SemidirectGroupSpec(m, autring.AutBlocks(blocks))
                    name = f"{'x'.join(map(str, spec.action.moduli))}:{m}:{spec.action.rows}"
                    groups.append((a_order * m, blackbox.semidirect_group(spec, name=name)))
    return sorted(groups, key=lambda pair: pair[0])
